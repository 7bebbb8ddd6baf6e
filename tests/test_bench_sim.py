"""benchmarks/bench_sim.py at its smallest settings: one pass over the three
workload plans, in-process."""

import importlib.util
import json
import math
import os
import sys

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks", "bench_sim.py")
LAYERS = ("generate_gait", "degrade", "write_frames", "write_trajectory", "sum")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load(monkeypatch):
    """The script as a module; the sys.path entries and BLAS thread variables
    it sets are undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in BLAS_THREADS:
        monkeypatch.setitem(os.environ, var, "1")
    spec = importlib.util.spec_from_file_location("bench_sim", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_sim_writes_every_layer_of_every_workload(tmp_path, monkeypatch):
    bench_sim = _load(monkeypatch)
    monkeypatch.setattr(bench_sim, "REPEAT", 1)
    out = tmp_path / "BENCH_sim.json"
    assert bench_sim.main(["--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["repeat"] == 1
    assert sorted(result["workloads"]) == ["ckf_walk", "stair_trot", "wheel_cli"]
    for name, workload in result["workloads"].items():
        assert workload["frames"] > 0, name
        for figures in (workload["us_per_frame"], workload["raw_best_us_per_frame"]):
            assert tuple(figures) == LAYERS, name
            assert all(math.isfinite(v) and v > 0.0 for v in figures.values()), name
            assert math.isclose(figures["sum"], sum(figures[k] for k in LAYERS[:-1]),
                                abs_tol=0.05), name
