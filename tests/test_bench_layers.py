"""benchmarks/bench_layers.py at its smallest settings, in-process: every
section writes the key structure of its committed BENCH_<section>.json, the
step section's stages add up to its timed step, and the filter section's
frame-0 ratio is the ratio of its two frame figures; each frame the step
section times spends time in every stage and outside them; and the frame
count of its filter section is the replay benchmark's."""

import importlib.util
import json
import math
import os
import sys
import time

import numpy as np
import pytest

import legodom
import legodom.planfile  # noqa: F401  (the section's plans)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SIM_LAYERS = ("generate_gait", "degrade", "write_frames", "write_trajectory", "sum")


def _load(monkeypatch, name, *path):
    """The script at ROOT/path as a module; the sys.path entries and BLAS
    thread variables it sets are undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in BLAS_THREADS:
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, *path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _structure(value):
    """The nested keys of a JSON value, with None for each leaf."""
    if isinstance(value, dict):
        return {k: _structure(v) for k, v in value.items()}
    return None


def _times(result):
    """Every per-frame and per-call time of a result, by its path."""
    for key, value in result.items():
        if key.startswith(("us_per_", "raw_")):
            yield from ((key + "." + k, v) for k, v in value.items())
        elif key == "workloads":
            for name, workload in value.items():
                yield from ((name + "." + k, v) for k, v in _times(workload))


@pytest.mark.parametrize("section", ["step", "filter", "io", "sim"])
def test_each_section_writes_the_keys_of_its_committed_file(section, tmp_path, monkeypatch):
    bench = _load(monkeypatch, "bench_layers", "benchmarks", "bench_layers.py")
    monkeypatch.setattr(bench, "REPEAT", dict.fromkeys(bench.REPEAT, 1))
    out = tmp_path / ("BENCH_%s.json" % section)
    assert bench.main([section, "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    with open(os.path.join(ROOT, "BENCH_%s.json" % section), encoding="utf-8") as fh:
        assert _structure(result) == _structure(json.load(fh))
    assert result["repeat"] == 1
    times = dict(_times(result))
    assert times and all(math.isfinite(v) and v > 0.0 for v in times.values()), times
    if section == "step":
        _check_step(result)
    if section == "filter":
        frame = result["us_per_frame"]
        assert math.isclose(result["frame_0_ratio"], frame["frame_0"] / frame["median_frame"],
                            abs_tol=0.01)
    if section != "sim":
        return
    assert sorted(result["workloads"]) == ["ckf_walk", "stair_trot", "wheel_cli"]
    for name, workload in result["workloads"].items():
        assert workload["frames"] > 0, name
        for figures in (workload["us_per_frame"], workload["raw_best_us_per_frame"]):
            assert tuple(figures) == SIM_LAYERS, name
            assert math.isclose(figures["sum"], sum(figures[k] for k in SIM_LAYERS[:-1]),
                                abs_tol=0.05), name


STEP_STAGES = (("attitude", "_attitude"), ("leg_frame", "_leg_frame"), ("gate", "_gate"),
               ("touchdown_obs", "_observe"), ("fusion", "_fuse"), ("yaw", "_yaw"))


def _check_step(result):
    """The stages of a one-pass step section add up to its timed step, in
    every figure."""
    stages = [name for name, _ in STEP_STAGES] + ["other"]
    for key in ("us_per_frame", "raw_us_per_frame"):
        figures = result[key]
        assert list(figures) == stages + ["timed_step", "step"]
        assert math.isclose(figures["timed_step"], sum(figures[k] for k in stages),
                            abs_tol=0.05), key
    for name in ("stair_trot", "ckf_walk"):
        for frame in (result["frame_0"][name], result["worst_frame"][name]):
            assert list(frame["stages"]) == stages
            assert math.isclose(frame["us"], sum(frame["stages"].values()),
                                abs_tol=0.05), (name, frame)
        assert result["worst_frame"][name]["frame"] > 0


class _WallClock:
    """A clock whose reference time is its wall time."""

    def timed(self, fn):
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        return out, wall, wall


def test_each_timed_frame_spends_time_in_every_stage_and_outside_them(monkeypatch):
    # the stage methods run inside the step, so every stage and "other", the
    # rest of the step, is positive in every frame; the methods are restored
    # after the pass
    bench = _load(monkeypatch, "bench_layers", "benchmarks", "bench_layers.py")
    assert bench.STAGES == STEP_STAGES
    frames, cfg = bench.stream(legodom, "stair_trot")
    methods = [attr for _, attr in STEP_STAGES] + ["step"]
    originals = [getattr(legodom.Estimator, attr) for attr in methods]
    stages, scale = bench.frame_pass(legodom, frames, cfg, _WallClock())
    assert scale == 1.0
    assert stages.shape == (len(frames), len(STEP_STAGES) + 1)
    assert np.all(stages > 0.0), np.argwhere(stages <= 0.0)[:5]
    assert [getattr(legodom.Estimator, attr) for attr in methods] == originals


def test_the_workload_table_is_the_replay_benchmarks(monkeypatch):
    # the plans and configs, and the frame count of the filter section, are
    # read from run.py's source
    bench = _load(monkeypatch, "bench_layers", "benchmarks", "bench_layers.py")
    run = _load(monkeypatch, "replaybench_run", "replaybench", "run.py")
    assert bench.CKF_FRAMES == run.WORKLOADS["ckf_walk"]["frames"] == 1000
