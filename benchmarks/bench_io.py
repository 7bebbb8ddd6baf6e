"""Microseconds per frame of each layer of a file-to-file replay.

Writes the `wheel_cli` log of the replay benchmark (seed 0: a 4 s wheel roll
with wheel slip and IMU yaw drift, 1,001 frames) with `legodom simulate`,
then times, one layer at a time, what `legodom replay` does with each line
of it: `json.loads` of the line, `frame_from_dict` of the dict,
`Estimator.step` and `diagnostics()` (`step_diagnostics`, one estimator
with the workload's config stepping the log in order), `trajectory_line` of
the state and the diagnostics line of the record (`diag_line`: the
checkout's `logio.encode_json` if it has one, `json.dumps` otherwise, plus
the newline). `sum` adds the layers up: the replay less its file reads and
writes. This is a layer micro-benchmark; the end-to-end `replay_fps` comes
from `replaybench/run.py`.

A pass runs the five layers, in order, over one window of WINDOW frames,
the log's whole windows taken in turn, so only a window's dicts,
frames and records are alive at a time, as in a replay's block. Each figure
is the median per-frame time over REPEAT passes at the reference speed of
the replay benchmark's clock (`replaybench/refclock.py`), with BLAS pinned
to one thread: a shared machine can switch between speeds, so the raw
times of two processes need not compare. The best raw times are written
too.

It runs against any checkout: `--src` names the `src` directory to import
`legodom` from, so two checkouts can be compared on one machine:

    python3 benchmarks/bench_io.py                        # this checkout
    python3 benchmarks/bench_io.py --src OTHER/src --out other.json

The result goes to BENCH_io.json unless --out says otherwise.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "replaybench"))
from refclock import RefClock  # noqa: E402

# the plan and config of the replay benchmark's wheel_cli workload; the
# seed picks the rolling speed from the band 0.495-0.505 m/s
WHEEL_PLAN = """\
preset = wheel_roll
duration = 4
speed = {speed!r}
degrade.wheel_slip = 0.02
degrade.yaw_drift = 0.005
"""
WHEEL_CONFIG = "geom.wheel_radius = 0.05\ninit.position = 0 0 0.3\n"
SEED = 0      # seed of the rolling speed and of the degradation
WINDOW = 200  # frames of the log in one timed pass, taken in turn
REPEAT = 200  # timed passes of each layer


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="src directory of the checkout to measure")
    p.add_argument("--out", default=os.path.join(ROOT, "BENCH_io.json"))
    return p.parse_args(argv)


def wheel_cli_log(legodom, np, work):
    """The lines of the workload's log, written by `legodom simulate`."""
    speed = float(np.random.default_rng(SEED).uniform(0.495, 0.505))
    plan, log = os.path.join(work, "plan.txt"), os.path.join(work, "log.jsonl")
    with open(plan, "w", encoding="utf-8") as fh:
        fh.write(WHEEL_PLAN.format(speed=speed))
    with contextlib.redirect_stdout(io.StringIO()):
        code = legodom.cli.main(["simulate", "--plan", plan, "--out", log,
                                 "--seed", str(SEED)])
    if code != 0:
        raise SystemExit("simulate exited %r" % code)
    with open(log, encoding="utf-8") as fh:
        return [line for line in fh if line.strip()]


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    import legodom
    import legodom.cli
    from legodom import logio

    with tempfile.TemporaryDirectory() as work:
        lines = wheel_cli_log(legodom, np, work)
    cfg = legodom.parse_config_text(WHEEL_CONFIG)
    encode = getattr(logio, "encode_json", json.dumps)
    out = {}
    est = None

    def steps(frames):
        return [(est.step(fr), est.diagnostics()) for fr in frames]

    layers = {  # in replay order: each layer takes the one before's output
        "json_loads": lambda window: [json.loads(line) for line in window],
        "frame_from_dict": lambda _: list(map(logio.frame_from_dict, out["json_loads"])),
        "step_diagnostics": lambda _: steps(out["frame_from_dict"]),
        "trajectory_line": lambda _: [logio.trajectory_line(st)
                                      for st, _ in out["step_diagnostics"]],
        "diag_line": lambda _: [encode(rec) + "\n" for _, rec in out["step_diagnostics"]],
    }
    clock = RefClock()
    at_ref, raw = {name: [] for name in layers}, {name: [] for name in layers}
    windows = [lines[i:i + WINDOW] for i in range(0, len(lines) - WINDOW + 1, WINDOW)]
    for k in range(REPEAT):
        if k % len(windows) == 0:
            est = legodom.Estimator(cfg)  # the log from its first frame again
        window = windows[k % len(windows)]
        for name, layer in layers.items():
            out[name], wall, ref = clock.timed(layer, window)
            at_ref[name].append(ref / len(window) * 1e6)
            raw[name].append(wall / len(window) * 1e6)
    us = {name: statistics.median(v) for name, v in at_ref.items()}
    best = {name: min(v) for name, v in raw.items()}
    us["sum"], best["sum"] = sum(us.values()), sum(best.values())

    result = {
        "workload": "wheel_cli",
        "seed": SEED,
        "frames": len(lines),
        "window": WINDOW,
        "log_bytes_per_frame": round(sum(map(len, lines)) / len(lines), 1),
        "repeat": REPEAT,
        "diag_encoder": "logio.encode_json" if encode is not json.dumps else "json.dumps",
        "us_per_frame": {k: round(v, 2) for k, v in us.items()},
        "raw_best_us_per_frame": {k: round(v, 2) for k, v in best.items()},
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "machine": platform.machine(), "cpus": os.cpu_count(),
                        "blas_threads": 1},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result["us_per_frame"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
