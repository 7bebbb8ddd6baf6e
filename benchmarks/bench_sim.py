"""Microseconds per frame of each layer of `legodom simulate`.

For the plan of each replay-benchmark workload (`stair_trot`, `ckf_walk`,
`wheel_cli`, seed 0, taken from `stream_digests.py`), times, one layer at a
time, what `legodom simulate --plan` does with it: `generate_gait` of the
plan, `degrade` of its frames with the plan's imperfections,
`write_frames` of the degraded frames and `write_trajectory` of the ground
truth, both into a temporary directory. `sum` adds the layers up: the
simulate less its plan parse. This is a layer micro-benchmark; the
end-to-end `sim_fps` comes from `replaybench/run.py`. The `ckf_walk` figures
are for its whole generated stream; the replay benchmark steps only its
first 1,000 frames.

A pass runs the four layers in order, each on the one before's output, for
each workload in turn. Each figure is the median per-frame time over
REPEAT passes at the reference speed of the replay benchmark's clock
(`replaybench/refclock.py`), with BLAS pinned to one thread: a shared machine
can switch between speeds, so the raw times of two processes need not
compare. The best raw times are written too.

It runs against any checkout: `--src` names the `src` directory to import
`legodom` from, so two checkouts can be compared on one machine:

    python3 benchmarks/bench_sim.py                        # this checkout
    python3 benchmarks/bench_sim.py --src OTHER/src --out other.json

The result goes to BENCH_sim.json unless --out says otherwise.
"""

import argparse
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
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
from refclock import RefClock  # noqa: E402
# the workloads' plans, and the rolling speed wheel_cli draws from its seed
from stream_digests import WORKLOADS, workload_plan  # noqa: E402

SEED = 0  # seed of the plans and of the degradation
REPEAT = 15  # timed passes over the workloads


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="src directory of the checkout to measure")
    p.add_argument("--out", default=os.path.join(ROOT, "BENCH_sim.json"))
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    from legodom import gait, logio, planfile

    plans = {name: planfile.parse_plan_text(workload_plan(text, SEED))
             for name, (text, _) in WORKLOADS.items()}
    clock = RefClock()
    results = {}
    with tempfile.TemporaryDirectory() as work:
        log, gt = os.path.join(work, "log.jsonl"), os.path.join(work, "gt.csv")
        at_ref = {name: {} for name in plans}
        raw = {name: {} for name in plans}
        frames_of = {}
        for _ in range(REPEAT):
            for name, plan in plans.items():
                out = {}
                layers = {  # in simulate order: each takes the one before's output
                    "generate_gait": lambda: gait.generate_gait(plan),
                    "degrade": lambda: gait.degrade(
                        out["generate_gait"].frames, plan.imperfections, seed=SEED,
                        contacts=out["generate_gait"].contacts, legs=plan.legs),
                    "write_frames": lambda: logio.write_frames(log, out["degrade"]),
                    "write_trajectory": lambda: logio.write_trajectory(
                        gt, out["generate_gait"].truth),
                }
                for layer, fn in layers.items():
                    out[layer], wall, ref = clock.timed(fn)
                    n = len(out["generate_gait"].frames)
                    at_ref[name].setdefault(layer, []).append(ref / n * 1e6)
                    raw[name].setdefault(layer, []).append(wall / n * 1e6)
                frames_of[name] = n
    for name in plans:
        us = {layer: statistics.median(v) for layer, v in at_ref[name].items()}
        best = {layer: min(v) for layer, v in raw[name].items()}
        us["sum"], best["sum"] = sum(us.values()), sum(best.values())
        results[name] = {"frames": frames_of[name],
                         "us_per_frame": {k: round(v, 2) for k, v in us.items()},
                         "raw_best_us_per_frame": {k: round(v, 2) for k, v in best.items()}}

    result = {
        "seed": SEED,
        "repeat": REPEAT,
        "workloads": results,
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "machine": platform.machine(), "cpus": os.cpu_count(),
                        "blas_threads": 1},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps({name: r["us_per_frame"] for name, r in results.items()}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
