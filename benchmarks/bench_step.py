"""Microseconds per frame of each stage of a filter-off `Estimator.step`.

Runs the estimator over the `stair_trot` stream of the replay benchmark (a
trot over the 0.1 m stair step and back, with noisy touchdown heights and a
drifting IMU yaw, filter off) and times the stages of every step while it
runs. Each stage is a method of `Estimator`, wrapped with a timer for the
pass: attitude (`_attitude`), the leg kernel (`_leg_frame`: one
`tolist()` of the frame's joint array, `kernels.leg_rows` on those float
rows and adding the hip mounts), the
contact gate (`_gate`), touchdowns and observations (`_observe`: wheel
propagation, the plane store and the anchored observations), fusion
(`_fuse`), yaw (`_yaw`) and the diagnostics record (`_record`). `other` is
the rest of the timed step: the input checks, the prediction, building the
BodyState and the timers' own cost, so the stages and `other` add up to more
than `step`. A second pass runs with no timers at all, and its figure is
`step`. A checkout without some stage method has that stage left out.

Each figure is the mean per frame over one pass, best of REPEAT passes, with
BLAS pinned to one thread, at the reference speed of the replay benchmark's
clock (`replaybench/refclock.py`): a shared machine can switch between
speeds, so the raw times of two processes need not compare. The raw best
times are written too.

It runs against any checkout: `--src` names the `src` directory to import
`legodom` from, so two checkouts can be compared on one machine:

    python3 benchmarks/bench_step.py                        # this checkout
    python3 benchmarks/bench_step.py --src OTHER/src --out other.json

The result goes to BENCH_step.json unless --out says otherwise.
"""

import argparse
import contextlib
import json
import os
import platform
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "replaybench"))
from refclock import RefClock  # noqa: E402

# the plan and config of the replay benchmark's stair_trot workload
STAIR_PLAN = """\
preset = stair_loop
waypoint = 0 0
waypoint = 3.6 0
waypoint = 0 0
degrade.touchdown_height_noise = 0.02
degrade.yaw_drift = 0.004363323129985824
"""
STAIR_CONFIG = "init.position = 0 0 0.27\n"
SEED = 0      # degradation seed of the stream
REPEAT = 10   # timed passes of each kind; each figure is its best pass

# stage name -> the Estimator method that runs it, in step order
STAGES = (
    ("attitude", "_attitude"),
    ("leg_frame", "_leg_frame"),
    ("gate", "_gate"),
    ("touchdown_obs", "_observe"),
    ("fusion", "_fuse"),
    ("yaw", "_yaw"),
    ("diagnostics", "_record"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="src directory of the checkout to measure")
    p.add_argument("--out", default=os.path.join(ROOT, "BENCH_step.json"))
    return p.parse_args(argv)


def stair_trot_frames(legodom):
    plan = legodom.planfile.parse_plan_text(STAIR_PLAN)
    res = legodom.generate_gait(plan)
    return legodom.degrade(res.frames, plan.imperfections, seed=SEED,
                           contacts=res.contacts, legs=plan.legs)


@contextlib.contextmanager
def stage_timers(cls, stages):
    """Wrap each (name, method) of cls with a timer for as long as the
    context lasts; yields name -> seconds."""
    totals = {name: 0.0 for name, _ in stages}
    originals = []

    def timed(fn, name):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            totals[name] += time.perf_counter() - t0
            return out
        return wrapper

    try:
        for name, attr in stages:
            originals.append((attr, cls.__dict__[attr]))
            setattr(cls, attr, timed(originals[-1][1], name))
        yield totals
    finally:
        for attr, fn in reversed(originals):
            setattr(cls, attr, fn)


def one_pass(legodom, frames, cfg, clock, stages):
    """Run a fresh estimator over the frames with the stages timed (none
    when stages is empty). Returns name -> (us per frame at the reference
    speed, raw us per frame)."""
    est = legodom.Estimator(cfg)

    def run():
        for fr in frames:
            est.step(fr)

    with stage_timers(legodom.Estimator, stages) as totals:
        _, wall, at_ref = clock.timed(run)
    if stages:
        totals["other"] = wall - sum(totals.values())
    else:
        totals["step"] = wall
    scale = at_ref / wall
    n = len(frames)
    return {name: (s * scale / n * 1e6, s / n * 1e6) for name, s in totals.items()}


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    import legodom
    import legodom.planfile  # noqa: F401  (parse_plan_text)

    frames = stair_trot_frames(legodom)
    cfg = legodom.parse_config_text(STAIR_CONFIG)
    stages = [(name, attr) for name, attr in STAGES
              if attr in legodom.Estimator.__dict__]
    clock = RefClock()
    us, raw = {}, {}
    for _ in range(REPEAT):
        for timed in (stages, []):
            for name, (at_ref, wall) in one_pass(legodom, frames, cfg, clock,
                                                 timed).items():
                us[name] = min(us.get(name, float("inf")), at_ref)
                raw[name] = min(raw.get(name, float("inf")), wall)

    order = [name for name, _ in stages] + ["other", "step"]
    result = {
        "workload": "stair_trot",
        "seed": SEED,
        "frames": len(frames),
        "legs": len(frames[0].legs),
        "repeat": REPEAT,
        "us_per_frame": {k: round(us[k], 2) for k in order if k in us},
        "raw_us_per_frame": {k: round(raw[k], 2) for k in order if k in raw},
        "timed": {name: "Estimator.%s" % attr for name, attr in stages},
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
