"""Microseconds per call of each piece of the leg velocity filter.

Runs the estimator over the `ckf_walk` stream of the replay benchmark (a
500 Hz `walk_line` with quantized, spiky encoders, its first 1000 frames,
filter on) and times the calls the filter really makes. Each piece of the
filter cycle is wrapped with a timer while the estimator runs, so every
figure is of the checkout's own code on its own arguments: the prediction,
the factorisation of the prior and of the predicted covariance (one stacked
call, `factorisation`, or two, `factor_prior` and `factor_predicted`), the
cubature points, the measurement map and the gain update. A piece is timed under the
first of its names that the checkout has (`_point_rows` or `_points`,
`kernels.ik_measurement_rows` or `ikvel._ik_h`). A second pass wraps only the
whole cycle `ikvel._ckf_legs` and `LegVelocityFilter.update`, so those two
figures carry no inner timers.

Each figure is the mean per call over one pass, best of REPEAT passes, with
BLAS pinned to one thread, at the reference speed of the replay benchmark's
clock (`replaybench/refclock.py`): a shared machine can switch between
speeds (about 1.7x apart on the 2-vCPU machine the replay benchmark was
tuned on), so the raw times of two processes need not compare. The raw
best times are written too.

It runs against any checkout: `--src` names the `src` directory to import
`legodom` from, so two checkouts can be compared on one machine:

    python3 benchmarks/bench_filter.py                        # this checkout
    python3 benchmarks/bench_filter.py --src OTHER/src --out other.json

The result goes to BENCH_filter.json unless --out says otherwise.
"""

import argparse
import collections
import contextlib
import itertools
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

# the plan and config of the replay benchmark's ckf_walk workload
CKF_PLAN = """\
preset = walk_line
settle_time = 0.1
waypoint = 0 0
waypoint = 0.3 0
degrade.encoder_quantum = 1e-3
degrade.rate_spike_prob = 0.02
degrade.rate_spike_gain = 5
"""
CKF_CONFIG = "init.position = 0 0 0.3\nikvel.enabled = true\n"
CKF_FRAMES = 1000
SEED = 0      # degradation seed of the stream
REPEAT = 15   # timed passes of each kind; each figure is its best pass

# piece -> (module, function) names it may have, the first one found is timed.
# A checkout with _factor_or_reset or _factor_pair factors the prior and the
# predicted covariance in one stacked call (_factor_pair's checkout runs
# _factor_or_prior only when a factor fails); an older one makes two
# _factor_or_prior calls a cycle, which alternate names.
PIECES = {
    "prediction": [("ikvel", "_predict")],
    "factorisation": [("ikvel", "_factor_or_reset"), ("ikvel", "_factor_pair")],
    ("factor_prior", "factor_predicted"): [("ikvel", "_factor_or_prior")],
    "points": [("ikvel", "_point_rows"), ("ikvel", "_points")],
    "measurement_map": [("kernels", "ik_measurement_rows"), ("ikvel", "_ik_h")],
    "gain_update": [("ikvel", "_update")],
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="src directory of the checkout to measure")
    p.add_argument("--out", default=os.path.join(ROOT, "BENCH_filter.json"))
    return p.parse_args(argv)


def ckf_walk_frames(legodom):
    plan = legodom.planfile.parse_plan_text(CKF_PLAN)
    res = legodom.generate_gait(plan)
    return legodom.degrade(res.frames, plan.imperfections, seed=SEED,
                           contacts=res.contacts, legs=plan.legs)[:CKF_FRAMES]


@contextlib.contextmanager
def timers(targets):
    """Wrap each (owner, attribute, names) function with a timer for as long
    as the context lasts; yields name -> [seconds, calls], each call going
    to the next of its names in turn."""
    totals = collections.defaultdict(lambda: [0.0, 0])
    originals = []

    def timed(fn, names):
        order = itertools.cycle(names)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            total = totals[next(order)]
            total[0] += time.perf_counter() - t0
            total[1] += 1
            return out
        return wrapper

    try:
        for owner, attr, names in targets:
            originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, timed(originals[-1][2], names))
        yield totals
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def piece_targets(modules):
    targets = []
    for names, candidates in PIECES.items():
        for module, attr in candidates:
            if hasattr(modules[module], attr):
                names = (names,) if isinstance(names, str) else names
                targets.append((modules[module], attr, names))
                break
    return targets


def one_pass(legodom, frames, clock, targets):
    """Run a fresh estimator over the frames with the targets timed, the
    filter's own update too when targets is None. Returns name -> (us per
    call at the reference speed, raw us per call, calls)."""
    est = legodom.Estimator(legodom.parse_config_text(CKF_CONFIG))
    if targets is None:
        targets = [(legodom.ikvel, "_ckf_legs", ("cycle",)),
                   (est.ikvel, "update", ("filter_update",))]

    def run():
        for fr in frames:
            est.step(fr)

    with timers(targets) as totals:
        _, wall, at_ref = clock.timed(run)
    scale = at_ref / wall
    return {name: (s * scale / n * 1e6, s / n * 1e6, n)
            for name, (s, n) in totals.items()}


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np
    import legodom
    import legodom.planfile  # noqa: F401  (parse_plan_text)
    from legodom import ikvel, kernels

    frames = ckf_walk_frames(legodom)
    targets = piece_targets({"ikvel": ikvel, "kernels": kernels})
    clock = RefClock()
    us, raw, calls = {}, {}, {}
    for _ in range(REPEAT):
        for timed in (targets, None):
            for name, (at_ref, wall, n) in one_pass(legodom, frames, clock,
                                                    timed).items():
                us[name] = min(us.get(name, float("inf")), at_ref)
                raw[name] = min(raw.get(name, float("inf")), wall)
                calls[name] = n

    result = {
        "workload": "ckf_walk",
        "seed": SEED,
        "frames": len(frames),
        "legs": len(frames[0].legs),
        "repeat": REPEAT,
        "us_per_call": {k: round(v, 2) for k, v in us.items()},
        "raw_us_per_call": {k: round(v, 2) for k, v in raw.items()},
        "calls_per_pass": calls,
        "timed": {name: "%s.%s" % (owner.__name__, attr)
                  for owner, attr, names in targets for name in names},
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "machine": platform.machine(), "cpus": os.cpu_count(),
                        "blas_threads": 1},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result["us_per_call"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
