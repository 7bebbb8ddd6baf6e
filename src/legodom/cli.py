"""Command-line front end: replay logs through the estimator, run the
simulator presets, compute closure metrics, and inspect diagnostics.

Exit codes: 0 ok; 2 log parse error, a replay output that cannot be written,
or a trajectory that `metrics` cannot read or measure to finite numbers (its
output is strict JSON); 3 config or plan error. Every message is one line,
and a parse error names the line.
"""

import argparse
import json
import math
import os
import sys
from itertools import islice

from .config import ConfigError, EstimatorConfig, load_config
from .estimator import Estimator
from .gait import PRESETS, InfeasiblePlan, degrade, generate_gait, preset_plan
from .logio import (TRAJ_HEADER, LogParseError, iter_frames, read_trajectory,
                    trajectory_line, write_frames, write_trajectory)
from .metrics import compute_metrics
from .planfile import load_plan

BLOCK = 256  # frames stepped between writes; a write per frame replays 7-19 % slower


def _stream(args, write=lambda steps: None):
    """The one pass over a log, for replay and inspect: step it BLOCK frames
    at a time and hand each block's (state, diagnostics record) pairs to
    write. Returns (exit code, estimator, frames stepped); a failure prints
    its message, with exit code 3 for the config or 2 for the log."""
    try:
        cfg = EstimatorConfig() if args.config is None else load_config(args.config)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 3, None, 0
    est = Estimator(cfg)
    frames = iter_frames(args.log, len(cfg.legs))
    count = 0
    while True:
        try:
            block = list(islice(frames, BLOCK))
        except (LogParseError, OSError, UnicodeDecodeError) as exc:
            what = "log parse error" if isinstance(exc, LogParseError) else "cannot read log"
            print("%s: %s" % (what, exc), file=sys.stderr)
            return 2, est, count
        if not block:
            return 0, est, count
        count += len(block)
        write([(est.step(fr), est.diagnostics()) for fr in block])


def cmd_replay(args):
    """Stream the log to OUT and OUT.diag.jsonl through part files beside
    them, renamed onto them on success: a failure leaves both as they were."""
    outs = (args.out, args.out + ".diag.jsonl")
    parts = [out + ".part" for out in outs]
    try:
        with open(parts[0], "w", encoding="utf-8") as csv, \
                open(parts[1], "w", encoding="utf-8") as diag:
            csv.write(TRAJ_HEADER)

            def write(steps):
                csv.write("".join(trajectory_line(st) for st, _ in steps))
                diag.write("".join(json.dumps(rec) + "\n" for _, rec in steps))

            code, _, count = _stream(args, write)
        if code:
            return code
        for part, out in zip(parts, outs):
            os.replace(part, out)
    except OSError as exc:
        print("cannot write output: %s" % exc, file=sys.stderr)
        return 2
    finally:
        for part in filter(os.path.exists, parts):
            os.remove(part)
    if not count:
        print("warning: empty log, wrote empty trajectory", file=sys.stderr)
    else:
        print("replayed %d frames -> %s" % (count, args.out))
    return 0


def cmd_simulate(args):
    try:
        if args.plan:
            plan = load_plan(args.plan)
        else:
            plan = preset_plan(args.preset)
        # a plan that parses can still be infeasible or fail the generator's
        # own checks (a step period that is no whole number of frames)
        result = generate_gait(plan)
    except (ConfigError, InfeasiblePlan, ValueError, OSError) as exc:
        print("plan error: %s" % exc, file=sys.stderr)
        return 3
    frames = result.frames
    if plan.imperfections:
        frames = degrade(frames, plan.imperfections, seed=args.seed,
                         contacts=result.contacts, legs=plan.legs)
    write_frames(args.out, frames)
    if args.ground_truth:
        write_trajectory(args.ground_truth, result.truth)
    print("simulated %d frames -> %s" % (len(frames), args.out))
    return 0


def cmd_metrics(args):
    path = args.trajectory
    try:
        traj = read_trajectory(path)
        path = args.ground_truth
        gt = read_trajectory(path) if path else None
    except (LogParseError, OSError, UnicodeDecodeError) as exc:
        print("trajectory parse error: %s: %s" % (path, exc), file=sys.stderr)
        return 2
    try:
        metrics = compute_metrics(traj, gt)
        # finite rows far apart give an infinite metric, which strict JSON
        # cannot hold
        for key, value in metrics.items():
            if not math.isfinite(value):
                raise ValueError("%s is not finite" % key)
    except ValueError as exc:
        print("metrics error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(metrics, indent=2, allow_nan=False))
    return 0


def cmd_inspect(args):
    code, est, _ = _stream(args)
    if code:
        return code
    print(json.dumps({**est.diagnostics(), "ckf_status": est.ikvel.status_totals()},
                     indent=2))
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="legodom",
                                description="contact-anchored proprioceptive odometry")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("replay", help="run a sensor log through the estimator")
    pr.add_argument("--log", required=True, help="sensor log (JSON lines)")
    pr.add_argument("--config", default=None, help="estimator config file")
    pr.add_argument("--out", required=True, help="trajectory CSV output")
    pr.set_defaults(func=cmd_replay)

    ps = sub.add_parser("simulate", help="generate a synthetic sensor log")
    src = ps.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESETS)
    src.add_argument("--plan", help="plan file")
    ps.add_argument("--out", required=True, help="sensor log output")
    ps.add_argument("--ground-truth", default=None,
                    help="also write the ground-truth trajectory CSV here")
    ps.add_argument("--seed", type=int, default=0,
                    help="seed for the degradation randomness")
    ps.set_defaults(func=cmd_simulate)

    pm = sub.add_parser("metrics", help="closure metrics of a trajectory")
    pm.add_argument("trajectory", help="trajectory CSV")
    pm.add_argument("--ground-truth", default=None, help="ground-truth CSV")
    pm.set_defaults(func=cmd_metrics)

    pi = sub.add_parser("inspect", help="dump final planes/anchors diagnostics")
    pi.add_argument("--log", required=True)
    pi.add_argument("--config", default=None)
    pi.set_defaults(func=cmd_inspect)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
