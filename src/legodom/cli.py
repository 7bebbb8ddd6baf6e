"""Command-line front end: replay logs through the estimator, run the
simulator presets, compute closure metrics, and inspect diagnostics.

Exit codes: 0 ok; 2 log parse error, a replay or simulate output that cannot
be written, or two replay or simulate outputs or part files that name one
file (every output is then left as it was), or a trajectory that
`metrics` cannot read or measure to finite numbers (its output is strict
JSON); 3 config or plan error. Every message is one line, and a parse error
names the line.
"""

import argparse
import json
import math
import os
import sys
from itertools import combinations, islice

from .config import ConfigError, EstimatorConfig, load_config
from .estimator import Estimator
from .gait import PRESETS, InfeasiblePlan, degrade, generate_gait, preset_plan
from .logio import (TRAJ_HEADER, LogParseError, diagnostics_lines, iter_frames,
                    read_trajectory, trajectory_lines, write_frames, write_trajectory)
from .metrics import compute_metrics
from .planfile import load_plan

# frames read, stepped and written at a time: the block whose frame-only
# terms `Estimator.step_block` computes as columns, and the frames between
# writes (a write per frame replays 7-19 % slower)
BLOCK = 256


def _stream(args, write=None):
    """The one pass over a log, for replay and inspect: step it BLOCK frames
    at a time through `Estimator.step_block` and hand each block's (state,
    diagnostics record) pairs to write; with no write, no record is built
    and the states are dropped. Returns (exit code, estimator, frames
    stepped); a failure prints its message, with exit code 3 for the config
    or 2 for the log."""
    try:
        cfg = EstimatorConfig() if args.config is None else load_config(args.config)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 3, None, 0
    est = Estimator(cfg)
    record = est.diagnostics if write else lambda: None
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
        steps = [(st, record()) for st in est.step_block(block)]
        if write:
            write(steps)


def _same_file(a, b):
    """Whether paths a and b name one file, however they are spelled."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def _write_through_parts(outs, write):
    """Call write with a part-file path beside each output, and rename the
    parts onto the outputs unless it returns an exit code: a failure leaves
    them as they were, and an output that cannot be written exits 2. Two of
    the outputs and part files that name one file exit 2 before anything is
    written, since one part file would take both outputs' bytes."""
    parts = [out + ".part" for out in outs]
    for a, b in combinations(list(outs) + parts, 2):
        if _same_file(a, b):
            print("cannot write output: %s and %s name one file, and every output "
                  "and its .part file must differ" % (a, b), file=sys.stderr)
            return 2
    try:
        code = write(*parts)
        if not code:
            for part, out in zip(parts, outs):
                os.replace(part, out)
        return code
    except OSError as exc:
        print("cannot write output: %s" % exc, file=sys.stderr)
        return 2
    finally:
        for part in filter(os.path.exists, parts):
            os.remove(part)


def cmd_replay(args):
    """Stream the log to OUT and OUT.diag.jsonl."""
    count = 0

    def write(csv_part, diag_part):
        nonlocal count
        with open(csv_part, "w", encoding="utf-8") as csv, \
                open(diag_part, "w", encoding="utf-8") as diag:
            csv.write(TRAJ_HEADER)

            def write_block(steps):
                states, records = zip(*steps)
                csv.write(trajectory_lines(states))
                diag.write(diagnostics_lines(records))
            code, _, count = _stream(args, write_block)
        return code

    code = _write_through_parts((args.out, args.out + ".diag.jsonl"), write)
    if not code and not count:
        print("warning: empty log, wrote empty trajectory", file=sys.stderr)
    elif not code:
        print("replayed %d frames -> %s" % (count, args.out))
    return code


def cmd_simulate(args):
    try:
        plan = load_plan(args.plan) if args.plan else preset_plan(args.preset)
        # a plan that parses can still be infeasible or fail the generator's
        # own checks (a stream longer than gait.MAX_FRAMES)
        result = generate_gait(plan)
    except (ConfigError, InfeasiblePlan, ValueError, OSError) as exc:
        print("plan error: %s" % exc, file=sys.stderr)
        return 3
    frames = result.frames
    if plan.imperfections:
        frames = degrade(frames, plan.imperfections, seed=args.seed,
                         contacts=result.contacts, legs=plan.legs)

    def write(log_part, truth_part=None):
        write_frames(log_part, frames)
        if truth_part:
            write_trajectory(truth_part, result.truth)

    if _write_through_parts([args.out] + ([args.ground_truth] if args.ground_truth else []),
                            write):
        return 2
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
