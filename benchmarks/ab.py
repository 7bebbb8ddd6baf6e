"""A/B pairs of replay-benchmark runs between two checkouts.

    python3 benchmarks/ab.py --base PARENT --change CHANGE --workload stair_trot \
        --pairs 4 --seconds 35 --seed0 501

Pair k runs `replaybench/run.py --workload W --seed SEED0+k --seconds S` once
in each checkout, from that checkout's own directory and with its own
`src`; the base side goes first in even pairs and the change side in odd
ones, so a drift in machine speed hits both sides alike. The last line of a
run's stdout is its JSON record. A run that exits non-zero or reports
`correct: false` stops the comparison, and its output is printed.

For each end-to-end metric of the change checkout's BENCHMARK.json the table
gives both medians, the base side's interquartile range (IQR), the pairs the
change won (strictly better in that pair; a tie is no win), the median of the
pairs' change/base ratios, the exact two-sided sign-test p-value of the wins
against the losses (ties left out; 1 when every pair ties) and whether the
change's median is within the metric's bound: worse than the base median by
at most that fraction of it. Each pair's ratio follows the table, then the
per-run values.
"""

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np


def sign_test(wins, losses):
    """Exact two-sided sign-test p-value of wins against losses, ties left
    out: the chance of a split at least this uneven under a fair coin."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2.0 ** n)


def summarize(base, change, end_to_end):
    """One row per end-to-end metric over paired runs.

    base and change are equally long lists of {metric: value}, run k of
    each being pair k; end_to_end is BENCHMARK.json's list of
    {name, unit, better, bound}. Returns dicts with the metric's name, unit,
    base and change medians, base_iqr, wins, losses, pairs, each pair's
    change/base ratio (NaN where the base is 0), their median ratio, the
    sign-test p and within.
    """
    rows = []
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        b = np.array([run[name] for run in base], dtype=float)
        c = np.array([run[name] for run in change], dtype=float)
        b_med, c_med = float(np.median(b)), float(np.median(c))
        q1, q3 = np.percentile(b, [25, 75])
        wins = int(np.sum(c < b if lower else c > b))
        losses = int(np.sum(c > b if lower else c < b))
        ratios = np.where(b != 0.0, c / np.where(b != 0.0, b, 1.0), np.nan)
        worst = b_med * (1.0 + spec["bound"] if lower else 1.0 - spec["bound"])
        rows.append({"name": name, "unit": spec["unit"], "base": b_med,
                     "change": c_med, "base_iqr": float(q3 - q1), "wins": wins,
                     "losses": losses, "pairs": len(b), "ratios": ratios.tolist(),
                     "ratio": float(np.median(ratios)),
                     "p": sign_test(wins, losses),
                     "within": bool(c_med <= worst if lower else c_med >= worst)})
    return rows


def format_rows(rows):
    lines = ["%-14s %14s %14s %12s %6s %8s %7s %7s"
             % ("metric", "base med", "change med", "base IQR", "wins", "ratio",
                "sign p", "bound")]
    for r in rows:
        lines.append("%-14s %14.6g %14.6g %12.4g %2d of %d %8.4f %7.3g %7s %s"
                     % (r["name"], r["base"], r["change"], r["base_iqr"], r["wins"],
                        r["pairs"], r["ratio"], r["p"],
                        "within" if r["within"] else "WORSE", r["unit"]))
    return "\n".join(lines)


def format_ratios(rows):
    return "\n".join(["change/base ratio of each pair:"]
                     + ["%-14s %s" % (r["name"], " ".join("%.4f" % x for x in r["ratios"]))
                        for r in rows])


def run_once(checkout, workload, seed, seconds):
    """The metric values of one run in checkout; SystemExit with the run's
    output when it fails or reports correct: false."""
    cmd = [sys.executable, "replaybench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds))]
    # each side imports its own src, not one on the caller's path
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    record = None
    if lines:
        try:
            record = json.loads(lines[-1])
        except ValueError:
            pass
    if proc.returncode != 0 or not record or record.get("correct") is not True:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s: seed %d failed (exit %d)" % (checkout, seed, proc.returncode))
    return {name: m["value"] for name, m in record["metrics"].items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="checkout of the parent")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=4)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--seed0", type=int, default=1)
    args = p.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    runs = {"base": [], "change": []}
    for k in range(args.pairs):
        seed = args.seed0 + k
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, seed,
                                       args.seconds))
            print("pair %d seed %d %s done" % (k, seed, side), file=sys.stderr)
    print("%s: %d pairs of %g s, seeds %d-%d"
          % (args.workload, args.pairs, args.seconds, args.seed0,
             args.seed0 + args.pairs - 1))
    rows = summarize(runs["base"], runs["change"], end_to_end)
    print(format_rows(rows))
    print(format_ratios(rows))
    print(json.dumps(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
