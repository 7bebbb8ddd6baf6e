"""SHA-256 digests of every generated stream and of its replay.

Runs `legodom simulate` and `legodom replay` in-process, through
`legodom.cli.main`, in a temporary directory, and prints the SHA-256 of each
file they write:

- every preset's log and ground truth (`simulate --preset`, seed 0), and the
  trajectory CSV and diagnostics of its replay with the default config;
- the degraded stream of each replay-benchmark workload (`stair_trot`,
  `ckf_walk`, `wheel_cli`) for the seeds in SEEDS, with its ground truth, and
  the trajectory CSV and diagnostics of its replay with that workload's
  config (plans and configs as `replaybench/run.py` spells them).

Two checkouts that print the same digests generate the same streams and
replay them to the same bytes, so a refactor can be checked against its
parent on one machine:

    python3 benchmarks/stream_digests.py                        # this checkout
    python3 benchmarks/stream_digests.py --src OTHER/src --out other.json
    diff <(python3 benchmarks/stream_digests.py) \
         <(python3 benchmarks/stream_digests.py --src OTHER/src)

The digests are printed as JSON, one key per file; --out also writes them
to a file, with a `written_by` entry naming the numpy version and the
platform, and copies each replay CSV into the directory OUT.replays beside
it. --compare OTHER.json reads such a file and prints, in place of the JSON,
only the keys whose digests differ, and for each differing replay CSV the
largest absolute difference of any state value from OTHER.replays; it exits
1 when any key differs:

    python3 benchmarks/stream_digests.py --src OTHER/src --out other.json
    python3 benchmarks/stream_digests.py --compare other.json
"""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUN_PY = os.path.join(ROOT, "replaybench", "run.py")
TABLE = ("STAIR_PLAN", "CKF_PLAN", "WHEEL_PLAN", "WORKLOADS")


def replay_table():
    """The replay benchmark's WORKLOADS table, {workload: {"plan", "config",
    ...}}, read from the literal assignments of TABLE in the source of
    RUN_PY. run.py itself is not imported: it loads `legodom` from the src
    beside it, which --src must choose. `speed` of the wheel plan is a
    format field, drawn from the seed as the benchmark draws it
    (workload_plan)."""
    with open(RUN_PY, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), RUN_PY)
    table = ast.Module([node for node in tree.body if isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and getattr(node.targets[0], "id", None) in TABLE], type_ignores=[])
    names = {"__builtins__": {}}
    exec(compile(table, RUN_PY, "exec"), names)
    return names["WORKLOADS"]


REPLAY_TABLE = replay_table()
# {workload: (plan, config)}
WORKLOADS = {name: (w["plan"], w["config"]) for name, w in REPLAY_TABLE.items()}
SEEDS = (0, 1, 2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="src directory of the checkout to digest")
    p.add_argument("--out", default=None,
                   help="also write the digests here, and the replay CSVs to OUT.replays")
    p.add_argument("--compare", default=None, metavar="OTHER.json",
                   help="print only the digests that differ from an --out file")
    return p.parse_args(argv)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_cli(cli, argv):
    """cli.main(argv) with its stdout swallowed; raises on a nonzero exit."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError("legodom %s exited %r" % (" ".join(argv), code))


def written_by():
    """The numpy version, Python version and platform of this run."""
    return "numpy %s, Python %s, %s" % (np.__version__, platform.python_version(),
                                        platform.platform())


def load(path):
    """(digests, written_by) of an --out file; written_by is None when the
    file does not name it."""
    with open(path, encoding="utf-8") as fh:
        digests = json.load(fh)
    return digests, digests.pop("written_by", None)


def workload_plan(plan, seed):
    """A workload's plan text for a seed: `speed` drawn as the benchmark draws it."""
    rng = np.random.default_rng(seed)
    return plan.format(speed=float(rng.uniform(0.495, 0.505)))


def stream_paths(work, name):
    """(log, ground truth, trajectory) paths of the stream called name."""
    return tuple(os.path.join(work, name + ext) for ext in (".jsonl", ".gt.csv", ".csv"))


def digest_stream(cli, work, name, source, config, seed):
    """Digests of one simulated stream, its ground truth and its replay."""
    log, gt, _ = stream_paths(work, name)
    run_cli(cli, ["simulate", *source, "--out", log, "--ground-truth", gt,
                  "--seed", str(seed)])
    return digest_written_stream(cli, work, name, config)


def digest_written_stream(cli, work, name, config):
    """Digests of the log and ground truth already written at the paths of
    stream_paths(work, name), and of the log's replay under config (the
    default config when None)."""
    log, gt, traj = stream_paths(work, name)
    replay = ["replay", "--log", log, "--out", traj]
    if config is not None:
        path = os.path.join(work, name + ".config.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config)
        replay += ["--config", path]
    run_cli(cli, replay)
    return {"%s.log" % name: sha256(log),
            "%s.truth" % name: sha256(gt),
            "%s.replay_csv" % name: sha256(traj),
            "%s.replay_diag" % name: sha256(traj + ".diag.jsonl")}


def state_difference(path, other):
    """Largest absolute difference of any value between two trajectory CSVs,
    inf when their shapes differ; NaN against NaN counts as no difference."""
    a, b = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2) for p in (path, other))
    if a.shape != b.shape:
        return float("inf")
    diff = np.abs(a - b)
    diff[np.isnan(a) & np.isnan(b)] = 0.0
    return float(np.max(diff, initial=0.0))


def compare(digests, work, other, replays=None):
    """Lines naming each key whose digest differs from the digests other,
    with the state difference of each differing replay CSV against the CSVs
    of the other run in the directory replays, if given."""
    lines = []
    worst = None
    for key in sorted(set(digests) | set(other)):
        mine, theirs = digests.get(key), other.get(key)
        if mine == theirs:
            continue
        line = "%s: %s -> %s" % (key, (theirs or "missing")[:12], (mine or "missing")[:12])
        csv = key[:-len(".replay_csv")] + ".csv"
        theirs_csv = replays and os.path.join(replays, csv)
        if key.endswith(".replay_csv") and mine and replays and os.path.exists(theirs_csv):
            diff = state_difference(os.path.join(work, csv), theirs_csv)
            line += "  max |state diff| %.3g" % diff
            if worst is None or diff > worst[0]:
                worst = (diff, key)
        lines.append(line)
    lines.append("%d of %d keys differ" % (len(lines), len(set(digests) | set(other))))
    if worst is not None:
        lines[-1] += "; largest state difference %.3g (%s)" % worst
    return lines


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from legodom import cli
    from legodom.gait import PRESETS

    digests = {}
    with tempfile.TemporaryDirectory() as work:
        for preset in PRESETS:
            digests.update(digest_stream(cli, work, "preset.%s" % preset,
                                         ["--preset", preset], None, 0))
        for workload, (plan, config) in WORKLOADS.items():
            for seed in SEEDS:
                path = os.path.join(work, "%s.plan.txt" % workload)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(workload_plan(plan, seed))
                digests.update(digest_stream(
                    cli, work, "%s.seed%d" % (workload, seed),
                    ["--plan", path], config, seed))
        text = json.dumps(digests, indent=2)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({**digests, "written_by": written_by()}, fh, indent=2)
                fh.write("\n")
            replays = args.out + ".replays"
            os.makedirs(replays, exist_ok=True)
            for key in digests:
                if key.endswith(".replay_csv"):
                    name = key[:-len(".replay_csv")] + ".csv"
                    shutil.copyfile(os.path.join(work, name), os.path.join(replays, name))
        if args.compare is None:
            print(text)
            return 0
        other, _ = load(args.compare)
        lines = compare(digests, work, other, args.compare + ".replays")
    print("\n".join(lines))
    return 1 if len(lines) > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
