"""Quick self-check of the replay benchmark harness at a tiny length.

Usage (from the repository root):

    python3 replaybench/selfcheck.py

For every workload named in BENCHMARK.json it runs run.py on a short stream,
untraced and traced, and asserts that:

  - the run exits 0 and its last stdout line reports correct, 0 failed;
  - exactly the end_to_end (untraced) or per_layer (traced) metrics named in
    BENCHMARK.json are emitted, each with the unit given there;
  - the per-layer self times, recomputed from the written span file, add up
    to the traced `Estimator.step` spans;
  - a second untraced run with the same seed reproduces the replay digests.

Finally it checks that run.py exits non-zero without printing a result in
a directory that holds only BENCHMARK.json and the benchmark's files.
Exits 1 at the first failed assertion. Takes about 30 s.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_work", "results")
SEED = 3
FRAMES = 200


def fail(msg):
    print("selfcheck FAILED: " + msg)
    sys.exit(1)


def run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--frames", str(FRAMES)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc, label):
    if proc.returncode != 0:
        fail("%s exited %d\n%s\n%s" % (label, proc.returncode, proc.stdout[-3000:],
                                        proc.stderr[-3000:]))
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (label, sorted(res)))
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        fail("%s: correct=%s failed=%s attempted=%s"
             % (label, res["correct"], res["failed"], res["attempted"]))
    return res


def check_units(res, specs, label):
    want = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail("%s: missing %s, extra %s, wrong unit %s" % (label, missing, extra, wrong))


def check_span_sums(workload):
    """Self times of every span inside a step add up to the step spans."""
    path = os.path.join(RESULTS, "%s-seed%d-trace1.spans.jsonl" % (workload, SEED))
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_sum = sum(t1 - t0 - c for (_, t0, t1, _, frame), c in zip(spans, child)
                   if frame >= 0)
    step_sum = sum(t1 - t0 for name, t0, t1, _, _ in spans if name == "estimator.step")
    n_steps = sum(1 for s in spans if s[0] == "estimator.step")
    if n_steps == 0 or abs(self_sum - step_sum) > 1e-9 * n_steps + 1e-9 * step_sum:
        fail("%s: layer self times %.9f s vs step spans %.9f s over %d steps"
             % (workload, self_sum, step_sum, n_steps))
    if any(t1 - t0 - c < 0 for (_, t0, t1, _, _), c in zip(spans, child)):
        fail("%s: a span is shorter than its children" % workload)


def digests(workload):
    path = os.path.join(RESULTS, "%s-seed%d-trace0.json" % (workload, SEED))
    with open(path, encoding="utf-8") as fh:
        info = json.load(fh)["info"]
    return {k: v for k, v in info.items() if k.endswith("sha256") or k.endswith("digest")}


def check_bare_directory(bench):
    """run.py must fail, printing no result, where only the benchmark exists."""
    bare = os.path.join(ROOT, ".bench_work", "bare-%d" % os.getpid())
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for rel in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, rel), os.path.join(bare, rel),
                            ignore=shutil.ignore_patterns("__pycache__"))
        workload = bench["workloads"][0]["name"]
        proc = run(workload, 0, cwd=bare, script=os.path.join(bare, "replaybench", "run.py"))
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            fail("run.py without the program exited %d and printed %r"
                 % (proc.returncode, proc.stdout[-500:]))
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for wl in (w["name"] for w in bench["workloads"]):
        res = result_of(run(wl, 0), wl + " untraced")
        check_units(res, bench["end_to_end"], wl + " untraced")
        first = digests(wl)
        res = result_of(run(wl, 1), wl + " traced")
        check_units(res, bench["per_layer"], wl + " traced")
        check_span_sums(wl)
        result_of(run(wl, 0), wl + " untraced, again")
        if digests(wl) != first or not first:
            fail("%s: replay digests differ between runs: %s vs %s"
                 % (wl, first, digests(wl)))
        print("selfcheck ok: %s" % wl)
    check_bare_directory(bench)
    print("selfcheck ok: fails without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
