"""Microseconds per frame or per call of the layers in and around `Estimator.step`.

One section a run; each writes BENCH_<section>.json unless --out says otherwise:

    python3 benchmarks/bench_layers.py step      # this checkout
    python3 benchmarks/bench_layers.py filter --src OTHER/src --out other.json

`--src` names the `src` directory to import `legodom` from, so two checkouts
can be compared on one machine. Every section runs a replay-benchmark
workload at seed 0, with the plan and config of `stream_digests.WORKLOADS`.
Times are taken at the reference speed of the replay benchmark's clock
(`replaybench/refclock.py`), with BLAS pinned to one thread: a shared machine
can switch between speeds (about 1.7x apart on the 2-vCPU machine the replay
benchmark was tuned on), so the raw times of two processes need not compare.
The raw times are written too.

`step` runs a filter-off estimator over the `stair_trot` stream (a trot over
the 0.1 m stair step and back, with noisy touchdown heights and a drifting
IMU yaw) with its stage methods and `step` wrapped with timers, and reads
what each step spent in each stage: attitude (`_attitude`), the leg kernel
(`_leg_frame`: one `tolist()` of the frame's joint array, `kernels.leg_rows`
on those rows and adding the hip mounts), the contact flags (`_gate`),
touchdowns and observations (`_observe`: each leg's swing-to-stance test,
wheel propagation, the plane store and the anchored observations), fusion
(`_fuse`) and yaw (`_yaw`); `other` is the rest of the step: the input
checks, the held yaw when the IMU yaw is off, the prediction, building the
BodyState and the stage timers' own cost. `us_per_frame` gives the stages of
the timed pass whose step was fastest and `timed_step`, their sum. A second
pass runs with no timers, and its figure is `step`. The step builds no
diagnostics record; a third pass calls `Estimator.diagnostics()` after each
step and times only that call, the per-call figure `diagnostics`. Each
figure is the mean per frame or per call over a pass, best of REPEAT passes.
The timed passes also run a filter-on estimator over the first CKF_FRAMES
frames of `ckf_walk`; for both streams, `frame_0`, `median_frame_us` and
`worst_frame` (the slowest frame after frame 0, and its index) are the
medians over the passes of each frame's timed step, with each stage's median
for the first and the last. Every checkout is timed the same way.

`filter` runs a filter-on estimator over the first CKF_FRAMES frames of the
`ckf_walk` stream (a 500 Hz walk with quantized, spiky encoders) and times
the calls each piece of the filter cycle really makes: the prediction, the
one stacked factorisation of the prior and predicted covariances, the
cubature points, the measurement map and the gain update. A second pass
times only the whole cycle `ikvel._ckf_legs` and `LegVelocityFilter.update`,
so those two figures carry no inner timers. Each figure is the mean per call
over a pass, best of REPEAT passes. A third pass, with no timers, steps a
fresh estimator over the same frames and times each step on its own: frame
0, where the filter starts every leg, and the median frame, each the median
over REPEAT passes (`us_per_frame`), and `frame_0_ratio`, the one over the
other.

`io` writes the `wheel_cli` log (1,001 frames of a slipping wheel roll) as
`legodom simulate` does and times, one layer at a time, what `legodom
replay` does with each line: the parse of the line (`line_parse`: the
checkout's `logio._parse_line` if it has one, `json.loads` otherwise),
`frame_from_dict`, the step with `diagnostics()` after each frame
(`step_diagnostics`: the window through the checkout's
`Estimator.step_block` if it has one, as the replay steps a block, `step`
one frame at a time otherwise), `trajectory_line` and the diagnostics line
(`diag_line`: the checkout's `logio.encode_json` if it has one,
`json.dumps` otherwise, plus the newline). `line_parser`, `step_path` and
`diag_encoder` name the functions timed. `step_diagnostics_by_frame` times
`step` with `diagnostics()` one frame at a time on a second estimator, so
the two step figures show what the block saves; it is left out of `sum`.
Each estimator steps the log in order. A pass runs the layers over one
window of WINDOW frames, the log's whole windows taken in turn, so only a
window's dicts, frames and records are alive at a time, as in a replay's
block.

`sim` times, for the plan of each workload, the layers of `legodom simulate`:
`generate_gait`, `degrade` of its frames, `write_frames` of the degraded
frames and `write_trajectory` of the ground truth, into a temporary
directory. The `ckf_walk` figures are for its whole generated stream.

In `io` and `sim` each figure is the median per-frame time over REPEAT
passes, the raw figures the best, and `sum` adds the layers up. These are
layer micro-benchmarks; the end-to-end figures come from `replaybench/run.py`.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import array  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import operator  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "replaybench"))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
import numpy as np  # noqa: E402
from refclock import RefClock  # noqa: E402
# the workloads' table, their plans, and the rolling speed wheel_cli draws
# from its seed
from stream_digests import REPLAY_TABLE, WORKLOADS, workload_plan  # noqa: E402

SEED = 0  # seed of the plans and of the degradation
REPEAT = {"step": 10, "filter": 15, "io": 200, "sim": 15}  # timed passes
WINDOW = 200  # io: frames of the log in one timed pass, taken in turn
# filter: the frames of ckf_walk that the replay benchmark steps
CKF_FRAMES = REPLAY_TABLE["ckf_walk"]["frames"]

# step: stage name -> the Estimator method that runs it, in step order
STAGES = (
    ("attitude", "_attitude"),
    ("leg_frame", "_leg_frame"),
    ("gate", "_gate"),
    ("touchdown_obs", "_observe"),
    ("fusion", "_fuse"),
    ("yaw", "_yaw"),
)
# step: the keys of the stage times, and their names in BENCH_step.json
STAGE_KEYS = [attr for _, attr in STAGES] + ["other"]
STAGE_NAMES = [name for name, _ in STAGES] + ["other"]
# filter: piece -> the module and function that runs it
PIECES = (
    ("prediction", "ikvel", "_predict"),
    ("factorisation", "ikvel", "_factor_or_reset"),
    ("points", "ikvel", "_point_rows"),
    ("measurement_map", "kernels", "ik_measurement_rows"),
    ("gain_update", "ikvel", "_update"),
)


def workload(legodom, name):
    """(plan, config) of a replay-benchmark workload at SEED."""
    plan, config = WORKLOADS[name]
    return (legodom.planfile.parse_plan_text(workload_plan(plan, SEED)),
            legodom.parse_config_text(config))


def stream(legodom, name):
    """(degraded frames, config) of a workload at SEED."""
    plan, cfg = workload(legodom, name)
    res = legodom.generate_gait(plan)
    return legodom.degrade(res.frames, plan.imperfections, seed=SEED,
                           contacts=res.contacts, legs=plan.legs), cfg


@contextlib.contextmanager
def timers(targets):
    """Wrap each (owner, attribute, name) function with a timer for as long
    as the context lasts; yields name -> [seconds, calls]."""
    totals = {name: [0.0, 0] for _, _, name in targets}
    originals = []

    def timed(fn, total):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            total[0] += time.perf_counter() - t0
            total[1] += 1
            return out
        return wrapper

    try:
        for owner, attr, name in targets:
            originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, timed(originals[-1][2], totals[name]))
        yield totals
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def timed_pass(legodom, frames, cfg, clock, targets, records=False):
    """Step a fresh estimator over the frames with the targets(estimator)
    timed, asking for the diagnostics record after each step when records
    is true: (wall s, reference s, name -> [seconds, calls])."""
    est = legodom.Estimator(cfg)

    def run():
        for fr in frames:
            est.step(fr)

    def run_with_records():
        for fr in frames:
            est.step(fr)
            est.diagnostics()

    with timers(targets(est)) as totals:
        _, wall, at_ref = clock.timed(run_with_records if records else run)
    return wall, at_ref, totals


def fresh_pass(legodom, frames, cfg, clock):
    """Step a fresh estimator over the frames with no timers but one clock
    read around each step: (frame 0 s, median frame s, reference s per wall
    s)."""
    est = legodom.Estimator(cfg)

    def run():
        seconds = []
        for fr in frames:
            t0 = time.perf_counter()
            est.step(fr)
            seconds.append(time.perf_counter() - t0)
        return seconds

    seconds, wall, at_ref = clock.timed(run)
    return seconds[0], statistics.median(seconds), at_ref / wall


def keep_best(us, raw, name, seconds, scale, per):
    """Keep the lower of each figure and this pass's, in us per frame or call."""
    us[name] = min(us.get(name, float("inf")), seconds * scale / per * 1e6)
    raw[name] = min(raw.get(name, float("inf")), seconds / per * 1e6)


def rounded(figures):
    return {k: round(v, 2) for k, v in figures.items()}


def frame_pass(legodom, frames, cfg, clock):
    """Step a fresh estimator over the frames with its stage methods and
    `step` timed: (each frame's stage times in us, an (F, 7) array in STAGES
    order then "other", reference s per wall s). A frame's "other" is the
    rest of its step, the stage timers' own cost included, so a row adds up
    to the frame's timed step."""
    est = legodom.Estimator(cfg)
    targets = [(legodom.Estimator, attr, attr) for attr in STAGE_KEYS[:-1] + ["step"]]
    # the running totals are kept as C doubles: a list per frame would add
    # live objects to every later garbage collection, and so to the frames
    # that one falls on
    rows = array.array("d")
    with timers(targets) as totals:
        running = [totals[attr] for _, attr, _ in targets]
        seconds_of = operator.itemgetter(0)

        def run():
            for fr in frames:
                est.step(fr)
                rows.extend(map(seconds_of, running))

        _, wall, at_ref = clock.timed(run)
    cumulative = np.frombuffer(rows, dtype=np.float64).reshape(len(frames), len(targets))
    seconds = np.diff(cumulative, axis=0, prepend=0.0)
    seconds[:, -1] -= seconds[:, :-1].sum(axis=1)
    return seconds * 1e6, at_ref / wall


def stage_split(us):
    """A row of stage times as {stage name: us}, "other" last."""
    return rounded(dict(zip(STAGE_NAMES, us.tolist())))


def frame_figures(passes):
    """Frame 0, the median frame and the worst later frame over timed passes
    (each an (F, 7) array at the reference clock): per-frame medians over the
    passes, of the step and of each stage."""
    per_frame = np.median(np.array(passes), axis=0)
    total = per_frame.sum(axis=1)
    worst = 1 + int(np.argmax(total[1:]))
    return ({"us": round(float(total[0]), 2), "stages": stage_split(per_frame[0])},
            round(float(np.median(total)), 2),
            {"frame": worst, "us": round(float(total[worst]), 2),
             "stages": stage_split(per_frame[worst])})


def section_step(legodom, clock):
    streams = {"stair_trot": stream(legodom, "stair_trot")}
    ckf_frames, ckf_cfg = stream(legodom, "ckf_walk")
    streams["ckf_walk"] = ckf_frames[:CKF_FRAMES], ckf_cfg
    frames, cfg = streams["stair_trot"]
    record = [(legodom.Estimator, "diagnostics", "diagnostics")]
    passes = {name: [] for name in streams}
    us, raw, call_us, call_raw = {}, {}, {}, {}
    for _ in range(REPEAT["step"]):
        for name, (fr, c) in streams.items():
            stages, scale = frame_pass(legodom, fr, c, clock)
            passes[name].append(stages * scale)
            if name == "stair_trot":
                # the stages of the timed pass with the fastest step, so
                # they add up to its timed_step
                for figures, row in ((us, stages.mean(axis=0) * scale),
                                     (raw, stages.mean(axis=0))):
                    if row.sum() < figures.get("timed_step", float("inf")):
                        figures.update(stage_split(row), timed_step=round(float(row.sum()), 2))
        wall, at_ref, _ = timed_pass(legodom, frames, cfg, clock, lambda est: [])
        keep_best(us, raw, "step", wall, at_ref / wall, len(frames))
        wall, at_ref, totals = timed_pass(legodom, frames, cfg, clock,
                                          lambda est: record, records=True)
        s, calls = totals["diagnostics"]
        keep_best(call_us, call_raw, "diagnostics", s, at_ref / wall, calls)
    frame_0, median_frame, worst_frame = {}, {}, {}
    for name in streams:
        frame_0[name], median_frame[name], worst_frame[name] = frame_figures(passes[name])
    result = {"workload": "stair_trot", "seed": SEED, "frames": len(frames),
              "legs": frames[0].joints.shape[1], "repeat": REPEAT["step"],
              "us_per_frame": rounded(us), "raw_us_per_frame": rounded(raw),
              "us_per_call": rounded(call_us), "raw_us_per_call": rounded(call_raw),
              "frame_0": frame_0, "median_frame_us": median_frame,
              "worst_frame": worst_frame,
              "timed": {name: "Estimator.%s" % attr for name, attr in STAGES + (
                  ("diagnostics", "diagnostics"),)}}
    return result, {key: result[key] for key in ("us_per_frame", "us_per_call",
                                                 "frame_0", "worst_frame")}


def section_filter(legodom, clock):
    from legodom import ikvel, kernels

    frames, cfg = stream(legodom, "ckf_walk")
    frames = frames[:CKF_FRAMES]
    modules = {"ikvel": ikvel, "kernels": kernels}
    pieces = [(modules[module], attr, name) for name, module, attr in PIECES]

    def whole(est):
        return [(ikvel, "_ckf_legs", "cycle"), (est.ikvel, "update", "filter_update")]

    us, raw, calls = {}, {}, {}
    fresh = {"frame_0": [], "median_frame": []}
    fresh_raw = {"frame_0": [], "median_frame": []}
    for _ in range(REPEAT["filter"]):
        for targets in (lambda est: pieces, whole):
            wall, at_ref, totals = timed_pass(legodom, frames, cfg, clock, targets)
            for name, (s, n) in totals.items():
                keep_best(us, raw, name, s, at_ref / wall, n)
                calls[name] = n
        first, median, scale = fresh_pass(legodom, frames, cfg, clock)
        for name, s in (("frame_0", first), ("median_frame", median)):
            fresh[name].append(s * scale * 1e6)
            fresh_raw[name].append(s * 1e6)
    frame_us = rounded({name: statistics.median(v) for name, v in fresh.items()})
    frame_raw = rounded({name: statistics.median(v) for name, v in fresh_raw.items()})
    result = {"workload": "ckf_walk", "seed": SEED, "frames": len(frames),
              "legs": frames[0].joints.shape[1], "repeat": REPEAT["filter"],
              "us_per_call": rounded(us), "raw_us_per_call": rounded(raw),
              "calls_per_pass": calls,
              "timed": {name: "%s.%s" % (owner.__name__, attr)
                        for owner, attr, name in pieces},
              "us_per_frame": frame_us, "raw_us_per_frame": frame_raw,
              "frame_0_ratio": round(frame_us["frame_0"] / frame_us["median_frame"], 2)}
    return result, {key: result[key] for key in ("us_per_call", "us_per_frame",
                                                 "frame_0_ratio")}


def medians(at_ref, raw, apart=()):
    """(median, best) of each layer's per-frame times, `sum` added to each:
    the sum of every layer not named in apart."""
    us = {name: statistics.median(v) for name, v in at_ref.items()}
    best = {name: min(v) for name, v in raw.items()}
    for figures in (us, best):
        figures["sum"] = sum(v for name, v in figures.items() if name not in apart)
    return rounded(us), rounded(best)


def section_io(legodom, clock):
    from legodom import logio

    frames, cfg = stream(legodom, "wheel_cli")
    with tempfile.TemporaryDirectory() as work:
        log = os.path.join(work, "log.jsonl")
        logio.write_frames(log, frames)
        del frames  # a replay holds only its window's frames alive
        with open(log, encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
    encode = getattr(logio, "encode_json", json.dumps)
    if hasattr(logio, "_parse_line"):
        import orjson

        parse, parser = functools.partial(logio._parse_line, orjson=orjson), "logio._parse_line"
    else:
        parse, parser = json.loads, "json.loads"
    out = {}
    est = by_frame = None
    block = hasattr(legodom.Estimator, "step_block")

    def steps(parsed):  # as the replay steps a block
        if block:
            return [(st, est.diagnostics()) for st in est.step_block(parsed)]
        return [(est.step(fr), est.diagnostics()) for fr in parsed]

    layers = {  # in replay order: each layer takes the one before's output
        "line_parse": lambda window: list(map(parse, window)),
        "frame_from_dict": lambda _: list(map(logio.frame_from_dict, out["line_parse"])),
        "step_diagnostics": lambda _: steps(out["frame_from_dict"]),
        "step_diagnostics_by_frame": lambda _: [(by_frame.step(fr), by_frame.diagnostics())
                                                for fr in out["frame_from_dict"]],
        "trajectory_line": lambda _: [logio.trajectory_line(st)
                                      for st, _ in out["step_diagnostics"]],
        "diag_line": lambda _: [encode(rec) + "\n" for _, rec in out["step_diagnostics"]],
    }
    at_ref, raw = {name: [] for name in layers}, {name: [] for name in layers}
    windows = [lines[i:i + WINDOW] for i in range(0, len(lines) - WINDOW + 1, WINDOW)]
    for k in range(REPEAT["io"]):
        if k % len(windows) == 0:
            # the log from its first frame again
            est, by_frame = legodom.Estimator(cfg), legodom.Estimator(cfg)
        window = windows[k % len(windows)]
        for name, layer in layers.items():
            out[name], wall, ref = clock.timed(layer, window)
            at_ref[name].append(ref / len(window) * 1e6)
            raw[name].append(wall / len(window) * 1e6)
    us, best = medians(at_ref, raw, apart=("step_diagnostics_by_frame",))
    result = {"workload": "wheel_cli", "seed": SEED, "frames": len(lines),
              "window": WINDOW,
              "log_bytes_per_frame": round(sum(map(len, lines)) / len(lines), 1),
              "repeat": REPEAT["io"], "line_parser": parser,
              "step_path": "Estimator.step_block" if block else "Estimator.step",
              "diag_encoder": "logio.encode_json" if encode is not json.dumps else "json.dumps",
              "us_per_frame": us, "raw_best_us_per_frame": best}
    return result, us


def section_sim(legodom, clock):
    from legodom import gait, logio

    plans = {name: workload(legodom, name)[0] for name in WORKLOADS}
    at_ref = {name: {} for name in plans}
    raw = {name: {} for name in plans}
    frames_of = {}
    with tempfile.TemporaryDirectory() as work:
        log, gt = os.path.join(work, "log.jsonl"), os.path.join(work, "gt.csv")
        for _ in range(REPEAT["sim"]):
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
    results = {}
    for name in plans:
        us, best = medians(at_ref[name], raw[name])
        results[name] = {"frames": frames_of[name], "us_per_frame": us,
                         "raw_best_us_per_frame": best}
    result = {"seed": SEED, "repeat": REPEAT["sim"], "workloads": results}
    return result, {name: r["us_per_frame"] for name, r in results.items()}


SECTIONS = {"step": section_step, "filter": section_filter, "io": section_io,
            "sim": section_sim}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("section", choices=SECTIONS)
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="src directory of the checkout to measure")
    p.add_argument("--out", help="result file (default: BENCH_<section>.json "
                                 "in the repository root)")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import legodom
    import legodom.planfile  # noqa: F401  (parse_plan_text)

    result, shown = SECTIONS[args.section](legodom, RefClock())
    result["environment"] = {"python": platform.python_version(), "numpy": np.__version__,
                             "machine": platform.machine(), "cpus": os.cpu_count(),
                             "blas_threads": 1}
    out = args.out or os.path.join(ROOT, "BENCH_%s.json" % args.section)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(shown, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
