"""Replay benchmark for legodom: step latency, replay and simulate throughput.

Usage (from the repository root):

    python3 replaybench/run.py --workload stair_trot --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

  stair_trot  in-memory trot over the 0.1 m stair step, filter off
  ckf_walk    in-memory 500 Hz walk with the per-leg velocity filter on
  wheel_cli   in-process `legodom simulate --plan` -> `replay` -> `metrics`
              round trips on a wheel-rolling plan, files in a work dir

Load model: closed loop, one caller, one process. The next frame goes to
`Estimator.step` only after the previous call returns, as a control loop
calls the estimator; no worker threads, BLAS/OpenMP pinned to one thread.
Inputs come from the seed only; the program sees the plan and the frames
generated from it.

A run interleaves rounds until --seconds is up (a step pass, a set-up probe,
and a generation pass or a CLI round trip), so every activity samples the
whole run. Times are reported at a reference machine speed: each measured
wall time is scaled by a fixed calibration loop timed next to it
(refclock.py), because the shared machine changes speed by up to 1.7x from
one minute to the next. Step latency is taken per frame, as the median of
that frame's times across passes, so GC and interference spikes that hit
random frames drop out of p50 and p99. The raw figures are printed under
`info`.
README.md defines each metric.

`--trace 0` prints the end-to-end metrics (tracing off). `--trace 1` runs the
same inputs with spans recorded around every public function of each module
(replaybench/tracer.py) and prints the per-layer metrics, including the
tracing overhead against an untraced step loop in the same process.

Every run checks its outputs: finite states, one CSV row per frame, exit
code 0 from every CLI call, repeatable replays (identical states and CSV
sha256 across passes), and on stair_trot the final |dz| <= 0.01 m that
acceptance criterion 06 pins. A failed check counts in `failed`, the JSON
reports `"correct": false`, and the command exits 1.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Full results, the environment fingerprint and (traced runs) the
span file go to .bench_work/results/ under the repository root.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import array  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# 0.25 deg/s of IMU yaw drift: a deterministic error source that dominates
# the position error, so pos_rmse_m does not swing with the few random
# touchdown-height draws that create the support planes
STAIR_PLAN = """\
preset = stair_loop
waypoint = 0 0
waypoint = 3.6 0
waypoint = 0 0
degrade.touchdown_height_noise = 0.02
degrade.yaw_drift = 0.004363323129985824
"""

# the filter costs ~9 ms a frame here, so the stream is cut to its first
# 1000 frames (0.1 s of settling, then 1.9 s of trot): enough frames for ten
# above the p99, few enough for three passes in a run
CKF_PLAN = """\
preset = walk_line
settle_time = 0.1
waypoint = 0 0
waypoint = 0.3 0
degrade.encoder_quantum = 1e-3
degrade.rate_spike_prob = 0.02
degrade.rate_spike_gain = 5
"""

# the static wheel_roll path draws nothing at random, so the seed picks the
# rolling speed from a narrow band
WHEEL_PLAN = """\
preset = wheel_roll
duration = 4
speed = {speed!r}
degrade.wheel_slip = 0.02
degrade.yaw_drift = 0.005
"""

# sim_share: the share of the run spent generating streams (in-memory
# workloads); wheel_cli alternates a CLI round trip with each step pass
WORKLOADS = {
    "stair_trot": {"plan": STAIR_PLAN, "config": "init.position = 0 0 0.27\n",
                   "sim_share": 0.3, "final_dz_max": 0.01},
    "ckf_walk": {"plan": CKF_PLAN,
                 "config": "init.position = 0 0 0.3\nikvel.enabled = true\n",
                 "sim_share": 0.15, "frames": 1000},
    "wheel_cli": {"plan": WHEEL_PLAN,
                  "config": "geom.wheel_radius = 0.05\ninit.position = 0 0 0.3\n",
                  "cli": True},
}

E2E_UNITS = {
    "step_us_p50": "us", "step_us_p99": "us", "replay_fps": "frames/s",
    "sim_fps": "frames/s", "setup_s": "s", "peak_rss_mb": "MB",
    "pos_rmse_m": "m", "vel_rmse_mps": "m/s", "ok_frac": "ratio",
}

LAYER_UNITS = {
    "estimator.step.us": "us", "estimator.step.self_us": "us",
    "estimator.diagnostics.us": "us", "geometry.attitude.us": "us",
    "kernels.fk_position.us": "us", "kernels.fk_position.calls": "1/frame",
    "kernels.foot_force.us": "us", "kernels.foot_force.calls": "1/frame",
    "kernels.foot_force.reject_frac": "ratio",
    "kernels.ckf_leg_step.us_per_call": "us", "kernels.ckf_leg_step.calls": "1/frame",
    "legkin.fk_velocity.us": "us", "ikvel.update.us": "us",
    "ikvel.ckf_step.status_nonzero_frac": "ratio",
    "contact.us": "us", "contact.anchored_velocity_obs.us": "us",
    "contact.stance_legs_mean": "legs", "contact.touchdowns_per_kframe": "1/kframe",
    "height.correct_height.us_per_call": "us", "height.correct_height.calls": "1/frame",
    "height.snap_frac": "ratio", "height.planes_max": "count",
    "height.planes_to_json.us": "us", "wheel.us": "us",
    "wheel.propagate_contact.calls": "1/frame", "yawkin.us": "us",
    "yawkin.applied_frac": "ratio", "yawkin.degenerate": "count",
    "gait.generate_gait.us": "us", "gait.degrade.us": "us",
    "logio.read_frames.us": "us", "logio.write_frames.us": "us",
    "logio.write_trajectory.us": "us", "logio.write_diagnostics.us": "us",
    "logio.log_bytes": "B/frame", "logio.diag_bytes": "B/frame",
    "cli.replay.self_ms": "ms", "planfile.load_plan.ms": "ms",
    "config.load_config.ms": "ms", "metrics.compute_metrics.ms": "ms",
    "python.gc_collections": "1/kframe", "python.gc_p99_tail_frac": "ratio",
    "trace.overhead_frac": "ratio", "trace.absent_sites": "count",
}

SETUP_PROBES = 7
MIN_CLI_ROUNDS = 2
TAIL_SAMPLES_MIN = 10


def _fail_missing_program():
    print("replaybench: no program under %s; run from a full checkout" % SRC,
          file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "legodom", "__init__.py")):
    _fail_missing_program()
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import legodom  # noqa: E402
from legodom import cli, config, estimator, gait, kernels, logio, planfile  # noqa: E402
from refclock import CAL_EVERY_S, CAL_REF_S, RefClock  # noqa: E402
from tracer import Tracer  # noqa: E402


def git_head():
    """HEAD commit read from .git without running git; 'unknown' elsewhere."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(args):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "legodom": legodom.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "numba_enabled": bool(kernels.NUMBA_ENABLED),
        "legodom_backend": os.environ.get("LEGODOM_BACKEND", "unset"),
        "git_head": git_head(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def state_row(st):
    return np.array([st.stamp, *st.position, *st.rpy, *st.velocity])


def frames_digest(frames):
    h = hashlib.sha256()
    for fr in frames:
        h.update(np.float64(fr.stamp).tobytes())
        h.update(fr.att.tobytes())
        h.update(fr.gyro.tobytes())
        for leg in fr.legs:
            h.update(np.concatenate([leg.q, leg.dq, leg.tau]).tobytes())
        for w in fr.wheels or ():
            if w is not None:
                h.update(np.float64([w.psi, w.dpsi]).tobytes())
    return h.hexdigest()


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def rmse(est_rows, truth_rows):
    """Position and velocity RMS error of (n, 10) trajectory rows."""
    e = est_rows - truth_rows
    pos = float(np.sqrt(np.mean(np.sum(e[:, 1:4] ** 2, axis=1))))
    vel = float(np.sqrt(np.mean(np.sum(e[:, 7:10] ** 2, axis=1))))
    return pos, vel


class GcCounter:
    """Counts collections through gc.callbacks; GC itself stays on."""

    def __init__(self):
        self.count = 0

    def __call__(self, phase, info):
        if phase == "start":
            self.count += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


class StepTimer:
    """Closed-loop step timing over repeated passes of one stream.

    Each pass builds a fresh Estimator and steps every frame only after the
    previous call returned. The first pass records the states (unless
    reference rows are given); every later pass must reproduce them bit for
    bit. Between steps, at most every CAL_EVERY_S, the reference clock is
    recalibrated; each sample is kept raw and at the reference speed.
    """

    def __init__(self, frames, cfg, refclock, ref_rows=None):
        self.frames = frames
        self.cfg = cfg
        self.refclock = refclock
        self.rows = ref_rows
        self.raw = array.array("d")
        self.ref_passes = []
        self.gc_hit = bytearray()
        self.gc_collections = 0
        self.passes = 0
        self.bad_rows = 0
        self.mismatch = 0
        self.error = None

    def run_pass(self, deadline=float("inf")):
        """One pass; any pass but the first stops early at the deadline."""
        n = len(self.frames)
        first = self.rows is None
        rows = np.empty((n, 10)) if first else self.rows
        times = np.empty(n)
        scaled = np.empty(n)
        rc = self.refclock
        cal_prev = rc.calibrate() if rc.due() else rc.last
        seg = 0
        done = 0
        clock = time.perf_counter
        gcc = GcCounter()
        with gcc:
            try:
                est = estimator.Estimator(self.cfg)
                for k, fr in enumerate(self.frames):
                    g0 = gcc.count
                    t0 = clock()
                    st = est.step(fr)
                    t1 = clock()
                    times[k] = t1 - t0
                    done = k + 1
                    self.gc_hit.append(gcc.count != g0)
                    self.gc_collections += gcc.count - g0
                    row = state_row(st)
                    if not np.isfinite(row).all():
                        self.bad_rows += 1
                    if first:
                        rows[k] = row
                    elif not np.array_equal(rows[k], row):
                        self.mismatch += 1
                    if not first and t1 >= deadline:
                        break
                    if t1 - rc.last_at >= CAL_EVERY_S:
                        cal = rc.calibrate()
                        scaled[seg:done] = times[seg:done] * rc.scale(cal_prev, cal)
                        seg, cal_prev = done, cal
            except Exception as exc:  # a crashing step is a measured failure
                self.error = repr(exc)
        scaled[seg:done] = times[seg:done] * rc.scale(cal_prev, rc.calibrate())
        self.raw.extend(times[:done])
        self.ref_passes.append(scaled[:done].copy())
        if first and self.error is None:
            self.rows = rows
        self.passes += 1

    def ref_samples(self):
        """Every sample at the reference speed, in step order."""
        return np.concatenate(self.ref_passes)

    def per_frame(self):
        """Each frame's median reference-speed time across the passes. Spikes
        from GC and from other processes hit random frames, so they drop out;
        the frames that cost more every time stay."""
        table = np.full((len(self.ref_passes), len(self.frames)), np.nan)
        for i, times in enumerate(self.ref_passes):
            table[i, :len(times)] = times
        return np.nanmedian(table[:, :len(self.ref_passes[0])], axis=0)


class SetupProbes:
    """Fresh-interpreter set-up times, one probe at a time so that the
    probes spread over the run."""

    def __init__(self, bench, frame_dict):
        self.bench = bench
        frame_path = bench.write_work("first_frame.json", json.dumps(frame_dict))
        self.cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
                    bench.config_path, frame_path]
        self.raw = []
        self.ref = []
        self.failed = False
        # one untimed probe first, so no timed probe pays for writing the
        # bytecode cache of a fresh checkout
        self._probe()

    def _probe(self):
        rc = self.bench.refclock
        before = rc.calibrate() if rc.due() else rc.last
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        after = rc.calibrate()
        if not self.bench.check("setup_probe_exit_0", proc.returncode == 0,
                                proc.stderr.strip()[-300:]):
            self.failed = True
            return None
        raw = float(proc.stdout.strip().splitlines()[-1])
        return raw, raw * rc.scale(before, after)

    def step(self):
        if not self.failed and len(self.ref) < SETUP_PROBES:
            got = self._probe()
            if got is not None:
                self.raw.append(got[0])
                self.ref.append(got[1])

    def value(self):
        while not self.failed and len(self.ref) < SETUP_PROBES:
            self.step()
        self.bench.info["raw_setup_s"] = statistics.median(self.raw) if self.raw else None
        return statistics.median(self.ref) if self.ref else float("nan")


class Bench:
    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.t_start = time.perf_counter()
        self.deadline = self.t_start + args.seconds
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.info = {}
        results = os.path.join(ROOT, ".bench_work", "results")
        os.makedirs(results, exist_ok=True)
        self.results_stem = os.path.join(
            results, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
        self.work = os.path.join(ROOT, ".bench_work", "tmp-%d" % os.getpid())
        os.makedirs(self.work, exist_ok=True)
        self.plan_path = self.write_work("plan.txt", self._plan_text())
        self.config_path = self.write_work("config.txt", self.spec["config"])
        self.frame_cap = args.frames or self.spec.get("frames")
        self.log = os.path.join(self.work, "log.jsonl")
        self.gt = os.path.join(self.work, "gt.csv")
        self.traj = os.path.join(self.work, "traj.csv")
        self.cli_stats = {"sim_fps": [], "replay_fps": [], "shas": set(), "rounds": 0}
        self.refclock = RefClock()

    def _plan_text(self):
        rng = np.random.default_rng(self.args.seed)
        text = self.spec["plan"].format(speed=float(rng.uniform(0.495, 0.505)))
        if self.args.frames and self.spec.get("cli"):
            # a short run for the harness self-check; the trot streams are
            # truncated after generation instead
            text += "duration = %r\n" % (self.args.frames / 250.0)
        return text

    def write_work(self, name, text):
        path = os.path.join(self.work, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        return ok

    def past(self, deadline=None):
        return time.perf_counter() >= (self.deadline if deadline is None else deadline)

    # ----------------------------------------------------------- activities

    def generate(self, plan):
        """generate_gait + degrade: (truth rows, frames, wall s, reference s,
        digest)."""
        def run():
            res = gait.generate_gait(plan)
            return res, gait.degrade(res.frames, plan.imperfections, seed=self.args.seed,
                                     contacts=res.contacts, legs=plan.legs)

        (res, frames), wall, ref = self.refclock.timed(run)
        truth = np.array([state_row(s) for s in res.truth])
        return truth, frames, wall, ref, frames_digest(frames)

    def cli_call(self, argv):
        """In-process `legodom` call with stdout captured: (exit code, stdout,
        wall s, reference s)."""
        def run():
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crashing command is a measured failure
                code = repr(exc)
            return code, buf.getvalue()

        (code, out), wall, ref = self.refclock.timed(run)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.check("cli_exit_0", False, "%s -> %r" % (argv[0], code))
        return code, out, wall, ref

    def cli_round(self):
        """One `simulate --plan` -> `replay` -> `metrics` round trip; False
        when a command failed."""
        stats = self.cli_stats
        stats["rounds"] += 1
        code, _, _, t_sim = self.cli_call(
            ["simulate", "--plan", self.plan_path, "--out", self.log,
             "--ground-truth", self.gt, "--seed", str(self.args.seed)])
        if code != 0:
            return False
        code, _, _, t_rep = self.cli_call(
            ["replay", "--log", self.log, "--config", self.config_path, "--out", self.traj])
        if code != 0:
            return False
        code, out, _, _ = self.cli_call(["metrics", self.traj, "--ground-truth", self.gt])
        if code != 0:
            return False
        with open(self.log, encoding="utf-8") as fh:
            n = sum(1 for line in fh if line.strip())
        with open(self.traj, encoding="utf-8") as fh:
            n_rows = sum(1 for _ in fh) - 1
        self.check("csv_rows_equal_frames", n_rows == n, "%d rows, %d frames" % (n_rows, n))
        self.check("metrics_rows_equal_frames", json.loads(out)["n_rows"] == n)
        stats["shas"].add((file_sha256(self.log), file_sha256(self.traj)))
        stats["sim_fps"].append(n / t_sim)
        stats["replay_fps"].append(n / t_rep)
        stats["frames"] = n
        return True

    def cli_results(self):
        """Checks over all round trips; (truth rows, CSV rows)."""
        shas = self.cli_stats["shas"]
        self.check("replay_csv_sha256_repeatable", len(shas) == 1,
                   "%d distinct (log, csv) digests in %d rounds"
                   % (len(shas), self.cli_stats["rounds"]))
        self.info["cli_rounds"] = self.cli_stats["rounds"]
        if shas:
            self.info["log_sha256"], self.info["replay_csv_sha256"] = sorted(shas)[0]
        truth = np.loadtxt(self.gt, delimiter=",", skiprows=1, ndmin=2)
        csv_rows = np.loadtxt(self.traj, delimiter=",", skiprows=1, ndmin=2)
        self.check("csv_states_finite", bool(np.isfinite(csv_rows).all()))
        return truth, csv_rows

    def step_checks(self, timer, label):
        self.check(label + "_raises_nothing", timer.error is None, timer.error or "")
        self.attempted += len(timer.raw)
        self.failed += timer.bad_rows
        self.check(label + "_states_finite", timer.bad_rows == 0,
                   "%d non-finite states" % timer.bad_rows)
        self.check(label + "_repeatable", timer.mismatch == 0,
                   "%d states differ from the first pass" % timer.mismatch)
        self.info[label + "_passes"] = timer.passes
        self.info[label + "_samples"] = len(timer.raw)

    def accuracy(self, rows, truth):
        if rows is None:
            return float("nan"), float("nan")
        pos, vel = rmse(rows, truth)
        dz_max = self.spec.get("final_dz_max")
        if dz_max is not None:
            dz = abs(rows[-1, 3] - truth[-1, 3])
            self.check("final_dz_within_%g_m" % dz_max, dz <= dz_max, "|dz| = %.6f m" % dz)
        return pos, vel

    # ----------------------------------------------------------- end to end

    def run_e2e(self):
        """Interleaved rounds until the deadline, so that every activity
        samples the whole run: a step pass each round, plus a set-up probe
        and (in-memory) a generation pass or (wheel_cli) a CLI round trip.
        Times are at the reference speed (refclock.py); raw ones go to info."""
        cfg = config.load_config(self.config_path)
        if self.spec.get("cli"):
            self.cli_round()
            frames = logio.read_frames(self.log)
            timer = StepTimer(frames, cfg, self.refclock)
            probes = SetupProbes(self, logio.frame_to_dict(frames[0]))
            while True:
                timer.run_pass(self.deadline)
                if timer.error or self.past():
                    break
                probes.step()
                self.cli_round()
            while self.cli_stats["rounds"] < MIN_CLI_ROUNDS:
                self.cli_round()
            truth, csv_rows = self.cli_results()
            self.check("memory_replay_equals_cli_csv",
                       timer.rows is not None and np.array_equal(timer.rows, csv_rows))
            pos, vel = self.accuracy(csv_rows, truth)
            sim_fps = self.cli_stats["sim_fps"]
            replay = statistics.median(self.cli_stats["replay_fps"] or [0.0])
        else:
            t_loop = time.perf_counter()
            plan = planfile.load_plan(self.plan_path)
            truth, frames, gen_s, ref_s, digest = self.generate(plan)
            sim_fps = [len(frames) / ref_s]
            self.info["frames_generated"] = len(frames)
            self.info["frames_digest"] = digest
            if self.frame_cap:
                frames, truth = frames[:self.frame_cap], truth[:self.frame_cap]
            timer = StepTimer(frames, cfg, self.refclock)
            probes = SetupProbes(self, logio.frame_to_dict(frames[0]))
            while True:
                timer.run_pass(self.deadline)
                if timer.error or self.past():
                    break
                probes.step()
                if gen_s < self.spec["sim_share"] * (time.perf_counter() - t_loop):
                    _, again, wall, ref_s, d = self.generate(plan)
                    gen_s += wall
                    sim_fps.append(len(again) / ref_s)
                    self.check("simulate_repeatable", d == digest)
            pos, vel = self.accuracy(timer.rows, truth)
            if timer.rows is not None:
                self.info["states_sha256"] = hashlib.sha256(timer.rows.tobytes()).hexdigest()
        setup = probes.value()
        self.step_checks(timer, "step")

        us = timer.per_frame() * 1e6
        if not self.spec.get("cli"):
            replay = len(us) / float(np.sum(us)) * 1e6
        raw = np.asarray(timer.raw) * 1e6
        p99 = float(np.percentile(us, 99))
        tail = int(np.sum(us > p99))
        all_p99 = float(np.percentile(timer.ref_samples(), 99)) * 1e6
        self.info.update({"frames_per_pass": len(us),
                          "sim_passes": len(sim_fps),
                          "frames_above_p99": tail,
                          "all_samples_step_us_p99": all_p99,
                          "raw_step_us_p50": float(np.median(raw)),
                          "raw_step_us_p99": float(np.percentile(raw, 99)),
                          "calibrations": len(self.refclock.cals),
                          "calibration_ms_median": self.refclock.median() * 1e3})
        if not self.args.frames:
            self.check("p99_has_%d_frames_above" % TAIL_SAMPLES_MIN,
                       tail >= TAIL_SAMPLES_MIN, "%d above p99" % tail)
        return {
            "step_us_p50": float(np.median(us)),
            "step_us_p99": p99,
            "replay_fps": float(replay),
            "sim_fps": float(statistics.median(sim_fps or [0.0])),
            "setup_s": float(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pos_rmse_m": pos,
            "vel_rmse_mps": vel,
        }

    # ----------------------------------------------------------- traced

    def run_traced(self):
        """Spans over one pass of every activity, then an untraced step loop
        on the same frames for the overhead and GC counts."""
        tracer = Tracer()
        sizes = {}
        first_cal = len(self.refclock.cals)
        tracer.install()
        try:
            cfg = config.load_config(self.config_path)
            if self.spec.get("cli"):
                self.cli_round()
                n_gen = self.cli_stats.get("frames", 0)
                sizes = {"log": os.path.getsize(self.log),
                         "diag": os.path.getsize(self.traj + ".diag.jsonl")}
            else:
                truth, frames, _, _, _ = self.generate(planfile.load_plan(self.plan_path))
                n_gen = len(frames)
                if self.frame_cap:
                    frames, truth = frames[:self.frame_cap], truth[:self.frame_cap]
        finally:
            tracer.uninstall()
        # the traced steps' speed: calibrations around the traced round trip
        traced_cals = self.refclock.cals[first_cal:]

        if self.spec.get("cli"):
            truth, csv_rows = self.cli_results()
            self.accuracy(csv_rows, truth)
            frames = logio.read_frames(self.log)
        timer = StepTimer(frames, cfg, self.refclock)
        share_deadline = time.perf_counter() + 0.4 * self.args.seconds
        while not timer.error and not self.past(share_deadline):
            timer.run_pass(share_deadline)
        self.step_checks(timer, "step")
        if self.spec.get("cli"):
            self.check("memory_replay_equals_cli_csv",
                       timer.rows is not None and np.array_equal(timer.rows, csv_rows))
        else:
            self.accuracy(timer.rows, truth)
            traced = StepTimer(frames, cfg, self.refclock, ref_rows=timer.rows)
            first_cal = len(self.refclock.cals)
            tracer.install()
            try:
                traced.run_pass()
            finally:
                tracer.uninstall()
            self.step_checks(traced, "traced_step")
            traced_cals = self.refclock.cals[first_cal - 1:]

        tracer.write(self.results_stem + ".spans.jsonl")
        try:
            tracer.check_nesting()
            nest_ok, nest_detail = True, ""
        except ValueError as exc:
            nest_ok, nest_detail = False, str(exc)
        self.check("trace_spans_nested", nest_ok, nest_detail)
        metrics = self.layer_metrics(tracer, timer, n_gen, sizes,
                                     CAL_REF_S / float(np.median(traced_cals)))
        step_total = metrics["estimator.step.us"]
        layer_sum = sum(self.info["layer_self_us"].values())
        self.check("layer_self_times_sum_to_step",
                   abs(layer_sum - step_total) <= 1e-6 * max(step_total, 1.0),
                   "%.6f vs %.6f us/frame" % (layer_sum, step_total))
        if tracer.absent:
            print("absent trace sites: %s" % ", ".join(tracer.absent))
        self.info["absent_sites"] = tracer.absent
        self.info["trace_errors"] = dict(tracer.errors)
        return metrics

    def layer_metrics(self, tracer, timer, n_gen, sizes, traced_scale):
        agg, layer_self = tracer.totals()
        step_durs = tracer.step_durations()
        nf = max(len(step_durs), 1)
        ng = max(n_gen, 1)
        log_frames = ng if self.spec.get("cli") else 1
        obs = tracer.results

        def per_frame_us(*names):  # inclusive time inside steps, per frame
            return sum(agg[n][3] for n in names) / nf * 1e6

        def anywhere_us(name, count):  # inclusive time anywhere, per item
            return agg[name][1] / count * 1e6

        def per_call_us(name):  # inside steps
            return agg[name][3] / agg[name][2] * 1e6 if agg[name][2] else 0.0

        def per_call_ms(name):
            return agg[name][1] / agg[name][0] * 1e3 if agg[name][0] else 0.0

        def calls(name):
            return agg[name][2] / nf

        def frac(values):
            return sum(1 for v in values if v) / len(values) if values else 0.0

        def layer(prefix):
            return [n for n in tracer.names if n.startswith(prefix + ".")]

        us = np.asarray(timer.raw) * 1e6
        tail = us > np.percentile(us, 99)
        hits = np.frombuffer(bytes(timer.gc_hit), dtype=np.uint8).astype(bool)
        replay_self = [own for (nid, *_), own in zip(tracer.spans, tracer.self_times())
                       if tracer.names[nid] == "cli.replay"]
        heights = obs["height.correct_height"]
        self.info["layer_self_us"] = {k: v / nf * 1e6 for k, v in layer_self.items()}
        self.info["traced_frames"] = len(step_durs)
        return {
            "estimator.step.us": per_frame_us("estimator.step"),
            "estimator.step.self_us": layer_self.get("estimator", 0.0) / nf * 1e6,
            "estimator.diagnostics.us": anywhere_us("estimator.diagnostics", nf),
            "geometry.attitude.us": per_frame_us("geometry.quat_to_rpy",
                                                 "geometry.rpy_matrix"),
            "kernels.fk_position.us": per_frame_us("kernels.fk_position"),
            "kernels.fk_position.calls": calls("kernels.fk_position"),
            "kernels.foot_force.us": per_frame_us("kernels.foot_force"),
            "kernels.foot_force.calls": calls("kernels.foot_force"),
            "kernels.foot_force.reject_frac": frac([not ok for ok in obs["kernels.foot_force"]]),
            "kernels.ckf_leg_step.us_per_call": per_call_us("kernels.ckf_leg_step"),
            "kernels.ckf_leg_step.calls": calls("kernels.ckf_leg_step"),
            "legkin.fk_velocity.us": per_frame_us("legkin.fk_velocity"),
            "ikvel.update.us": per_frame_us("ikvel.update"),
            "ikvel.ckf_step.status_nonzero_frac": frac(obs["ikvel.ckf_step"]),
            "contact.us": per_frame_us(*layer("contact")),
            "contact.anchored_velocity_obs.us": per_frame_us("contact.anchored_velocity_obs"),
            "contact.stance_legs_mean": sum(obs["contact.gate_contact"]) / nf,
            "contact.touchdowns_per_kframe": sum(obs["contact.detect_touchdown"]) / nf * 1e3,
            "height.correct_height.us_per_call": per_call_us("height.correct_height"),
            "height.correct_height.calls": calls("height.correct_height"),
            "height.snap_frac": frac([snapped for snapped, _ in heights]),
            "height.planes_max": float(max((n for _, n in heights), default=0)),
            "height.planes_to_json.us": per_frame_us("height.planes_to_json"),
            "wheel.us": per_frame_us(*layer("wheel")),
            "wheel.propagate_contact.calls": calls("wheel.propagate_contact"),
            "yawkin.us": per_frame_us(*layer("yawkin")),
            "yawkin.applied_frac": calls("yawkin.apply_yaw_correction"),
            "yawkin.degenerate": float(tracer.errors.get(
                "yawkin.circular_mean:DegenerateMean", 0)),
            "gait.generate_gait.us": anywhere_us("gait.generate_gait", ng),
            "gait.degrade.us": anywhere_us("gait.degrade", ng),
            "logio.read_frames.us": anywhere_us("logio.read_frames", log_frames),
            "logio.write_frames.us": anywhere_us("logio.write_frames", log_frames),
            "logio.write_trajectory.us": anywhere_us("logio.write_trajectory", log_frames),
            "logio.write_diagnostics.us": anywhere_us("logio.write_diagnostics", log_frames),
            "logio.log_bytes": sizes.get("log", 0) / log_frames,
            "logio.diag_bytes": sizes.get("diag", 0) / log_frames,
            "cli.replay.self_ms": sum(replay_self) / len(replay_self) * 1e3
            if replay_self else 0.0,
            "planfile.load_plan.ms": per_call_ms("planfile.load_plan"),
            "config.load_config.ms": per_call_ms("config.load_config"),
            "metrics.compute_metrics.ms": per_call_ms("metrics.compute_metrics"),
            "python.gc_collections": timer.gc_collections / max(len(us), 1) * 1e3,
            "python.gc_p99_tail_frac": float(np.mean(hits[tail])) if tail.any() else 0.0,
            # both sides at the reference speed, so a machine-state change
            # between the two phases does not read as overhead
            "trace.overhead_frac": float(np.median(step_durs)) * traced_scale
            / float(np.median(timer.ref_samples())) - 1.0 if step_durs else 0.0,
            "trace.absent_sites": float(len(tracer.absent)),
        }

    # ----------------------------------------------------------- output

    def finish(self, metrics, units):
        fail_frac = self.failed / max(self.attempted, 1)
        if not self.args.trace:
            metrics["ok_frac"] = 1.0 - fail_frac
        correct = self.failed == 0 and all(c["ok"] for c in self.checks)
        # a non-finite value only comes from a failed phase; keep the JSON valid
        out = {name: {"value": float(metrics[name]) if np.isfinite(metrics[name]) else 0.0,
                      "unit": unit}
               for name, unit in units.items()}
        env = fingerprint(self.args)
        report = {"env": env, "checks": self.checks, "info": self.info,
                  "correct": correct, "attempted": self.attempted,
                  "failed": self.failed, "failed_frac": fail_frac, "metrics": out}
        with open(self.results_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
        print("env: %s" % json.dumps(env))
        for c in self.checks:
            if not c["ok"]:
                print("FAILED check %s: %s" % (c["check"], c["detail"]))
        print("info: %s" % json.dumps({k: v for k, v in self.info.items()
                                       if not isinstance(v, dict)}))
        print("failed_frac: %r (%d of %d)" % (fail_frac, self.failed, self.attempted))
        for name, m in out.items():
            print("%-40s %16.6g %s" % (name, m["value"], m["unit"]))
        print(json.dumps({"correct": correct, "attempted": self.attempted,
                          "failed": self.failed, "metrics": out}))
        return 0 if correct else 1

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--frames", type=int, default=0,
                   help="cap the stream length (harness self-check only)")
    args = p.parse_args(argv)
    bench = Bench(args)
    try:
        if args.trace:
            return bench.finish(bench.run_traced(), LAYER_UNITS)
        return bench.finish(bench.run_e2e(), E2E_UNITS)
    finally:
        bench.close()


if __name__ == "__main__":
    sys.exit(main())
