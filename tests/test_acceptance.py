"""Acceptance suite: every release criterion at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The synthetic streams come from the session stream cache
(`stream` in conftest.py), so each is generated once per session.
"""

import time

import numpy as np
import pytest

from legodom import (Estimator, EstimatorConfig, LegGeometry, compute_metrics, kernels,
                     rolling_bias, wrap_angle)
from legodom.cli import main as cli_main
from legodom.ikvel import DET_EPS, cubature_step
from legodom.wheel import effective_roll_increment

from conftest import leg_coefficients, sample_joint
from test_leg_kinematics import (fk_chain_oracle, jacobian_fd_oracle, leg_forces,
                                 rolling_sim_oracle)

GEOM = LegGeometry(0.0955, 0.213, 0.213, 0.0, 1, np.zeros(3))


def _report(num, ok, detail):
    print("criterion %2d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


@pytest.fixture(scope="module")
def walk_quantized(stream):
    # 500 Hz, ~30 s of walking
    return stream("walk_line", 0, {"encoder_quantum": 1e-3})


@pytest.fixture(scope="module")
def stair_noisy(stream):
    # five up/down cycles over a 0.1 m step
    window = EstimatorConfig().height_window
    return stream("stair_loop", 0, {"touchdown_height_noise": window / 2})


def test_criterion_01_kinematics_oracles():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    geoms, q_free, dq, q, f_true = [], [], [], [], []
    for _ in range(1000):
        side = 1 if rng.random() < 0.5 else -1
        geoms.append(LegGeometry(0.0955, 0.213, 0.213, 0.0, side, np.zeros(3)))
        q_free.append(rng.uniform(-np.pi / 2, np.pi / 2, 3))
        dq.append(rng.normal(size=3))
        q.append(sample_joint(rng))
        f_true.append(rng.normal(scale=100.0, size=3))
    q_free, dq, q, f_true = map(np.array, (q_free, dq, q, f_true))
    coef = leg_coefficients(geoms)
    r, J = kernels.leg_kinematics(q_free, coef)
    # the foot velocities the estimator uses: leg_columns', summed as written
    v = kernels.leg_columns(q_free, dq, np.zeros_like(dq), coef, kernels.SIGMA_MIN)[1]
    J_fd = jacobian_fd_oracle(q_free, coef)
    J_q = kernels.leg_kinematics(q, coef)[1]
    tau = (np.swapaxes(J_q, -1, -2) @ f_true[..., None])[..., 0]
    f, ok_f = leg_forces(q, tau, [kernels.leg_coefficients(*g.kernel_args()) for g in geoms])
    worst_fk = worst_jac = worst_vel = worst_wrench = 0.0
    for k, geom in enumerate(geoms):
        worst_fk = max(worst_fk, np.max(np.abs(r[k] - fk_chain_oracle(q_free[k], geom))))
        scale = max(1.0, np.max(np.abs(J[k])))
        worst_jac = max(worst_jac, np.max(np.abs(J[k] - J_fd[k])) / scale)
        worst_vel = max(worst_vel, np.max(np.abs(v[k] - J[k] @ dq[k])))
        worst_wrench = max(worst_wrench, np.max(np.abs(J_q[k].T @ f[k] - tau[k])))
    elapsed = time.monotonic() - t0
    gated = np.count_nonzero(~ok_f)
    ok = (worst_fk <= 1e-12 and worst_jac <= 1e-6 and worst_vel <= 1e-12
          and worst_wrench <= 1e-9 and gated == 0 and elapsed < 5.0)
    _report(1, ok, "fk=%.1e jac=%.1e vel=%.1e wrench=%.1e gated=%d in %.2fs"
            % (worst_fk, worst_jac, worst_vel, worst_wrench, gated, elapsed))


def test_criterion_02_ik_round_trip():
    rng = np.random.default_rng(102)
    sides, q = [], []
    for _ in range(1000):
        sides.append(1.0 if rng.random() < 0.5 else -1.0)
        q.append(sample_joint(rng))
    q, sides = np.array(q), np.array(sides)
    lh, lt, lc, rw, _ = GEOM.kernel_args()
    x = np.zeros((6, len(q)))
    x[:3] = kernels.leg_kinematics(q, kernels.leg_coefficients(lh, lt, lc, rw, sides))[0].T
    z, viol, singular = kernels.ik_measurement_rows(
        x, kernels.ik_coefficients(lh, lt, GEOM.l2, sides), DET_EPS)
    worst = np.max(np.abs(z[:3].T - q))
    failed = np.count_nonzero((viol > kernels.CLAMP_TOL) | singular)
    _report(2, worst <= 1e-9 and failed == 0,
            "worst joint error %.2e rad, %d unreachable or singular" % (worst, failed))


def test_criterion_03_ckf_matches_linear_kalman():
    rng = np.random.default_rng(103)
    H = rng.normal(size=(6, 6))
    while np.linalg.cond(H) > 50:
        H = rng.normal(size=(6, 6))
    Q = np.diag(rng.uniform(1e-6, 1e-3, 6))
    R = np.diag(rng.uniform(1e-4, 1e-2, 6))
    dt = 0.01
    x_c = rng.normal(size=6)
    P_c = np.diag(rng.uniform(0.01, 0.1, 6))
    x_k, P_k = x_c.copy(), P_c.copy()
    F = np.eye(6)
    F[:3, 3:] = dt * np.eye(3)
    worst_x = worst_p = 0.0
    for _ in range(100):
        z = rng.normal(size=6)
        x_c, P_c = cubature_step(x_c, P_c, dt, z, Q, R, lambda s: H @ s)
        xp = F @ x_k
        Pp = F @ P_k @ F.T + Q
        S = H @ Pp @ H.T + R
        K = Pp @ H.T @ np.linalg.inv(S)
        x_k = xp + K @ (z - H @ xp)
        P_k = Pp - K @ S @ K.T
        P_k = 0.5 * (P_k + P_k.T)
        worst_x = max(worst_x, np.max(np.abs(x_c - x_k)))
        worst_p = max(worst_p, np.max(np.abs(P_c - P_k)))
    ok = worst_x <= 1e-8 and worst_p <= 1e-7
    _report(3, ok, "mean dev %.1e, cov dev %.1e over 100 steps" % (worst_x, worst_p))


def test_criterion_04_zero_noise_closed_loop(stream):
    t0 = time.monotonic()
    plan, res, _ = stream("flat_loop")  # 8 x 2 m rectangle, 20 m perimeter
    cfg = EstimatorConfig(initial_position=[0, 0, plan.body_height])
    est = Estimator(cfg)
    for fr in res.frames:
        st = est.step(fr)
    elapsed = time.monotonic() - t0
    first = cfg.initial_position
    closure = float(np.linalg.norm(st.position - first))
    yaw_err = abs(wrap_angle(st.rpy[2] - res.truth[-1].rpy[2]))
    ok = closure <= 1e-6 and yaw_err <= 1e-9 and elapsed < 10.0
    _report(4, ok, "closure %.2e m, yaw %.2e rad, %.1fs" % (closure, yaw_err, elapsed))


def test_criterion_05_spike_suppression(walk_quantized):
    plan, res, frames = walk_quantized
    truth_v = np.array([tr.velocity for tr in res.truth])
    settle = int(plan.settle_time * plan.rate_hz) + int(plan.rate_hz)
    peaks = {}
    for enabled in (False, True):
        cfg = EstimatorConfig(initial_position=[0, 0, plan.body_height],
                              ikvel_enabled=enabled)
        est = Estimator(cfg)
        devs = np.empty(len(frames))
        for k, (fr, tv) in enumerate(zip(frames, truth_v)):
            st = est.step(fr)
            devs[k] = np.hypot(st.velocity[0] - tv[0], st.velocity[1] - tv[1])
        peaks[enabled] = devs[settle:].max()
    ratio = peaks[True] / peaks[False]
    _report(5, ratio <= 0.35, "peak %.3f -> %.3f m/s, ratio %.3f"
            % (peaks[False], peaks[True], ratio))


def test_criterion_06_elevation_stability(stair_noisy):
    plan, res, frames = stair_noisy
    errs = {}
    for enabled in (True, False):
        cfg = EstimatorConfig(initial_position=[0, 0, plan.body_height],
                              height_enabled=enabled)
        est = Estimator(cfg)
        for fr in frames:
            st = est.step(fr)
        errs[enabled] = abs(st.position[2] - res.truth[-1].position[2])
    ok = errs[True] <= 0.01 and errs[False] >= 5.0 * errs[True]
    _report(6, ok, "|dz| on %.4f m, off %.4f m" % (errs[True], errs[False]))


def test_criterion_07_yaw_drift_arrest(stream):
    plan, res, frames = stream("standing", 0, {"yaw_drift": np.deg2rad(0.5)})
    cfg = EstimatorConfig(initial_position=[0, 0, plan.body_height])
    est = Estimator(cfg)
    worst_late = 0.0
    for fr, tr in zip(frames, res.truth):
        st = est.step(fr)
        if fr.stamp >= 2.0 * cfg.yaw_ramp_time:
            worst_late = max(worst_late,
                             abs(wrap_angle(st.rpy[2] - tr.rpy[2])))
    ok = worst_late <= np.deg2rad(0.1)
    _report(7, ok, "steady-state yaw error %.2e deg" % np.rad2deg(worst_late))


def test_criterion_08_rolling_bias_oracle():
    worst = 0.0
    for a1 in np.deg2rad(np.linspace(60, 100, 9)):
        for a2 in np.deg2rad(np.linspace(60, 140, 17)):
            dx, dz = rolling_bias(0.03, a1, a2)
            sx, sz = rolling_sim_oracle(0.03, a1, a2)
            worst = max(worst, abs(dx - sx), abs(dz - sz))
    bias_ok = True
    a1 = np.deg2rad(80.0)
    for a2 in np.deg2rad(np.linspace(60, 120, 61)):
        dx, dz = rolling_bias(0.03, a1, a2)
        bias_ok = bias_ok and abs(dz) <= 5e-3 and abs(dx) <= 1e-3
    ok = worst <= 1e-9 and bias_ok
    _report(8, ok, "closed-form vs rolling sim %.1e; magnitude bounds %s"
            % (worst, "held" if bias_ok else "violated"))


def test_criterion_09_wheel_propagation(stream):
    plan, res, _ = stream("wheel_roll")  # 0.5 m/s for 10 s, no slip
    cfg = EstimatorConfig(legs=plan.legs,
                          initial_position=[0, 0, plan.body_height])
    est = Estimator(cfg)
    q = np.array([fr.joints[0] for fr in res.frames])
    r_frames = kernels.leg_kinematics(q, leg_coefficients(plan.legs))[0]
    worst = 0.0
    for k, (fr, tr) in enumerate(zip(res.frames, res.truth)):
        est.step(fr)
        for i, geom in enumerate(plan.legs):
            expect = tr.position + geom.hip_mount + r_frames[k, i]
            worst = max(worst, np.max(np.abs(est.records[i].anchor - expect)))

    _, swing, _ = stream("wheel_swing")
    worst_eff = 0.0
    prev = None
    for fr in swing.frames:
        if prev is not None:
            for i in range(len(plan.legs)):
                eff = effective_roll_increment(
                    fr.wheels[i].psi, prev.wheels[i].psi, 0.0, 0.0,
                    fr.legs[i].q[1], fr.legs[i].q[2],
                    prev.legs[i].q[1], prev.legs[i].q[2])
                worst_eff = max(worst_eff, abs(eff))
        prev = fr
    ok = worst <= 1e-9 and worst_eff <= 1e-12
    _report(9, ok, "anchor tracking %.1e m; pinned-wheel increment %.1e rad"
            % (worst, worst_eff))


def test_criterion_10_metrics_arithmetic():
    rows = np.array([[0.0, 0.0, 0.0, 0.0] + [0.0] * 6,
                     [1.0, 1.61, 1.52, 0.0] + [0.0] * 6])
    m = compute_metrics(rows)
    # the quoted distance comes from unrounded displacements; the stated
    # centimetre-rounded deltas bound it within 5e-4
    ok = abs(m["e_xy"] - 2.2138) <= 5e-4 and m["e_xy"] == np.hypot(1.61, 1.52)
    _report(10, ok, "e_xy %.5f vs 2.2138" % m["e_xy"])


def test_criterion_11_determinism(tmp_path):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("preset = standing\nduration = 2.0\n"
                         "degrade.encoder_quantum = 1e-3\n")
    log = tmp_path / "log.jsonl"
    assert cli_main(["simulate", "--plan", str(plan_file), "--out", str(log),
                     "--seed", "0"]) == 0
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["replay", "--log", str(log), "--out", str(t1)]) == 0
    assert cli_main(["replay", "--log", str(log), "--out", str(t2)]) == 0
    same = t1.read_bytes() == t2.read_bytes()
    _report(11, same, "trajectory files byte-identical: %s" % same)
