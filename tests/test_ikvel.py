import numpy as np
import pytest

from legodom import (CkfLegState, CkfNoise, JointReading, LegGeometry,
                     SingularJacobian, Unreachable, ckf_step, cubature_step,
                     fk_position, fk_velocity, ik_measurement, jacobian)
from legodom.ikvel import LegVelocityFilter, cubature_points, initial_state
import legodom.ikvel as ikvel
import legodom.kernels as kernels

from conftest import sample_joint

GEOM = LegGeometry(0.0955, 0.213, 0.213, 0.0, 1, np.zeros(3))
GEOM_R = LegGeometry(0.0955, 0.213, 0.213, 0.0, -1, np.zeros(3))


# --- inverse-kinematics measurement model ---------------------------------

def test_ik_round_trip_positions():
    rng = np.random.default_rng(0)
    for geom in (GEOM, GEOM_R):
        for _ in range(1000):
            q = sample_joint(rng)
            x = np.concatenate([fk_position(q, geom), np.zeros(3)])
            z = ik_measurement(x, geom)
            assert np.max(np.abs(z[:3] - q)) <= 1e-9
            assert np.max(np.abs(z[3:])) == 0.0


def test_ik_round_trip_velocities():
    # feed the velocity that forward kinematics produces for known joint rates
    rng = np.random.default_rng(1)
    for geom in (GEOM, GEOM_R):
        for _ in range(500):
            q = sample_joint(rng)
            dq = rng.normal(size=3)
            x = np.concatenate([fk_position(q, geom), fk_velocity(q, dq, geom)])
            z = ik_measurement(x, geom)
            assert np.max(np.abs(z[3:] - dq)) <= 1e-6


def test_ik_rates_self_round_trip():
    # rates recovered through the same Jacobian that generated the velocity
    rng = np.random.default_rng(2)
    lh, lt, _, _, side = GEOM.kernel_args()
    for _ in range(500):
        th = sample_joint(rng)
        dth = rng.normal(size=3)
        J = kernels.ik_jacobian(th[0], th[1], th[2], lh, lt, GEOM.l2, side)
        v = J @ dth
        d1, d2, d3, ok = kernels.ik_rates(th[0], th[1], th[2], -v[0], v[1], v[2],
                                          lh, lt, GEOM.l2, side, 1e-9)
        assert ok
        assert np.max(np.abs(np.array([d1, d2, d3]) - dth)) <= 1e-9


def test_array_ik_matches_scalar_kernels():
    # the filter maps every leg and cubature point in one array call; each
    # element must equal the scalar position solve plus the rate solve,
    # including clamped points outside the workspace, a singular Jacobian and
    # a NaN state
    rng = np.random.default_rng(8)
    geoms = (GEOM, GEOM_R)
    xs = np.full((2, 602, 6), np.nan)
    for g, geom in enumerate(geoms):
        for k in range(600):
            q = sample_joint(rng) * np.array([geom.side_sign, 1, 1])
            dq = rng.normal(size=3)
            xs[g, k] = np.concatenate([fk_position(q, geom), fk_velocity(q, dq, geom)])
            if k % 5 == 0:
                xs[g, k, :3] *= rng.uniform(1.05, 2.5)  # mostly out of reach
        reach = geom.thigh_len + geom.l2
        xs[g, 600] = [0.0, geom.side_sign * geom.hip_offset_len, -reach, 0.0, 0.1, 0.0]
    lh, lt, l2, side = (np.array([[getattr(g, a)] for g in geoms], dtype=float)
                        for a in ("hip_offset_len", "thigh_len", "l2", "side_sign"))
    z, viol, singular = ikvel._ik_h(xs, lh, lt, l2, side, ikvel.DET_EPS)
    assert z.shape == xs.shape and viol.shape == singular.shape == xs.shape[:2]
    for g, geom in enumerate(geoms):
        a = (geom.hip_offset_len, geom.thigh_len, geom.l2, float(geom.side_sign))
        for k, x in enumerate(xs[g]):
            t1, t2, t3, v = kernels.ik_joints(x[0], x[1], x[2], *a)
            d1, d2, d3, ok = kernels.ik_rates(t1, t2, t3, x[3], x[4], x[5], *a,
                                              ikvel.DET_EPS)
            assert np.array_equal(z[g, k], [t1, t2, t3, d1, d2, d3], equal_nan=True)
            assert viol[g, k] == v and singular[g, k] == (not ok)
    assert np.count_nonzero(viol > kernels.CLAMP_TOL) >= 150
    assert singular[:, 600].all() and np.all(z[:, 600, 3:] == 0.0)


def test_ik_unreachable_beyond_boundary():
    reach = GEOM.thigh_len + GEOM.l2
    x = np.array([0.0, GEOM.hip_offset_len, -(reach + 1e-6), 0.0, 0.0, 0.0])
    with pytest.raises(Unreachable):
        ik_measurement(x, GEOM)


def test_ik_singular_at_full_extension():
    reach = GEOM.thigh_len + GEOM.l2
    x = np.array([0.0, GEOM.hip_offset_len, -reach, 0.0, 0.1, 0.0])
    with pytest.raises(SingularJacobian):
        ik_measurement(x, GEOM)


# --- cubature machinery ----------------------------------------------------

def test_cubature_points_symmetric():
    rng = np.random.default_rng(3)
    x = rng.normal(size=6)
    A = rng.normal(size=(6, 6))
    P = A @ A.T + 1e-3 * np.eye(6)
    pts = cubature_points(x, P)
    assert pts.shape == (12, 6)
    assert np.max(np.abs(pts.sum(axis=0) - 12 * x)) <= 1e-12 * max(1, np.max(np.abs(x)))
    # sample covariance of the points reproduces P
    dev = pts - x
    assert np.max(np.abs(dev.T @ dev / 12 - P)) <= 1e-12


def _linear_kf_step(x, P, dt, z, Q, R, H):
    F = np.eye(6)
    F[:3, 3:] = dt * np.eye(3)
    xp = F @ x
    Pp = F @ P @ F.T + Q
    S = H @ Pp @ H.T + R
    K = Pp @ H.T @ np.linalg.inv(S)
    xn = xp + K @ (z - H @ xp)
    Pn = Pp - K @ S @ K.T
    return xn, 0.5 * (Pn + Pn.T)


def test_cubature_equals_kalman_on_linear_model():
    # the cubature rule is exact for linear-Gaussian models; over 100 steps it
    # must track an analytic Kalman filter to numerical precision
    rng = np.random.default_rng(4)
    H = rng.normal(size=(6, 6))
    while np.linalg.cond(H) > 50:
        H = rng.normal(size=(6, 6))
    Q = np.diag(rng.uniform(1e-6, 1e-3, 6))
    R = np.diag(rng.uniform(1e-4, 1e-2, 6))
    dt = 0.01

    x_c = rng.normal(size=6)
    P_c = np.diag(rng.uniform(0.01, 0.1, 6))
    x_k, P_k = x_c.copy(), P_c.copy()
    for _ in range(100):
        z = rng.normal(size=6)
        x_c, P_c = cubature_step(x_c, P_c, dt, z, Q, R, lambda s: H @ s)
        x_k, P_k = _linear_kf_step(x_k, P_k, dt, z, Q, R, H)
        assert np.max(np.abs(x_c - x_k)) <= 1e-8
        assert np.max(np.abs(P_c - P_k)) <= 1e-7


def test_uninformative_measurement_keeps_prior():
    rng = np.random.default_rng(6)
    q = sample_joint(rng)
    x0 = np.concatenate([fk_position(q, GEOM), np.zeros(3)])
    state = CkfLegState(x0.copy(), np.diag([1e-4] * 3 + [1e-1] * 3), 0.0)
    noise = CkfNoise(np.zeros((6, 6)), np.eye(6) * 1e12)
    t = 0.0
    for _ in range(100):
        t += 0.002
        z = np.concatenate([q + rng.normal(scale=0.1, size=3),
                            rng.normal(scale=1.0, size=3)])
        state, _ = ckf_step(state, z, t, noise, GEOM)
    assert np.max(np.abs(state.x - x0)) <= 1e-6


def test_posterior_trace_never_grows_in_update():
    rng = np.random.default_rng(7)
    noise = CkfNoise.from_diagonals()
    q = sample_joint(rng)
    state = initial_state(q, GEOM, 0.0)
    t = 0.0
    for _ in range(50):
        t += 0.002
        dt = 0.002
        # predicted covariance computed independently (linear process, exact)
        F = np.eye(6)
        F[:3, 3:] = dt * np.eye(3)
        p_pred = F @ state.P @ F.T + noise.q_cov * dt
        z = np.concatenate([q + rng.normal(scale=1e-3, size=3),
                            rng.normal(scale=0.1, size=3)])
        state, status = ckf_step(state, z, t, noise, GEOM)
        assert status == 0
        assert np.trace(state.P) <= np.trace(p_pred) + 1e-12


def test_dt_truncation_guards_timestamp_jumps():
    q = np.array([0.0, 0.8, -1.6])
    x0 = np.concatenate([fk_position(q, GEOM), np.array([0.5, 0.0, 0.0])])
    state = CkfLegState(x0.copy(), np.diag([1e-6] * 3 + [1e-6] * 3), 0.0)
    noise = CkfNoise.from_diagonals()
    z = np.concatenate([q, np.zeros(3)])
    out, _ = ckf_step(state, z, 50.0, noise, GEOM)  # 50 s gap: dt forced to 0
    assert np.max(np.abs(out.x[:3] - x0[:3])) < 0.01  # no 25 m coast


def test_cholesky_failure_recovers():
    q = np.array([0.0, 0.8, -1.6])
    x0 = np.concatenate([fk_position(q, GEOM), np.zeros(3)])
    state = CkfLegState(x0.copy(), np.zeros((6, 6)), 0.0)  # not PD
    noise = CkfNoise.from_diagonals()
    out, status = ckf_step(state, np.concatenate([q, np.zeros(3)]), 0.002,
                           noise, GEOM)
    assert status & ikvel.CKF_CHOL_RESET
    assert np.all(np.isfinite(out.x))
    assert np.all(np.linalg.eigvalsh(out.P) > 0)


def test_mixed_recovery_batch_matches_one_leg_steps(legs4):
    # one leg per recovery branch in a single batch: each leg must come out
    # bit-equal to its own one-leg ckf_step, so no branch leaks across legs
    q = np.array([0.05, 0.8, -1.6])
    p_op = np.diag([1e-6] * 3 + [1e-2] * 3)
    # a slightly negative R leaves every leg's innovation covariance positive
    # definite except that of the leg whose covariance is ~0
    noise = CkfNoise(np.zeros((6, 6)), -1e-12 * np.eye(6))
    xs, ps, zs, expected = [], [], [], []
    for i, geom in enumerate(legs4):
        qg = q * np.array([geom.side_sign, 1, 1])
        x = np.concatenate([fk_position(qg, geom), np.zeros(3)])
        P = p_op
        if i == 0:
            P, status = -np.eye(6), ikvel.CKF_CHOL_RESET
        elif i == 1:
            reach = geom.thigh_len + geom.l2
            x = np.array([0.0, geom.side_sign * geom.hip_offset_len, -reach,
                          0.0, 0.1, 0.0])
            status = ikvel.CKF_RATE_FALLBACK | ikvel.CKF_CLAMPED
        elif i == 2:
            P, status = 1e-20 * np.eye(6), ikvel.CKF_UPDATE_SKIPPED
        else:
            status = 0
        xs.append(x)
        ps.append(P)
        zs.append(np.concatenate([qg, np.zeros(3)]))
        expected.append(status)

    filt = LegVelocityFilter(legs4, noise=noise)
    filt.states = CkfLegState(np.array(xs), np.array(ps), 0.0)
    readings = [JointReading(z[:3], z[3:], np.zeros(3)) for z in zs]
    vel = filt.update(0.002, readings)
    for i, geom in enumerate(legs4):
        solo, status = ckf_step(CkfLegState(xs[i], ps[i], 0.0), zs[i], 0.002,
                                noise, geom)
        assert status == expected[i]
        assert np.array_equal(filt.states.x[i], solo.x)
        assert np.array_equal(filt.states.P[i], solo.P)
        assert np.array_equal(vel[i], solo.x[3:])
    assert filt.status_counts == {s: 1 for s in expected if s}
    assert all(type(k) is int for k in filt.status_counts)


def test_side_constraint_on_posterior():
    q = np.array([0.05, 0.8, -1.6])
    for geom in (GEOM, GEOM_R):
        qg = q * np.array([geom.side_sign, 1, 1])
        state = initial_state(qg, geom, 0.0)
        noise = CkfNoise.from_diagonals()
        t = 0.0
        for _ in range(20):
            t += 0.002
            state, _ = ckf_step(state, np.concatenate([qg, np.zeros(3)]), t,
                                noise, geom)
            assert state.x[1] * geom.side_sign >= 0.0


# --- leg velocity filter ----------------------------------------------------

def _swing_samples(rate, duration, rng=None, side=1):
    ts = np.arange(int(duration * rate)) / rate
    qs, dqs = [], []
    for t in ts:
        q = np.array([0.05 * np.sin(2 * np.pi * t),
                      0.6 + 0.3 * np.sin(2 * np.pi * 1.5 * t),
                      -1.5 + 0.25 * np.cos(2 * np.pi * 1.5 * t)])
        dq = np.array([0.05 * 2 * np.pi * np.cos(2 * np.pi * t),
                       0.3 * 2 * np.pi * 1.5 * np.cos(2 * np.pi * 1.5 * t),
                       -0.25 * 2 * np.pi * 1.5 * np.sin(2 * np.pi * 1.5 * t)])
        qs.append(q)
        dqs.append(dq)
    return ts, qs, dqs


def test_filter_converges_on_clean_swing():
    # constant-velocity leg excursion (a stance leg under steady body motion):
    # the process model is exact there and the filter must lock on
    rate = 500.0
    duration = 0.9
    x0 = fk_position(np.array([0.02, 0.75, -1.5]), GEOM)
    v = np.array([0.05, -0.02, 0.03])
    filt = LegVelocityFilter([GEOM], enabled=True)
    errs = []
    for k in range(int(duration * rate)):
        t = k / rate
        x = np.concatenate([x0 + v * t, v])
        z = ik_measurement(x, GEOM)
        vf = filt.update(t, [JointReading(z[:3], z[3:], np.zeros(3))])[0]
        errs.append(np.max(np.abs(vf - v)))
    assert max(errs[int(0.5 * rate):]) <= 1e-3


def test_filter_disabled_is_fk_passthrough():
    rate = 500.0
    ts, qs, dqs = _swing_samples(rate, 0.2)
    filt = LegVelocityFilter([GEOM], enabled=False)
    for t, q, dq in zip(ts, qs, dqs):
        v = filt.update(t, [JointReading(q, dq, np.zeros(3))])[0]
        assert np.array_equal(v, fk_velocity(q, dq, GEOM))


def test_filter_suppresses_single_rate_spike():
    rate = 500.0
    ts, qs, dqs = _swing_samples(rate, 1.0)
    spike_at = int(0.7 * rate)
    filt = LegVelocityFilter([GEOM], enabled=True)
    raw_dev = filt_dev = 0.0
    for k, (t, q, dq) in enumerate(zip(ts, qs, dqs)):
        dq_meas = dq * 20.0 if k == spike_at else dq
        v_true = fk_velocity(q, dq, GEOM)
        v_raw = fk_velocity(q, dq_meas, GEOM)
        v_f = filt.update(t, [JointReading(q, dq_meas, np.zeros(3))])[0]
        if k >= spike_at:
            raw_dev = max(raw_dev, np.max(np.abs(v_raw - v_true)))
            filt_dev = max(filt_dev, np.max(np.abs(v_f - v_true)))
    assert filt_dev <= 0.25 * raw_dev


def test_per_leg_states_are_independent():
    rate = 500.0
    ts, qs, dqs = _swing_samples(rate, 0.4)
    qs2 = [q + np.array([0.02, -0.1, 0.15]) for q in qs]
    dqs2 = [dq * 0.7 for dq in dqs]

    joint = LegVelocityFilter([GEOM, GEOM_R], enabled=True)
    solo_a = LegVelocityFilter([GEOM], enabled=True)
    solo_b = LegVelocityFilter([GEOM_R], enabled=True)
    for t, qa, da, qb, db in zip(ts, qs, dqs, qs2, dqs2):
        ra = JointReading(qa, da, np.zeros(3))
        rb = JointReading(qb * np.array([-1, 1, 1]), db, np.zeros(3))
        va, vb = joint.update(t, [ra, rb])
        sa = solo_a.update(t, [ra])[0]
        sb = solo_b.update(t, [rb])[0]
        assert np.array_equal(va, sa)
        assert np.array_equal(vb, sb)
