import numpy as np

from legodom import CkfLegState, CkfNoise, LegGeometry, cubature_step
from legodom.ikvel import LegVelocityFilter
import legodom.ikvel as ikvel
import legodom.kernels as kernels

import kernels_reference as ref
from conftest import filter_cycle, kinematics, sample_joint

GEOM = LegGeometry(0.0955, 0.213, 0.213, 0.0, 1, np.zeros(3))
GEOM_R = LegGeometry(0.0955, 0.213, 0.213, 0.0, -1, np.zeros(3))


# --- inverse-kinematics measurement model ---------------------------------

def _ik(x, geom):
    """kernels.ik_measurement_rows of the (position, velocity) states x
    (N, 6) of the leg geom: (z (N, 6), viol (N,), singular (N,))."""
    lh, lt, _, _, side = geom.kernel_args()
    z, viol, singular = kernels.ik_measurement_rows(
        np.asarray(x, dtype=float).T, kernels.ik_coefficients(lh, lt, geom.l2, side),
        ikvel.DET_EPS)
    return z.T, viol, singular


def _state(geom, q, dq=None):
    """Filter states (N, 6) of joint samples q (N, 3): FK positions and the
    velocities of the rates dq (zeros when None)."""
    r, _, v = kinematics(geom, q, dq)
    return np.concatenate([r, v], axis=-1)


def test_ik_round_trip_positions():
    rng = np.random.default_rng(0)
    for geom in (GEOM, GEOM_R):
        q = np.array([sample_joint(rng) for _ in range(1000)])
        z, viol, singular = _ik(_state(geom, q), geom)
        assert not (viol > kernels.CLAMP_TOL).any() and not singular.any()
        assert np.max(np.abs(z[:, :3] - q)) <= 1e-9
        assert np.max(np.abs(z[:, 3:])) == 0.0


def test_ik_round_trip_velocities():
    # feed the velocity that forward kinematics produces for known joint rates
    rng = np.random.default_rng(1)
    for geom in (GEOM, GEOM_R):
        q, dq = [], []
        for _ in range(500):
            q.append(sample_joint(rng))
            dq.append(rng.normal(size=3))
        z, viol, singular = _ik(_state(geom, q, dq), geom)
        assert not (viol > kernels.CLAMP_TOL).any() and not singular.any()
        assert np.max(np.abs(z[:, 3:] - dq)) <= 1e-6


def test_ik_rates_self_round_trip():
    # rates recovered through the same Jacobian that generated the velocity
    rng = np.random.default_rng(2)
    lh, lt, _, _, side = GEOM.kernel_args()
    for _ in range(500):
        th = sample_joint(rng)
        dth = rng.normal(size=3)
        J = ref.ik_jacobian(th[0], th[1], th[2], lh, lt, GEOM.l2, side)
        v = J @ dth
        d1, d2, d3, ok = ref.ik_rates(th[0], th[1], th[2], -v[0], v[1], v[2],
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
        q, dq, scale = [], [], np.ones((600, 6))
        for k in range(600):
            q.append(sample_joint(rng) * np.array([geom.side_sign, 1, 1]))
            dq.append(rng.normal(size=3))
            if k % 5 == 0:
                scale[k, :3] = rng.uniform(1.05, 2.5)  # mostly out of reach
        xs[g, :600] = _state(geom, q, dq) * scale
        reach = geom.thigh_len + geom.l2
        xs[g, 600] = [0.0, geom.side_sign * geom.hip_offset_len, -reach, 0.0, 0.1, 0.0]
    lh, lt, l2, side = (np.array([[getattr(g, a)] for g in geoms], dtype=float)
                        for a in ("hip_offset_len", "thigh_len", "l2", "side_sign"))
    z, viol, singular = kernels.ik_measurement_rows(
        np.moveaxis(xs, -1, 0), kernels.ik_coefficients(lh, lt, l2, side), ikvel.DET_EPS)
    z = np.moveaxis(z, 0, -1)
    assert z.shape == xs.shape and viol.shape == singular.shape == xs.shape[:2]
    for g, geom in enumerate(geoms):
        a = (geom.hip_offset_len, geom.thigh_len, geom.l2, float(geom.side_sign))
        for k, x in enumerate(xs[g]):
            t1, t2, t3, v = ref.ik_joints(x[0], x[1], x[2], *a)
            d1, d2, d3, ok = ref.ik_rates(t1, t2, t3, x[3], x[4], x[5], *a,
                                          ikvel.DET_EPS)
            assert np.array_equal(z[g, k], [t1, t2, t3, d1, d2, d3], equal_nan=True)
            assert viol[g, k] == v and singular[g, k] == (not ok)
    assert np.count_nonzero(viol > kernels.CLAMP_TOL) >= 150
    assert singular[:, 600].all() and np.all(z[:, 600, 3:] == 0.0)


def test_fused_kernel_on_tiled_rows_matches_frozen_kernels(legs4):
    # the filter's own call: contiguous (6, legs * 12) rows against the link
    # parameters LegVelocityFilter tiles over each leg's 12 points; every
    # element must equal the frozen angle solve plus the frozen rate solve
    rng = np.random.default_rng(9)
    xs = np.empty((4, 12, 6))
    for i, geom in enumerate(legs4):
        q, dq = [], []
        for k in range(12):
            q.append(sample_joint(rng) * np.array([geom.side_sign, 1, 1]))
            dq.append(rng.normal(size=3))
        xs[i] = _state(geom, q, dq)
        xs[i, ::4, :3] *= rng.uniform(1.05, 2.5)  # out of reach
    reach = legs4[1].thigh_len + legs4[1].l2
    xs[1, 5] = [0.0, legs4[1].side_sign * legs4[1].hip_offset_len, -reach, 0.0, 0.1, 0.0]
    xs[2, 7] = np.nan
    coef = LegVelocityFilter(legs4)._ik
    params = coef.lh, coef.lt, coef.l2, coef.side
    assert all(p.shape == (48,) for p in params)
    rows = np.ascontiguousarray(xs.reshape(48, 6).T)
    z, viol, singular = kernels.ik_measurement_rows(rows, coef, ikvel.DET_EPS)
    assert z.shape == (6, 48) and viol.shape == singular.shape == (48,)
    for n, x in enumerate(xs.reshape(48, 6)):
        a = [p[n] for p in params]
        t1, t2, t3, v = ref.ik_joints(x[0], x[1], x[2], *a)
        d1, d2, d3, ok = ref.ik_rates(t1, t2, t3, x[3], x[4], x[5], *a, ikvel.DET_EPS)
        assert np.array_equal(z[:, n], [t1, t2, t3, d1, d2, d3], equal_nan=True)
        assert viol[n] == v and singular[n] == (not ok)
    assert singular[17] and np.all(z[3:, 17] == 0.0)
    assert np.count_nonzero(viol > kernels.CLAMP_TOL) >= 4


def test_ik_unreachable_beyond_boundary():
    reach = GEOM.thigh_len + GEOM.l2
    x = np.array([0.0, GEOM.hip_offset_len, -(reach + 1e-6), 0.0, 0.0, 0.0])
    _, viol, _ = _ik([x], GEOM)
    assert viol[0] > kernels.CLAMP_TOL


def test_ik_singular_at_full_extension():
    # reachable within the clamp tolerance, but the rate solve is ill-posed:
    # the rates are zeros
    reach = GEOM.thigh_len + GEOM.l2
    x = np.array([0.0, GEOM.hip_offset_len, -reach, 0.0, 0.1, 0.0])
    z, viol, singular = _ik([x], GEOM)
    assert viol[0] <= kernels.CLAMP_TOL and singular[0]
    assert np.all(z[0, 3:] == 0.0)


# --- cubature machinery ----------------------------------------------------

def test_cubature_points_symmetric():
    rng = np.random.default_rng(3)
    x = rng.normal(size=6)
    A = rng.normal(size=(6, 6))
    P = A @ A.T + 1e-3 * np.eye(6)
    pts = ikvel._point_rows(x[None], np.linalg.cholesky(P)[None])[:, 0].T
    assert pts.shape == (12, 6)
    assert np.max(np.abs(pts.sum(axis=0) - 12 * x)) <= 1e-12 * max(1, np.max(np.abs(x)))
    # sample covariance of the points reproduces P
    dev = pts - x
    assert np.max(np.abs(dev.T @ dev / 12 - P)) <= 1e-12


def test_point_rows_are_the_cubature_points_of_each_leg():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 6))
    A = rng.normal(size=(4, 6, 6))
    P = A @ np.swapaxes(A, -1, -2) + 1e-3 * np.eye(6)
    S = np.linalg.cholesky(P)
    rows = ikvel._point_rows(x, S)
    assert rows.shape == (6, 4, 12)
    # point j of leg l is x[l] + sqrt(6) S[l, :, j], point j + 6 its mirror
    d = np.sqrt(6.0) * np.swapaxes(S, -1, -2)
    pts = np.concatenate([x[:, None] + d, x[:, None] - d], axis=1)
    assert np.array_equal(np.moveaxis(rows, 0, -1), pts)


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
    x0 = _state(GEOM, [q])[0]
    x, P = x0.copy(), np.diag([1e-4] * 3 + [1e-1] * 3)
    noise = CkfNoise(np.zeros((6, 6)), np.eye(6) * 1e12)
    t = 0.0
    for _ in range(100):
        z = np.concatenate([q + rng.normal(scale=0.1, size=3),
                            rng.normal(scale=1.0, size=3)])
        x, P, _ = filter_cycle(x, P, z, t + 0.002, noise, GEOM, t)
        t += 0.002
    assert np.max(np.abs(x - x0)) <= 1e-6


def test_posterior_trace_never_grows_in_update():
    rng = np.random.default_rng(7)
    noise = CkfNoise.from_diagonals()
    q = sample_joint(rng)
    x, P = _state(GEOM, [q])[0], ikvel._prior_cov()
    t = 0.0
    for _ in range(50):
        dt = 0.002
        # predicted covariance computed independently (linear process, exact)
        F = np.eye(6)
        F[:3, 3:] = dt * np.eye(3)
        p_pred = F @ P @ F.T + noise.q_cov * dt
        z = np.concatenate([q + rng.normal(scale=1e-3, size=3),
                            rng.normal(scale=0.1, size=3)])
        x, P, status = filter_cycle(x, P, z, t + dt, noise, GEOM, t)
        t += dt
        assert status == 0
        assert np.trace(P) <= np.trace(p_pred) + 1e-12


def test_dt_truncation_guards_timestamp_jumps():
    q = np.array([0.0, 0.8, -1.6])
    x0 = _state(GEOM, [q])[0]
    x0[3:] = [0.5, 0.0, 0.0]
    noise = CkfNoise.from_diagonals()
    z = np.concatenate([q, np.zeros(3)])
    # 50 s gap: dt forced to 0
    x, _, _ = filter_cycle(x0, np.diag([1e-6] * 6), z, 50.0, noise, GEOM)
    assert np.max(np.abs(x[:3] - x0[:3])) < 0.01  # no 25 m coast


def test_cholesky_failure_recovers():
    q = np.array([0.0, 0.8, -1.6])
    x0 = _state(GEOM, [q])[0]
    noise = CkfNoise.from_diagonals()
    # a zero covariance is not positive definite
    x, P, status = filter_cycle(x0, np.zeros((6, 6)), np.concatenate([q, np.zeros(3)]),
                                0.002, noise, GEOM)
    assert status & ikvel.CKF_CHOL_RESET
    assert np.all(np.isfinite(x))
    assert np.all(np.linalg.eigvalsh(P) > 0)


# Frozen copy of the point-based prediction that the closed-form
# ikvel._predict replaced (there named _predict), kept verbatim as the
# reference of the test below. Do not edit it to follow the library.

def _T(A):
    """Transpose of the last two axes."""
    return np.swapaxes(A, -1, -2)


def _points(x, S):
    """The 2n equal-weight points x +- sqrt(n) * S[..., :, j], along axis -2.

    x is (..., n) and S (..., n, n); the points are (..., 2n, n).
    """
    d = np.sqrt(float(x.shape[-1])) * _T(S)
    x = x[..., None, :]
    return np.concatenate([x + d, x - d], axis=-2)


def _cubature_predict(x, S, dt, q_cov):
    """Push the points of (x, S S^T) through the constant-velocity map.

    Returns the predicted mean and covariance, with x's leading axes.
    """
    pts = _points(x, S)
    half = x.shape[-1] // 2
    pts[..., :half] += dt * pts[..., half:]
    x_pred = pts.mean(axis=-2)
    dev = pts - x_pred[..., None, :]
    return x_pred, _T(dev) @ dev / pts.shape[-2] + q_cov


def test_closed_form_prediction_matches_the_cubature_prediction():
    # the cubature rule is exact for the linear constant-velocity map, so F x
    # and F P F^T + Q dt are the moments of the pushed points up to rounding;
    # each gap is taken relative to the largest entry of the frozen result
    rng = np.random.default_rng(12)
    noise = CkfNoise.from_diagonals()

    def assert_close(got, x, P, dt):
        want = _cubature_predict(x, np.linalg.cholesky(P), dt, noise.q_cov * dt)
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))

    for _ in range(50):
        x = _state(GEOM, [sample_joint(rng)])[0]
        x[3:] = rng.normal(size=3)
        A = rng.normal(size=(6, 6)) * rng.uniform(1e-3, 1.0, size=6)
        P = A @ A.T + 1e-6 * np.eye(6)
        dt = rng.uniform(0.0, ikvel.DT_MAX)
        assert_close(ikvel._predict(x, P, dt, noise.q_cov * dt), x, P, dt)
    # a covariance that is not positive definite resets to the prior, and a
    # non-finite measurement makes the cycle return the prediction from it
    x_out, p_out, status = filter_cycle(x, -np.eye(6), np.full(6, np.nan), 0.002,
                                        noise, GEOM)
    assert status == ikvel.CKF_CHOL_RESET | ikvel.CKF_MEASUREMENT_SKIPPED
    assert_close((x_out, p_out), x, ikvel._prior_cov(), 0.002)


def test_non_finite_measurement_keeps_the_prediction():
    q = np.array([0.05, 0.8, -1.6])
    x0 = _state(GEOM, [q])[0]
    x0[3:] = [0.2, 0.0, 0.0]
    P0 = np.diag([1e-4] * 3 + [1e-1] * 3)
    noise = CkfNoise.from_diagonals()
    x_pred, p_pred = ikvel._predict(x0, P0, 0.002, noise.q_cov * 0.002)
    for bad in (np.nan, np.inf):
        z = np.concatenate([q, np.zeros(3)])
        z[1] = bad
        x, P, status = filter_cycle(x0, P0, z, 0.002, noise, GEOM)
        assert status == ikvel.CKF_MEASUREMENT_SKIPPED
        assert np.array_equal(x, x_pred) and np.array_equal(P, p_pred)


def test_mixed_recovery_batch_matches_one_leg_steps(legs4):
    # one leg per recovery branch in a single batch: each leg must come out
    # bit-equal to its own one-leg filter cycle, so no branch leaks across legs
    q = np.array([0.05, 0.8, -1.6])
    p_op = np.diag([1e-6] * 3 + [1e-2] * 3)
    # a slightly negative R leaves every leg's innovation covariance positive
    # definite except that of the leg whose covariance is ~0
    noise = CkfNoise(np.zeros((6, 6)), -1e-12 * np.eye(6))
    xs, ps, zs, expected = [], [], [], []
    for i, geom in enumerate(legs4):
        qg = q * np.array([geom.side_sign, 1, 1])
        x = _state(geom, [qg])[0]
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
    zs = np.array(zs)
    vel = filt.update(0.002, zs[:, :3], zs[:, 3:])
    for i, geom in enumerate(legs4):
        x, P, status = filter_cycle(xs[i], ps[i], zs[i], 0.002, noise, geom)
        assert status == expected[i]
        assert np.array_equal(filt.states.x[i], x)
        assert np.array_equal(filt.states.P[i], P)
        assert np.array_equal(vel[i], x[3:])
    assert filt.status_counts == {s: 1 for s in expected if s}
    assert all(type(k) is int for k in filt.status_counts)


def test_prior_failing_in_the_stacked_factorisation_matches_one_leg_steps(legs4):
    # the prior and the predicted covariance of every leg are factored in one
    # call; when a leg's prior fails it, the whole batch takes the reset
    # sequence, and every leg must still come out bit-equal to its one-leg step
    rng = np.random.default_rng(21)
    noise = CkfNoise.from_diagonals()
    for bad_leg, bad_prior in ((1, -np.eye(6)), (3, np.zeros((6, 6))),
                               (0, np.diag([1e-4, 1e-4, -1e-9, 0.1, 0.1, 0.1]))):
        xs, ps, zs = [], [], []
        for i, geom in enumerate(legs4):
            q = sample_joint(rng) * np.array([geom.side_sign, 1, 1])
            xs.append(_state(geom, [q])[0])
            xs[-1][3:] = rng.normal(scale=0.1, size=3)
            A = rng.normal(size=(6, 6)) * 1e-2
            ps.append(bad_prior if i == bad_leg else A @ A.T + 1e-5 * np.eye(6))
            zs.append(np.concatenate([q + rng.normal(scale=1e-3, size=3),
                                      rng.normal(scale=0.1, size=3)]))
        filt = LegVelocityFilter(legs4, noise=noise)
        filt.states = CkfLegState(np.array(xs), np.array(ps), 0.0)
        zs = np.array(zs)
        filt.update(0.002, zs[:, :3], zs[:, 3:])
        for i, geom in enumerate(legs4):
            x, P, status = filter_cycle(xs[i], ps[i], zs[i], 0.002, noise, geom)
            assert status == (ikvel.CKF_CHOL_RESET if i == bad_leg else 0)
            assert np.array_equal(filt.states.x[i], x)
            assert np.array_equal(filt.states.P[i], P)
        assert filt.status_counts == {ikvel.CKF_CHOL_RESET: 1}


def test_non_finite_covariance_resets_its_leg_only(legs4):
    # a NaN covariance factors without an error from LAPACK, into a NaN
    # factor; its mask still resets that leg to the prior on its next cycle,
    # and every leg stays bit-equal to its own one-leg steps
    rng = np.random.default_rng(23)
    noise = CkfNoise.from_diagonals()
    xs, ps, qs = [], [], []
    for i, geom in enumerate(legs4):
        q = sample_joint(rng) * np.array([geom.side_sign, 1, 1])
        xs.append(_state(geom, [q])[0])
        xs[-1][3:] = rng.normal(scale=0.1, size=3)
        A = rng.normal(size=(6, 6)) * 1e-2
        ps.append(A @ A.T + 1e-5 * np.eye(6))
        qs.append(q)
    ps[2][4, 4] = np.nan
    filt = LegVelocityFilter(legs4, noise=noise)
    filt.states = CkfLegState(np.array(xs), np.array(ps), 0.0)
    solos = list(zip(xs, ps))
    for k in range(1, 5):
        zs = np.array([np.concatenate([q + rng.normal(scale=1e-3, size=3),
                                       rng.normal(scale=0.1, size=3)]) for q in qs])
        vel = filt.update(0.002 * k, zs[:, :3], zs[:, 3:])
        assert np.all(np.isfinite(vel))
        for i, geom in enumerate(legs4):
            x, P, status = filter_cycle(*solos[i], zs[i], 0.002 * k, noise, geom,
                                        0.002 * (k - 1))
            solos[i] = x, P
            assert status == (ikvel.CKF_CHOL_RESET if (i, k) == (2, 1) else 0)
            assert np.array_equal(filt.states.x[i], x)
            assert np.array_equal(filt.states.P[i], P)
    assert filt.status_counts == {ikvel.CKF_CHOL_RESET: 1}


def test_two_cholesky_calls_per_healthy_filter_update(legs4, monkeypatch):
    # one for the prior and the predicted covariance of every leg together,
    # one for the innovation covariances
    calls = []
    cholesky = kernels.cholesky

    def counted(a):
        calls.append(a.shape)
        return cholesky(a)

    filt = LegVelocityFilter(legs4)
    sides = np.array([[g.side_sign, 1, 1] for g in legs4])
    ts, qs, dqs = _swing_samples(500.0, 0.1)
    monkeypatch.setattr(kernels, "cholesky", counted)
    for k, (t, q, dq) in enumerate(zip(ts, qs, dqs)):
        filt.update(t, q * sides, np.tile(dq, (4, 1)))
        assert calls[2 * k:] == [(8, 6, 6), (4, 6, 6)]
    assert filt.status_counts == {}


def test_measurement_beyond_z_max_keeps_the_prediction():
    # a finite rate of 1e300 rad/s used to drive the state so far that the
    # next cycle's IK overflowed; it is skipped like a non-finite one
    q = np.array([0.05, 0.8, -1.6])
    x0 = _state(GEOM, [q])[0]
    x0[3:] = [0.2, 0.0, 0.0]
    P0 = np.diag([1e-4] * 3 + [1e-1] * 3)
    noise = CkfNoise.from_diagonals()
    x_pred, p_pred = ikvel._predict(x0, P0, 0.002, noise.q_cov * 0.002)
    for big in (1e300, -2 * ikvel.Z_MAX):
        z = np.concatenate([q, [big, 0.0, 0.0]])
        x, P, status = filter_cycle(x0, P0, z, 0.002, noise, GEOM)
        assert status == ikvel.CKF_MEASUREMENT_SKIPPED
        assert np.array_equal(x, x_pred) and np.array_equal(P, p_pred)


def test_side_constraint_on_posterior():
    q = np.array([0.05, 0.8, -1.6])
    for geom in (GEOM, GEOM_R):
        qg = q * np.array([geom.side_sign, 1, 1])
        x, P = _state(geom, [qg])[0], ikvel._prior_cov()
        noise = CkfNoise.from_diagonals()
        t = 0.0
        for _ in range(20):
            x, P, _ = filter_cycle(x, P, np.concatenate([qg, np.zeros(3)]), t + 0.002,
                                   noise, geom, t)
            t += 0.002
            assert x[1] * geom.side_sign >= 0.0


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
    x0 = _state(GEOM, [[0.02, 0.75, -1.5]])[0, :3]
    v = np.array([0.05, -0.02, 0.03])
    ts = np.arange(int(duration * rate)) / rate
    zs, viol, singular = _ik(np.concatenate([x0 + v * ts[:, None],
                                             np.tile(v, (len(ts), 1))], axis=1), GEOM)
    assert not (viol > kernels.CLAMP_TOL).any() and not singular.any()
    filt = LegVelocityFilter([GEOM])
    errs = []
    for t, z in zip(ts, zs):
        vf = filt.update(t, z[None, :3], z[None, 3:])[0]
        errs.append(np.max(np.abs(vf - v)))
    assert max(errs[int(0.5 * rate):]) <= 1e-3


def test_filter_suppresses_single_rate_spike():
    rate = 500.0
    ts, qs, dqs = _swing_samples(rate, 1.0)
    spike_at = int(0.7 * rate)
    dqs_meas = np.array(dqs)
    dqs_meas[spike_at] *= 20.0
    v_true = kinematics(GEOM, qs, dqs)[2]
    v_raw = kinematics(GEOM, qs, dqs_meas)[2]
    filt = LegVelocityFilter([GEOM])
    raw_dev = filt_dev = 0.0
    for k, (t, q, dq_meas) in enumerate(zip(ts, qs, dqs_meas)):
        v_f = filt.update(t, q[None], dq_meas[None])[0]
        if k >= spike_at:
            raw_dev = max(raw_dev, np.max(np.abs(v_raw[k] - v_true[k])))
            filt_dev = max(filt_dev, np.max(np.abs(v_f - v_true[k])))
    assert filt_dev <= 0.25 * raw_dev


def test_one_fused_kernel_call_per_filter_update(legs4, monkeypatch):
    # every leg and cubature point of a frame goes through one call on
    # contiguous rows, and the result is the velocity block of the new state
    shapes = []
    fused = kernels.ik_measurement_rows

    def counted(rows, *args):
        shapes.append((rows.shape, rows.flags.c_contiguous))
        return fused(rows, *args)

    monkeypatch.setattr(kernels, "ik_measurement_rows", counted)
    filt = LegVelocityFilter(legs4)
    sides = np.array([[g.side_sign, 1, 1] for g in legs4])
    ts, qs, dqs = _swing_samples(500.0, 0.1)
    for k, (t, q, dq) in enumerate(zip(ts, qs, dqs)):
        q4, dq4 = q * sides, np.tile(dq, (4, 1))
        v = filt.update(t, q4, dq4)
        assert len(shapes) == k + 1
        assert v.shape == (4, 3)
        assert np.array_equal(v, filt.states.x[:, 3:])
    assert set(shapes) == {((6, 48), True)}


def test_per_leg_states_are_independent():
    rate = 500.0
    ts, qs, dqs = _swing_samples(rate, 0.4)
    qs2 = [q + np.array([0.02, -0.1, 0.15]) for q in qs]
    dqs2 = [dq * 0.7 for dq in dqs]

    joint = LegVelocityFilter([GEOM, GEOM_R])
    solo_a = LegVelocityFilter([GEOM])
    solo_b = LegVelocityFilter([GEOM_R])
    for t, qa, da, qb, db in zip(ts, qs, dqs, qs2, dqs2):
        qb = qb * np.array([-1, 1, 1])
        va, vb = joint.update(t, np.array([qa, qb]), np.array([da, db]))
        sa = solo_a.update(t, qa[None], da[None])[0]
        sb = solo_b.update(t, qb[None], db[None])[0]
        assert np.array_equal(va, sa)
        assert np.array_equal(vb, sb)


def test_first_update_starts_from_one_kinematics_call_bit_equal_to_fk(legs4, monkeypatch):
    rng = np.random.default_rng(11)
    legs = legs4 + [LegGeometry(0.0955, 0.213, 0.2, 0.05, -1, np.zeros(3))]
    qs = [np.array([sample_joint(rng) for _ in legs]) for _ in range(300)]
    coef = LegVelocityFilter(legs)._coef
    for q in qs:
        first = ikvel._first_states(q, coef)
        for i, g in enumerate(legs):
            assert first[i, :3].tobytes() == kinematics(g, q[i:i + 1])[0][0].tobytes()
        assert not first[:, 3:].any()
    calls = []
    leg_kinematics = kernels.leg_kinematics
    monkeypatch.setattr(kernels, "leg_kinematics",
                        lambda *args: calls.append(args[0].shape) or leg_kinematics(*args))
    filt = LegVelocityFilter(legs)
    filt.update(0.0, qs[0], np.zeros_like(qs[0]))
    filt.update(0.002, qs[0], np.zeros_like(qs[0]))
    assert calls == [(len(legs), 3)]


def test_a_leg_without_finite_first_angles_starts_on_its_first_finite_frame(legs4):
    # a NaN (or infinite) angle on the first frames used to seed that leg's
    # state from NaN kinematics for good; it now waits for finite angles, and
    # the other legs keep the bits of a clean run
    sides = np.array([[g.side_sign, 1, 1] for g in legs4])
    ts, qs, dqs = _swing_samples(500.0, 0.1)
    for bad_value, bad_frames in ((np.nan, 1), (np.inf, 3)):
        clean, filt = LegVelocityFilter(legs4), LegVelocityFilter(legs4)
        for k, (t, q, dq) in enumerate(zip(ts, qs, dqs)):
            q4, dq4 = q * sides, np.tile(dq, (4, 1))
            v_clean = clean.update(t, q4, dq4)
            if k < bad_frames:
                q4 = q4.copy()
                q4[2, 0] = bad_value
            v = filt.update(t, q4, dq4)
            others = [0, 1, 3]
            assert filt.states.x[others].tobytes() == clean.states.x[others].tobytes()
            assert filt.states.P[others].tobytes() == clean.states.P[others].tobytes()
            assert np.array_equal(v[others], v_clean[others])
            assert np.isnan(v[2]).all() == (k < bad_frames)
            assert (filt._unseeded is None) == (k >= bad_frames)
        assert np.all(np.isfinite(filt.states.x)) and np.all(np.isfinite(filt.states.P))
        assert filt.status_counts == {
            ikvel.CKF_UPDATE_SKIPPED | ikvel.CKF_MEASUREMENT_SKIPPED: bad_frames}
