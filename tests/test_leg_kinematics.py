import numpy as np
import pytest

from legodom import (LegGeometry, SingularConfiguration, fk_position,
                     fk_velocity, foot_force_body, jacobian, kernels,
                     rolling_bias)

from conftest import sample_joint

GEOM = LegGeometry(0.08, 0.213, 0.213, 0.0, 1, np.zeros(3))


# --- independent oracles -------------------------------------------------

def _hom(rot, trans):
    T = np.eye(4)
    T[:3, :3] = rot
    T[:3, 3] = trans
    return T


def _rx(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def _ry(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def fk_chain_oracle(q, geom):
    """Homogeneous-transform chain: roll hip, lateral offset, pitch thigh and
    knee, links extending down the local -z axis. Only valid for point feet
    (wheel_radius 0)."""
    T = _hom(_rx(q[0]), np.zeros(3))
    T = T @ _hom(np.eye(3), [0.0, geom.side_sign * geom.hip_offset_len, 0.0])
    T = T @ _hom(_ry(q[1]), np.zeros(3))
    T = T @ _hom(np.eye(3), [0.0, 0.0, -geom.thigh_len])
    T = T @ _hom(_ry(q[2]), np.zeros(3))
    T = T @ _hom(np.eye(3), [0.0, 0.0, -geom.calf_len])
    return T[:3, 3]


def jacobian_fd_oracle(q, geom, step=1e-6):
    J = np.empty((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        J[:, j] = (fk_position(q + e, geom) - fk_position(q - e, geom)) / (2 * step)
    return J


# --- fk_position ----------------------------------------------------------

def test_fk_zero_pose():
    assert np.allclose(fk_position([0, 0, 0], GEOM), [0.0, 0.08, -0.426], atol=1e-15)


def test_fk_thigh_forward():
    got = fk_position([0.0, -np.pi / 2, 0.0], GEOM)
    assert np.allclose(got, [0.426, 0.08, 0.0], atol=1e-15)


def test_fk_matches_transform_chain():
    rng = np.random.default_rng(7)
    for side in (1, -1):
        geom = LegGeometry(0.08, 0.213, 0.213, 0.0, side, np.zeros(3))
        for _ in range(500):
            q = rng.uniform(-np.pi / 2, np.pi / 2, 3)
            assert np.max(np.abs(fk_position(q, geom) - fk_chain_oracle(q, geom))) <= 1e-12


def test_fk_wheel_terms():
    # wheel radius widens the lateral reach and shifts the height by a constant
    geom = LegGeometry(0.08, 0.213, 0.213, 0.05, 1, np.zeros(3))
    q = np.array([0.3, 0.4, -1.2])
    base = fk_position(q, LegGeometry(0.08, 0.213, 0.213, 0.0, 1, np.zeros(3)))
    got = fk_position(q, geom)
    c1, s1 = np.cos(q[0]), np.sin(q[0])
    c23 = np.cos(q[1] + q[2])
    assert got[0] == base[0]
    assert np.isclose(got[1] - base[1], 0.05 * s1 * c23, atol=1e-15)
    assert np.isclose(got[2] - base[2], 0.05, atol=1e-15)


def test_fk_mirror_symmetry():
    rng = np.random.default_rng(3)
    left = GEOM
    right = LegGeometry(0.08, 0.213, 0.213, 0.0, -1, np.zeros(3))
    for _ in range(200):
        q = rng.uniform(-1.0, 1.0, 3)
        qm = q.copy()
        qm[0] = -qm[0]
        pl = fk_position(q, left)
        pr = fk_position(qm, right)
        assert np.allclose(pr, [pl[0], -pl[1], pl[2]], atol=1e-14)


# --- jacobian / fk_velocity ------------------------------------------------

def test_jacobian_zero_pose_rows():
    J = jacobian([0, 0, 0], GEOM)
    assert np.allclose(J[0], [0.0, -0.426, -0.213], atol=1e-15)
    assert np.allclose(J[1], [0.426, 0.0, 0.0], atol=1e-15)
    assert np.allclose(J[2], [0.08, 0.0, 0.0], atol=1e-15)
    assert abs(np.linalg.det(J)) < 1e-15  # straight-leg singularity


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(300):
        q = rng.uniform(-1.2, 1.2, 3)
        J = jacobian(q, GEOM)
        Jfd = jacobian_fd_oracle(q, GEOM)
        assert np.max(np.abs(J - Jfd)) <= 1e-6 * max(1.0, np.max(np.abs(J)))


def test_fk_velocity_is_jacobian_product():
    rng = np.random.default_rng(13)
    geom = LegGeometry(0.0955, 0.213, 0.213, 0.04, -1, np.zeros(3))
    for _ in range(500):
        q = rng.uniform(-1.5, 1.5, 3)
        dq = rng.normal(size=3)
        assert np.max(np.abs(fk_velocity(q, dq, geom) - jacobian(q, geom) @ dq)) <= 1e-12


def test_fk_velocity_zero_rates():
    assert np.allclose(fk_velocity([0.2, 0.5, -1.1], [0, 0, 0], GEOM), 0.0)


def test_fk_velocity_roll_column():
    # first joint alone drives the foot per column 1 of the Jacobian at q=0
    got = fk_velocity([0, 0, 0], [1, 0, 0], GEOM)
    assert np.allclose(got, [0.0, 0.426, 0.08], atol=1e-15)


def test_fk_velocity_matches_finite_difference_along_trajectory():
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(100):
        q = sample_joint(rng)
        dq = rng.normal(size=3)
        v = fk_velocity(q, dq, GEOM)
        v_fd = (fk_position(q + h * dq, GEOM) - fk_position(q - h * dq, GEOM)) / (2 * h)
        assert np.max(np.abs(v - v_fd)) <= 1e-6 * max(1.0, np.max(np.abs(v)))


# --- foot_force_body --------------------------------------------------------

def test_force_zero_torque():
    assert np.allclose(foot_force_body([0.1, 0.5, -1.2], [0, 0, 0], GEOM), 0.0)


def test_force_round_trip():
    # equal link lengths make this pose singular (the lateral row vanishes),
    # so the named-pose round trip runs with an unequal calf
    geom = LegGeometry(0.08, 0.213, 0.18, 0.0, 1, np.zeros(3))
    q = np.array([0.0, -np.pi / 4, -np.pi / 2])
    f_true = np.array([0.0, 0.0, -100.0])
    tau = jacobian(q, geom).T @ f_true
    f = foot_force_body(q, tau, geom)
    assert np.max(np.abs(f - f_true)) <= 1e-9
    assert np.max(np.abs(jacobian(q, geom).T @ f - tau)) <= 1e-9


def test_force_quarter_pose_symmetric_links_is_singular():
    with pytest.raises(SingularConfiguration):
        foot_force_body([0.0, -np.pi / 4, -np.pi / 2], [0.0, 0.0, 1.0], GEOM)


def test_force_round_trip_random():
    rng = np.random.default_rng(19)
    for _ in range(300):
        q = sample_joint(rng)
        f_true = rng.normal(scale=80.0, size=3)
        tau = jacobian(q, GEOM).T @ f_true
        f = foot_force_body(q, tau, GEOM)
        assert np.max(np.abs(jacobian(q, GEOM).T @ f - tau)) <= 1e-9


def test_force_singular_configuration():
    with pytest.raises(SingularConfiguration):
        foot_force_body([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], GEOM)


# --- batched leg kernel ---------------------------------------------------

def _foot_force_reference(q, tau, lh, lt, lc, rw, side, sigma_min):
    """The scalar wrench kernel that leg_frame replaced, frozen verbatim."""
    J = kernels.leg_jacobian(q, lh, lt, lc, rw, side)
    if np.linalg.svd(J, compute_uv=False)[2] < sigma_min:
        return np.zeros(3), False
    return np.linalg.solve(J @ J.T, J @ tau), True


BATCH_GEOMS = [LegGeometry(0.08, 0.213, 0.213, 0.0, 1), LegGeometry(0.08, 0.213, 0.213, 0.0, -1),
               LegGeometry(0.09, 0.2, 0.18, 0.05, 1), LegGeometry(0.09, 0.2, 0.18, 0.05, -1)]


def _batch_coef(geoms):
    return kernels.leg_coefficients(*zip(*(g.kernel_args() for g in geoms)))


def test_leg_frame_bit_equal_to_scalar_kernels():
    # both sides, point feet and wheels, branch-valid and wide angles, and
    # singular poses mixed into batches of healthy legs
    rng = np.random.default_rng(11)
    args = [g.kernel_args() for g in BATCH_GEOMS]
    coef = _batch_coef(BATCH_GEOMS)
    singular = [np.zeros(3), np.array([0.0, -np.pi / 4, -np.pi / 2])]
    accepted = rejected = 0
    for k in range(600):
        if k % 2:
            q = rng.uniform(-np.pi, np.pi, (4, 3))
        else:
            q = np.array([sample_joint(rng) for _ in BATCH_GEOMS])
        if k % 3 == 0:
            q[rng.integers(4)] = singular[k % 2]
        dq = rng.normal(scale=3.0, size=(4, 3))
        tau = rng.normal(scale=10.0, size=(4, 3))
        sigma_min = 0.02 if k % 5 == 0 else 1e-6
        r, v, f, ok = kernels.leg_frame(q, dq, tau, coef, sigma_min)
        for i, a in enumerate(args):
            assert np.array_equal(r[i], kernels.fk_position(q[i], *a))
            assert np.array_equal(v[i], kernels.leg_jacobian(q[i], *a) @ dq[i])
            f_ref, ok_ref = _foot_force_reference(q[i], tau[i], *a, sigma_min)
            assert ok[i] == ok_ref
            assert np.array_equal(f[i], f_ref)
            accepted += ok_ref
            rejected += not ok_ref
    assert accepted >= 1000 and rejected >= 200


def test_leg_frame_gates_out_non_finite_legs():
    rng = np.random.default_rng(12)
    coef = _batch_coef(BATCH_GEOMS)
    q = np.array([sample_joint(rng) for _ in BATCH_GEOMS])
    dq = rng.normal(size=(4, 3))
    tau = rng.normal(scale=10.0, size=(4, 3))
    r0, v0, f0, ok0 = kernels.leg_frame(q, dq, tau, coef, 1e-6)
    assert ok0.all()
    q_bad = q.copy()
    tau_bad = tau.copy()
    q_bad[1, 1] = np.nan
    tau_bad[2, 0] = np.inf
    q_bad[3, 2] = -np.inf
    r, v, f, ok = kernels.leg_frame(q_bad, dq, tau_bad, coef, 1e-6)
    assert ok.tolist() == [True, False, False, False]
    assert np.array_equal(f[1:], np.zeros((3, 3)))
    assert np.array_equal(f[0], f0[0])
    assert np.array_equal(r[[0, 2]], r0[[0, 2]])
    assert np.array_equal(v[[0, 2]], v0[[0, 2]])
    assert np.isnan(r[[1, 3]]).all() and np.isnan(v[[1, 3]]).all()
    with pytest.raises(SingularConfiguration):
        foot_force_body(q_bad[1], tau[1], BATCH_GEOMS[1])


# --- rolling_bias ------------------------------------------------------------

def rolling_sim_oracle(radius, a1, a2, n_steps=5000):
    """Fixed-contact shank-extension model minus incremental no-slip rolling."""
    o1 = np.zeros(2)
    f0 = o1 + radius * np.array([np.cos(a1), -np.sin(a1)])
    o3 = f0 + radius * np.array([-np.cos(a2), np.sin(a2)])
    contact = o1 + np.array([0.0, -radius])
    da = (a2 - a1) / n_steps
    for _ in range(n_steps):
        contact = contact + np.array([radius * da, 0.0])
    o2 = contact + np.array([0.0, radius])
    return o3 - o2


def test_rolling_bias_no_excursion():
    assert rolling_bias(0.03, 1.2, 1.2) == (0.0, 0.0)


def test_rolling_bias_reference_point():
    dx, dz = rolling_bias(0.03, np.deg2rad(80), np.deg2rad(120))
    assert abs(dx - (-7.345e-4)) < 1e-6
    assert abs(dz - (-3.563e-3)) < 1e-5


def test_rolling_bias_matches_rolling_simulation():
    rng = np.random.default_rng(23)
    for _ in range(50):
        r = rng.uniform(0.0, 0.08)
        a1 = rng.uniform(0.5, 2.2)
        a2 = rng.uniform(0.5, 2.6)
        dx, dz = rolling_bias(r, a1, a2)
        sx, sz = rolling_sim_oracle(r, a1, a2)
        assert abs(dx - sx) <= 1e-9
        assert abs(dz - sz) <= 1e-9


def test_rolling_bias_linear_in_radius():
    dx1, dz1 = rolling_bias(0.02, 1.0, 1.8)
    dx2, dz2 = rolling_bias(0.04, 1.0, 1.8)
    assert dx2 == 2 * dx1
    assert dz2 == 2 * dz1
