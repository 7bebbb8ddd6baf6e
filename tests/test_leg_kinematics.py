import itertools
import warnings

import numpy as np
import pytest

from legodom import LegGeometry, kernels, rolling_bias

import kernels_reference as ref
from conftest import kinematics, leg_coefficients, sample_joint

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


def jacobian_fd_oracle(q, coef, step=1e-6):
    """Central differences of the kernels.leg_kinematics positions of a stack
    of joint samples q (N, 3) on coef, as leg_kinematics takes it: (N, 3, 3)."""
    J = np.empty(q.shape + (3,))
    zeros = np.zeros_like(q)
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        J[..., j] = (kernels.leg_kinematics(q + e, zeros, coef)[0]
                     - kernels.leg_kinematics(q - e, zeros, coef)[0]) / (2 * step)
    return J


def leg_forces(q, tau, coef, sigma_min=1e-6):
    """kernels.leg_rows' body-frame forces and gate of a stack of joint
    samples q and torques tau (N, 3), sample k on coef[k] (floats):
    (f (N, 3), ok (N,))."""
    q = np.asarray(q, dtype=float)
    _, _, f, ok = kernels.leg_rows(q.tolist(), np.zeros_like(q).tolist(),
                                   np.asarray(tau, dtype=float).tolist(), coef, sigma_min)
    return np.array(f), np.array(ok)


def _one_leg(geom, n):
    """geom's float leg_coefficients, once per sample of a stack of n."""
    return [kernels.leg_coefficients(*geom.kernel_args())] * n


# --- forward kinematics -----------------------------------------------------

def test_fk_zero_pose():
    assert np.allclose(kinematics(GEOM, [[0, 0, 0]])[0], [0.0, 0.08, -0.426], atol=1e-15)


@pytest.mark.parametrize("args", [
    (0.08, 0.0, 0.213), (0.08, 0.213, -0.2), (0.08, 0.213, 0.213, -1e-9),
    (0.08, np.nan, 0.213), (0.08, 0.213, np.inf), (0.08, np.inf, 0.213),
    (0.08, 0.213, 0.213, np.nan), (0.08, 0.213, 0.213, np.inf),
    (np.nan, 0.213, 0.213), (np.inf, 0.213, 0.213), (-np.inf, 0.213, 0.213),
    (0.08, 0.213, 0.213, 0.0, 0)])
def test_leg_geometry_rejects_a_length_out_of_range_or_not_finite(args):
    with pytest.raises(ValueError):
        LegGeometry(*args)


def test_fk_thigh_forward():
    got = kinematics(GEOM, [[0.0, -np.pi / 2, 0.0]])[0]
    assert np.allclose(got, [0.426, 0.08, 0.0], atol=1e-15)


def test_fk_matches_transform_chain():
    rng = np.random.default_rng(7)
    for side in (1, -1):
        geom = LegGeometry(0.08, 0.213, 0.213, 0.0, side, np.zeros(3))
        q = rng.uniform(-np.pi / 2, np.pi / 2, (500, 3))
        r = kinematics(geom, q)[0]
        for qk, rk in zip(q, r):
            assert np.max(np.abs(rk - fk_chain_oracle(qk, geom))) <= 1e-12


def test_fk_wheel_terms():
    # wheel radius widens the lateral reach and shifts the height by a constant
    geom = LegGeometry(0.08, 0.213, 0.213, 0.05, 1, np.zeros(3))
    q = np.array([0.3, 0.4, -1.2])
    (base,) = kinematics(LegGeometry(0.08, 0.213, 0.213, 0.0, 1, np.zeros(3)), [q])[0]
    (got,) = kinematics(geom, [q])[0]
    c1, s1 = np.cos(q[0]), np.sin(q[0])
    c23 = np.cos(q[1] + q[2])
    assert got[0] == base[0]
    assert np.isclose(got[1] - base[1], 0.05 * s1 * c23, atol=1e-15)
    assert np.isclose(got[2] - base[2], 0.05, atol=1e-15)


def test_fk_mirror_symmetry():
    rng = np.random.default_rng(3)
    right = LegGeometry(0.08, 0.213, 0.213, 0.0, -1, np.zeros(3))
    q = rng.uniform(-1.0, 1.0, (200, 3))
    qm = q * [-1, 1, 1]
    pl = kinematics(GEOM, q)[0]
    pr = kinematics(right, qm)[0]
    assert np.allclose(pr, pl * [1, -1, 1], atol=1e-14)


# --- Jacobian and foot velocity ---------------------------------------------

def test_jacobian_zero_pose_rows():
    (J,) = kinematics(GEOM, [[0, 0, 0]])[1]
    assert np.allclose(J[0], [0.0, -0.426, -0.213], atol=1e-15)
    assert np.allclose(J[1], [0.426, 0.0, 0.0], atol=1e-15)
    assert np.allclose(J[2], [0.08, 0.0, 0.0], atol=1e-15)
    assert abs(np.linalg.det(J)) < 1e-15  # straight-leg singularity


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    q = rng.uniform(-1.2, 1.2, (300, 3))
    J = kinematics(GEOM, q)[1]
    Jfd = jacobian_fd_oracle(q, kernels.leg_coefficients(*GEOM.kernel_args()))
    for Jk, Jfdk in zip(J, Jfd):
        assert np.max(np.abs(Jk - Jfdk)) <= 1e-6 * max(1.0, np.max(np.abs(Jk)))


def test_fk_velocity_is_jacobian_product():
    rng = np.random.default_rng(13)
    geom = LegGeometry(0.0955, 0.213, 0.213, 0.04, -1, np.zeros(3))
    q = rng.uniform(-1.5, 1.5, (500, 3))
    dq = rng.normal(size=(500, 3))
    _, J, v = kinematics(geom, q, dq)
    for Jk, dqk, vk in zip(J, dq, v):
        assert np.max(np.abs(vk - Jk @ dqk)) <= 1e-12


def test_fk_velocity_zero_rates():
    assert np.allclose(kinematics(GEOM, [[0.2, 0.5, -1.1]], [[0, 0, 0]])[2], 0.0)


def test_fk_velocity_roll_column():
    # first joint alone drives the foot per column 1 of the Jacobian at q=0
    got = kinematics(GEOM, [[0, 0, 0]], [[1, 0, 0]])[2]
    assert np.allclose(got, [0.0, 0.426, 0.08], atol=1e-15)


def test_fk_velocity_matches_finite_difference_along_trajectory():
    rng = np.random.default_rng(17)
    h = 1e-6
    q = np.array([sample_joint(rng) for _ in range(100)])
    dq = rng.normal(size=(100, 3))
    v = kinematics(GEOM, q, dq)[2]
    v_fd = (kinematics(GEOM, q + h * dq)[0] - kinematics(GEOM, q - h * dq)[0]) / (2 * h)
    for vk, v_fdk in zip(v, v_fd):
        assert np.max(np.abs(vk - v_fdk)) <= 1e-6 * max(1.0, np.max(np.abs(vk)))


# --- forces and the wrench gate ---------------------------------------------

def test_force_zero_torque():
    f, ok = leg_forces([[0.1, 0.5, -1.2]], [[0, 0, 0]], _one_leg(GEOM, 1))
    assert ok.all() and np.allclose(f, 0.0)


def test_force_round_trip():
    # equal link lengths make this pose singular (the lateral row vanishes),
    # so the named-pose round trip runs with an unequal calf
    geom = LegGeometry(0.08, 0.213, 0.18, 0.0, 1, np.zeros(3))
    q = np.array([[0.0, -np.pi / 4, -np.pi / 2]])
    f_true = np.array([0.0, 0.0, -100.0])
    (J,) = kinematics(geom, q)[1]
    tau = J.T @ f_true
    (f,), (ok,) = leg_forces(q, [tau], _one_leg(geom, 1))
    assert ok
    assert np.max(np.abs(f - f_true)) <= 1e-9
    assert np.max(np.abs(J.T @ f - tau)) <= 1e-9


def test_force_quarter_pose_symmetric_links_is_singular():
    _, ok = leg_forces([[0.0, -np.pi / 4, -np.pi / 2]], [[0.0, 0.0, 1.0]], _one_leg(GEOM, 1))
    assert not ok.any()


def test_force_round_trip_random():
    rng = np.random.default_rng(19)
    q = np.array([sample_joint(rng) for _ in range(300)])
    f_true = rng.normal(scale=80.0, size=(300, 3))
    J = kinematics(GEOM, q)[1]
    tau = (np.swapaxes(J, -1, -2) @ f_true[..., None])[..., 0]
    f, ok = leg_forces(q, tau, _one_leg(GEOM, 300))
    assert ok.all()
    for Jk, fk, tauk in zip(J, f, tau):
        assert np.max(np.abs(Jk.T @ fk - tauk)) <= 1e-9


def test_force_singular_configuration():
    f, ok = leg_forces([[0.0, 0.0, 0.0]], [[1.0, 1.0, 1.0]], _one_leg(GEOM, 1))
    assert not ok.any() and not f.any()


# --- float leg kernel -----------------------------------------------------

def _foot_force_reference(q, tau, lh, lt, lc, rw, side, sigma_min):
    """The scalar wrench kernel that leg_frame replaced, frozen verbatim."""
    J = ref.leg_jacobian(q, lh, lt, lc, rw, side)
    if np.linalg.svd(J, compute_uv=False)[2] < sigma_min:
        return np.zeros(3), False
    return np.linalg.solve(J @ J.T, J @ tau), True


BATCH_GEOMS = [LegGeometry(0.08, 0.213, 0.213, 0.0, 1), LegGeometry(0.08, 0.213, 0.213, 0.0, -1),
               LegGeometry(0.09, 0.2, 0.18, 0.05, 1), LegGeometry(0.09, 0.2, 0.18, 0.05, -1)]


def _leg_rows(q, dq, tau, sigma_min=1e-6, geoms=BATCH_GEOMS):
    """kernels.leg_rows on (L, 3) arrays, its results as arrays."""
    legs = [kernels.leg_coefficients(*g.kernel_args()) for g in geoms]
    r, v, f, ok = kernels.leg_rows(q.tolist(), dq.tolist(), tau.tolist(), legs, sigma_min)
    return np.array(r), np.array(v), np.array(f), np.array(ok)


def _healthy_batch(rng):
    q = np.array([sample_joint(rng) for _ in BATCH_GEOMS])
    return q, rng.normal(scale=3.0, size=(4, 3)), rng.normal(scale=10.0, size=(4, 3))


def _within(got, want, rel=1e-12):
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def test_leg_frame_bit_equal_to_scalar_kernels():
    # both sides, point feet and wheels, branch-valid and wide angles, and
    # singular poses mixed into batches of healthy legs: r is leg_kinematics'
    # to the bit, v and f are the frozen float sequence's on its Jacobian (so
    # that J is too), ok is the SVD reference's, and on branch-valid poses v
    # and f are within 1e-12 of numpy's matmul and LAPACK's solve. The column
    # form, on the stack of every batch at one gate, gives each batch's r, v,
    # f and ok to the bit, also for batches with a NaN, an infinity or an
    # overflowing q1 + q2 in one leg; a platform whose numpy trig rounds
    # otherwise than its math trig fails here
    rng = np.random.default_rng(11)
    args = [g.kernel_args() for g in BATCH_GEOMS]
    coef = leg_coefficients(BATCH_GEOMS)
    singular = [np.zeros(3), np.array([0.0, -np.pi / 4, -np.pi / 2])]
    batches = {1e-6: [], 0.02: []}
    accepted = rejected = 0
    for k in range(660):
        if k >= 600:
            # a non-finite value in one channel of one leg
            q, dq, tau = _healthy_batch(rng)
            rows = (q, dq, tau)[k % 3]
            rows[k % 4, k % 3] = (np.nan, np.inf, -np.inf, 1e308)[k % 4]
            if k % 4 == 3:
                rows[k % 4] = [0.0, 1e308, 1e308]
            batches[1e-6].append((q, dq, tau, *_leg_rows(q, dq, tau)))
            continue
        if k % 2:
            q = rng.uniform(-np.pi, np.pi, (4, 3))
        else:
            q = np.array([sample_joint(rng) for _ in BATCH_GEOMS])
        if k % 3 == 0:
            q[rng.integers(4)] = singular[k % 2]
        dq = rng.normal(scale=3.0, size=(4, 3))
        tau = rng.normal(scale=10.0, size=(4, 3))
        sigma_min = 0.02 if k % 5 == 0 else 1e-6
        r, v, f, ok = _leg_rows(q, dq, tau, sigma_min)
        batches[sigma_min].append((q, dq, tau, r, v, f, ok))
        r_kin, J, v_kin = kernels.leg_kinematics(q, dq, coef)
        assert np.array_equal(r, r_kin)
        for i, a in enumerate(args):
            assert np.array_equal(r[i], ref.fk_position(q[i], *a))
            assert np.array_equal(J[i], ref.leg_jacobian(q[i], *a))
            v_ref, f_ref, ok_ref = ref.leg_wrench(J[i], dq[i], tau[i], sigma_min)
            assert np.array_equal(v[i], v_ref) and np.array_equal(f[i], f_ref)
            f_lapack, ok_lapack = _foot_force_reference(q[i], tau[i], *a, sigma_min)
            assert ok[i] == ok_ref == ok_lapack
            if k % 2 == 0:
                assert _within(v[i], v_kin[i])
                if ok[i]:
                    assert _within(f[i], f_lapack)
            accepted += ok_lapack
            rejected += not ok_lapack
    assert accepted >= 1000 and rejected >= 200
    for sigma_min, stack in batches.items():
        q, dq, tau, *want = (np.array(c) for c in zip(*stack))
        got = kernels.leg_columns(q, dq, tau, coef, sigma_min)
        for name, col, rows in zip("rvf", got, want):
            assert col.dtype == float and col.tobytes() == rows.tobytes(), (sigma_min, name)
        assert got[3].dtype == bool and np.array_equal(got[3], want[3]), sigma_min
        assert got[3].any() and not got[3].all()


def test_leg_frame_gates_out_non_finite_legs():
    # a NaN or an infinity in any one value gates out its leg only and never
    # raises; r and v of that leg are NaN where q is not finite, v where dq is
    # not, and both stay as they were where only tau is not
    rng = np.random.default_rng(12)
    q, dq, tau = _healthy_batch(rng)
    r0, v0, f0, ok0 = _leg_rows(q, dq, tau)
    assert ok0.all()
    for channel, leg, joint, bad in itertools.product(
            ("q", "dq", "tau"), range(4), range(3), (np.nan, np.inf, -np.inf)):
        rows = {"q": q.copy(), "dq": dq.copy(), "tau": tau.copy()}
        rows[channel][leg, joint] = bad
        r, v, f, ok = _leg_rows(rows["q"], rows["dq"], rows["tau"])
        others = [i for i in range(4) if i != leg]
        assert ok.tolist() == [i != leg for i in range(4)]
        assert np.array_equal(f[leg], np.zeros(3))
        for got, want in ((r, r0), (v, v0), (f, f0)):
            assert np.array_equal(got[others], want[others])
        assert np.isnan(r[leg]).all() == (channel == "q")
        assert np.isnan(v[leg]).all() == (channel != "tau")
        if channel == "tau":
            assert np.array_equal(r[leg], r0[leg])
            assert np.array_equal(v[leg], v0[leg])
        if channel != "dq":
            _, ok_one = leg_forces(rows["q"][leg:leg + 1], rows["tau"][leg:leg + 1],
                                   _one_leg(BATCH_GEOMS[leg], 1))
            assert not ok_one.any()


def test_leg_frame_at_each_legs_sigma_min_bit_equal_to_scalar_kernels():
    # a gate set a hair above or below a leg's own smallest singular value is
    # where the bound that skips the SVD must step aside: ok stays the SVD
    # reference's and f the frozen float sequence's, leg by leg
    rng = np.random.default_rng(14)
    args = [g.kernel_args() for g in BATCH_GEOMS]
    for _ in range(30):
        q, dq, tau = _healthy_batch(rng)
        J = [ref.leg_jacobian(q[i], *a) for i, a in enumerate(args)]
        sigmas = [np.linalg.svd(Ji, compute_uv=False)[2] for Ji in J]
        for leg, s in enumerate(sigmas):
            for factor in (1 - 1e-9, 1 + 1e-9):
                _, v, f, ok = _leg_rows(q, dq, tau, s * factor)
                assert ok[leg] == (factor < 1)
                for i, a in enumerate(args):
                    _, ok_lapack = _foot_force_reference(q[i], tau[i], *a, s * factor)
                    v_ref, f_ref, ok_ref = ref.leg_wrench(J[i], dq[i], tau[i], s * factor)
                    assert ok[i] == ok_ref == ok_lapack
                    assert np.array_equal(f[i], f_ref) and np.array_equal(v[i], v_ref)


def _bound_decides(J, sigma_min):
    """Whether the det/trace bound of leg_rows clears sigma_min for J, or
    None when J lies within 1 % of the bound's threshold."""
    JJt = J @ J.T
    tr = np.trace(JJt)
    lhs = 4.0 * np.linalg.det(JJt)
    rhs = tr * tr * (sigma_min * sigma_min + kernels.SIGMA_BOUND_TOL * tr)
    if abs(lhs - rhs) <= 0.01 * rhs:
        return None
    return lhs > rhs


def test_leg_frame_takes_the_svd_only_when_the_bound_cannot_decide(monkeypatch):
    rng = np.random.default_rng(15)
    args = [g.kernel_args() for g in BATCH_GEOMS]
    calls = []
    svd = np.linalg.svd

    def counted(a, *rest, **kwargs):
        calls.append(np.array(a))
        return svd(a, *rest, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for _ in range(50):
        q, dq, tau = _healthy_batch(rng)
        _leg_rows(q, dq, tau, kernels.SIGMA_MIN)
    assert calls == []
    # a gate at one leg's own smallest singular value leaves that leg, and any
    # other whose bound cannot clear it, to an SVD of its own Jacobian
    checked = 0
    for _ in range(40):
        q, dq, tau = _healthy_batch(rng)
        J = [ref.leg_jacobian(q[i], *a) for i, a in enumerate(args)]
        leg = int(rng.integers(4))
        sigma_min = svd(J[leg], compute_uv=False)[2] * (1 + 1e-9)
        decides = [_bound_decides(Ji, sigma_min) for Ji in J]
        if None in decides:
            continue
        assert not decides[leg]
        calls.clear()
        _leg_rows(q, dq, tau, sigma_min)
        undecided = [i for i in range(4) if not decides[i]]
        assert len(calls) == len(undecided)
        for got, i in zip(calls, undecided):
            assert np.array_equal(got, J[i])
        checked += 1
    assert checked >= 30
    # a non-finite leg is gated out before any SVD
    calls.clear()
    tau_bad = tau.copy()
    tau_bad[1, 0] = np.nan
    _leg_rows(q, dq, tau_bad, 1e-6)
    assert calls == []


def test_leg_frame_gates_out_a_leg_with_a_non_finite_rate():
    # its foot velocity is NaN, and a stance leg with a NaN velocity used to
    # turn every later body state non-finite in a filter-off replay
    rng = np.random.default_rng(16)
    q, dq, tau = _healthy_batch(rng)
    r0, v0, f0, ok0 = _leg_rows(q, dq, tau)
    for bad in (np.nan, np.inf, -np.inf):
        dq_bad = dq.copy()
        dq_bad[2, 1] = bad
        r, v, f, ok = _leg_rows(q, dq_bad, tau)
        assert ok.tolist() == [True, True, False, True]
        assert np.isnan(v[2]).all() and np.array_equal(f[2], np.zeros(3))
        assert np.array_equal(r, r0)
        assert np.array_equal(v[[0, 1, 3]], v0[[0, 1, 3]])
        assert np.array_equal(f[[0, 1, 3]], f0[[0, 1, 3]])


def test_leg_frame_gates_out_a_leg_whose_wrench_solve_is_singular():
    # links ten orders of magnitude apart clear the singular-value gate, yet
    # J J^T is singular to working precision; that leg is gated out instead of
    # the solve raising
    geoms = [LegGeometry(0.0955, 0.213, 1e9, 0.0, 1), BATCH_GEOMS[1]]
    q = np.array([[0.0, 0.8, -1.6], [0.0, 0.8, -1.6]])
    tau = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    J = kernels.leg_kinematics(q, q, leg_coefficients(geoms))[1]
    assert np.linalg.svd(J[0], compute_uv=False)[2] > 0.1
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(J[:1] @ np.swapaxes(J[:1], -1, -2), tau[:1, :, None])
    _, _, f, ok = _leg_rows(q, q, tau, 1e-6, geoms)
    assert ok.tolist() == [False, True]
    assert np.array_equal(f[0], np.zeros(3))
    _, f_ref, ok_ref = ref.leg_wrench(J[1], q[1], tau[1], 1e-6)
    assert ok_ref and np.array_equal(f[1], f_ref)
    f_lapack, _ = _foot_force_reference(q[1], tau[1], *geoms[1].kernel_args(), 1e-6)
    assert _within(f[1], f_lapack)
    _, ok_one = leg_forces(q[:1], tau[:1], _one_leg(geoms[0], 1))
    assert not ok_one.any()


def test_leg_frame_gates_out_a_leg_whose_force_overflows():
    # finite torques near the largest float overflow J tau and the force; the
    # nine-value sum overflows too, yet the leg is no non-finite input
    rng = np.random.default_rng(17)
    q, dq, tau = _healthy_batch(rng)
    r0, v0, f0, _ = _leg_rows(q, dq, tau)
    tau[3] = [1e308, -1e308, 1e308]
    r, v, f, ok = _leg_rows(q, dq, tau)
    assert ok.tolist() == [True, True, True, False]
    assert np.array_equal(f[3], np.zeros(3)) and np.array_equal(f[:3], f0[:3])
    assert np.array_equal(r, r0) and np.array_equal(v, v0)


def _mixed_stack(rng, k, n):
    """k random (n, n) matrices, a quarter each: symmetric positive definite,
    negative definite, exactly singular (a zero row and column) and with a
    NaN entry; returns the stack and each matrix's kind, 0 to 3 in that order."""
    kinds = rng.permutation(np.arange(k) % 4)
    A = rng.normal(size=(k, n, n))
    M = A @ np.swapaxes(A, -1, -2) + 1e-3 * np.eye(n)
    for m, kind in zip(M, kinds):
        i, j = rng.integers(n, size=2)
        if kind == 1:
            m *= -1.0
        elif kind == 2:
            m[i], m[:, i] = 0.0, 0.0
        elif kind == 3:
            m[max(i, j), min(i, j)] = m[min(i, j), max(i, j)] = np.nan
    return M, kinds


def _public(fn, *args):
    """fn's result, or None where it raises."""
    try:
        return fn(*args)
    except np.linalg.LinAlgError:
        return None


def test_masked_linalg_is_bit_equal_to_numpy():
    # the filter and the wrench gate factor and solve whole stacks through
    # kernels.cholesky and kernels.solve; each matrix gets the bits of
    # numpy's public call, one that fails gets NaN and a False mask, and
    # nothing warns
    rng = np.random.default_rng(24)
    for n, k, cols in ((6, 8, 6), (6, 4, 6), (3, 4, 1), (3, 12, 3)):
        for _ in range(20):
            M, kinds = _mixed_stack(rng, k, n)
            B = rng.normal(size=(k, n, cols))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                S, chol_ok = kernels.cholesky(M)
                X, solve_ok = kernels.solve(M, B)
            assert chol_ok.tolist() == (kinds == 0).tolist()
            assert solve_ok.tolist() == (kinds <= 1).tolist()
            for got, fn, args in ((S, np.linalg.cholesky, (M,)),
                                  (X, np.linalg.solve, (M, B))):
                for i in range(k):
                    want = _public(fn, *(a[i] for a in args))
                    if want is None:
                        assert np.isnan(got[i]).all()
                    else:
                        assert np.array_equal(got[i], want, equal_nan=True)
            assert np.array_equal(S[chol_ok], np.linalg.cholesky(M[chol_ok]))
            assert np.array_equal(X[solve_ok], np.linalg.solve(M[solve_ok], B[solve_ok]))


def test_leg_kinematics_broadcasts_over_leading_axes():
    # the gait generator runs blocks of (frames, legs); every element must
    # equal the one-leg reference, and a stack of one leg's samples the same
    rng = np.random.default_rng(13)
    args = [g.kernel_args() for g in BATCH_GEOMS]
    q = rng.uniform(-np.pi, np.pi, (7, 4, 3))
    dq = rng.normal(scale=3.0, size=(7, 4, 3))
    r, J, v = kernels.leg_kinematics(q, dq, leg_coefficients(BATCH_GEOMS))
    assert r.shape == v.shape == (7, 4, 3) and J.shape == (7, 4, 3, 3)
    for k in range(7):
        for i, a in enumerate(args):
            assert np.array_equal(r[k, i], ref.fk_position(q[k, i], *a))
            assert np.array_equal(J[k, i], ref.leg_jacobian(q[k, i], *a))
            assert np.array_equal(v[k, i], ref.leg_jacobian(q[k, i], *a) @ dq[k, i])
    for i, geom in enumerate(BATCH_GEOMS):
        r_one, J_one, _ = kinematics(geom, q[:, i])
        assert np.array_equal(r_one, r[:, i]) and np.array_equal(J_one, J[:, i])


def test_leg_kinematics_bytes_equal_the_frozen_term_table():
    # the one set of entry expressions gives the stacked kernel the bytes of
    # the table-driven kernel it replaced: r, J (its J00 +0.0, not -0.0) and
    # v = J @ dq, over leading axes, both sides, point feet and wheels, angles
    # in +-pi and the singular poses; and a batch of one on float
    # coefficients the bytes of that leg in the stack
    rng = np.random.default_rng(29)
    coef = leg_coefficients(BATCH_GEOMS)
    frozen = ref.leg_coefficients(*zip(*(g.kernel_args() for g in BATCH_GEOMS)))
    singular = [np.zeros(3), np.array([0.0, -np.pi / 4, -np.pi / 2])]
    for shape in ((4, 3), (9, 4, 3), (2, 3, 4, 3)):
        for k in range(30):
            q = rng.uniform(-np.pi, np.pi, shape)
            if k % 3 == 1:
                legs = q.reshape(-1, 3)
                for i in rng.choice(len(legs), size=len(legs) // 2, replace=False):
                    legs[i] = singular[rng.integers(2)]
            elif k % 3 == 2:
                q = np.array([sample_joint(rng) for _ in range(q.size // 3)]).reshape(shape)
            dq = rng.normal(scale=3.0, size=shape)
            got = kernels.leg_kinematics(q, dq, coef)
            want = ref.leg_kinematics(q, dq, frozen)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not np.signbit(got[1][..., 0, 0]).any()
            first = (0,) * (len(shape) - 2)
            for i, g in enumerate(BATCH_GEOMS):
                one = kernels.leg_kinematics(q[first][i:i + 1], dq[first][i:i + 1],
                                             kernels.leg_coefficients(*g.kernel_args()))
                for a, b in zip(one, got):
                    assert a.tobytes() == b[first][i:i + 1].tobytes()


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
