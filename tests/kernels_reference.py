"""Frozen copies of the leg kernels that `legodom.kernels` replaced.

`leg_kinematics` and `leg_coefficients` are the table-driven stacked
forward kinematics (the `_ENTRIES` terms and their index tables) that the
library replaced with one set of entry expressions, `kernels._leg_entries`;
the frozen `leg_frame`, the frozen estimator step and the frozen static gait
generator (`gait_reference.py`) call them.
`fk_position`, `leg_jacobian` and `ik_joints` below are the one-leg forms the
library used before every caller moved to the batched kernels
(`leg_kinematics`, `ik_joints_array`). `ik_jacobian`, `ik_rates`, `_det3` and
`_solve3` are the IK rate solve the filter used before its measurement map
became the fused `ik_measurement_rows`. `leg_frame` is the stacked numpy
kernel and wrench gate of a frame's legs that the float `leg_rows` replaced;
the frozen estimator step (`estimator_reference.py`) still calls it.
`leg_wrench` is the one-leg float sequence of `leg_rows` after its Jacobian,
frozen when `leg_rows` was written. They are kept verbatim so the kernels are
checked against an independent operation sequence. Do not edit them to
follow the library.
"""

import math

import numpy as np

from legodom.kernels import EPS_RADICAL, SIGMA_BOUND_TOL, solve

_EYE3 = np.eye(3)


# The trig terms of a leg in the row order leg_kinematics evaluates them:
# cosines and sines of q0, q1 and q1 + q2, then a 1 that fills the factors
# of terms with fewer than two.
_TRIG = ("c1", "c2", "c23", "s1", "s2", "s23", "1")

# Every entry of the position (r0, r1, r2) and of the Jacobian (row-major)
# as terms coef * a * b, added from left to right; a leading "-" negates the
# coefficient, which is exact. The order is that of the one-leg expressions
# frozen in tests/kernels_reference.py, so each entry is bit-equal to them.
# The wheel radius rw enters only the lateral row's reach and as a constant
# vertical offset; the sagittal row never sees it. That asymmetry is part of
# the kinematic convention this estimator is built around.
_ENTRIES = (
    (("-lc", "s23"), ("-lt", "s2")),                                         # r0
    (("slh", "c1"), ("lcrw", "s1", "c23"), ("lt", "c2", "s1")),              # r1
    (("slh", "s1"), ("-lc", "c1", "c23"), ("-lt", "c1", "c2"), ("rw",)),     # r2
    (("zero",),),                                                            # J00
    (("-lc", "c23"), ("-lt", "c2")),                                         # J01
    (("-lc", "c23"),),                                                       # J02
    (("lcrw", "c1", "c23"), ("lt", "c1", "c2"), ("-slh", "s1")),             # J10
    (("-lcrw", "s1", "s23"), ("-lt", "s1", "s2")),                           # J11
    (("-lcrw", "s1", "s23"),),                                               # J12
    (("lc", "s1", "c23"), ("lt", "c2", "s1"), ("slh", "c1")),                # J20
    (("lc", "c1", "s23"), ("lt", "c1", "s2")),                               # J21
    (("lc", "c1", "s23"),),                                                  # J22
)
# coefficient names in the order leg_coefficients stacks them: slh is
# side * lh and lcrw is lc + rw, formed as the one-leg expressions form them. A
# missing term is -0.0, which leaves any sum unchanged.
_COEFS = ("lc", "lt", "rw", "slh", "lcrw", "zero")
_SLOTS = max(len(terms) for terms in _ENTRIES)


def _entry_tables():
    """(coefficient index, sign, trig index a, trig index b), each (slots, 12)."""
    shape = (_SLOTS, len(_ENTRIES))
    coef = np.full(shape, _COEFS.index("zero"))
    sign = np.full(shape, -1.0)
    a = np.full(shape, _TRIG.index("1"))
    b = np.full(shape, _TRIG.index("1"))
    for e, terms in enumerate(_ENTRIES):
        for s, (name, *factors) in enumerate(terms):
            sign[s, e] = -1.0 if name.startswith("-") else 1.0
            coef[s, e] = _COEFS.index(name.lstrip("-"))
            for table, factor in zip((a, b), factors):
                table[s, e] = _TRIG.index(factor)
    return coef, sign, a, b


_COEF_INDEX, _COEF_SIGN, _TRIG_A, _TRIG_B = _entry_tables()


def leg_coefficients(lh, lt, lc, rw, side):
    """Term coefficients of a stack of legs for leg_kinematics.

    The link parameters are (L,) arrays or scalars, as in kernel_args();
    returns a (slots, 12, L) array. Build it once per set of legs.
    """
    lh, lt, lc, rw, side = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(p, dtype=float)) for p in (lh, lt, lc, rw, side)))
    named = np.stack([lc, lt, rw, side * lh, lc + rw, np.zeros_like(lc)])
    return _COEF_SIGN[..., None] * named[_COEF_INDEX]


def leg_kinematics(q, dq, coef):
    """Positions, Jacobians and foot velocities of a stack of legs.

    q and dq are (..., L, 3) joint angles and rates; coef is
    leg_coefficients() of the L legs, broadcast over the leading axes. The
    six trig terms of each leg are evaluated once and give both the position
    and the Jacobian. Returns (r, J, v): r (..., L, 3) hip-to-end-effector
    positions, J (..., L, 3, 3) Jacobians and v (..., L, 3) velocities J @ dq.
    """
    # the terms run along the reversed axes of q, (3, L, ...), so a plain
    # transpose serves any number of leading axes
    ang = q.T.copy()
    ang[2] += ang[1]
    trig = np.empty((len(_TRIG),) + ang.shape[1:])
    np.cos(ang, out=trig[:3])
    np.sin(ang, out=trig[3:6])
    trig[6] = 1.0
    coef = coef.reshape(coef.shape + (1,) * (q.ndim - 2))
    terms = coef * trig[_TRIG_A] * trig[_TRIG_B]
    entries = sum(terms[1:], terms[0]).T.copy()
    J = entries[..., 3:].reshape(entries.shape[:-1] + (3, 3))
    return entries[..., :3], J, (J @ dq[..., None])[..., 0]


def fk_position(q, lh, lt, lc, rw, side):
    """Hip-to-end-effector vector in the body frame for one 3-DoF leg.

    The wheel radius enters only the lateral row's reach and as a constant
    vertical offset; the sagittal row never sees it. That asymmetry is part
    of the kinematic convention this estimator is built around and is kept
    verbatim.
    """
    c1 = np.cos(q[0])
    s1 = np.sin(q[0])
    c2 = np.cos(q[1])
    s2 = np.sin(q[1])
    c23 = np.cos(q[1] + q[2])
    s23 = np.sin(q[1] + q[2])
    out = np.empty(3)
    out[0] = -(lc * s23 + lt * s2)
    out[1] = side * lh * c1 + (lc + rw) * s1 * c23 + lt * c2 * s1
    out[2] = side * lh * s1 - lc * c1 * c23 - lt * c1 * c2 + rw
    return out


def leg_jacobian(q, lh, lt, lc, rw, side):
    """3x3 geometric Jacobian of fk_position with respect to the joint angles."""
    c1 = np.cos(q[0])
    s1 = np.sin(q[0])
    c2 = np.cos(q[1])
    s2 = np.sin(q[1])
    c23 = np.cos(q[1] + q[2])
    s23 = np.sin(q[1] + q[2])
    J = np.empty((3, 3))
    J[0, 0] = 0.0
    J[0, 1] = -(lc * c23 + lt * c2)
    J[0, 2] = -(lc * c23)
    J[1, 0] = (lc + rw) * c1 * c23 + lt * c1 * c2 - side * lh * s1
    J[1, 1] = -(lc + rw) * s1 * s23 - lt * s1 * s2
    J[1, 2] = -(lc + rw) * s1 * s23
    J[2, 0] = lc * s1 * c23 + lt * c2 * s1 + side * lh * c1
    J[2, 1] = lc * c1 * s23 + lt * c1 * s2
    J[2, 2] = lc * c1 * s23
    return J


def ik_joints(px, py, pz, lh, lt, l2, side):
    """Analytic inverse kinematics for the hip-to-end-effector position.

    Returns (t1, t2, t3, viol) where viol is the largest amount by which any
    inverse-trig argument had to be clamped into its domain; viol <= CLAMP_TOL
    means the target is inside the reachable workspace for this branch.

    The planar sub-solver measures the sagittal offset with the opposite sign
    from fk_position's first row (its Jacobian is the row-negated forward one),
    so px is negated on entry; that makes ik_joints(fk_position(q)) == q on
    the branch with the knee folded back and the foot on its own lateral side.
    """
    x = -px
    y = py
    z = pz
    viol = 0.0

    rho2 = y * y + z * z
    rad = EPS_RADICAL + 4.0 * lh * lh * z * z - 4.0 * rho2 * (lh * lh - y * y)
    if rad < 0.0:
        rad = 0.0
    arg1 = (2.0 * lh * z + np.sqrt(rad)) / (2.0 * rho2)
    if arg1 > 1.0:
        if arg1 - 1.0 > viol:
            viol = arg1 - 1.0
        arg1 = 1.0
    elif arg1 < -1.0:
        if -1.0 - arg1 > viol:
            viol = -1.0 - arg1
        arg1 = -1.0
    t1 = side * np.arcsin(arg1)

    zb = z - side * lh * np.sin(t1)
    yb = y - side * lh * np.cos(t1)
    rb = np.sqrt(yb * yb + zb * zb)
    r2 = rb * rb + x * x
    r = np.sqrt(r2)

    arg3 = (lt * lt + l2 * l2 - r2) / (2.0 * lt * l2)
    if arg3 > 1.0:
        if arg3 - 1.0 > viol:
            viol = arg3 - 1.0
        arg3 = 1.0
    elif arg3 < -1.0:
        if -1.0 - arg3 > viol:
            viol = -1.0 - arg3
        arg3 = -1.0
    t3 = -np.pi + np.arccos(arg3)

    arg2 = (r2 + lt * lt - l2 * l2) / (2.0 * r * lt)
    if arg2 > 1.0:
        if arg2 - 1.0 > viol:
            viol = arg2 - 1.0
        arg2 = 1.0
    elif arg2 < -1.0:
        if -1.0 - arg2 > viol:
            viol = -1.0 - arg2
        arg2 = -1.0
    t2 = np.arctan2(x, rb) + np.arccos(arg2)

    return t1, t2, t3, viol


def _det3(A):
    """Determinant of a 3x3 matrix, or of each matrix in a (..., 3, 3) stack."""
    return (A[..., 0, 0] * (A[..., 1, 1] * A[..., 2, 2] - A[..., 1, 2] * A[..., 2, 1])
            - A[..., 0, 1] * (A[..., 1, 0] * A[..., 2, 2] - A[..., 1, 2] * A[..., 2, 0])
            + A[..., 0, 2] * (A[..., 1, 0] * A[..., 2, 1] - A[..., 1, 1] * A[..., 2, 0]))


def _solve3(A, b, d):
    """Cramer solve of A x = b for (..., 3, 3) A and (..., 3) b, given d = _det3(A).

    The caller guarantees every d is well away from zero.
    """
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    x0 = (b0 * (A[..., 1, 1] * A[..., 2, 2] - A[..., 1, 2] * A[..., 2, 1])
          - A[..., 0, 1] * (b1 * A[..., 2, 2] - A[..., 1, 2] * b2)
          + A[..., 0, 2] * (b1 * A[..., 2, 1] - A[..., 1, 1] * b2)) / d
    x1 = (A[..., 0, 0] * (b1 * A[..., 2, 2] - A[..., 1, 2] * b2)
          - b0 * (A[..., 1, 0] * A[..., 2, 2] - A[..., 1, 2] * A[..., 2, 0])
          + A[..., 0, 2] * (A[..., 1, 0] * b2 - b1 * A[..., 2, 0])) / d
    x2 = (A[..., 0, 0] * (A[..., 1, 1] * b2 - b1 * A[..., 2, 1])
          - A[..., 0, 1] * (A[..., 1, 0] * b2 - b1 * A[..., 2, 0])
          + b0 * (A[..., 1, 0] * A[..., 2, 1] - A[..., 1, 1] * A[..., 2, 0])) / d
    return np.stack([x0, x1, x2], axis=-1)


def ik_jacobian(t1, t2, t3, lh, lt, l2, side):
    """Jacobian of the planar IK convention (sagittal row negated vs the leg J).

    Scalar angles give one 3x3 matrix; arrays give a (..., 3, 3) stack over
    their broadcast shape.
    """
    c1 = np.cos(t1)
    s1 = np.sin(t1)
    c2 = np.cos(t2)
    s2 = np.sin(t2)
    c23 = np.cos(t2 + t3)
    s23 = np.sin(t2 + t3)
    J = np.empty(np.broadcast(t1, t2, t3, lh, lt, l2, side).shape + (3, 3))
    J[..., 0, 0] = 0.0
    J[..., 0, 1] = l2 * c23 + lt * c2
    J[..., 0, 2] = l2 * c23
    J[..., 1, 0] = -side * lh * s1 + l2 * c1 * c23 + lt * c2 * c1
    J[..., 1, 1] = -l2 * s1 * s23 - lt * s1 * s2
    J[..., 1, 2] = -l2 * s1 * s23
    J[..., 2, 0] = side * lh * c1 + l2 * s1 * c23 + lt * c2 * s1
    J[..., 2, 1] = l2 * c1 * s23 + lt * c1 * s2
    J[..., 2, 2] = l2 * c1 * s23
    return J


def ik_rates(t1, t2, t3, vx, vy, vz, lh, lt, l2, side, det_eps):
    """Joint rates implied by a Cartesian velocity through the IK Jacobian.

    Returns (d1, d2, d3, ok), elementwise over the broadcast shape of the
    arguments. ok False means the Jacobian determinant fell below det_eps;
    rates are zeros there (caller decides the fallback policy). The sagittal
    component is negated to match ik_joints_array's convention.
    """
    J = ik_jacobian(t1, t2, t3, lh, lt, l2, side)
    d = _det3(J)
    ok = ~(np.abs(d) < det_eps)
    b = np.stack(np.broadcast_arrays(-vx, vy, vz), axis=-1)
    th = np.where(ok[..., None], _solve3(J, b, np.where(ok, d, 1.0)), 0.0)
    return th[..., 0], th[..., 1], th[..., 2], ok


def leg_frame(q, dq, tau, coef, sigma_min):
    """Kinematics and the wrench gate of every leg of a frame in one call.

    q, dq and tau are (L, 3) joint angles, rates and torques; coef is
    leg_coefficients() of the legs. Returns (r, v, f, ok): r and v as from
    leg_kinematics, f (L, 3) the end-effector forces in the body frame
    solving (J J^T) f = J tau, and ok (L,) False where the smallest singular
    value of J is below sigma_min, q, dq or tau is not finite, or J J^T is
    singular to working precision. f is zeros where ok is False, and the
    caller must treat that leg as ungateable this cycle; r and v of a leg
    with a non-finite q are NaN, and so is v where dq is not finite.

    The stacked SVD runs only when a cheaper bound cannot decide. For a 3x3 J
    with singular values s1 >= s2 >= s3, s3 = |det J| / (s1 s2) and
    s1 s2 <= tr(J J^T) / 2, so s3^2 >= 4 det(J J^T) / tr(J J^T)^2; the sum of
    the legs' traces bounds each leg's trace. When that bound clears
    (2 sigma_min)^2 plus SIGMA_BOUND_TOL * tr, far wider than the rounding of
    the bound and of the SVD, every leg is ok, as the SVD would find;
    otherwise the SVD decides. A healthy frame thus takes no SVD. The force
    solve runs on every leg, and its mask gates out a leg whose J J^T cleared
    the gate yet is singular to working precision (links of wildly different
    lengths); the forces of every gated-out leg are masked to zeros.
    """
    finite = np.isfinite(np.concatenate((q, dq, tau)))
    all_finite = finite.all()
    if not all_finite:
        # NaN instead of inf keeps the trig terms and J dq quiet; a zero torque
        # and an identity Jacobian stand in for the leg in the SVD
        finite_q, finite_dq, finite_tau = finite.reshape(3, len(q), 3)
        q = np.where(finite_q, q, np.nan)
        dq = np.where(finite_dq, dq, np.nan)
        finite = (finite_q & finite_dq & finite_tau).all(axis=1)
        tau = np.where(finite[:, None], tau, 0.0)
    r, J, v = leg_kinematics(q, dq, coef)
    if not all_finite:
        J = np.where(finite[:, None, None], J, _EYE3)
    JJt = J @ np.swapaxes(J, -1, -2)
    all_ok = False
    if all_finite:
        tr = float(np.einsum("lii->", JJt))
        all_ok = (4.0 * float(np.linalg.det(JJt).min())
                  >= tr * tr * (4.0 * sigma_min * sigma_min + SIGMA_BOUND_TOL * tr))
    f, ok = solve(JJt, J @ tau[:, :, None])
    if not all_ok:
        ok &= ~(np.linalg.svd(J, compute_uv=False)[:, 2] < sigma_min)
        if not all_finite:
            ok &= finite
    if not ok.all():
        f = np.where(ok[:, None, None], f, 0.0)
    return r, v, f[:, :, 0], ok


def leg_wrench(J, dq, tau, sigma_min):
    """Foot velocity J dq and the wrench gate of one leg on Python floats.

    J is a 3x3 leg Jacobian (its [0, 0] entry is zero); dq and tau are the
    joint rates and torques. Returns (v, f, ok): v and f 3-tuples, f solving
    (J J^T) f = J tau by the adjugate of J J^T over its determinant, and ok
    False, with f zeros, where the smallest singular value of J is below
    sigma_min, the determinant is not positive or f is not finite.
    """
    (_, j01, j02), (j10, j11, j12), (j20, j21, j22) = np.asarray(J).tolist()
    d0, d1, d2 = dq
    t0, t1, t2 = tau
    v = (j01 * d1 + j02 * d2,
         j10 * d0 + j11 * d1 + j12 * d2,
         j20 * d0 + j21 * d1 + j22 * d2)
    a00 = j01 * j01 + j02 * j02
    a01 = j01 * j11 + j02 * j12
    a02 = j01 * j21 + j02 * j22
    a11 = j10 * j10 + j11 * j11 + j12 * j12
    a12 = j10 * j20 + j11 * j21 + j12 * j22
    a22 = j20 * j20 + j21 * j21 + j22 * j22
    m00 = a11 * a22 - a12 * a12
    m01 = a02 * a12 - a01 * a22
    m02 = a01 * a12 - a02 * a11
    m11 = a00 * a22 - a02 * a02
    m12 = a01 * a02 - a00 * a12
    m22 = a00 * a11 - a01 * a01
    det = a00 * m00 + a01 * m01 + a02 * m02
    zeros = (0.0, 0.0, 0.0)
    if np.linalg.svd(J, compute_uv=False)[2] < sigma_min or not det > 0.0:
        return v, zeros, False
    b0 = j01 * t1 + j02 * t2
    b1 = j10 * t0 + j11 * t1 + j12 * t2
    b2 = j20 * t0 + j21 * t1 + j22 * t2
    f = ((m00 * b0 + m01 * b1 + m02 * b2) / det,
         (m01 * b0 + m11 * b1 + m12 * b2) / det,
         (m02 * b0 + m12 * b1 + m22 * b2) / det)
    if not all(map(math.isfinite, f)):
        return v, zeros, False
    return v, f, True
