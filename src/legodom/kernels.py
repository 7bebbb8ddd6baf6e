"""Leg geometry of a 3-DoF leg: forward kinematics, the leg and IK Jacobians,
the analytic inverse kinematics and the torque-to-wrench solve.

The forward side runs every leg of a frame at once: `leg_frame` gives the
positions, foot velocities, forces and the wrench gate of a stack of legs
from one evaluation of their trig terms, with one stacked SVD and one stacked
solve; `leg_kinematics` is its position, Jacobian and velocity half. Both
take the term coefficients from `leg_coefficients`, built once per set of
legs. `fk_position` and `leg_jacobian` are the scalar forms for one leg, kept
for the gait generator, which calls them one leg at a time and would pay the
array overhead on every call; `leg_kinematics` is bit-equal to them. The
inverse side serves the cubature filter in `ikvel`, which maps every leg and
cubature point of a frame at once: `ik_joints_array`, `ik_jacobian` and
`ik_rates` work elementwise over arrays (the last two over scalars as well).
`ik_joints` is the scalar form of the position solve, kept for the gait
generator for the same reason.
"""

import numpy as np

# always False; kept only because the replay benchmark (replaybench/run.py)
# records it in its environment fingerprint
NUMBA_ENABLED = False

# tolerance inside the hip-roll radical; keeps the square root real when the
# target grazes the branch boundary
EPS_RADICAL = 1e-12
# trig arguments clamped up to this overshoot are treated as rounding noise
CLAMP_TOL = 1e-9


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


# The trig terms of a leg in the row order leg_kinematics evaluates them:
# cosines and sines of q0, q1 and q1 + q2, then a 1 that fills the factors
# of terms with fewer than two.
_TRIG = ("c1", "c2", "c23", "s1", "s2", "s23", "1")

# Every entry of fk_position (r0, r1, r2) and of leg_jacobian (row-major) as
# the terms coef * a * b that the scalar expression adds from left to right;
# a leading "-" negates the coefficient, which is exact. leg_kinematics
# multiplies and adds in that same order, so each entry is bit-equal to the
# scalar one.
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
# side * lh and lcrw is lc + rw, formed as the scalar kernels form them. A
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
_EYE3 = np.eye(3)


def leg_coefficients(lh, lt, lc, rw, side):
    """Term coefficients of a stack of legs for leg_kinematics and leg_frame.

    The link parameters are (L,) arrays or scalars, as in kernel_args();
    returns a (slots, 12, L) array. Build it once per set of legs.
    """
    lh, lt, lc, rw, side = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(p, dtype=float)) for p in (lh, lt, lc, rw, side)))
    named = np.stack([lc, lt, rw, side * lh, lc + rw, np.zeros_like(lc)])
    return _COEF_SIGN[..., None] * named[_COEF_INDEX]


def leg_kinematics(q, dq, coef):
    """Positions, Jacobians and foot velocities of a stack of legs.

    q and dq are (L, 3) joint angles and rates; coef is leg_coefficients()
    of the legs. The six trig terms of each leg are evaluated once and give
    both fk_position and leg_jacobian, bit-equal to the scalar kernels.
    Returns (r, J, v): r (L, 3) hip-to-end-effector positions, J (L, 3, 3)
    Jacobians and v (L, 3) velocities J @ dq.
    """
    ang = q.T.copy()
    ang[2] += ang[1]
    trig = np.empty((len(_TRIG), len(q)))
    np.cos(ang, out=trig[:3])
    np.sin(ang, out=trig[3:6])
    trig[6] = 1.0
    terms = coef * trig[_TRIG_A] * trig[_TRIG_B]
    entries = sum(terms[1:], terms[0]).T.copy()
    J = entries[:, 3:].reshape(-1, 3, 3)
    return entries[:, :3], J, (J @ dq[:, :, None])[:, :, 0]


def leg_frame(q, dq, tau, coef, sigma_min):
    """Kinematics and the wrench gate of every leg of a frame in one call.

    q, dq and tau are (L, 3) joint angles, rates and torques; coef is
    leg_coefficients() of the legs. Returns (r, v, f, ok): r and v as from
    leg_kinematics, f (L, 3) the end-effector forces in the body frame
    solving (J J^T) f = J tau, and ok (L,) False where the smallest singular
    value of J is below sigma_min or q or tau is not finite. f is zeros where
    ok is False, and the caller must treat that leg as ungateable this cycle;
    r and v of a leg with a non-finite q are NaN.
    """
    finite = (np.isfinite(q) & np.isfinite(tau)).all(axis=1)
    all_finite = finite.all()
    if not all_finite:
        # NaN instead of inf keeps the trig terms quiet; a zero torque and an
        # identity Jacobian stand in for the leg in the SVD and the solve
        q = np.where(np.isfinite(q), q, np.nan)
        tau = np.where(finite[:, None], tau, 0.0)
    r, J, v = leg_kinematics(q, dq, coef)
    if not all_finite:
        J = np.where(finite[:, None, None], J, _EYE3)
    ok = finite & ~(np.linalg.svd(J, compute_uv=False)[:, 2] < sigma_min)
    all_ok = ok.all()
    JJt = J @ np.swapaxes(J, -1, -2)
    if not all_ok:
        JJt = np.where(ok[:, None, None], JJt, _EYE3)
    f = np.linalg.solve(JJt, J @ tau[:, :, None])[:, :, 0]
    if not all_ok:
        f = np.where(ok[:, None], f, 0.0)
    return r, v, f, ok


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


def _clamp_unit(arg, viol):
    """arg clamped into [-1, 1], and viol raised to the overshoot if larger.

    A NaN arg stays NaN and leaves viol as it was, as in ik_joints.
    """
    clamped = np.minimum(np.maximum(arg, -1.0), 1.0)
    return clamped, np.fmax(viol, np.abs(arg - clamped))


def ik_joints_array(px, py, pz, lh, lt, l2, side):
    """ik_joints over arrays: every argument broadcasts elementwise.

    Same operations as the scalar ik_joints, with the branches on the
    radical and the inverse-trig domains written as np.maximum/np.minimum,
    so each element equals the scalar result. Returns (t1, t2, t3, viol)
    as arrays of the broadcast shape.
    """
    x = -px
    y = py
    z = pz

    rho2 = y * y + z * z
    rad = np.maximum(
        EPS_RADICAL + 4.0 * lh * lh * z * z - 4.0 * rho2 * (lh * lh - y * y), 0.0)
    arg1, viol = _clamp_unit((2.0 * lh * z + np.sqrt(rad)) / (2.0 * rho2), 0.0)
    t1 = side * np.arcsin(arg1)

    zb = z - side * lh * np.sin(t1)
    yb = y - side * lh * np.cos(t1)
    rb = np.sqrt(yb * yb + zb * zb)
    r2 = rb * rb + x * x
    r = np.sqrt(r2)

    arg3, viol = _clamp_unit((lt * lt + l2 * l2 - r2) / (2.0 * lt * l2), viol)
    t3 = -np.pi + np.arccos(arg3)

    arg2, viol = _clamp_unit((r2 + lt * lt - l2 * l2) / (2.0 * r * lt), viol)
    t2 = np.arctan2(x, rb) + np.arccos(arg2)

    return t1, t2, t3, viol


def ik_jacobian(t1, t2, t3, lh, lt, l2, side):
    """Jacobian of the planar IK convention (sagittal row negated vs leg_jacobian).

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
    component is negated to match ik_joints' convention.
    """
    J = ik_jacobian(t1, t2, t3, lh, lt, l2, side)
    d = _det3(J)
    ok = ~(np.abs(d) < det_eps)
    b = np.stack(np.broadcast_arrays(-vx, vy, vz), axis=-1)
    th = np.where(ok[..., None], _solve3(J, b, np.where(ok, d, 1.0)), 0.0)
    return th[..., 0], th[..., 1], th[..., 2], ok
