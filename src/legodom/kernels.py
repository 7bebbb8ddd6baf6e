"""Leg geometry of a 3-DoF leg: forward kinematics, the leg Jacobian, the
analytic inverse kinematics, the IK rate solve and the torque-to-wrench solve,
and the stacked Cholesky and solve of the cubature filter.

The forward side is one set of expressions, `_leg_entries`, on the
coefficients of `leg_coefficients`. `leg_kinematics` runs it once on the
rows of a stack of legs with numpy's trig (the gait generator's blocks of
frames), and `leg_rows` once per leg on the Python floats of one frame's
legs with math's, where a numpy call would cost more than the 3x3
arithmetic; it adds the wrench gate and the forces. The inverse side works
on stacks, elementwise: the gait generator solves every frame and leg of a
block of frames with `ik_joints_array`, and the cubature filter in `ikvel`
maps every leg and cubature point of a frame with `ik_measurement_rows`,
which runs the same angle solve and then the joint rates from the same trig
terms. Both take the terms that depend on the leg geometry alone from
`ik_coefficients`, which the filter builds once.

`cholesky` and `solve` never raise: each returns its stacked result with a
per-matrix `ok` mask, so a matrix that fails to factor or solve (its result
is NaN) costs only its own leg.
"""

from math import cos, isfinite, nan, sin
from typing import NamedTuple

import numpy as np

try:
    from numpy.linalg import _umath_linalg
except ImportError as exc:  # a private module of numpy; no public stand-in
    raise ImportError("legodom needs numpy's private module "
                      "numpy.linalg._umath_linalg for its stacked Cholesky "
                      "and solve") from exc

# always False; kept only because the replay benchmark (replaybench/run.py)
# records it in its environment fingerprint
NUMBA_ENABLED = False

# tolerance inside the hip-roll radical; keeps the square root real when the
# target grazes the branch boundary
EPS_RADICAL = 1e-12
# trig arguments clamped up to this overshoot are treated as rounding noise
CLAMP_TOL = 1e-9
# the wrench gate: a leg whose Jacobian's smallest singular value is below
# SIGMA_MIN has no trustworthy force this cycle and is not gated into stance
SIGMA_MIN = 1e-6
# relative margin (of tr(J J^T), in squared singular value) by which leg_rows'
# sigma_min bound must clear the gate before it stands in for the SVD; the
# rounding of the bound and of the SVD is a few 1e-16 of the same scale
SIGMA_BOUND_TOL = 1e-12


def _leg_entries(q0, q1, q2, coef, cos, sin):
    """Position and Jacobian entries of a leg at joint angles (q0, q1, q2).

    coef is leg_coefficients() of the leg; cos and sin are math's on floats
    or numpy's on arrays. Returns (r0, r1, r2, J01, J02, J10, J11, J12, J20,
    J21, J22), the hip-to-end-effector position and the Jacobian row-major
    without its zero J00. Each entry adds its terms from left to right in the
    order of the one-leg expressions frozen in tests/kernels_reference.py, so
    it is bit-equal to them.

    The wheel radius rw enters only the lateral row's reach and as a constant
    vertical offset; the sagittal row never sees it. That asymmetry is part of
    the kinematic convention this estimator is built around.
    """
    lc, lt, rw, slh, lcrw = coef
    q12 = q1 + q2
    c1, c2, c23 = cos(q0), cos(q1), cos(q12)
    s1, s2, s23 = sin(q0), sin(q1), sin(q12)
    return (-lc * s23 + -lt * s2,
            slh * c1 + lcrw * s1 * c23 + lt * c2 * s1,
            slh * s1 + -lc * c1 * c23 + -lt * c1 * c2 + rw,
            -lc * c23 + -lt * c2,
            -lc * c23,
            lcrw * c1 * c23 + lt * c1 * c2 + -slh * s1,
            -lcrw * s1 * s23 + -lt * s1 * s2,
            -lcrw * s1 * s23,
            lc * s1 * c23 + lt * c2 * s1 + slh * c1,
            lc * c1 * s23 + lt * c1 * s2,
            lc * c1 * s23)


def leg_coefficients(lh, lt, lc, rw, side):
    """The coefficients (lc, lt, rw, slh = side * lh, lcrw = lc + rw) of
    _leg_entries from the link parameters of kernel_args(): floats for one leg
    (leg_rows), (L,) arrays for a stack (leg_kinematics). Build them once."""
    return lc, lt, rw, side * lh, lc + rw


def leg_kinematics(q, dq, coef):
    """Positions, Jacobians and foot velocities of a stack of legs.

    q and dq are (..., L, 3) joint angles and rates; coef is
    leg_coefficients() of the L legs, broadcast over the leading axes. The
    six trig terms of each leg are evaluated once and give both the position
    and the Jacobian. Returns (r, J, v): r (..., L, 3) hip-to-end-effector
    positions, J (..., L, 3, 3) Jacobians and v (..., L, 3) velocities J @ dq.
    """
    # the entries run along the reversed axes of q, (3, L, ...), so a plain
    # transpose serves any number of leading axes; they are stacked into one
    # contiguous (..., L, 12) array, which fixes the strides J @ dq sees
    pad = (1,) * (q.ndim - 2)
    coef = [np.reshape(c, np.shape(c) + pad) for c in coef]
    r0, r1, r2, *jac = _leg_entries(*q.T.copy(), coef, np.cos, np.sin)
    entries = np.stack((r0, r1, r2, np.zeros_like(r0), *jac)).T.copy()
    J = entries[..., 3:].reshape(entries.shape[:-1] + (3, 3))
    return entries[..., :3], J, (J @ dq[..., None])[..., 0]


def leg_rows(q_rows, dq_rows, tau_rows, legs, sigma_min):
    """Kinematics and the wrench gate of every leg of a frame, on floats.

    q_rows, dq_rows and tau_rows are each leg's joint angles, rates and
    torques (one `joints.tolist()` of a frame); legs holds each leg's
    leg_coefficients() as floats. Returns lists (r, v, f, ok), per leg: the
    hip-to-end-effector position r and velocity v = J dq, and the force f in
    the body frame solving (J J^T) f = J tau, each a 3-tuple. ok is False,
    and f zeros, where a value of q, dq or tau is not finite, the smallest
    singular value of J is below sigma_min (the step's is SIGMA_MIN), or
    J J^T is singular to working precision (a determinant that is not
    positive, or a non-finite f); the caller must treat that leg as
    ungateable this cycle. A leg whose q1 + q2 overflows counts as one with a
    non-finite q. r and v are NaN where q is not finite, and v where dq is
    not. Never raises.

    r and J are _leg_entries' on math.cos and math.sin, bit-equal to
    leg_kinematics. For singular values s1 >= s2 >= s3 of J,
    s3 = |det J| / (s1 s2) and s1 s2 <= tr(J J^T) / 2, so
    s3^2 >= 4 det(J J^T) / tr(J J^T)^2. Where that bound clears sigma_min^2
    by SIGMA_BOUND_TOL * tr, far beyond its rounding and the SVD's, the leg
    passes as the SVD would find; only otherwise is J's SVD taken. f is the
    adjugate of J J^T applied to J tau, over the determinant.
    """
    feet, vels, forces, oks = [], [], [], []
    for q, dq, tau, coef in zip(q_rows, dq_rows, tau_rows, legs):
        q0, q1, q2 = q
        d0, d1, d2 = dq
        t0, t1, t2 = tau
        # one sum tests all nine values and q1 + q2, which _leg_entries takes
        # the trig of; one by one only if it is not finite
        bad = (not isfinite(q1 + q2 + q0 + d0 + d1 + d2 + t0 + t1 + t2)
               and not (isfinite(q1 + q2)
                        and all(map(isfinite, (q0, q1, q2, d0, d1, d2, t0, t1, t2)))))
        if bad:
            # math.cos(inf) raises where np.cos gives NaN; q1 + q2 can
            # overflow to inf from finite angles
            if not (isfinite(q0) and isfinite(q1) and isfinite(q2) and isfinite(q1 + q2)):
                q0 = q1 = q2 = nan
            if not (isfinite(d0) and isfinite(d1) and isfinite(d2)):
                d0 = d1 = d2 = nan
        r0, r1, r2, j01, j02, j10, j11, j12, j20, j21, j22 = _leg_entries(
            q0, q1, q2, coef, cos, sin)
        feet.append((r0, r1, r2))
        vels.append((j01 * d1 + j02 * d2,
                     j10 * d0 + j11 * d1 + j12 * d2,
                     j20 * d0 + j21 * d1 + j22 * d2))
        # J J^T, its cofactors and determinant; a determinant that is not
        # positive is singular to working precision and fails the gate
        a00 = j01 * j01 + j02 * j02
        a01 = j01 * j11 + j02 * j12
        a02 = j01 * j21 + j02 * j22
        a11 = j10 * j10 + j11 * j11 + j12 * j12
        a12 = j10 * j20 + j11 * j21 + j12 * j22
        a22 = j20 * j20 + j21 * j21 + j22 * j22
        m00 = a11 * a22 - a12 * a12
        m01 = a02 * a12 - a01 * a22
        m02 = a01 * a12 - a02 * a11
        det = a00 * m00 + a01 * m01 + a02 * m02
        tr = a00 + a11 + a22
        ok = not bad and (
            4.0 * det >= tr * tr * (sigma_min * sigma_min + SIGMA_BOUND_TOL * tr)
            or det > 0.0 and not np.linalg.svd(
                ((0.0, j01, j02), (j10, j11, j12), (j20, j21, j22)),
                compute_uv=False)[2] < sigma_min)
        if ok:
            b0 = j01 * t1 + j02 * t2
            b1 = j10 * t0 + j11 * t1 + j12 * t2
            b2 = j20 * t0 + j21 * t1 + j22 * t2
            m12 = a01 * a02 - a00 * a12
            f = ((m00 * b0 + m01 * b1 + m02 * b2) / det,
                 (m01 * b0 + (a00 * a22 - a02 * a02) * b1 + m12 * b2) / det,
                 (m02 * b0 + m12 * b1 + (a00 * a11 - a01 * a01) * b2) / det)
            ok = isfinite(f[0] + f[1] + f[2])
        forces.append(f if ok else (0.0, 0.0, 0.0))
        oks.append(ok)
    return feet, vels, forces, oks


def _quiet(gufunc, *args):
    """One call of a numpy.linalg gufunc on float64 stacks, in the error state
    of numpy's own wrappers except that the invalid flag, by which the gufunc
    reports a failed matrix, is ignored instead of raised. Returns (result,
    ok), ok False where a matrix's result is not entirely finite; the
    per-matrix reduction runs only when some entry is not finite."""
    with np.errstate(all="ignore"):
        out = gufunc(*args, signature="d" * len(args) + "->d")
    finite = np.isfinite(out)
    if finite.all():
        return out, finite[..., 0, 0]
    return out, finite.all(axis=(-2, -1))


def cholesky(P):
    """Lower Cholesky factors of a (..., n, n) stack and the (...) mask of
    the finite ones; each factor has the bits of np.linalg.cholesky, and a
    matrix that is not positive definite gets an all-NaN one."""
    return _quiet(_umath_linalg.cholesky_lo, P)


def solve(A, B):
    """Solutions X of the stacked A X = B, A (..., n, n) and B (..., n, k),
    and the (...) mask of the finite ones; each has the bits of
    np.linalg.solve, and a matrix singular to working precision gets an
    all-NaN one."""
    return _quiet(_umath_linalg.solve, A, B)


class IkCoefficients(NamedTuple):
    """The link parameters of a stack of legs, and the terms of the inverse
    kinematics that depend on them alone, from ik_coefficients."""

    lh: np.ndarray
    lt: np.ndarray
    l2: np.ndarray
    side: np.ndarray
    four_lh_lh: np.ndarray
    lh_lh: np.ndarray
    two_lh: np.ndarray
    slh: np.ndarray
    lt_lt_l2_l2: np.ndarray
    two_lt_l2: np.ndarray
    lt_lt: np.ndarray
    l2_l2: np.ndarray
    neg_l2: np.ndarray


def ik_coefficients(lh, lt, l2, side):
    """IkCoefficients of legs with link parameters lh, lt, l2 and side
    (floats, or arrays that broadcast against the positions they solve for,
    e.g. tiled to (N,) for contiguous (6, N) rows). Each term is formed as
    the one-leg solve forms it, so hoisting it out of the solve leaves every
    bit of the solve as it was. Build them once per geometry."""
    lh, lt, l2, side = (np.asarray(p, dtype=float) for p in (lh, lt, l2, side))
    return IkCoefficients(lh, lt, l2, side, 4.0 * lh * lh, lh * lh, 2.0 * lh, side * lh,
                          lt * lt + l2 * l2, 2.0 * lt * l2, lt * lt, l2 * l2, -l2)


# 0-d array operands: a ufunc takes one as fast as an array operand, where a
# Python float costs it about 0.2 us more a call
_ZERO, _ONE, _TWO, _FOUR, _NEG_ONE, _NEG_PI, _EPS_RADICAL = (
    np.array(v) for v in (0.0, 1.0, 2.0, 4.0, -1.0, -np.pi, EPS_RADICAL))


def _clamp_unit(arg):
    """arg clamped into [-1, 1], and the overshoot |arg - clamped|. A NaN arg
    stays NaN, with a NaN overshoot that np.fmax passes over, as the branches
    of a one-leg solve `if arg > 1.0 ... elif arg < -1.0` would leave it."""
    clamped = np.minimum(np.maximum(arg, _NEG_ONE), _ONE)
    return clamped, np.abs(arg - clamped)


def _ik_angles(px, py, pz, coef):
    """ik_joints_array's solve on IkCoefficients coef, plus the terms the
    rate solve shares with it: sin(t1), cos(t1), side lh sin(t1) and
    side lh cos(t1)."""
    _, lt, _, side, four_lh_lh, lh_lh, two_lh, slh, lt_lt_l2_l2, two_lt_l2, lt_lt, l2_l2 = (
        coef[:12])
    x = -px
    yy = py * py
    rho2 = yy + pz * pz
    rad = np.maximum(_EPS_RADICAL + four_lh_lh * pz * pz - _FOUR * rho2 * (lh_lh - yy),
                     _ZERO)
    arg1, over1 = _clamp_unit((two_lh * pz + np.sqrt(rad)) / (_TWO * rho2))
    t1 = side * np.arcsin(arg1)
    s1, c1 = np.sin(t1), np.cos(t1)

    slh_s1, slh_c1 = slh * s1, slh * c1
    zb = pz - slh_s1
    yb = py - slh_c1
    rb = np.sqrt(yb * yb + zb * zb)
    r2 = rb * rb + x * x
    r = np.sqrt(r2)

    arg3, over3 = _clamp_unit((lt_lt_l2_l2 - r2) / two_lt_l2)
    t3 = _NEG_PI + np.arccos(arg3)

    arg2, over2 = _clamp_unit((r2 + lt_lt - l2_l2) / (_TWO * r * lt))
    t2 = np.arctan2(x, rb) + np.arccos(arg2)

    viol = np.fmax(np.fmax(np.fmax(_ZERO, over1), over3), over2)
    return t1, t2, t3, viol, s1, c1, slh_s1, slh_c1


def ik_joints_array(px, py, pz, lh, lt, l2, side):
    """Analytic inverse kinematics for hip-to-end-effector positions.

    Every argument broadcasts elementwise. Returns (t1, t2, t3, viol); viol is
    the largest inverse-trig domain overshoot, and viol <= CLAMP_TOL means the
    target is inside the workspace of this branch. px is negated on entry (the
    planar sub-solver's sagittal sign is opposite to the forward one), so the
    solve returns q of leg_kinematics' position on the branch with the knee
    folded back and the foot on its own lateral side. Each element equals the
    one-leg solve frozen in tests/kernels_reference.py.
    """
    return _ik_angles(px, py, pz, ik_coefficients(lh, lt, l2, side))[:4]


def ik_measurement_rows(rows, coef, det_eps, out=None):
    """(joint angles, joint rates) of foot (position, velocity) states.

    rows is (6, ...), one state per column, fastest as contiguous (6, N);
    coef is ik_coefficients() of the legs, broadcasting against rows[0],
    e.g. tiled to (N,). The angles are ik_joints_array's; the rates solve
    J_ik d = (-vx, vy, vz), J_ik the leg Jacobian with its sagittal row
    negated. Each trig term and the three 2x2 minors of J_ik's lower rows are
    formed once, for both the determinant and the adjugate. Returns
    (z (6, ...), viol, singular), singular True where |det J_ik| < det_eps,
    with zero rates, or np.False_, which broadcasts as the all-False mask,
    when no state is singular; z is out when given. Each element equals the
    frozen ik_joints plus ik_rates of tests/kernels_reference.py.
    """
    t1, t2, t3, viol, s1, c1, slh_s1, slh_c1 = _ik_angles(rows[0], rows[1], rows[2], coef)
    lt, l2, neg_l2 = coef.lt, coef.l2, coef.neg_l2
    t23 = t2 + t3
    c2, s2, c23, s23 = np.cos(t2), np.sin(t2), np.cos(t23), np.sin(t23)

    # J_ik's entries, each bit-equal to the frozen ik_jacobian's (same products
    # and sums in the same order); its first entry is zero, and the terms of
    # the determinant and the adjugate that it multiplies are left out
    l2c1 = l2 * c1
    nl2s1 = neg_l2 * s1
    ltc2 = lt * c2
    j02 = l2 * c23
    j01 = j02 + ltc2
    j10 = l2c1 * c23 - slh_s1 + ltc2 * c1
    j12 = nl2s1 * s23
    j11 = j12 - lt * s1 * s2
    j20 = slh_c1 - nl2s1 * c23 + ltc2 * s1
    j22 = l2c1 * s23
    j21 = j22 + lt * c1 * s2

    m0 = j11 * j22 - j12 * j21
    m1 = j10 * j22 - j12 * j20
    m2 = j10 * j21 - j11 * j20
    d = j02 * m2 - j01 * m1
    singular = np.abs(d) < det_eps
    any_singular = singular.any()
    if any_singular:
        d = np.where(singular, 1.0, d)

    b0, b1, b2 = -rows[3], rows[4], rows[5]
    e0 = b1 * j22 - j12 * b2
    e1 = b1 * j21 - j11 * b2
    e2 = j10 * b2 - b1 * j20
    z = np.empty((6,) + np.shape(t2)) if out is None else out
    z[0], z[1], z[2] = t1, t2, t3
    z[3] = (b0 * m0 - j01 * e0 + j02 * e1) / d
    z[4] = (j02 * e2 - b0 * m1) / d
    z[5] = (b0 * m2 - j01 * e2) / d
    if any_singular:
        z[3:] = np.where(singular, 0.0, z[3:])
    return z, viol, singular if any_singular else np.False_
