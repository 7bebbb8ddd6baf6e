"""Leg geometry of a 3-DoF leg: forward kinematics, the leg and IK Jacobians,
the analytic inverse kinematics and the torque-to-wrench solve.

The forward functions and the wrench take one leg's joint angles and the link
parameters from `LegGeometry.kernel_args()`; callers loop over legs. The
inverse side serves the cubature filter in `ikvel`, which maps every leg and
cubature point of a frame at once: `ik_joints_array`, `ik_jacobian` and
`ik_rates` work elementwise over arrays (the last two over scalars as well).
`ik_joints` is the scalar form of the position solve, kept for the gait
generator, which calls it one target at a time and would pay the array
overhead on every call.
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


def fk_velocity(q, dq, lh, lt, lc, rw, side):
    """Hip-to-end-effector velocity, leg_jacobian(q) @ dq."""
    return leg_jacobian(q, lh, lt, lc, rw, side) @ dq


def foot_force(q, tau, lh, lt, lc, rw, side, sigma_min):
    """End-effector force in the body frame from joint torques.

    Solves (J J^T) f = J tau. Returns (f, ok); ok is False when the smallest
    singular value of J is below sigma_min, in which case f is zeros and the
    caller must treat the leg as ungateable this cycle.
    """
    J = leg_jacobian(q, lh, lt, lc, rw, side)
    if np.linalg.svd(J, compute_uv=False)[2] < sigma_min:
        return np.zeros(3), False
    return np.linalg.solve(J @ J.T, J @ tau), True


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
