"""The one-leg filter cycle pinned against a frozen copy of the loop kernel
it replaced.

`chol_lower` and `ckf_leg_step` below are the scalar-loop filter step the
estimator used before the filter became one numpy recursion in
`legodom.ikvel`. They are kept verbatim (hand-rolled Cholesky, explicit
moment loops, triangular solves for the gain) so a one-leg
`LegVelocityFilter` cycle is checked against an independent operation
sequence, status bits included. Do not edit them to follow the library.
"""

import numpy as np

from legodom import CkfNoise, LegGeometry
import legodom.ikvel as ikvel
from legodom.ikvel import (CKF_CHOL_RESET, CKF_CLAMPED, CKF_RATE_FALLBACK,
                           CKF_UPDATE_SKIPPED)
from legodom.kernels import CLAMP_TOL, ik_coefficients, ik_measurement_rows

from conftest import filter_cycle, kinematics, sample_joint

GEOM = LegGeometry(0.0955, 0.213, 0.213, 0.0, 1, np.zeros(3))


def chol_lower(A):
    """Lower Cholesky factor with an explicit success flag (no exceptions)."""
    n = A.shape[0]
    L = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            acc = A[i, j]
            for k in range(j):
                acc -= L[i, k] * L[j, k]
            if i == j:
                if acc <= 0.0:
                    return L, False
                L[i, i] = np.sqrt(acc)
            else:
                L[i, j] = acc / L[j, j]
    return L, True



def ckf_leg_step(x, P, dt, z, Q, R, lh, lt, l2, side, det_eps, r_inflate,
                 p0_pos, p0_vel):
    """One constant-velocity cubature filter step for a single leg.

    x: (6,) position+velocity state, P: (6,6) covariance, dt: already
    truncated time step, z: (6,) measured joint angles and rates, Q: process
    covariance for this step, R: measurement covariance.

    Equal-weight spherical-radial points (2n, weight 1/2n) are drawn from the
    prior, pushed through the constant-velocity map, redrawn from the
    prediction and pushed through the analytic IK measurement. A failed
    Cholesky resets the covariance to the diagonal prior (p0_pos, p0_vel)
    instead of aborting; a near-singular IK Jacobian zeroes the rate rows of
    that sigma point and inflates the rate block of R by r_inflate. The
    posterior mean's lateral coordinate is snapped to the leg's side.

    Returns (x_post, P_post, status bitmask).
    """
    n = 6
    m2 = 12
    sq = np.sqrt(6.0)
    status = 0

    S, ok = chol_lower(P)
    if not ok:
        P = np.zeros((n, n))
        for i in range(3):
            P[i, i] = p0_pos
            P[i + 3, i + 3] = p0_vel
        S, ok = chol_lower(P)
        status |= CKF_CHOL_RESET

    # prior points through the process map
    XP = np.empty((m2, n))
    for j in range(n):
        for i in range(n):
            XP[j, i] = x[i] + sq * S[i, j]
            XP[j + n, i] = x[i] - sq * S[i, j]
    for m in range(m2):
        for i in range(3):
            XP[m, i] = XP[m, i] + dt * XP[m, i + 3]

    xbar = np.zeros(n)
    for m in range(m2):
        for i in range(n):
            xbar[i] += XP[m, i]
    for i in range(n):
        xbar[i] /= m2

    Pm = np.zeros((n, n))
    for m in range(m2):
        for i in range(n):
            di = XP[m, i] - xbar[i]
            for j in range(n):
                Pm[i, j] += di * (XP[m, j] - xbar[j])
    for i in range(n):
        for j in range(n):
            Pm[i, j] = Pm[i, j] / m2 + Q[i, j]

    S2, ok = chol_lower(Pm)
    if not ok:
        Pm = np.zeros((n, n))
        for i in range(3):
            Pm[i, i] = p0_pos
            Pm[i + 3, i + 3] = p0_vel
        S2, ok = chol_lower(Pm)
        status |= CKF_CHOL_RESET

    # predicted points through the measurement map
    X2 = np.empty((m2, n))
    for j in range(n):
        for i in range(n):
            X2[j, i] = xbar[i] + sq * S2[i, j]
            X2[j + n, i] = xbar[i] - sq * S2[i, j]

    ZP = np.empty((m2, n))
    rate_fallback = False
    for m in range(m2):
        zm, viol, sing = ik_measurement_rows(X2[m], ik_coefficients(lh, lt, l2, side),
                                             det_eps)
        if viol > CLAMP_TOL:
            status |= CKF_CLAMPED
        if sing:
            rate_fallback = True
        for i in range(n):
            ZP[m, i] = zm[i]

    Ru = R.copy()
    if rate_fallback:
        status |= CKF_RATE_FALLBACK
        for i in range(3, 6):
            Ru[i, i] = Ru[i, i] * r_inflate

    zbar = np.zeros(n)
    for m in range(m2):
        for i in range(n):
            zbar[i] += ZP[m, i]
    for i in range(n):
        zbar[i] /= m2

    Pzz = np.zeros((n, n))
    Pxz = np.zeros((n, n))
    for m in range(m2):
        for i in range(n):
            dzi = ZP[m, i] - zbar[i]
            dxi = X2[m, i] - xbar[i]
            for j in range(n):
                dzj = ZP[m, j] - zbar[j]
                Pzz[i, j] += dzi * dzj
                Pxz[i, j] += dxi * dzj
    for i in range(n):
        for j in range(n):
            Pzz[i, j] = Pzz[i, j] / m2 + Ru[i, j]
            Pxz[i, j] /= m2

    Lz, ok = chol_lower(Pzz)
    if not ok:
        # innovation covariance unusable; keep the prediction
        status |= CKF_UPDATE_SKIPPED
        xo = xbar.copy()
        xo[1] = side * np.abs(xo[1])
        return xo, Pm, status

    # K^T = Pzz^{-1} Pxz^T via two triangular solves
    KT = np.empty((n, n))
    for col in range(n):
        yv = np.empty(n)
        for i in range(n):
            acc = Pxz[col, i]
            for k in range(i):
                acc -= Lz[i, k] * yv[k]
            yv[i] = acc / Lz[i, i]
        for i in range(n - 1, -1, -1):
            acc = yv[i]
            for k in range(i + 1, n):
                acc -= Lz[k, i] * KT[k, col]
            KT[i, col] = acc / Lz[i, i]

    xo = np.empty(n)
    for i in range(n):
        acc = xbar[i]
        for j in range(n):
            acc += KT[j, i] * (z[j] - zbar[j])
        xo[i] = acc

    # P_post = Pm - K Pzz K^T
    KP = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                acc += KT[k, i] * Pzz[k, j]
            KP[i, j] = acc
    Po = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            acc = Pm[i, j]
            for k in range(n):
                acc -= KP[i, k] * KT[k, j]
            Po[i, j] = acc
    for i in range(n):
        for j in range(i + 1, n):
            v = 0.5 * (Po[i, j] + Po[j, i])
            Po[i, j] = v
            Po[j, i] = v

    xo[1] = side * np.abs(xo[1])
    return xo, Po, status


# --- the one-leg filter cycle against the frozen kernel --------------------

def _frozen_vs_filter_cycle(x, P, z, noise, geom=GEOM, dt=0.002):
    """Run one filter cycle through a one-leg LegVelocityFilter and through
    the frozen loop kernel; return both statuses and the largest
    state/covariance gaps."""
    lh, lt, _, _, side = geom.kernel_args()
    x_ref, p_ref, s_ref = ckf_leg_step(
        x.copy(), P.copy(), dt, z, noise.q_cov * dt, noise.r_cov,
        lh, lt, geom.l2, side, ikvel.DET_EPS, ikvel.R_INFLATE,
        ikvel.P0_POS, ikvel.P0_VEL)
    x_out, p_out, status = filter_cycle(x, P, z, dt, noise, geom)
    return (status, s_ref, np.max(np.abs(x_out - x_ref)),
            np.max(np.abs(p_out - p_ref)))


def test_ckf_step_matches_frozen_loop_kernel():
    # the one-leg filter cycle must reproduce the scalar-loop kernel it
    # replaced, recovery policy and status bits included
    rng = np.random.default_rng(5)
    noise = CkfNoise.from_diagonals()
    for _ in range(20):
        q = sample_joint(rng)
        dq = rng.normal(scale=0.5, size=3)
        r, _, v = kinematics(GEOM, [q], [dq])
        x = np.concatenate([r[0], v[0]])
        x += rng.normal(scale=1e-3, size=6)
        # operating-range covariance: keeps every cubature point inside the
        # workspace so neither path takes a fallback branch
        P = np.diag(np.concatenate([rng.uniform(1e-6, 2e-5, 3),
                                    rng.uniform(1e-4, 1e-2, 3)]))
        z = np.concatenate([q, dq])
        status, s_ref, dx, dp = _frozen_vs_filter_cycle(x, P, z, noise)
        assert status == s_ref == 0
        assert dx <= 1e-11 and dp <= 1e-11

    q = np.array([0.05, 0.8, -1.6])
    z = np.concatenate([q, np.zeros(3)])
    x_mid = np.concatenate([kinematics(GEOM, [q])[0][0], np.zeros(3)])
    p_op = np.diag([1e-6] * 3 + [1e-2] * 3)
    reach = GEOM.thigh_len + GEOM.l2
    x_ext = np.array([0.0, GEOM.hip_offset_len, -reach, 0.0, 0.1, 0.0])
    x_across = x_mid * np.array([1, -1, 1, 1, 1, 1])
    cases = [
        # an ignored measurement leaves the foot across the hip: the lateral
        # snap moves it back to the leg's side
        (x_across, p_op, CkfNoise(noise.q_cov, 1e12 * np.eye(6)), 0),
        (x_mid, -np.eye(6), noise, CKF_CHOL_RESET),
        (x_ext, p_op, noise, CKF_CLAMPED | CKF_RATE_FALLBACK),
        (x_mid, p_op, CkfNoise(noise.q_cov, -np.eye(6)), CKF_UPDATE_SKIPPED),
    ]
    for x, P, case_noise, expected in cases:
        status, s_ref, dx, dp = _frozen_vs_filter_cycle(x, P, z, case_noise)
        assert status == s_ref == expected
        assert dx <= 1e-11 and dp <= 1e-11
