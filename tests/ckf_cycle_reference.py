"""Frozen copy of the filter cycle that the numpy-call-lean cycle of
`legodom.ikvel` and `legodom.kernels` replaced.

`_ckf_legs` and the pieces it calls (`_predict`, `_factor_or_reset`,
`_point_rows`, `_update`, the measurement kernel `ik_measurement_rows` with
its `_ik_angles` and `_clamp_unit`, and the masked `cholesky` and `solve` over
`_quiet`) are kept verbatim, so the library's cycle is checked bit for bit
against the operation sequence it replaced: the same products and sums in
the same order, each wrapped call on its own. The names the copies reach
through `kernels.` resolve to the frozen copies below. Do not edit them to
follow the library.
"""

from types import SimpleNamespace

import numpy as np
from numpy.linalg import _umath_linalg

from legodom.ikvel import (CKF_CHOL_RESET, CKF_CLAMPED, CKF_MEASUREMENT_SKIPPED,
                           CKF_RATE_FALLBACK, CKF_UPDATE_SKIPPED, DET_EPS, P0_POS,
                           P0_VEL, R_INFLATE, Z_MAX, CkfNoise)
from legodom.kernels import CLAMP_TOL, EPS_RADICAL

_EYE6 = np.eye(6)
_SHIFT = np.eye(6, k=3)
_RATE_INFLATION = np.diag([1.0] * 3 + [R_INFLATE] * 3) + (1.0 - np.eye(6))


def _quiet(gufunc, *args):
    """One call of a numpy.linalg gufunc on float64 stacks, in the error state
    of numpy's own wrappers except that the invalid flag, by which the gufunc
    reports a failed matrix, is ignored instead of raised. Returns (result,
    ok), ok False where a matrix's result is not entirely finite."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore",
                     under="ignore"):
        out = gufunc(*args, signature="d" * len(args) + "->d")
    return out, np.isfinite(out).all(axis=(-2, -1))


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


def _clamp_unit(arg, viol):
    """arg clamped into [-1, 1], and viol raised to the overshoot if larger.

    A NaN arg stays NaN and leaves viol as it was, as the branches of a
    one-leg solve `if arg > 1.0 ... elif arg < -1.0` would leave them.
    """
    clamped = np.minimum(np.maximum(arg, -1.0), 1.0)
    return clamped, np.fmax(viol, np.abs(arg - clamped))


def _ik_angles(px, py, pz, lh, lt, l2, side):
    """ik_joints_array's solve, plus sin(t1) and cos(t1) for the rate solve."""
    x, y, z = -px, py, pz

    rho2 = y * y + z * z
    rad = np.maximum(
        EPS_RADICAL + 4.0 * lh * lh * z * z - 4.0 * rho2 * (lh * lh - y * y), 0.0)
    arg1, viol = _clamp_unit((2.0 * lh * z + np.sqrt(rad)) / (2.0 * rho2), 0.0)
    t1 = side * np.arcsin(arg1)
    s1, c1 = np.sin(t1), np.cos(t1)

    zb = z - side * lh * s1
    yb = y - side * lh * c1
    rb = np.sqrt(yb * yb + zb * zb)
    r2 = rb * rb + x * x
    r = np.sqrt(r2)

    arg3, viol = _clamp_unit((lt * lt + l2 * l2 - r2) / (2.0 * lt * l2), viol)
    t3 = -np.pi + np.arccos(arg3)

    arg2, viol = _clamp_unit((r2 + lt * lt - l2 * l2) / (2.0 * r * lt), viol)
    t2 = np.arctan2(x, rb) + np.arccos(arg2)

    return t1, t2, t3, viol, s1, c1


def ik_measurement_rows(rows, lh, lt, l2, side, det_eps):
    """(joint angles, joint rates) of foot (position, velocity) states.

    rows is (6, ...), one state per column, fastest as contiguous (6, N); the
    link parameters broadcast against rows[0], e.g. tiled to (N,). The angles
    are ik_joints_array's; the rates solve J_ik d = (-vx, vy, vz), J_ik the leg
    Jacobian with its sagittal row negated. Each trig term and the three 2x2
    minors of J_ik's lower rows are formed once, for both the determinant and
    the adjugate. Returns (z (6, ...), viol, singular), singular True where
    |det J_ik| < det_eps, with zero rates; each element equals the frozen
    ik_joints plus ik_rates of tests/kernels_reference.py.
    """
    t1, t2, t3, viol, s1, c1 = _ik_angles(rows[0], rows[1], rows[2],
                                          lh, lt, l2, side)
    t23 = t2 + t3
    c2, s2, c23, s23 = np.cos(t2), np.sin(t2), np.cos(t23), np.sin(t23)

    # J_ik's entries, each bit-equal to the frozen ik_jacobian's (same products
    # and sums in the same order); its first entry is zero, and the terms of
    # the determinant and the adjugate that it multiplies are left out
    slh = side * lh
    l2c1 = l2 * c1
    nl2s1 = -l2 * s1
    ltc2 = lt * c2
    j02 = l2 * c23
    j01 = j02 + ltc2
    j10 = l2c1 * c23 - slh * s1 + ltc2 * c1
    j12 = nl2s1 * s23
    j11 = j12 - lt * s1 * s2
    j20 = slh * c1 - nl2s1 * c23 + ltc2 * s1
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
    z = np.empty((6,) + np.shape(t2))
    z[0], z[1], z[2] = t1, t2, t3
    z[3] = (b0 * m0 - j01 * e0 + j02 * e1) / d
    z[4] = (j02 * e2 - b0 * m1) / d
    z[5] = (b0 * m2 - j01 * e2) / d
    if any_singular:
        z[3:] = np.where(singular, 0.0, z[3:])
    return z, viol, singular


def _T(A):
    """Transpose of the last two axes."""
    return np.swapaxes(A, -1, -2)


def _point_rows(x, S):
    """The 2n equal-weight points x[l] +- sqrt(n) * S[l, :, j] of each leg l, as
    contiguous rows, the layout of the measurement kernel: x (L, n) and S
    (L, n, n) give (n, L, 2n). np.moveaxis(rows, 0, -1) is the point stack."""
    n = x.shape[-1]
    rows = np.empty((n, len(x), 2 * n))
    d = (np.sqrt(float(n)) * S).transpose(1, 0, 2)
    x = x.T[:, :, None]
    np.add(x, d, out=rows[..., :n])
    np.subtract(x, d, out=rows[..., n:])
    return rows


def _predict(x, P, dt, q_cov):
    """F x and F P F^T + q_cov, F = [[I, dt I], [0, I]] = I + dt N: the moments
    of the pushed cubature points, over any leading axes. Every product is a
    stack of 6x6 matmuls, one per leg, so a leg's bits do not depend on the
    batch it runs in."""
    F = _EYE6 + dt * _SHIFT
    return (F @ x[..., None])[..., 0], F @ P @ F.T + q_cov


def _update(x_pred, p_pred, pts, zs, z, r_cov):
    """Measurement moments, gain and symmetrised posterior.

    pts (..., 2n, n) are the points drawn from (x_pred, p_pred) and zs their
    images under the measurement map; either may be a strided view. Both are
    centred into one (..., 2n, 2n) buffer [pts - x_pred | zs - z_pred], so one
    stacked matmul gives [P_xz; P_zz]. Returns (x_post, p_post, ok): where the
    innovation covariance is not positive definite, or is singular to working
    precision, ok is False and the prediction is returned unchanged.
    """
    m, n = pts.shape[-2:]
    z_pred = zs.sum(axis=-2) / m  # zs.mean(axis=-2), without its wrapper
    d = np.empty(pts.shape[:-1] + (2 * n,))
    np.subtract(pts, x_pred[..., None, :], out=d[..., :n])
    np.subtract(zs, z_pred[..., None, :], out=d[..., n:])
    moments = _T(d) @ d[..., n:] / m
    pxz = moments[..., :n, :]
    pzz = moments[..., n:, :] + r_cov
    ok = kernels.cholesky(pzz)[1]
    # pzz is symmetric, so the solve gives the transposed gain K^T; the
    # posterior covariance p_pred - K P_xz^T equals p_pred - K P_zz K^T
    gain_t, solved = kernels.solve(pzz, _T(pxz))
    ok &= solved
    all_ok = ok.all()
    if not all_ok:
        # a failed leg's gain is zeroed, so its discarded posterior stays quiet
        gain_t = np.where(ok[..., None, None], gain_t, 0.0)
    x_post = x_pred + ((z - z_pred)[..., None, :] @ gain_t)[..., 0, :]
    p_post = p_pred - pxz @ gain_t
    p_post = 0.5 * (p_post + _T(p_post))
    if not all_ok:
        x_post = np.where(ok[..., None], x_post, x_pred)
        p_post = np.where(ok[..., None, None], p_post, p_pred)
    return x_post, p_post, ok


def _prior_cov():
    return np.diag([P0_POS] * 3 + [P0_VEL] * 3)


def _factor_or_reset(x, P, p_pred, dt, q_cov):
    """Lower Cholesky factors of the predicted covariances p_pred of a stack
    of legs, from one call that factors P and p_pred stacked; LAPACK factors
    each matrix of a stack on its own, so a factor has the bits of its own.

    A leg whose P is not positive definite, or not finite, is predicted again
    from the diagonal prior; one whose predicted covariance still fails takes
    the prior in its place. Either is flagged CKF_CHOL_RESET in its status.
    Returns (p_pred, S, status).
    """
    legs = len(P)
    S, ok = kernels.cholesky(np.concatenate((P, p_pred)))
    if ok.all():
        return p_pred, S[legs:], np.zeros(legs, dtype=int)
    prior = _prior_cov()
    ok_prior, ok_pred = ok[:legs], ok[legs:]
    if not ok_prior.all():
        p_pred = _predict(x, np.where(ok_prior[:, None, None], P, prior), dt, q_cov)[1]
        ok_pred = kernels.cholesky(p_pred)[1]
    p_pred = np.where(ok_pred[:, None, None], p_pred, prior)
    return (p_pred, kernels.cholesky(p_pred)[0],
            np.where(ok_prior & ok_pred, 0, CKF_CHOL_RESET))


def _ckf_legs(x, P, dt, z, noise: CkfNoise, lh, lt, l2, side, leg_side):
    """One filter cycle for a stack of legs against measured (angles, rates).

    x (L, 6), P (L, 6, 6) and z (L, 6); dt is the common, already truncated
    time step; the link parameters are (L * 12,) arrays, each leg's value
    tiled over its cubature points, and leg_side is the (L,) side signs. A
    leg's result does not depend on the batch it runs in. Returns (x, P,
    status), status (L,) CKF_* bits.
    """
    legs = len(x)
    q_cov = noise.q_cov * dt
    x_pred, p_pred = _predict(x, P, dt, q_cov)
    p_pred, S, status = _factor_or_reset(x, P, p_pred, dt, q_cov)

    # the per-leg masks below are built only when a scalar check fires
    rows = _point_rows(x_pred, S)
    zr, viol, singular = kernels.ik_measurement_rows(rows.reshape(6, -1), lh, lt, l2,
                                                     side, DET_EPS)
    if viol.max() > kernels.CLAMP_TOL:
        clamped = (viol.reshape(legs, -1) > kernels.CLAMP_TOL).any(axis=-1)
        status = status | CKF_CLAMPED * clamped
    # a singular IK Jacobian zeroes that point's rates, so the rate block of
    # R is inflated to make that leg's update ignore the measured rates
    r_cov = noise.r_cov
    if singular.any():
        fallback = singular.reshape(legs, -1).any(axis=-1)
        status = status | CKF_RATE_FALLBACK * fallback
        r_cov = np.where(fallback[:, None, None], r_cov * _RATE_INFLATION, r_cov)

    # a leg whose measurement is not finite, or beyond +-Z_MAX, keeps its
    # prediction; a zero stands in for its z so the update's arithmetic stays
    # finite
    usable = np.abs(z) <= Z_MAX
    all_usable = usable.all()
    if not all_usable:
        usable = usable.all(axis=-1)
        z = np.where(usable[..., None], z, 0.0)

    x, P, ok = _update(x_pred, p_pred, rows.transpose(1, 2, 0),
                       zr.reshape(rows.shape).transpose(1, 2, 0), z, r_cov)
    if not ok.all():
        status = status | np.where(ok, 0, CKF_UPDATE_SKIPPED)
    if not all_usable:
        x = np.where(usable[..., None], x, x_pred)
        P = np.where(usable[..., None, None], P, p_pred)
        status = status | np.where(usable, 0, CKF_MEASUREMENT_SKIPPED)
    x[..., 1] = leg_side * np.abs(x[..., 1])
    return x, P, status


kernels = SimpleNamespace(cholesky=cholesky, solve=solve,
                          ik_measurement_rows=ik_measurement_rows, CLAMP_TOL=CLAMP_TOL)
