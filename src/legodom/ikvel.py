"""Per-leg 6D constant-velocity cubature filter with an analytic
inverse-kinematics measurement model.

Joint rates from encoder differencing are spiky; filtering the hip-to-foot
Cartesian state against the measured (angles, rates) through the analytic IK
keeps the velocity observation smooth without ever forming model Jacobians.

The recursion is the equal-weight 2n-point spherical-radial cubature rule of
Arasaratnam & Haykin (Cubature Kalman Filters, IEEE TAC 2009). The rule is
exact for the linear constant-velocity map, so the prediction is closed-form,
the stacked matmuls F x and F P F^T + Q dt with F = I + dt N; points are drawn
only for the IK measurement, as contiguous (6, legs * 12) rows that one
kernels.ik_measurement_rows call maps, and the gain update runs on the
stacked matrices of every leg of a frame. A cycle makes two Cholesky calls
and one solve, each on a whole stack through kernels.cholesky or
kernels.solve, which return a per-leg mask instead of raising: one Cholesky
of the prior and the predicted covariance of every leg stacked together (the
prior's factor only decides a reset, the predicted one draws the points), one
of the innovation covariance, a positive-definiteness check, and the gain
solve. A leg whose mask is False falls back to the prior or to its
prediction, and the others keep their bits; the masks are built only when a
scalar check fires. N is the constant shift [[0, I], [0, 0]].

`cubature_step` runs the recursion on one state, as a stack of one, with any
measurement map and raises on a covariance that is not positive definite;
`LegVelocityFilter` runs it over all legs with the leg IK and the per-leg
recovery policy, from the foot positions kernels.leg_rows gave the step. The
estimator calls the filter only when `ikvel.enabled` is set; otherwise it
keeps the forward-kinematics foot velocities of kernels.leg_rows.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels

# a filter time step longer than DT_MAX (s) is a gap in the stamps, not a
# motion: the cycle predicts over dt = 0 instead
DT_MAX = 0.1
DET_EPS = 1e-9
R_INFLATE = 1e6
P0_POS = 1e-4
P0_VEL = 1e-1
# a measured joint angle or rate beyond +-Z_MAX (rad, rad/s) is no reading: its
# leg skips the update, as for a non-finite one, before the state it would
# drive overflows the next cycle's IK
Z_MAX = 1e9
# the default noise of CkfNoise.from_diagonals and of the ikvel.* config keys
Q_POS = 1e-6
Q_VEL = 0.3
R_ANGLE = 2.5e-7
R_RATE = 0.3

# the constant-velocity transition is F = I + dt * _SHIFT
_EYE6 = np.eye(6)
_SHIFT = np.eye(6, k=3)
_HALF = np.array(0.5)

# status bits of a leg's filter cycle, counted in LegVelocityFilter.status_counts
CKF_CHOL_RESET = 1
CKF_RATE_FALLBACK = 2
CKF_CLAMPED = 4
CKF_UPDATE_SKIPPED = 8
CKF_MEASUREMENT_SKIPPED = 16
_STATUS_BITS = {name: bit for name, bit in globals().items() if name.startswith("CKF_")}


@dataclass
class CkfLegState:
    """Filter state x = (position, velocity), covariance and common stamp of
    every leg, stacked along a leading axis (LegVelocityFilter.states)."""

    x: np.ndarray
    P: np.ndarray
    t: float


@dataclass
class CkfNoise:
    """Process covariance (per second of elapsed time) and measurement covariance."""

    q_cov: np.ndarray
    r_cov: np.ndarray

    @classmethod
    def from_diagonals(cls, q_pos=Q_POS, q_vel=Q_VEL, r_angle=R_ANGLE, r_rate=R_RATE):
        q = np.diag([q_pos] * 3 + [q_vel] * 3)
        r = np.diag([r_angle] * 3 + [r_rate] * 3)
        return cls(q, r)


def _T(A):
    """Transpose of the last two axes."""
    return np.swapaxes(A, -1, -2)


def _point_rows(x, S, rows=None):
    """The 2n equal-weight points x[l] +- sqrt(n) * S[l, :, j] of each leg l, as
    contiguous rows, the layout of the measurement kernel: x (L, n) and S
    (L, n, n) give (n, L, 2n), written into rows when given.
    np.moveaxis(rows, 0, -1) is the point stack."""
    n = x.shape[-1]
    if rows is None:
        rows = np.empty((n, len(x), 2 * n))
    d = (math.sqrt(n) * S).transpose(1, 0, 2)
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


def _update(x_pred, p_pred, rows, z, r_cov):
    """Measurement moments, gain and symmetrised posterior of a stack of
    legs x_pred (L, n).

    rows (2n, L, m) holds, one column per point, the m points drawn from
    (x_pred, p_pred) in rows[:n] and their images under the measurement map
    in rows[n:]. The images are summed over the points in their memory
    order, as zs.sum(axis=-2) sums an (L, m, n) stack zs of the same memory.
    The rows are centred by one subtraction into one contiguous (L, m, 2n)
    buffer [pts - x_pred | zs - z_pred], so one stacked matmul gives
    [P_xz; P_zz]. Returns (x_post, p_post, ok): where the innovation
    covariance is not positive definite, or is singular to working
    precision, ok is False and the prediction is returned unchanged; ok is
    None when every one is usable.
    """
    n, m = len(rows) // 2, rows.shape[-1]
    z_pred = np.add.reduce(rows[n:], axis=-1) / m  # transposed, (n, L)
    dev = rows - np.concatenate((x_pred.T, z_pred))[..., None]
    d = np.ascontiguousarray(dev.transpose(1, 2, 0))
    moments = _T(d) @ d[..., n:] / m
    pxz = moments[..., :n, :]
    pzz = moments[..., n:, :] + r_cov
    ok = kernels.cholesky(pzz)[1]
    # pzz is symmetric, so the solve gives the transposed gain K^T; the
    # posterior covariance p_pred - K P_xz^T equals p_pred - K P_zz K^T
    gain_t, solved = kernels.solve(pzz, _T(pxz))
    ok &= solved
    if ok.all():
        ok = None
    else:
        # a failed leg's gain is zeroed, so its discarded posterior stays quiet
        gain_t = np.where(ok[..., None, None], gain_t, 0.0)
    x_post = x_pred + ((z - z_pred.T)[..., None, :] @ gain_t)[..., 0, :]
    p_post = p_pred - pxz @ gain_t
    p_post = _HALF * (p_post + _T(p_post))
    if ok is not None:
        x_post = np.where(ok[..., None], x_post, x_pred)
        p_post = np.where(ok[..., None, None], p_post, p_pred)
    return x_post, p_post, ok


def cubature_step(x, P, dt, z, q_cov, r_cov, h):
    """Constant-velocity cubature filter step with any measurement map h.

    Same recursion as LegVelocityFilter, on the state x (n,) and P (n, n)
    as a stack of one, without its recovery policy: raises LinAlgError when
    the prior or predicted covariance is not positive definite, or the
    innovation covariance is not positive definite or singular. Used for the
    linear-model equivalence checks.
    """
    P = np.asarray(P, dtype=float)[None]
    x_pred, p_pred = _predict(np.asarray(x, dtype=float)[None], P, dt, q_cov)
    S, ok = kernels.cholesky(np.concatenate((P, p_pred)))
    if not ok.all():
        raise np.linalg.LinAlgError("covariance not positive definite")
    n = x_pred.shape[-1]
    rows = np.empty((2 * n, 1, 2 * n))
    _point_rows(x_pred, S[1:], rows[:n])
    rows[n:, 0] = np.array([h(p) for p in rows[:n, 0].T]).T
    z = np.asarray(z, dtype=float)[None]
    x_post, p_post, ok = _update(x_pred, p_pred, rows, z, r_cov)
    if ok is not None:
        raise np.linalg.LinAlgError("innovation covariance not positive definite")
    return x_post[0], p_post[0]


def _prior_cov():
    return np.diag([P0_POS] * 3 + [P0_VEL] * 3)


# elementwise factor that inflates the rate block's diagonal of R
_RATE_INFLATION = np.diag([1.0] * 3 + [R_INFLATE] * 3) + (1.0 - np.eye(6))


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


def _ckf_legs(x, P, dt, z, noise: CkfNoise, coef, leg_side):
    """One filter cycle for a stack of legs against measured (angles, rates).

    x (L, 6), P (L, 6, 6) and z (L, 6); dt is the common, already truncated
    time step; coef is kernels.ik_coefficients of the link parameters as
    (L * 12,) arrays, each leg's value tiled over its cubature points, and
    leg_side is the (L,) side signs. A
    leg's result does not depend on the batch it runs in. Returns (x, P,
    status), status (L,) CKF_* bits.
    """
    legs = len(x)
    q_cov = noise.q_cov * dt
    x_pred, p_pred = _predict(x, P, dt, q_cov)
    p_pred, S, status = _factor_or_reset(x, P, p_pred, dt, q_cov)

    # the points and their images, each as the kernel's contiguous (6, legs *
    # 12) rows, in one buffer; the per-leg masks below are built only when a
    # scalar check fires
    rows = np.empty((12, legs, 12))
    _point_rows(x_pred, S, rows[:6])
    _, viol, singular = kernels.ik_measurement_rows(rows[:6].reshape(6, -1), coef, DET_EPS,
                                                    rows[6:].reshape(6, -1))
    if viol.max() > kernels.CLAMP_TOL:
        clamped = (viol.reshape(legs, -1) > kernels.CLAMP_TOL).any(axis=-1)
        status = status | CKF_CLAMPED * clamped
    # a singular IK Jacobian zeroes that point's rates, so the rate block of
    # R is inflated to make that leg's update ignore the measured rates
    r_cov = noise.r_cov
    if singular is not np.False_:
        fallback = singular.reshape(legs, -1).any(axis=-1)
        status = status | CKF_RATE_FALLBACK * fallback
        r_cov = np.where(fallback[:, None, None], r_cov * _RATE_INFLATION, r_cov)

    # a leg whose measurement is not finite, or beyond +-Z_MAX, keeps its
    # prediction; a zero stands in for its z so the update's arithmetic stays
    # finite
    usable = None
    if not np.abs(z).max() <= Z_MAX:
        usable = (np.abs(z) <= Z_MAX).all(axis=-1)
        z = np.where(usable[..., None], z, 0.0)

    x, P, ok = _update(x_pred, p_pred, rows, z, r_cov)
    if ok is not None:
        status = status | np.where(ok, 0, CKF_UPDATE_SKIPPED)
    if usable is not None:
        x = np.where(usable[..., None], x, x_pred)
        P = np.where(usable[..., None, None], P, p_pred)
        status = status | np.where(usable, 0, CKF_MEASUREMENT_SKIPPED)
    x[..., 1] = leg_side * np.abs(x[..., 1])
    return x, P, status


def _truncated_dt(t_now, t):
    dt = t_now - t
    return 0.0 if abs(dt) > DT_MAX else dt


@dataclass
class LegVelocityFilter:
    """The velocity filter of every leg, advanced together once per frame.

    states holds the stacked filter state: x (L, 6), P (L, 6, 6) and the
    common stamp t, in the order of geometries; None until the first update.
    A leg starts at rest, with the diagonal prior, at the hip-to-foot position
    r of the first update where its three values are finite; until then its
    state is NaN and its updates are skipped. status_counts counts each
    nonzero CKF_* status a leg returned.
    """

    geometries: list
    noise: CkfNoise = field(default_factory=CkfNoise.from_diagonals)
    states: CkfLegState = None
    status_counts: dict = field(default_factory=dict)

    def __post_init__(self):
        # the link parameters of each leg, tiled over its 12 cubature points
        self._ik = kernels.ik_coefficients(*(np.repeat(p, 12) for p in zip(*(
            (g.hip_offset_len, g.thigh_len, g.l2, float(g.side_sign))
            for g in self.geometries))))
        # the side sign of each leg, for the posterior's lateral snap
        self._side = np.array([float(g.side_sign) for g in self.geometries])
        # the (L,) mask of the legs still waiting for a finite position, or
        # None once every leg has started
        self._unseeded = None

    def status_totals(self):
        """How many leg cycles set each CKF_* bit, keyed by the bit's name."""
        return {name: sum(n for s, n in self.status_counts.items() if s & bit)
                for name, bit in _STATUS_BITS.items()}

    def _seeded(self, st, stamp, r):
        """The states st (None before the first update) with each leg that
        has not started, and whose hip-to-foot position r is finite, started
        there at rest; a leg whose r is not finite keeps a NaN state."""
        x0 = np.zeros((len(r), 6))
        x0[:, :3] = r
        finite = np.isfinite(x0).all(axis=1)
        x0[~finite] = np.nan
        if st is None:
            st = CkfLegState(x0, np.tile(_prior_cov(), (len(x0), 1, 1)), stamp)
            waiting = ~finite
        else:
            start = self._unseeded & finite
            x, P = st.x.copy(), st.P.copy()
            x[start], P[start] = x0[start], _prior_cov()
            st = CkfLegState(x, P, st.t)
            waiting = self._unseeded & ~finite
        self._unseeded = waiting if waiting.any() else None
        return st

    def update(self, stamp, q, dq, r):
        """Advance every leg one cycle against the (L, 3) joint angles q and
        rates dq; r, the (L, 3) hip-to-foot positions at q, is read only while
        a leg has not started. Returns the (L, 3) filtered foot velocities."""
        st = self.states
        if st is None or self._unseeded is not None:
            st = self._seeded(st, stamp, r)
        x, P, status = _ckf_legs(st.x, st.P, _truncated_dt(stamp, st.t),
                                 np.concatenate([q, dq], axis=1), self.noise,
                                 self._ik, self._side)
        self.states = CkfLegState(x, P, stamp)
        codes = status.tolist()
        if any(codes):
            for s in codes:
                if s:
                    self.status_counts[s] = self.status_counts.get(s, 0) + 1
        return x[:, 3:].copy()


__all__ = ["CkfLegState", "CkfNoise",
           "CKF_CHOL_RESET", "CKF_RATE_FALLBACK", "CKF_CLAMPED", "CKF_UPDATE_SKIPPED",
           "CKF_MEASUREMENT_SKIPPED", "cubature_step", "LegVelocityFilter"]
