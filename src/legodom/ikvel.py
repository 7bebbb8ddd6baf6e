"""Per-leg 6D constant-velocity cubature filter with an analytic
inverse-kinematics measurement model.

Joint rates from encoder differencing are spiky; filtering the hip-to-foot
Cartesian state against the measured (angles, rates) through the analytic IK
keeps the velocity observation smooth without ever forming model Jacobians.

The recursion is the equal-weight 2n-point spherical-radial cubature rule of
Arasaratnam & Haykin (Cubature Kalman Filters, IEEE TAC 2009), written once
below as point generation, prediction moments and the gain update.
`cubature_step` runs it with any measurement map and raises on a covariance
that is not positive definite; `ckf_step` runs it with the leg IK and the
per-leg recovery policy.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .geometry import LegGeometry
from .legkin import fk_position, fk_velocity

DT_MAX_DEFAULT = 0.1
DET_EPS = 1e-9
R_INFLATE = 1e6
P0_POS = 1e-4
P0_VEL = 1e-1

# status bits returned by ckf_step
CKF_CHOL_RESET = 1
CKF_RATE_FALLBACK = 2
CKF_CLAMPED = 4
CKF_UPDATE_SKIPPED = 8


class Unreachable(Exception):
    """Target outside the reachable workspace of the IK branch."""


class SingularJacobian(Exception):
    """IK Jacobian too close to singular for the rate solve."""


@dataclass
class CkfLegState:
    """Filter state for one leg: x = (position, velocity), covariance, stamp."""

    x: np.ndarray
    P: np.ndarray
    t: float


@dataclass
class CkfNoise:
    """Process covariance (per second of elapsed time) and measurement covariance."""

    q_cov: np.ndarray
    r_cov: np.ndarray

    @classmethod
    def from_diagonals(cls, q_pos=1e-6, q_vel=0.3, r_angle=2.5e-7, r_rate=0.3):
        q = np.diag([q_pos] * 3 + [q_vel] * 3)
        r = np.diag([r_angle] * 3 + [r_rate] * 3)
        return cls(q, r)


def _ik_h(xs, lh, lt, l2, side, det_eps):
    """Measurement map for one filter state: (position, velocity) -> (angles, rates).

    Trig arguments are clamped hard so cubature points slightly outside the
    workspace still produce a finite measurement. Returns (z, viol, singular):
    viol is the largest inverse-trig domain overshoot, singular is True when
    the rate solve was ill-posed and the rates are zeros.
    """
    t1, t2, t3, viol = kernels.ik_joints(xs[0], xs[1], xs[2], lh, lt, l2, side)
    d1, d2, d3, ok = kernels.ik_rates(t1, t2, t3, xs[3], xs[4], xs[5],
                                      lh, lt, l2, side, det_eps)
    return np.array([t1, t2, t3, d1, d2, d3]), viol, not ok


def ik_measurement(x, geom: LegGeometry, clamp_tol=kernels.CLAMP_TOL):
    """Map a (position, velocity) state to (joint angles, joint rates).

    Inverse of (fk_position, fk_velocity) on the supported branch: knee folded
    back, foot on its own lateral side. Raises Unreachable when an
    inverse-trig argument leaves its domain by more than clamp_tol, and
    SingularJacobian when the rate solve is ill-posed.
    """
    lh, lt, _, _, side = geom.kernel_args()
    z, viol, singular = _ik_h(np.asarray(x, dtype=float), lh, lt, geom.l2,
                              side, DET_EPS)
    if viol > clamp_tol:
        raise Unreachable("position outside workspace (domain overshoot %g)" % viol)
    if singular:
        raise SingularJacobian("IK Jacobian determinant below %g" % DET_EPS)
    return z


def _cholesky(P):
    """Lower Cholesky factor of P, or None when P is not positive definite."""
    try:
        return np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return None


def _points(x, S):
    """The 2n equal-weight points x +- sqrt(n) * S[:, j], one per row."""
    d = np.sqrt(float(x.shape[0])) * S.T
    return np.concatenate([x + d, x - d])


def _predict(x, S, dt, q_cov):
    """Push the points of (x, S S^T) through the constant-velocity map.

    Returns the predicted mean and covariance.
    """
    pts = _points(x, S)
    half = x.shape[0] // 2
    pts[:, :half] += dt * pts[:, half:]
    x_pred = pts.mean(axis=0)
    dev = pts - x_pred
    return x_pred, dev.T @ dev / pts.shape[0] + q_cov


def _update(x_pred, p_pred, pts, zs, z, r_cov):
    """Measurement moments, gain and symmetrised posterior.

    pts are the points drawn from (x_pred, p_pred) and zs their images
    under the measurement map. Returns (x_post, p_post), or None when the
    innovation covariance is not positive definite.
    """
    m = pts.shape[0]
    z_pred = zs.mean(axis=0)
    dz = zs - z_pred
    pzz = dz.T @ dz / m + r_cov
    if _cholesky(pzz) is None:
        return None
    pxz = (pts - x_pred).T @ dz / m
    gain = np.linalg.solve(pzz.T, pxz.T).T
    x_post = x_pred + gain @ (z - z_pred)
    p_post = p_pred - gain @ pzz @ gain.T
    return x_post, 0.5 * (p_post + p_post.T)


def cubature_points(x, P):
    """Equal-weight spherical-radial point set: x +- sqrt(n) * chol(P) columns."""
    return _points(np.asarray(x, dtype=float), np.linalg.cholesky(P))


def cubature_step(x, P, dt, z, q_cov, r_cov, h):
    """Constant-velocity cubature filter step with any measurement map h.

    Same recursion as ckf_step, without its recovery policy: raises
    LinAlgError when the prior, predicted or innovation covariance is not
    positive definite. Used for the linear-model equivalence checks.
    """
    x_pred, p_pred = _predict(np.asarray(x, dtype=float),
                              np.linalg.cholesky(P), dt, q_cov)
    pts = cubature_points(x_pred, p_pred)
    zs = np.array([h(p) for p in pts])
    post = _update(x_pred, p_pred, pts, zs, np.asarray(z, dtype=float), r_cov)
    if post is None:
        raise np.linalg.LinAlgError("innovation covariance not positive definite")
    return post


def _prior_cov():
    return np.diag([P0_POS] * 3 + [P0_VEL] * 3)


def _factor_or_prior(P):
    """(P, chol(P), status): a covariance that is not positive definite is
    replaced by the diagonal prior, flagged CKF_CHOL_RESET."""
    S = _cholesky(P)
    if S is not None:
        return P, S, 0
    P = _prior_cov()
    return P, np.linalg.cholesky(P), CKF_CHOL_RESET


def initial_state(q, geom: LegGeometry, t):
    """Filter state at first sight of a leg: FK position, zero velocity."""
    x = np.zeros(6)
    x[:3] = fk_position(q, geom)
    return CkfLegState(x, _prior_cov(), t)


def ckf_step(state: CkfLegState, z, t_now, noise: CkfNoise, geom: LegGeometry,
             dt_max=DT_MAX_DEFAULT):
    """One filter cycle for one leg against measured (angles, rates).

    The time step is truncated to zero when it exceeds dt_max (timestamp
    anomalies); process noise scales with the elapsed time. Covariance
    failures recover by resetting to the diagonal prior, never by aborting.

    Returns (new_state, status_bitmask).
    """
    dt = t_now - state.t
    if abs(dt) > dt_max:
        dt = 0.0
    lh, lt, _, _, side = geom.kernel_args()

    _, S, status = _factor_or_prior(state.P)
    x_pred, p_pred = _predict(state.x, S, dt, noise.q_cov * dt)
    p_pred, S, reset = _factor_or_prior(p_pred)
    status |= reset

    # a singular IK Jacobian zeroes that point's rates, so the rate block of
    # R is inflated to make the update ignore the measured rates
    pts = _points(x_pred, S)
    zs = np.empty_like(pts)
    for m, p in enumerate(pts):
        zs[m], viol, singular = _ik_h(p, lh, lt, geom.l2, side, DET_EPS)
        if viol > kernels.CLAMP_TOL:
            status |= CKF_CLAMPED
        if singular:
            status |= CKF_RATE_FALLBACK
    r_cov = noise.r_cov
    if status & CKF_RATE_FALLBACK:
        r_cov = r_cov.copy()
        rates = np.arange(3, 6)
        r_cov[rates, rates] *= R_INFLATE

    post = _update(x_pred, p_pred, pts, zs, np.asarray(z, dtype=float), r_cov)
    if post is None:
        # innovation covariance unusable; keep the prediction
        status |= CKF_UPDATE_SKIPPED
        x, P = x_pred, p_pred
    else:
        x, P = post
    x[1] = side * abs(x[1])
    return CkfLegState(x, P, t_now), status


@dataclass
class LegVelocityFilter:
    """One filter engine servicing every leg by swapping per-leg cached state.

    When disabled, update() passes the raw forward-kinematics velocity
    through untouched.
    """

    geometries: list
    noise: CkfNoise = field(default_factory=CkfNoise.from_diagonals)
    enabled: bool = True
    dt_max: float = DT_MAX_DEFAULT
    states: dict = field(default_factory=dict)
    status_counts: dict = field(default_factory=dict)

    def reset(self):
        self.states.clear()
        self.status_counts.clear()

    def update(self, stamp, joint_readings):
        """Advance every leg one cycle; returns the per-leg foot velocity."""
        out = []
        for i, (geom, reading) in enumerate(zip(self.geometries, joint_readings)):
            if not self.enabled:
                out.append(fk_velocity(reading.q, reading.dq, geom))
                continue
            st = self.states.get(i)
            if st is None:
                st = initial_state(reading.q, geom, stamp)
            z = np.concatenate([reading.q, reading.dq])
            st, status = ckf_step(st, z, stamp, self.noise, geom, self.dt_max)
            self.states[i] = st
            if status:
                self.status_counts[status] = self.status_counts.get(status, 0) + 1
            out.append(st.x[3:].copy())
        return out


__all__ = ["CkfLegState", "CkfNoise", "Unreachable", "SingularJacobian",
           "CKF_CHOL_RESET", "CKF_RATE_FALLBACK", "CKF_CLAMPED", "CKF_UPDATE_SKIPPED",
           "ik_measurement", "cubature_points", "cubature_step", "ckf_step",
           "initial_state", "LegVelocityFilter"]
