"""Per-leg 6D constant-velocity cubature filter with an analytic
inverse-kinematics measurement model.

Joint rates from encoder differencing are spiky; filtering the hip-to-foot
Cartesian state against the measured (angles, rates) through the analytic IK
keeps the velocity observation smooth without ever forming model Jacobians.

The recursion is the equal-weight 2n-point spherical-radial cubature rule of
Arasaratnam & Haykin (Cubature Kalman Filters, IEEE TAC 2009), written once
below as point generation, prediction moments and the gain update. Each part
takes any leading batch axes, so one call covers every leg of a frame: the
points are (legs, 12, 6), the IK maps all of them in one array call,
Cholesky and solve run on the stacked matrices and the moments are batched
matmuls. `cubature_step` runs the recursion unbatched with any measurement
map and raises on a covariance that is not positive definite;
`LegVelocityFilter` runs it over all legs with the leg IK and the per-leg
recovery policy, and `ckf_step` does the same for one leg.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .geometry import LegGeometry
from .legkin import fk_position

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
    """Filter state x = (position, velocity), covariance and stamp of one leg,
    or of every leg stacked along a leading axis (LegVelocityFilter.states)."""

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
    """Measurement map for filter states: (position, velocity) -> (angles, rates).

    xs is (..., 6); the link parameters broadcast against xs[..., 0]. Trig
    arguments are clamped hard so cubature points slightly outside the
    workspace still produce a finite measurement. Returns (z, viol, singular)
    with z (..., 6): viol is the largest inverse-trig domain overshoot per
    state, singular is True where the rate solve was ill-posed and the rates
    are zeros.
    """
    t1, t2, t3, viol = kernels.ik_joints_array(xs[..., 0], xs[..., 1], xs[..., 2],
                                               lh, lt, l2, side)
    d1, d2, d3, ok = kernels.ik_rates(t1, t2, t3, xs[..., 3], xs[..., 4], xs[..., 5],
                                      lh, lt, l2, side, det_eps)
    return np.stack([t1, t2, t3, d1, d2, d3], axis=-1), viol, ~ok


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


def _T(A):
    """Transpose of the last two axes."""
    return np.swapaxes(A, -1, -2)


def _cholesky(P):
    """Lower Cholesky factors of P (..., n, n) and a (...) flag that is False
    where a matrix is not positive definite (its factor is then zeros).

    The stack is factored in one call; only when that raises are the
    matrices retried one at a time to find which ones failed.
    """
    batch = P.shape[:-2]
    try:
        return np.linalg.cholesky(P), np.ones(batch, dtype=bool)
    except np.linalg.LinAlgError:
        pass
    S = np.zeros_like(P)
    ok = np.zeros(batch, dtype=bool)
    for i in np.ndindex(batch):
        try:
            S[i] = np.linalg.cholesky(P[i])
            ok[i] = True
        except np.linalg.LinAlgError:
            pass
    return S, ok


def _points(x, S):
    """The 2n equal-weight points x +- sqrt(n) * S[..., :, j], along axis -2.

    x is (..., n) and S (..., n, n); the points are (..., 2n, n).
    """
    d = np.sqrt(float(x.shape[-1])) * _T(S)
    x = x[..., None, :]
    return np.concatenate([x + d, x - d], axis=-2)


def _predict(x, S, dt, q_cov):
    """Push the points of (x, S S^T) through the constant-velocity map.

    Returns the predicted mean and covariance, with x's leading axes.
    """
    pts = _points(x, S)
    half = x.shape[-1] // 2
    pts[..., :half] += dt * pts[..., half:]
    x_pred = pts.mean(axis=-2)
    dev = pts - x_pred[..., None, :]
    return x_pred, _T(dev) @ dev / pts.shape[-2] + q_cov


def _update(x_pred, p_pred, pts, zs, z, r_cov):
    """Measurement moments, gain and symmetrised posterior.

    pts (..., 2n, n) are the points drawn from (x_pred, p_pred) and zs their
    images under the measurement map. Returns (x_post, p_post, ok): where the
    innovation covariance is not positive definite ok is False and the
    prediction is returned unchanged.
    """
    m = pts.shape[-2]
    z_pred = zs.mean(axis=-2)
    dz = zs - z_pred[..., None, :]
    pzz = _T(dz) @ dz / m + r_cov
    ok = _cholesky(pzz)[1]
    all_ok = ok.all()
    if not all_ok:
        # an identity stands in for a failed pzz so the stacked solve runs
        pzz = np.where(ok[..., None, None], pzz, np.eye(pzz.shape[-1]))
    pxz = _T(pts - x_pred[..., None, :]) @ dz / m
    gain = _T(np.linalg.solve(_T(pzz), _T(pxz)))
    x_post = x_pred + (gain @ (z - z_pred)[..., None])[..., 0]
    p_post = p_pred - gain @ pzz @ _T(gain)
    p_post = 0.5 * (p_post + _T(p_post))
    if not all_ok:
        x_post = np.where(ok[..., None], x_post, x_pred)
        p_post = np.where(ok[..., None, None], p_post, p_pred)
    return x_post, p_post, ok


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
    x_post, p_post, ok = _update(x_pred, p_pred, pts, zs,
                                 np.asarray(z, dtype=float), r_cov)
    if not ok:
        raise np.linalg.LinAlgError("innovation covariance not positive definite")
    return x_post, p_post


def _prior_cov():
    return np.diag([P0_POS] * 3 + [P0_VEL] * 3)


# elementwise factor that inflates the rate block's diagonal of R
_RATE_INFLATION = np.diag([1.0] * 3 + [R_INFLATE] * 3) + (1.0 - np.eye(6))


def _factor_or_prior(P):
    """(P, chol(P), status) for a (..., 6, 6) stack: a covariance that is not
    positive definite is replaced by the diagonal prior, flagged
    CKF_CHOL_RESET in its status entry."""
    S, ok = _cholesky(P)
    if ok.all():
        return P, S, np.zeros(ok.shape, dtype=int)
    prior = _prior_cov()
    bad = ~ok[..., None, None]
    P = np.where(bad, prior, P)
    S = np.where(bad, np.linalg.cholesky(prior), S)
    return P, S, np.where(ok, 0, CKF_CHOL_RESET)


def _ckf_legs(x, P, dt, z, noise: CkfNoise, lh, lt, l2, side):
    """One filter cycle for a stack of legs against measured (angles, rates).

    x (L, 6), P (L, 6, 6) and z (L, 6); dt is the common, already truncated
    time step; the link parameters are (L,) arrays or scalars. Every leg's
    arithmetic is independent of the others, so a leg's result does not
    depend on the batch it runs in. Returns (x, P, status), status an (L,)
    int array of CKF_* bits.
    """
    _, S, status = _factor_or_prior(P)
    x_pred, p_pred = _predict(x, S, dt, noise.q_cov * dt)
    p_pred, S, reset = _factor_or_prior(p_pred)
    status = status | reset

    # a singular IK Jacobian zeroes that point's rates, so the rate block of
    # R is inflated to make that leg's update ignore the measured rates
    pts = _points(x_pred, S)
    col = [np.asarray(a)[..., None] for a in (lh, lt, l2, side)]
    zs, viol, singular = _ik_h(pts, *col, DET_EPS)
    fallback = singular.any(axis=-1)
    status = (status | np.where((viol > kernels.CLAMP_TOL).any(axis=-1), CKF_CLAMPED, 0)
              | np.where(fallback, CKF_RATE_FALLBACK, 0))
    r_cov = np.where(fallback[..., None, None], noise.r_cov * _RATE_INFLATION,
                     noise.r_cov)

    # where the innovation covariance is unusable, _update keeps the prediction
    x, P, ok = _update(x_pred, p_pred, pts, zs, z, r_cov)
    status = status | np.where(ok, 0, CKF_UPDATE_SKIPPED)
    x[..., 1] = side * np.abs(x[..., 1])
    return x, P, status


def initial_state(q, geom: LegGeometry, t):
    """Filter state at first sight of a leg: FK position, zero velocity."""
    x = np.zeros(6)
    x[:3] = fk_position(q, geom)
    return CkfLegState(x, _prior_cov(), t)


def _truncated_dt(t_now, t, dt_max):
    dt = t_now - t
    return 0.0 if abs(dt) > dt_max else dt


def ckf_step(state: CkfLegState, z, t_now, noise: CkfNoise, geom: LegGeometry,
             dt_max=DT_MAX_DEFAULT):
    """One filter cycle for one leg against measured (angles, rates).

    The time step is truncated to zero when it exceeds dt_max (timestamp
    anomalies); process noise scales with the elapsed time. Covariance
    failures recover by resetting to the diagonal prior, never by aborting.
    Runs the same batched cycle as LegVelocityFilter with a batch of one.

    Returns (new_state, status_bitmask).
    """
    lh, lt, _, _, side = geom.kernel_args()
    x, P, status = _ckf_legs(state.x[None], state.P[None],
                             _truncated_dt(t_now, state.t, dt_max),
                             np.asarray(z, dtype=float)[None], noise,
                             lh, lt, geom.l2, side)
    return CkfLegState(x[0], P[0], t_now), int(status[0])


@dataclass
class LegVelocityFilter:
    """The velocity filter of every leg, advanced together once per frame.

    states holds the stacked filter state: x (L, 6), P (L, 6, 6) and the
    common stamp t, in the order of geometries; None until the first update.
    status_counts counts each nonzero CKF_* status a leg returned. When
    disabled, update() passes the raw forward-kinematics velocity through
    untouched.
    """

    geometries: list
    noise: CkfNoise = field(default_factory=CkfNoise.from_diagonals)
    enabled: bool = True
    dt_max: float = DT_MAX_DEFAULT
    states: CkfLegState = None
    status_counts: dict = field(default_factory=dict)

    def __post_init__(self):
        self._params = tuple(np.array(p) for p in zip(*(
            (g.hip_offset_len, g.thigh_len, g.l2, float(g.side_sign))
            for g in self.geometries)))
        self._coef = kernels.leg_coefficients(
            *zip(*(g.kernel_args() for g in self.geometries)))

    def reset(self):
        self.states = None
        self.status_counts.clear()

    def update(self, stamp, joint_readings):
        """Advance every leg one cycle; returns the per-leg foot velocity."""
        if not self.enabled:
            q = np.array([r.q for r in joint_readings])
            dq = np.array([r.dq for r in joint_readings])
            return list(kernels.leg_kinematics(q, dq, self._coef)[2])
        st = self.states
        if st is None:
            legs = [initial_state(r.q, g, stamp)
                    for g, r in zip(self.geometries, joint_readings)]
            st = CkfLegState(np.array([s.x for s in legs]),
                             np.array([s.P for s in legs]), stamp)
        z = np.array([np.concatenate([r.q, r.dq]) for r in joint_readings])
        x, P, status = _ckf_legs(st.x, st.P, _truncated_dt(stamp, st.t, self.dt_max),
                                 z, self.noise, *self._params)
        self.states = CkfLegState(x, P, stamp)
        for s in status[status != 0].tolist():
            self.status_counts[s] = self.status_counts.get(s, 0) + 1
        return list(x[:, 3:].copy())


__all__ = ["CkfLegState", "CkfNoise", "Unreachable", "SingularJacobian",
           "CKF_CHOL_RESET", "CKF_RATE_FALLBACK", "CKF_CLAMPED", "CKF_UPDATE_SKIPPED",
           "ik_measurement", "cubature_points", "cubature_step", "ckf_step",
           "initial_state", "LegVelocityFilter"]
