"""A frozen copy of `Estimator.step` from before its per-leg stage moved to
Python floats.

`ReferenceEstimator.step` is the numpy step verbatim: the leg kinematics
and the wrench gate in one `leg_frame` call on `leg_coefficients`, both
frozen in `kernels_reference.py` (since the library moved to the float
`kernels.leg_rows` and to one set of entry expressions), then every per-leg
vector as a numpy array, the means as `np.mean`, the rotations as
`rot_z @ rot_y @ rot_x` and the yaw pairs with `np.arctan2`. The numpy
forms of the contact, wheel and yaw operators it calls are frozen below
with it. The scalar operators that did not change (`gate_contact`,
`detect_touchdown`, `effective_roll_increment`, `apply_yaw_correction`,
`wrap_angle`, `quat_to_rpy`), the plane store and the velocity filter come
from the library. The library's float step is checked against this one as
an independent operation sequence. Do not edit it to follow the library.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from legodom import height
from legodom.kernels import SIGMA_MIN
from legodom.config import EstimatorConfig
from legodom.contact import detect_touchdown, gate_contact
from legodom.estimator import BodyState
from legodom.geometry import quat_to_rpy, wrap_angle
from legodom.ikvel import CkfNoise, LegVelocityFilter
from legodom.wheel import HEADING_EPS, effective_roll_increment
from legodom.yawkin import MIN_BASELINE, apply_yaw_correction

from kernels_reference import leg_coefficients, leg_frame


class EmptyContactSet(Exception):
    pass


class InsufficientContacts(Exception):
    pass


class DegenerateMean(Exception):
    pass


def cross3(a, b):
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def rot_x(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rpy_matrix(roll, pitch, yaw):
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)


@dataclass
class FootfallRecord:
    leg_id: int
    anchor: np.ndarray = field(default_factory=lambda: np.zeros(3))
    in_contact: bool = False
    touchdown_time: float = 0.0


def record_footfall(body_pos, body_rot, foot_body):
    return np.asarray(body_pos, dtype=float) + body_rot @ np.asarray(foot_body, dtype=float)


def anchored_position_obs(anchor, body_rot, foot_body):
    return np.asarray(anchor, dtype=float) - body_rot @ np.asarray(foot_body, dtype=float)


def anchored_velocity_obs(body_rot, omega_body, foot_body, foot_vel_body):
    foot_body = np.asarray(foot_body, dtype=float)
    rel = cross3(np.asarray(omega_body, dtype=float), foot_body) + np.asarray(
        foot_vel_body, dtype=float)
    return -(body_rot @ rel)


def fuse_observations(per_leg_pos, per_leg_vel):
    if len(per_leg_pos) == 0 or len(per_leg_vel) == 0:
        raise EmptyContactSet("no stance legs to fuse")
    pos = np.mean(np.asarray(per_leg_pos, dtype=float), axis=0)
    vel = np.mean(np.asarray(per_leg_vel, dtype=float), axis=0)
    return pos, vel


def heading_direction(body_rot, eps=1e-9):
    hx = body_rot[0, 0]
    hy = body_rot[1, 0]
    nrm = np.sqrt(hx * hx + hy * hy)
    if nrm <= eps:
        return None
    return np.array([hx / nrm, hy / nrm, 0.0])


def propagate_contact(anchor, dpsi_eff, wheel_radius, heading):
    anchor = np.asarray(anchor, dtype=float)
    if heading is None or wheel_radius == 0.0:
        return anchor
    return anchor + wheel_radius * dpsi_eff * heading


def rolling_velocity(dpsi, dq2, dq3, wheel_radius, heading):
    if heading is None or wheel_radius == 0.0:
        return np.zeros(3)
    return wheel_radius * (dpsi - dq2 - dq3) * heading


def pairwise_yaw(anchors, feet_body, roll, pitch, min_baseline=0.02):
    if len(anchors) < 2:
        raise InsufficientContacts("need at least two stance legs")
    r_tilt = rot_y(pitch) @ rot_x(roll)
    out = []
    n = len(anchors)
    for i in range(n):
        for j in range(i + 1, n):
            vw = np.asarray(anchors[j], dtype=float) - np.asarray(anchors[i], dtype=float)
            vb = r_tilt @ (np.asarray(feet_body[j], dtype=float) -
                           np.asarray(feet_body[i], dtype=float))
            if np.hypot(vw[0], vw[1]) < min_baseline or np.hypot(vb[0], vb[1]) < min_baseline:
                continue
            out.append(wrap_angle(np.arctan2(vw[1], vw[0]) - np.arctan2(vb[1], vb[0])))
    return out


def circular_mean(angles):
    if len(angles) == 0:
        raise ValueError("circular_mean of empty list")
    ss = float(np.sum(np.sin(angles)))
    cc = float(np.sum(np.cos(angles)))
    if abs(ss) <= 1e-12 and abs(cc) <= 1e-12:
        raise DegenerateMean("antipodal cancellation")
    return float(np.arctan2(ss, cc))


@dataclass
class _WheelCache:
    psi: float
    pitch: float
    q2: float
    q3: float


class ReferenceEstimator:
    """The numpy estimator step; state, diagnostics() as the library's."""

    def __init__(self, config=None):
        self.config = config if config is not None else EstimatorConfig()
        cfg = self.config
        n = len(cfg.legs)
        self.state = BodyState(cfg.initial_position.copy(),
                               np.array([0.0, 0.0, cfg.initial_yaw]),
                               np.zeros(3), None)
        self.records = [FootfallRecord(i) for i in range(n)]
        self.prev_contact = [False] * n
        self.planes = []
        self.full_support_since = None
        self.wheel_cache = [None] * n
        self.ikvel = LegVelocityFilter(
            cfg.legs,
            noise=CkfNoise.from_diagonals(cfg.ikvel_q_pos, cfg.ikvel_q_vel,
                                          cfg.ikvel_r_angle, cfg.ikvel_r_rate))
        self._leg_coef = leg_coefficients(
            *zip(*(g.kernel_args() for g in cfg.legs)))
        self._hip_mounts = np.array([g.hip_mount for g in cfg.legs])
        self._diag = {}

    def step(self, frame):
        cfg = self.config
        n = len(cfg.legs)
        if len(frame.legs) != n:
            raise ValueError("frame has %d legs, config has %d" % (len(frame.legs), n))
        if not math.isfinite(frame.stamp):
            raise ValueError("frame stamp %r is not finite" % frame.stamp)
        if self.state.stamp is not None and frame.stamp <= self.state.stamp:
            raise ValueError("frame stamp %r not after state stamp %r"
                             % (frame.stamp, self.state.stamp))
        dt = 0.0 if self.state.stamp is None else frame.stamp - self.state.stamp
        t = frame.stamp

        # (1) attitude intake: roll/pitch always from the IMU; yaw only when
        # the IMU yaw channel is trusted, otherwise held from the state
        rpy_meas = quat_to_rpy(frame.att)
        roll, pitch = rpy_meas[0], rpy_meas[1]
        yaw = rpy_meas[2] if cfg.imu_yaw_enabled else self.state.rpy[2]
        rot = rpy_matrix(roll, pitch, yaw)

        pos_pred = self.state.position + self.state.velocity * dt

        # (2) kinematics, wrench and gating of every leg in one kernel call;
        # the velocity filter, when on, replaces the raw foot velocities
        q = np.array([r.q for r in frame.legs])
        dq = np.array([r.dq for r in frame.legs])
        tau = np.array([r.tau for r in frame.legs])
        r_b, v_b, f_b, ok = leg_frame(q, dq, tau, self._leg_coef, SIGMA_MIN)
        feet_body = self._hip_mounts + r_b
        foot_vel = self.ikvel.update(t, q, dq, r_b) if cfg.ikvel_enabled else v_b
        contacts = []
        touchdowns = []
        for i in range(n):
            in_contact = bool(ok[i] and gate_contact(
                float(rot[2] @ f_b[i]), cfg.force_threshold))
            contacts.append(in_contact)
            touchdowns.append(detect_touchdown(self.prev_contact[i], in_contact))

        # (3) wheel anchors of persisting stance legs advance by the effective
        # rolling increment (never on a touchdown frame: the cache is fresh)
        heading = heading_direction(rot, HEADING_EPS)
        for i in range(n):
            geom = cfg.legs[i]
            reading = frame.legs[i]
            wr = frame.wheels[i] if frame.wheels else None
            if wr is None or geom.wheel_radius == 0.0:
                continue
            cachev = self.wheel_cache[i]
            if contacts[i] and not touchdowns[i] and cachev is not None:
                dpsi_eff = effective_roll_increment(
                    wr.psi, cachev.psi, pitch, cachev.pitch,
                    reading.q[1], reading.q[2], cachev.q2, cachev.q3)
                self.records[i].anchor = propagate_contact(
                    self.records[i].anchor, dpsi_eff, geom.wheel_radius, heading)
            if not touchdowns[i]:
                self.wheel_cache[i] = _WheelCache(wr.psi, pitch, reading.q[1],
                                                  reading.q[2])

        def leg_obs(i):
            geom = cfg.legs[i]
            p = anchored_position_obs(self.records[i].anchor, rot,
                                              feet_body[i])
            v = anchored_velocity_obs(rot, frame.gyro, feet_body[i],
                                              foot_vel[i])
            if frame.wheels and frame.wheels[i] is not None and geom.wheel_radius > 0:
                v = v + rolling_velocity(
                    frame.wheels[i].dpsi, frame.legs[i].dq[1],
                    frame.legs[i].dq[2], geom.wheel_radius, heading)
            return p, v

        # (4) touchdown handling: new anchors are taken from the best position
        # available this cycle (legs that stayed anchored beat the constant-
        # velocity prediction), then snapped through the plane store
        persisting = [i for i in range(n) if contacts[i] and not touchdowns[i]
                      and self.records[i].in_contact]
        obs_cache = {i: leg_obs(i) for i in persisting}
        if persisting and cfg.pos_blend > 0.0:
            p_persist = np.mean([obs_cache[i][0] for i in persisting], axis=0)
            pos_rec = (1.0 - cfg.pos_blend) * pos_pred + cfg.pos_blend * p_persist
        else:
            pos_rec = pos_pred
        for i in range(n):
            if not touchdowns[i]:
                if not contacts[i]:
                    self.records[i].in_contact = False
                continue
            anchor = record_footfall(pos_rec, rot, feet_body[i])
            if cfg.height_enabled:
                z_corr, self.planes = height.correct_height(
                    anchor[2], self.planes, t, cfg.height_window,
                    cfg.height_fade)
                anchor[2] = z_corr
            rec = self.records[i]
            rec.anchor = anchor
            rec.in_contact = True
            rec.touchdown_time = t
            if frame.wheels and frame.wheels[i] is not None:
                reading = frame.legs[i]
                self.wheel_cache[i] = _WheelCache(frame.wheels[i].psi, pitch,
                                                  reading.q[1], reading.q[2])
            else:
                self.wheel_cache[i] = None

        # (5) fused translational observation, complementary blend
        stance = [i for i in range(n) if contacts[i]]
        if stance:
            per_pos = []
            per_vel = []
            for i in stance:
                p, v = obs_cache.get(i) or leg_obs(i)
                per_pos.append(p)
                per_vel.append(v)
            pos_obs, vel_obs = fuse_observations(per_pos, per_vel)
            position = (1.0 - cfg.pos_blend) * pos_pred + cfg.pos_blend * pos_obs
            velocity = (1.0 - cfg.vel_blend) * self.state.velocity + cfg.vel_blend * vel_obs
        else:
            position = pos_pred
            velocity = self.state.velocity

        # (6) yaw consistency against the anchored contact geometry
        yaw_kin = None
        yaw_err = None
        if cfg.yaw_enabled and len(stance) >= 2:
            try:
                parts = pairwise_yaw(
                    [self.records[i].anchor for i in stance],
                    [feet_body[i] for i in stance],
                    roll, pitch, MIN_BASELINE)
                if parts:
                    yaw_kin = circular_mean(parts)
                    yaw_err = wrap_angle(yaw_kin - yaw)
                    yaw, self.full_support_since = apply_yaw_correction(
                        yaw, yaw_kin, len(stance), n, t,
                        self.full_support_since, cfg.yaw_alpha0, cfg.yaw_ramp_time)
            except DegenerateMean:
                pass
        if len(stance) < n:
            self.full_support_since = None

        self.state = BodyState(position, np.array([roll, pitch, yaw]), velocity, t)
        self.prev_contact = contacts
        self._diag = {
            "t": t,
            "n_contacts": len(stance),
            "contacts": stance,
            "touchdowns": [i for i in range(n) if touchdowns[i]],
            "anchors": [self.records[i].anchor.tolist() if self.records[i].in_contact
                        else None for i in range(n)],
            "planes": height.planes_to_json(self.planes),
            "yaw_kin": yaw_kin,
            "yaw_err": yaw_err,
            "mode": "fused" if stance else "predict",
        }
        return BodyState(self.state.position.copy(), self.state.rpy.copy(),
                         self.state.velocity.copy(), self.state.stamp)

    def diagnostics(self):
        return dict(self._diag)
