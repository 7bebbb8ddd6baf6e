"""The per-sample fusion loop: attitude intake, wrench gating, touchdown
handling, anchored observation fusion, wheel propagation, and yaw correction."""

from dataclasses import dataclass

import numpy as np

from . import contact, height, kernels, wheel, yawkin
from .config import EstimatorConfig
from .contact import FootfallRecord
from .geometry import WheelReading, quat_to_rpy, rpy_matrix, wrap_angle
from .ikvel import CkfNoise, LegVelocityFilter


@dataclass
class BodyState:
    """Trunk pose and velocity in the world frame; attitude as roll/pitch/yaw."""

    position: np.ndarray
    rpy: np.ndarray
    velocity: np.ndarray
    stamp: float

    def copy(self):
        return BodyState(self.position.copy(), self.rpy.copy(),
                         self.velocity.copy(), self.stamp)


@dataclass
class SensorFrame:
    """One synchronized sample: IMU attitude quaternion [w,x,y,z], body-frame
    gyro, per-leg joint readings, optional per-leg wheel readings."""

    stamp: float
    att: np.ndarray
    gyro: np.ndarray
    legs: list
    wheels: list = None

    def __post_init__(self):
        self.att = np.asarray(self.att, dtype=float)
        self.gyro = np.asarray(self.gyro, dtype=float)


@dataclass
class _WheelCache:
    psi: float
    pitch: float
    q2: float
    q3: float


class Estimator:
    """Contact-anchored proprioceptive odometry over a stream of SensorFrames.

    step() is strictly sequential per stream; returned BodyStates are copies
    and safe to hand across threads.
    """

    def __init__(self, config: EstimatorConfig = None):
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
                                          cfg.ikvel_r_angle, cfg.ikvel_r_rate),
            enabled=cfg.ikvel_enabled,
            dt_max=cfg.ikvel_dt_max)
        self._leg_coef = kernels.leg_coefficients(
            *zip(*(g.kernel_args() for g in cfg.legs)))
        self._hip_mounts = np.array([g.hip_mount for g in cfg.legs])
        self._diag = {}

    def step(self, frame: SensorFrame) -> BodyState:
        cfg = self.config
        n = len(cfg.legs)
        if len(frame.legs) != n:
            raise ValueError("frame has %d legs, config has %d" % (len(frame.legs), n))
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
        r_b, v_b, f_b, ok = kernels.leg_frame(q, dq, tau, self._leg_coef,
                                              cfg.sigma_min)
        feet_body = self._hip_mounts + r_b
        foot_vel = self.ikvel.update(t, frame.legs) if self.ikvel.enabled else v_b
        contacts = []
        touchdowns = []
        for i in range(n):
            in_contact = bool(ok[i] and contact.gate_contact(
                float(rot[2] @ f_b[i]), cfg.force_threshold))
            contacts.append(in_contact)
            touchdowns.append(contact.detect_touchdown(self.prev_contact[i], in_contact))

        # (3) wheel anchors of persisting stance legs advance by the effective
        # rolling increment (never on a touchdown frame: the cache is fresh)
        heading = wheel.heading_direction(rot, cfg.heading_eps)
        for i in range(n):
            geom = cfg.legs[i]
            reading = frame.legs[i]
            wr: WheelReading = frame.wheels[i] if frame.wheels else None
            if wr is None or geom.wheel_radius == 0.0:
                continue
            cachev = self.wheel_cache[i]
            if contacts[i] and not touchdowns[i] and cachev is not None:
                dpsi_eff = wheel.effective_roll_increment(
                    wr.psi, cachev.psi, pitch, cachev.pitch,
                    reading.q[1], reading.q[2], cachev.q2, cachev.q3)
                self.records[i].anchor = wheel.propagate_contact(
                    self.records[i].anchor, dpsi_eff, geom.wheel_radius, heading)
            if not touchdowns[i]:
                self.wheel_cache[i] = _WheelCache(wr.psi, pitch, reading.q[1],
                                                  reading.q[2])

        def leg_obs(i):
            geom = cfg.legs[i]
            p = contact.anchored_position_obs(self.records[i].anchor, rot,
                                              feet_body[i])
            v = contact.anchored_velocity_obs(rot, frame.gyro, feet_body[i],
                                              foot_vel[i])
            if frame.wheels and frame.wheels[i] is not None and geom.wheel_radius > 0:
                v = v + wheel.rolling_velocity(
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
            anchor = contact.record_footfall(pos_rec, rot, feet_body[i])
            if cfg.height_enabled:
                z_corr, self.planes = height.correct_height(
                    anchor[2], self.planes, t, cfg.height_window,
                    cfg.height_fade, cfg.height_decay_scale)
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
            pos_obs, vel_obs = contact.fuse_observations(per_pos, per_vel)
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
                parts = yawkin.pairwise_yaw(
                    [self.records[i].anchor for i in stance],
                    [feet_body[i] for i in stance],
                    roll, pitch, cfg.yaw_min_baseline)
                if parts:
                    yaw_kin = yawkin.circular_mean(parts)
                    yaw_err = wrap_angle(yaw_kin - yaw)
                    yaw, self.full_support_since = yawkin.apply_yaw_correction(
                        yaw, yaw_kin, len(stance), n, t,
                        self.full_support_since, cfg.yaw_alpha0, cfg.yaw_ramp_time)
            except yawkin.DegenerateMean:
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
        return self.state.copy()

    def predict_only(self, dt, gyro):
        """Advance the state with no contact information.

        Position integrates the held velocity; attitude integrates the body
        gyro through the Euler-rate map. No accelerometer is consumed
        anywhere, so velocity is held.
        """
        if dt <= 0:
            raise ValueError("dt must be > 0")
        gyro = np.asarray(gyro, dtype=float)
        roll, pitch, yaw = self.state.rpy
        sr, cr = np.sin(roll), np.cos(roll)
        cp, tp = np.cos(pitch), np.tan(pitch)
        rates = np.array([
            gyro[0] + sr * tp * gyro[1] + cr * tp * gyro[2],
            cr * gyro[1] - sr * gyro[2],
            (sr / cp) * gyro[1] + (cr / cp) * gyro[2],
        ])
        rpy = self.state.rpy + rates * dt
        rpy = np.array([wrap_angle(a) for a in rpy])
        stamp = (self.state.stamp or 0.0) + dt
        self.state = BodyState(self.state.position + self.state.velocity * dt,
                               rpy, self.state.velocity.copy(), stamp)
        return self.state.copy()

    def diagnostics(self):
        """Most recent per-step diagnostics record (JSON-serializable dict)."""
        return dict(self._diag)


def create(config: EstimatorConfig = None) -> Estimator:
    return Estimator(config)


def step(handle: Estimator, frame: SensorFrame) -> BodyState:
    return handle.step(frame)


def diagnostics(handle: Estimator):
    return handle.diagnostics()


__all__ = ["BodyState", "SensorFrame", "Estimator", "create", "step",
           "diagnostics"]
