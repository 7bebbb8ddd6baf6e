"""The per-sample fusion loop: attitude intake, wrench gating, touchdown
handling, anchored observation fusion, wheel propagation, and yaw correction.

A step takes the rows of `SensorFrame.joints`, one (3, L, 3) array of q, dq
and tau, to Python lists with one `tolist()`, runs the kinematics and the
wrench gate of every leg on those floats in one `kernels.leg_rows` call, and
every per-leg stage after that through the `contact`, `wheel` and `yawkin`
operators. At a few legs a frame numpy's per-call cost exceeds the
arithmetic, so an array form of those stages is slower. With the velocity
filter on, the filter runs on views of the joint array, one batched numpy
cycle. The BodyState arrays are built once, at the end.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import contact, height, kernels, wheel, yawkin
from .config import EstimatorConfig
from .contact import FootfallRecord
from .geometry import JointReading, blend3, mean3, quat_to_rpy, rpy_rows, wrap_angle
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
    gyro, joint readings, optional per-leg wheel readings.

    `joints` is one float (3, L, 3) array, indexed by channel (q, dq, tau),
    leg and joint; a step reads it with one `tolist()`. A float64 array is
    kept as given, so frames may be views into one array of a stream. An
    `att`, `gyro`, `joints` or `wheels` of another size raises ValueError."""

    stamp: float
    att: np.ndarray
    gyro: np.ndarray
    joints: np.ndarray
    wheels: list = None

    def __post_init__(self):
        self.att = np.asarray(self.att, dtype=float)
        self.gyro = np.asarray(self.gyro, dtype=float)
        self.joints = np.asarray(self.joints, dtype=float)
        if self.joints.ndim != 3 or self.joints.shape[::2] != (3, 3):
            raise ValueError("joints must have shape (3, legs, 3), got %s"
                             % (self.joints.shape,))
        for name, shape in (("att", (4,)), ("gyro", (3,))):
            if getattr(self, name).shape != shape:
                raise ValueError("%s must have shape %s, got %s"
                                 % (name, shape, getattr(self, name).shape))
        if self.wheels is not None and len(self.wheels) != self.joints.shape[1]:
            raise ValueError("wheels must hold one entry per leg (%d), got %d"
                             % (self.joints.shape[1], len(self.wheels)))

    @property
    def legs(self):
        """Per-leg JointReading views (q, dq, tau) into `joints`."""
        return [JointReading(*leg) for leg in self.joints.swapaxes(0, 1)]


def frame_columns(frames):
    """The stamps, att, gyro and joints of a list of frames as fresh (F,),
    (F, 4), (F, 3) and (F, 3, L, 3) arrays, read once; every frame must have
    the same legs. Frame k's values are row k of each."""
    return (np.array([fr.stamp for fr in frames]), np.array([fr.att for fr in frames]),
            np.array([fr.gyro for fr in frames]), np.array([fr.joints for fr in frames]))


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
        # per leg, (psi, pitch, q[1], q[2]) of the last wheel frame, or None
        self.wheel_cache = [None] * n
        self.ikvel = LegVelocityFilter(
            cfg.legs,
            noise=CkfNoise.from_diagonals(cfg.ikvel_q_pos, cfg.ikvel_q_vel,
                                          cfg.ikvel_r_angle, cfg.ikvel_r_rate))
        self._leg_coef = [kernels.leg_coefficients(*g.kernel_args()) for g in cfg.legs]
        self._hip_mounts = [g.hip_mount.tolist() for g in cfg.legs]
        self._diag = {}

    def step(self, frame: SensorFrame) -> BodyState:
        cfg = self.config
        n = len(cfg.legs)
        if frame.joints.shape[1] != n:
            raise ValueError("frame has %d legs, config has %d" % (frame.joints.shape[1], n))
        t = frame.stamp
        if not math.isfinite(t):
            raise ValueError("frame stamp %r is not finite" % t)
        gyro = frame.gyro.tolist()
        for name, values in (("att", frame.att.tolist()), ("gyro", gyro)):
            if not all(map(math.isfinite, values)):
                raise ValueError("frame %s %r is not finite" % (name, values))
        for wr in frame.wheels or ():
            if wr is not None and not (math.isfinite(wr.psi) and math.isfinite(wr.dpsi)):
                raise ValueError("frame wheel reading %r is not finite" % (wr,))
        if self.state.stamp is not None and t <= self.state.stamp:
            raise ValueError("frame stamp %r not after state stamp %r"
                             % (t, self.state.stamp))
        dt = 0.0 if self.state.stamp is None else t - self.state.stamp
        pos = self.state.position.tolist()
        vel = self.state.velocity.tolist()
        pos_pred = (pos[0] + vel[0] * dt, pos[1] + vel[1] * dt, pos[2] + vel[2] * dt)

        roll, pitch, yaw, rot = self._attitude(frame)
        q_rows, dq_rows, feet, foot_vel, forces, ok = self._leg_frame(frame, t)
        contacts, touchdowns = self._gate(rot, forces, ok)
        stance, per_pos, per_vel = self._observe(
            frame.wheels, q_rows, dq_rows, t, rot, pitch, gyro, feet, foot_vel,
            contacts, touchdowns, pos_pred)
        position, velocity = self._fuse(pos_pred, vel, per_pos, per_vel)
        yaw, yaw_kin, yaw_err = self._yaw(t, roll, pitch, yaw, stance, feet)

        self.state = BodyState(np.array(position), np.array([roll, pitch, yaw]),
                               np.array(velocity), t)
        self.prev_contact = contacts
        self._diag = self._record(t, stance, touchdowns, yaw_kin, yaw_err)
        return self.state.copy()

    # The stages of step, in order. Each takes and returns Python floats,
    # lists and tuples; numpy runs only in quat_to_rpy, in the velocity filter
    # and in the SVD of a leg whose bound cannot clear the wrench gate.

    def _attitude(self, frame):
        """(roll, pitch, yaw, rotation rows): roll and pitch always from the
        IMU; yaw only when the IMU yaw channel is trusted, otherwise held
        from the state."""
        roll, pitch, yaw = quat_to_rpy(frame.att).tolist()
        if not self.config.imu_yaw_enabled:
            yaw = float(self.state.rpy[2])
        return roll, pitch, yaw, rpy_rows(roll, pitch, yaw)

    def _leg_frame(self, frame, t):
        """Kinematics, wrench and gating of every leg in one kernel call on
        the rows of the frame's joints; the velocity filter, when on,
        replaces the raw foot velocities. Returns the rows of the joint
        angles and rates, the body-frame feet, foot velocities and forces as
        lists of rows, and the per-leg ok flags."""
        q_rows, dq_rows, tau_rows = frame.joints.tolist()
        r_b, v_b, f_b, ok = kernels.leg_rows(q_rows, dq_rows, tau_rows, self._leg_coef,
                                             kernels.SIGMA_MIN)
        if self.config.ikvel_enabled:
            v_b = self.ikvel.update(t, frame.joints[0], frame.joints[1]).tolist()
        feet = [(m0 + r0, m1 + r1, m2 + r2)
                for (m0, m1, m2), (r0, r1, r2) in zip(self._hip_mounts, r_b)]
        return q_rows, dq_rows, feet, v_b, f_b, ok

    def _gate(self, rot, forces, ok):
        """Per-leg stance flags from the vertical world-frame force, and the
        swing-to-stance transitions against the previous frame."""
        thr = self.config.force_threshold
        r20, r21, r22 = rot[2]
        contacts = []
        touchdowns = []
        for f, leg_ok, prev in zip(forces, ok, self.prev_contact):
            in_contact = leg_ok and contact.gate_contact(
                r20 * f[0] + r21 * f[1] + r22 * f[2], thr)
            contacts.append(in_contact)
            touchdowns.append(contact.detect_touchdown(prev, in_contact))
        return contacts, touchdowns

    def _observe(self, wheels, q_rows, dq_rows, t, rot, pitch, gyro, feet,
                 foot_vel, contacts, touchdowns, pos_pred):
        """Wheel propagation, touchdowns through the plane store, and the
        anchored observations; the wheel stage reads the rows of the joint
        angles and rates that _leg_frame took. Returns the stance legs and
        their position and velocity observations, in leg order."""
        cfg = self.config
        records = self.records
        n = len(contacts)
        heading = wheel.heading_direction(rot)

        # wheel anchors of persisting stance legs advance by the effective
        # rolling increment (never on a touchdown frame: the cache is fresh);
        # the cache becomes the reading of a leg with a wheel, or None at a
        # touchdown without one
        for i in range(n):
            wr = wheels[i] if wheels else None
            radius = cfg.legs[i].wheel_radius
            if wr is None or radius == 0.0:
                if touchdowns[i]:
                    self.wheel_cache[i] = None
                continue
            cache = self.wheel_cache[i]
            _, q2, q3 = q_rows[i]
            if contacts[i] and not touchdowns[i] and cache is not None:
                psi0, pitch0, q20, q30 = cache
                dpsi_eff = wheel.effective_roll_increment(
                    wr.psi, psi0, pitch, pitch0, q2, q3, q20, q30)
                records[i].anchor = wheel.propagate_contact(
                    records[i].anchor, dpsi_eff, radius, heading)
            self.wheel_cache[i] = (wr.psi, pitch, q2, q3)

        def leg_obs(i):
            p = contact.anchored_position_obs(records[i].anchor, rot, feet[i])
            v = contact.anchored_velocity_obs(rot, gyro, feet[i], foot_vel[i])
            radius = cfg.legs[i].wheel_radius
            if wheels and wheels[i] is not None and radius > 0:
                _, dq2, dq3 = dq_rows[i]
                w = wheel.rolling_velocity(wheels[i].dpsi, dq2, dq3, radius, heading)
                v = (v[0] + w[0], v[1] + w[1], v[2] + w[2])
            return p, v

        # touchdown handling: new anchors are taken from the best position
        # available this cycle (legs that stayed anchored beat the constant-
        # velocity prediction), then snapped through the plane store
        persisting = [i for i in range(n) if contacts[i] and not touchdowns[i]]
        obs = {i: leg_obs(i) for i in persisting}
        if persisting and cfg.pos_blend > 0.0:
            p_persist = mean3([obs[i][0] for i in persisting])
            pos_rec = blend3(pos_pred, p_persist, cfg.pos_blend)
        else:
            pos_rec = pos_pred
        for i in range(n):
            if not touchdowns[i]:
                continue
            anchor = contact.record_footfall(pos_rec, rot, feet[i])
            if cfg.height_enabled:
                z_corr, self.planes = height.correct_height(
                    anchor[2], self.planes, t, cfg.height_window, cfg.height_fade)
                anchor = (anchor[0], anchor[1], z_corr)
            records[i].anchor = anchor

        stance = [i for i in range(n) if contacts[i]]
        per_pos = []
        per_vel = []
        for i in stance:
            p, v = obs[i] if i in obs else leg_obs(i)
            per_pos.append(p)
            per_vel.append(v)
        return stance, per_pos, per_vel

    def _fuse(self, pos_pred, vel, per_pos, per_vel):
        """Fused translational observation, complementary blend; the
        prediction and the held velocity when no leg is in stance."""
        fused = contact.fuse_observations(per_pos, per_vel)
        if fused is None:
            return pos_pred, vel
        pos_obs, vel_obs = fused
        return (blend3(pos_pred, pos_obs, self.config.pos_blend),
                blend3(vel, vel_obs, self.config.vel_blend))

    def _yaw(self, t, roll, pitch, yaw, stance, feet):
        """Yaw consistency against the anchored contact geometry. Returns
        (yaw, yaw_kin, yaw_err); the last two are None when no correction
        was made: yaw correction is off, or the stance legs give no usable
        pair, or their pair yaws cancel."""
        cfg = self.config
        n = len(cfg.legs)
        yaw_kin = None
        yaw_err = None
        if cfg.yaw_enabled:
            yaw_kin = yawkin.circular_mean(yawkin.pairwise_yaw(
                [self.records[i].anchor for i in stance], [feet[i] for i in stance],
                roll, pitch))
        if yaw_kin is not None:
            yaw_err = wrap_angle(yaw_kin - yaw)
            yaw, self.full_support_since = yawkin.apply_yaw_correction(
                yaw, yaw_kin, len(stance), n, t,
                self.full_support_since, cfg.yaw_alpha0, cfg.yaw_ramp_time)
        if len(stance) < n:
            self.full_support_since = None
        return yaw, yaw_kin, yaw_err

    def _record(self, t, stance, touchdowns, yaw_kin, yaw_err):
        """The diagnostics record of the frame just stepped."""
        return {
            "t": t,
            "n_contacts": len(stance),
            "contacts": stance,
            "touchdowns": [i for i, td in enumerate(touchdowns) if td],
            "anchors": [list(rec.anchor) if on else None
                        for rec, on in zip(self.records, self.prev_contact)],
            "planes": height.planes_to_json(self.planes),
            "yaw_kin": yaw_kin,
            "yaw_err": yaw_err,
            "mode": "fused" if stance else "predict",
        }

    def diagnostics(self):
        """Most recent per-step diagnostics record (JSON-serializable dict)."""
        return dict(self._diag)


def create(config: EstimatorConfig = None) -> Estimator:
    return Estimator(config)


def step(handle: Estimator, frame: SensorFrame) -> BodyState:
    return handle.step(frame)


def diagnostics(handle: Estimator):
    return handle.diagnostics()


__all__ = ["BodyState", "SensorFrame", "frame_columns", "Estimator", "create", "step",
           "diagnostics"]
