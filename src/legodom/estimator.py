"""The per-sample fusion loop: attitude intake, wrench gating, touchdown
handling, anchored observation fusion, wheel propagation, and yaw correction.

A step takes the rows of `SensorFrame.joints`, one (3, L, 3) array of q, dq
and tau, to Python lists with one `tolist()`, runs the kinematics and the
wrench gate of every leg on those floats in one `kernels.leg_rows` call, and
every per-leg stage after that through the `contact`, `wheel` and `yawkin`
operators. At a few legs a frame numpy's per-call cost exceeds the
arithmetic, so an array form of those stages is slower. With the velocity
filter on, the filter runs on views of the joint array, one batched numpy
cycle. The estimator holds its state as Python floats and builds the
returned BodyState's arrays once, at the end; the diagnostics record is built
only when `diagnostics()` asks for it.

A replay steps its log in blocks through `step_block`, which computes the
stages that read no state for the whole block at once, on the block's
columns: the attitude and its rotation rows (`geometry.quat_to_rpy_columns`
and `rpy_rows` on numpy's trig), the leg kinematics with the wrench gate
(`kernels.leg_columns`) and the contact flags. It then hands each frame to
`step` with its terms in place of the float intake, and step advances the
state as it does on floats: the one held-yaw rule, the velocity filter, the
touchdowns against the previous frame's flags, the observations, fusion
and yaw. Only the block's stamp checks are made against the state held when
it starts; a wrapper of `step` still sees one call per frame. Both forms give
the same bits: each term is formed by the same elementwise products and sums
in the same order, numpy's cos and sin round as math's do and its arctan2
and arcsin alike on floats and columns (the tests check both on the platform
they run on), no matrix product stands in for a sum, a quaternion off unit
norm takes the float form's normalisation, and the legs that need an SVD
take the same one, stacked.

Most frames need only part of `_observe`. Wheel propagation (the heading and
the per-leg wheel loop) runs only on a frame that carries wheel readings;
on a frame without them, a leg that touches down only drops its wheel
cache. The touchdown stage (the persisting legs' mean position, the new
anchors and the plane store) runs only on a frame with a touchdown; on any
other frame each stance leg's observation is computed once, in leg order.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import contact, height, kernels, wheel, yawkin
from .config import EstimatorConfig
from .contact import FootfallRecord
# contact's gate rule, bound at import for the columns of step_block: the
# replay benchmark wraps the module's attribute and reads each result as one
# leg's flag, so only the per-leg calls of _gate go through it
from .contact import gate_contact as _gate_columns
from .geometry import (JointReading, _quat_rpy, blend3, mean3, quat_to_rpy_columns,
                       rpy_rows, wrap_angle)
from .ikvel import CkfNoise, LegVelocityFilter


@dataclass
class BodyState:
    """Trunk pose and velocity in the world frame; attitude as roll/pitch/yaw."""

    position: np.ndarray
    rpy: np.ndarray
    velocity: np.ndarray
    stamp: float


# one global lookup each in SensorFrame's check for an array kept as given
_NDARRAY, _F64 = np.ndarray, np.dtype(np.float64)


@dataclass
class SensorFrame:
    """One synchronized sample: IMU attitude quaternion [w,x,y,z], body-frame
    gyro, joint readings, optional per-leg wheel readings.

    `joints` is one float (3, L, 3) array, indexed by channel (q, dq, tau),
    leg and joint; a step reads it with one `tolist()`. An `att`, `gyro` or
    `joints` that is an exact ndarray of native float64 is kept as given, so
    frames may be views into one array of a stream; anything else is
    converted with `np.asarray(value, dtype=float)`. A `joints`, `att`,
    `gyro` or `wheels` of another size raises ValueError, checked in that
    order."""

    stamp: float
    att: np.ndarray
    gyro: np.ndarray
    joints: np.ndarray
    wheels: list = None

    def __post_init__(self):
        # an exact ndarray of native float64 is what np.asarray would return
        # unchanged, so it is kept without the call
        att, gyro, joints = self.att, self.gyro, self.joints
        if type(att) is not _NDARRAY or att.dtype is not _F64:
            self.att = att = np.asarray(att, dtype=float)
        if type(gyro) is not _NDARRAY or gyro.dtype is not _F64:
            self.gyro = gyro = np.asarray(gyro, dtype=float)
        if type(joints) is not _NDARRAY or joints.dtype is not _F64:
            self.joints = joints = np.asarray(joints, dtype=float)
        shape = joints.shape
        if len(shape) != 3 or shape[::2] != (3, 3):
            raise ValueError("joints must have shape (3, legs, 3), got %s" % (shape,))
        if att.shape != (4,):
            raise ValueError("att must have shape (4,), got %s" % (att.shape,))
        if gyro.shape != (3,):
            raise ValueError("gyro must have shape (3,), got %s" % (gyro.shape,))
        if self.wheels is not None and len(self.wheels) != shape[1]:
            raise ValueError("wheels must hold one entry per leg (%d), got %d"
                             % (shape[1], len(self.wheels)))

    @property
    def legs(self):
        """Per-leg JointReading views (q, dq, tau) into `joints`."""
        return [JointReading(*leg) for leg in self.joints.swapaxes(0, 1)]


def _check_frame(frame, n, last):
    """Raise step's ValueError for a frame whose leg count is not n, whose
    stamp is not finite or not after `last` (None before the first step), or
    one of whose wheel readings is not finite. The att and gyro checks stay
    with the caller: step tests them on floats, step_block on columns."""
    legs = frame.joints.shape[1]
    if legs != n:
        raise ValueError("frame has %d legs, config has %d" % (legs, n))
    t = frame.stamp
    if not math.isfinite(t):
        raise ValueError("frame stamp %r is not finite" % t)
    if last is not None and t <= last:
        raise ValueError("frame stamp %r not after state stamp %r" % (t, last))
    if frame.wheels:
        for wr in frame.wheels:
            if wr is not None and not (math.isfinite(wr.psi) and math.isfinite(wr.dpsi)):
                raise ValueError("frame wheel reading %r is not finite" % (wr,))


def frame_columns(frames):
    """The stamps, att, gyro and joints of a non-empty list of frames as fresh
    (F,), (F, 4), (F, 3) and (F, 3, L, 3) arrays, each channel read with one
    copy of its rows; every frame must have the same legs (ValueError
    otherwise, and for no frames). Frame k's values are row k of each."""
    n = len(frames)
    return (np.array([fr.stamp for fr in frames]),
            np.concatenate([fr.att for fr in frames]).reshape(n, 4),
            np.concatenate([fr.gyro for fr in frames]).reshape(n, 3),
            np.concatenate([fr.joints for fr in frames]).reshape((n,) + frames[0].joints.shape))


class Estimator:
    """Contact-anchored proprioceptive odometry over a stream of SensorFrames.

    step() is strictly sequential per stream. It returns a BodyState of fresh
    arrays that the estimator keeps no reference to, and `state` builds a
    fresh BodyState of the held state on each read, so either is safe to
    write into or to hand across threads. `diagnostics()` builds the record
    of the last step when it is called: a loop that never asks for it does
    not pay for it.
    """

    def __init__(self, config: EstimatorConfig = None):
        self.config = config if config is not None else EstimatorConfig()
        cfg = self.config
        n = len(cfg.legs)
        # the state, as Python floats: position, (roll, pitch, yaw), velocity
        self._position = tuple(cfg.initial_position.tolist())
        self._rpy = (0.0, 0.0, float(cfg.initial_yaw))
        self._velocity = (0.0, 0.0, 0.0)
        self._stamp = None
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
        # the same, as (L,) coefficient columns and an (L, 3) array for step_block
        self._leg_coef_columns = tuple(np.array(c) for c in zip(*self._leg_coef))
        self._hip_mount_columns = np.array(self._hip_mounts)
        # (t, stance, touchdowns, yaw_kin, yaw_err) of the last step, or None
        self._last = None

    @property
    def state(self):
        """The state after the last step (the initial state before the first)
        as a fresh BodyState."""
        return BodyState(np.array(self._position), np.array(self._rpy),
                         np.array(self._velocity), self._stamp)

    def step(self, frame: SensorFrame, _block=None) -> BodyState:
        # each frame of step_block comes here too, with its terms from the
        # block's columns in place of the intake, so that a wrapper of step (a
        # profiler, the replay benchmark's tracer) sees one call per frame
        # however the frames are stepped, and both advance the state below
        cfg = self.config
        t = frame.stamp
        wheels = frame.wheels
        if _block is None:
            _check_frame(frame, len(cfg.legs), self._stamp)
            att = frame.att.tolist()
            gyro = frame.gyro.tolist()
            # one sum tests all seven values, channel by channel only if it is
            # not finite
            if not math.isfinite(sum(att) + sum(gyro)):
                for name, values in (("att", att), ("gyro", gyro)):
                    if not all(map(math.isfinite, values)):
                        raise ValueError("frame %s %r is not finite" % (name, values))
            roll, pitch, yaw, rot = self._attitude(att)
            q_rows, dq_rows, feet, foot_vel, forces, ok = self._leg_frame(frame, t)
            contacts = self._gate(rot, forces, ok)
        else:
            roll, pitch, yaw, rot, gyro, feet, foot_vel, contacts = _block
            q_rows = dq_rows = None
            if wheels:
                q_rows, dq_rows, _ = frame.joints.tolist()
            if cfg.ikvel_enabled:
                # the block hands the filter's input, the hip-to-foot positions
                foot_vel = self.ikvel.update(t, frame.joints[0], frame.joints[1],
                                             foot_vel).tolist()
        if not cfg.imu_yaw_enabled:
            # the IMU yaw channel is not trusted: yaw is held from the state
            yaw = self._rpy[2]
            rot = rpy_rows(roll, pitch, yaw)

        stamp = self._stamp
        dt = 0.0 if stamp is None else t - stamp
        pos = self._position
        vel = self._velocity
        pos_pred = (pos[0] + vel[0] * dt, pos[1] + vel[1] * dt, pos[2] + vel[2] * dt)
        stance, touchdowns, per_pos, per_vel = self._observe(
            wheels, q_rows, dq_rows, t, rot, pitch, gyro, feet, foot_vel, contacts, pos_pred)
        position, velocity = self._fuse(pos_pred, vel, per_pos, per_vel)
        yaw, yaw_kin, yaw_err = self._yaw(t, roll, pitch, yaw, stance, feet)

        self._position, self._rpy, self._velocity = position, (roll, pitch, yaw), velocity
        self._stamp = t
        self.prev_contact = contacts
        self._last = (t, stance, touchdowns, yaw_kin, yaw_err)
        return self.state

    def step_block(self, frames):
        """Step a list of frames in order, yielding each frame's BodyState once
        the state has advanced through it, so that `diagnostics()` between two
        yields is that frame's record.

        The terms that depend on a frame alone are computed for the whole list
        at once, on columns: the attitude and its rotation rows, the leg
        kinematics with the wrench gate, and the contact flags. Each frame
        then goes through `step` with its terms, which advances the state as
        it does a frame it takes on floats. The estimator, every yielded
        state and record, the filter's status counts and any ValueError are
        those of `for fr in frames: step(fr)`: a frame that step would reject
        goes to step itself, after every frame before it has advanced. The
        stamp checks are made against the stamp held when the generator
        starts, so a step taken between two yields, which moves the stamp,
        makes the next resumption raise RuntimeError.
        """
        cfg = self.config
        # step's checks, up to the first frame that fails one: frame by frame
        # on its legs, stamp and wheels, on columns for att and gyro
        end = len(frames)
        last = self._stamp
        for k, fr in enumerate(frames):
            try:
                _check_frame(fr, len(cfg.legs), last)
            except ValueError:
                end = k
                break
            last = fr.stamp
        if end:
            _, att, gyro, joints = frame_columns(frames[:end])
            clean = (np.isfinite(att).all(axis=1) & att.any(axis=1)
                     & np.isfinite(gyro).all(axis=1))
            if not clean.all():
                end = int(np.argmin(clean))
                att, gyro, joints = att[:end], gyro[:end], joints[:end]
        if end:
            # an overflow here is the infinity step's float arithmetic gives
            # without a word
            with np.errstate(all="ignore"):
                roll, pitch, yaw = quat_to_rpy_columns(att)
                rot = rpy_rows(roll, pitch, yaw, np.cos, np.sin)
                r, v, f, ok = kernels.leg_columns(joints[:, 0], joints[:, 1], joints[:, 2],
                                                  self._leg_coef_columns, kernels.SIGMA_MIN)
                # _gate's flags, elementwise
                r20, r21, r22 = (c[:, None] for c in rot[2])
                contacts = ok & _gate_columns(r20 * f[..., 0] + r21 * f[..., 1] + r22 * f[..., 2],
                                              cfg.force_threshold)
                feet = r + self._hip_mount_columns
            # each frame's terms, taken to Python lists once; with the filter
            # on, step replaces the foot velocities from the rows of r
            rot = np.stack([c for row in rot for c in row], axis=1).reshape(-1, 3, 3)
            terms = zip(roll.tolist(), pitch.tolist(), yaw.tolist(), rot.tolist(),
                        gyro.tolist(), feet.tolist(), r if cfg.ikvel_enabled else v.tolist(),
                        contacts.tolist())
            last = self._stamp
            for fr, frame_terms in zip(frames, terms):
                if self._stamp != last:
                    raise RuntimeError("the estimator stepped to %r between two frames of a "
                                       "step_block" % (self._stamp,))
                yield self.step(fr, frame_terms)
                last = fr.stamp
        if end < len(frames):
            # step raises the frame's ValueError
            yield self.step(frames[end])
            yield from self.step_block(frames[end + 1:])

    # The stages of step, in order. Each takes and returns Python floats,
    # lists and tuples; numpy runs only in the attitude's arctan2 and arcsin,
    # in the velocity filter and in the SVD of a leg whose bound cannot clear
    # the wrench gate.

    def _attitude(self, att):
        """(roll, pitch, yaw, rotation rows) of the frame's attitude
        quaternion, given as a list of floats; step holds the yaw from the
        state when the IMU yaw channel is not trusted."""
        roll, pitch, yaw = _quat_rpy(*att)
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
            v_b = self.ikvel.update(t, frame.joints[0], frame.joints[1], r_b).tolist()
        feet = [(m0 + r0, m1 + r1, m2 + r2)
                for (m0, m1, m2), (r0, r1, r2) in zip(self._hip_mounts, r_b)]
        return q_rows, dq_rows, feet, v_b, f_b, ok

    def _gate(self, rot, forces, ok):
        """Per-leg stance flags from the vertical world-frame force; the row
        of the rotation this reads does not depend on yaw."""
        thr = self.config.force_threshold
        r20, r21, r22 = rot[2]
        # a loop: a comprehension would read r20, r21, r22 and thr through
        # closure cells, which is slower on CPython 3.11
        contacts = []
        for f, leg_ok in zip(forces, ok):
            contacts.append(leg_ok and contact.gate_contact(
                r20 * f[0] + r21 * f[1] + r22 * f[2], thr))
        return contacts

    def _observe(self, wheels, q_rows, dq_rows, t, rot, pitch, gyro, feet,
                 foot_vel, contacts, pos_pred):
        """The swing-to-stance transitions against the previous frame, wheel
        propagation, touchdowns through the plane store, and the anchored
        observations; the wheel stage reads the rows of the joint angles and
        rates, and runs only on a frame with wheel readings, the touchdown
        stage only on a frame with a touchdown. Returns the stance legs, the
        per-leg touchdown flags, and the stance legs' position and velocity
        observations, in leg order."""
        cfg = self.config
        records = self.records
        n = len(contacts)
        touchdowns = list(map(contact.detect_touchdown, self.prev_contact, contacts))
        touchdown = True in touchdowns
        heading = None
        if wheels:
            heading = wheel.heading_direction(rot)
            # wheel anchors of persisting stance legs advance by the effective
            # rolling increment (never on a touchdown frame: the cache is
            # fresh); the cache becomes the reading of a leg with a wheel, or
            # None at a touchdown without one
            for i in range(n):
                wr = wheels[i]
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
        elif touchdown:
            for i in range(n):
                if touchdowns[i]:
                    self.wheel_cache[i] = None

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
        stance = [i for i in range(n) if contacts[i]]
        obs = {}
        if touchdown:
            persisting = [i for i in stance if not touchdowns[i]]
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

        per_pos = []
        per_vel = []
        for i in stance:
            p, v = obs[i] if i in obs else leg_obs(i)
            per_pos.append(p)
            per_vel.append(v)
        return stance, touchdowns, per_pos, per_vel

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

    def diagnostics(self):
        """The diagnostics record of the last step, as a fresh
        JSON-serializable dict built on each call; {} before the first step.
        A step changes everything the record reads, and nothing else does,
        so the record is the same whenever between two steps it is built."""
        if self._last is None:
            return {}
        t, stance, touchdowns, yaw_kin, yaw_err = self._last
        return {
            "t": t,
            "n_contacts": len(stance),
            "contacts": list(stance),
            "touchdowns": [i for i, td in enumerate(touchdowns) if td],
            "anchors": [list(rec.anchor) if on else None
                        for rec, on in zip(self.records, self.prev_contact)],
            "planes": height.planes_to_json(self.planes),
            "yaw_kin": yaw_kin,
            "yaw_err": yaw_err,
            "mode": "fused" if stance else "predict",
        }


def create(config: EstimatorConfig = None) -> Estimator:
    return Estimator(config)


def step(handle: Estimator, frame: SensorFrame) -> BodyState:
    return handle.step(frame)


def diagnostics(handle: Estimator):
    return handle.diagnostics()


__all__ = ["BodyState", "SensorFrame", "frame_columns", "Estimator", "create", "step",
           "diagnostics"]
