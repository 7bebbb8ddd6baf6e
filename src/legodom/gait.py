"""Synthetic gait generator and stream degradation.

Prescribes exact body trajectories and footstep plans, inverts the leg
kinematics to produce joint streams, and synthesizes torque/IMU/wheel
channels, so the emitted sensor log has a bit-exact ground truth attached.
degrade() then layers controlled imperfections (quantization, spikes, yaw
drift, slip, touchdown transients) on top of a clean stream.

Both generators work on columns over all frames and run the leg kinematics
over blocks of frames. The static modes (stand, wheel_roll, wheel_swing,
hop) are closed-form in time. The trot evaluates its body path at every
stamp in one pass; its half-cycles only decide, per leg, which foothold it
stands on and when it swings, so the stance targets of every frame and leg
are one pass too, and each leg's swings are another, over all its
half-cycles at once. The swing curve's weights are a table of floats built
once per stream, because CPython's `x ** 2` (libm pow) and numpy's square do
not round alike. Rotated vectors are stacked matmuls, which numpy runs as
one gemv per item, as it does a single product; an elementwise sum would
round differently. The streams are bit-equal to the frame loops the
generators replaced (`tests/gait_reference.py`).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .estimator import BodyState, SensorFrame, frame_columns
from .geometry import (WheelReading, default_leg_geometries, cross3, rpy_to_quat,
                       quat_to_rpy_columns, wrap_angle)

GRAVITY = 9.81
TROT_PAIR_A = (0, 3)  # front-left with rear-right


class InfeasiblePlan(Exception):
    """Requested plan leaves the leg workspace; carries the first bad time."""

    def __init__(self, stamp, msg):
        super().__init__("t=%.4f: %s" % (stamp, msg))
        self.stamp = stamp


@dataclass
class StepTerrain:
    """A raised platform across x in [x0, x1]; body height ramps over `ramp`."""

    x0: float
    x1: float
    height: float
    ramp: float = 0.6

    def ground_z(self, x, y):
        """Ground height under each point of the columns x, y."""
        return np.where((self.x0 <= x) & (x <= self.x1), self.height, 0.0)

    def body_offset(self, x):
        """Body height offset and its d/dx over the column x: a smoothstep up
        the ramp before the platform, the height on it, a smoothstep down."""
        h, r = self.height, self.ramp
        branches = (x <= self.x0 - r) | (x >= self.x1 + r), x < self.x0, x > self.x1
        # a zero ramp divides by zero on branches it never selects
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            up = (x - (self.x0 - r)) / r
            down = (x - self.x1) / r
            off = np.select(branches, (0.0, h * up * up * (3 - 2 * up),
                                       h * (1 - down * down * (3 - 2 * down))), h)
            rate = np.select(branches, (0.0, h * 6 * up * (1 - up) / r,
                                        -h * 6 * down * (1 - down) / r), 0.0)
        return off, rate


@dataclass
class GaitPlan:
    mode: str = "trot"  # one of MODES
    legs: list = field(default_factory=default_leg_geometries)
    rate_hz: float = 250.0
    body_height: float = 0.30
    speed: float = 0.5
    step_period: float = 0.24
    step_height: float = 0.05
    stance_margin: float = 0.02  # extra lateral foothold offset
    double_support: float = 0.02  # swing lands this early, overlapping stances
    speed_ramp: float = 1.0  # trapezoidal accel/decel time at the path ends
    settle_time: float = 0.6
    mass: float = 15.0
    waypoints: list = field(default_factory=lambda: [(0.0, 0.0), (8.0, 0.0),
                                                     (8.0, 2.0), (0.0, 2.0),
                                                     (0.0, 0.0)])
    terrain: StepTerrain = None
    yaw_rate: float = 0.0
    turn_angle: float = 0.0
    duration: float = 10.0
    flight_window: tuple = None  # (t0, t1) for hop mode
    flight_speed: float = 0.3
    imperfections: dict = field(default_factory=dict)


@dataclass
class GaitResult:
    frames: list
    truth: list
    contacts: np.ndarray  # (n_frames, n_legs) bool


def preset_plan(name):
    """Built-in plans: flat_loop, stair_loop, standing, wheel_roll, plus the
    auxiliary walk_line, turn_in_place, wheel_swing, and hop."""
    if name == "flat_loop":
        return GaitPlan(mode="trot")
    if name == "stair_loop":
        # five laps over the step and back
        return GaitPlan(mode="trot", waypoints=[(0.0, 0.0), (3.6, 0.0)] * 5 + [(0.0, 0.0)],
                        body_height=0.27, speed=0.6, terrain=StepTerrain(1.2, 2.4, 0.1))
    if name == "standing":
        return GaitPlan(mode="stand", duration=12.0)
    if name == "wheel_roll":
        return GaitPlan(mode="wheel_roll", duration=10.0, speed=0.5,
                        legs=default_leg_geometries(wheel_radius=0.05))
    if name == "walk_line":
        return GaitPlan(mode="trot", rate_hz=500.0, speed=0.4,
                        waypoints=[(0.0, 0.0), (11.4, 0.0)])
    if name == "turn_in_place":
        return GaitPlan(mode="trot", yaw_rate=0.35, turn_angle=2 * np.pi,
                        waypoints=[(0.0, 0.0)])
    if name == "wheel_swing":
        return GaitPlan(mode="wheel_swing", duration=6.0,
                        legs=default_leg_geometries(wheel_radius=0.05))
    if name == "hop":
        return GaitPlan(mode="hop", duration=4.0, flight_window=(1.5, 2.1))
    raise ValueError("unknown preset %r" % name)


PRESETS = ("flat_loop", "stair_loop", "standing", "wheel_roll", "walk_line",
           "turn_in_place", "wheel_swing", "hop")
MODES = ("trot", "stand", "wheel_roll", "wheel_swing", "hop")


class _Path:
    """Arclength-parameterized piecewise-linear body path."""

    def __init__(self, waypoints):
        self.pts = np.asarray(waypoints, dtype=float)
        if self.pts.ndim != 2 or self.pts.shape[1] != 2:
            raise ValueError("waypoints must be (x, y) pairs")
        if len(self.pts) > 1:
            deltas = np.diff(self.pts, axis=0)
            seg_len = np.hypot(deltas[:, 0], deltas[:, 1])
            keep = seg_len > 0
            self.starts = self.pts[:-1][keep]
            self.dirs = deltas[keep] / seg_len[keep, None]
            self.seg_len = seg_len[keep]
        else:
            self.starts = np.zeros((0, 2))
            self.dirs = np.zeros((0, 2))
            self.seg_len = np.zeros(0)
        self.cum = np.concatenate([[0.0], np.cumsum(self.seg_len)])
        self.total = float(self.cum[-1])

    def at(self, s):
        """Positions and unit directions, each (N, 2), at the arclengths of
        the column s, clamped to the path."""
        if self.total == 0.0:
            return np.tile(self.pts[0], (len(s), 1)), np.zeros((len(s), 2))
        k = np.clip(np.searchsorted(self.cum, s, side="right") - 1, 0, len(self.seg_len) - 1)
        xy = self.starts[k] + self.dirs[k] * (s - self.cum[k])[:, None]
        xy[s <= 0.0] = self.starts[0]
        xy[s >= self.total] = self.starts[-1] + self.dirs[-1] * self.seg_len[-1]
        return xy, self.dirs[k]


def _swing_table(swing_frames, apex):
    """The swing curve's weights at u = j / swing_frames for each swing frame
    j, as columns: the cubic Hermite weights (h00, h10, h01, h11) of the
    position and (dh00, dh10, dh01, dh11) of its d/du, the sin^2 apex bump and
    its d/du. Velocity-matched endpoints keep joint rates continuous through
    touchdown, so encoder differencing sees no impact artifact on clean
    streams.

    The weights are computed on floats, once per stream: CPython's `x ** 2`
    (libm pow) and numpy's square do not round alike, and the bump keeps
    CPython's.
    """
    rows = []
    for j in range(swing_frames):
        u = j / swing_frames
        u2 = u * u
        u3 = u2 * u
        rows.append((2 * u3 - 3 * u2 + 1, u3 - 2 * u2 + u, -2 * u3 + 3 * u2, u3 - u2,
                     6 * u2 - 6 * u, 3 * u2 - 4 * u + 1, -6 * u2 + 6 * u, 3 * u2 - 2 * u,
                     apex * math.sin(math.pi * u) ** 2,
                     apex * math.pi * math.sin(2 * math.pi * u)))
    return np.array(rows).T


def _swing_curve(w, p0, p1, m0, m1):
    """Hermite position (or, with the derivative weights, d/du) of swings
    between hip-frame targets p0, p1 with end rates m0, m1, each (S, 3), at
    the weights w of _swing_table: (S, n, 3), the products and sums in the
    order of the per-frame curve."""
    w = w[:, None, :, None]
    p0, p1, m0, m1 = (a[:, None] for a in (p0, p1, m0, m1))
    return w[0] * p0 + w[1] * m0 + w[2] * p1 + w[3] * m1


# frames per block of the batched leg kinematics; bounds the transient
# (legs, frames) arrays of a block, such as leg_kinematics' 12 entry rows
_BLOCK = 256

# the most frames one generated stream may hold (over an hour at 250 Hz)
MAX_FRAMES = 1_000_000


def _check_frames(n):
    """ValueError when n frames, a float or an int, exceed MAX_FRAMES or are
    not a number; run before a float count becomes an int or an array size."""
    if not n <= MAX_FRAMES:
        raise ValueError("plan needs %.6g frames, more than the %d a stream may hold"
                         % (n, MAX_FRAMES))


def _blocks(n_frames):
    return [slice(k0, k0 + _BLOCK) for k0 in range(0, n_frames, _BLOCK)]


def _leg_params(legs):
    """(lh, lt, lc, rw, side, l2) of a list of legs, each an (L,) array."""
    lh, lt, lc, rw, side = (np.array(p) for p in zip(*(g.kernel_args() for g in legs)))
    return lh, lt, lc, rw, side, np.array([g.l2 for g in legs])


def _stance_torques(J, load, stance):
    """Joint torques J^T load of the stance legs, zeros for the others.

    J is (F, L, 3, 3), load (F, 3) the body-frame force on each stance foot
    and stance (F, L).
    """
    tau = (np.swapaxes(J, -1, -2) @ load[:, None, :, None])[..., 0]
    return np.where(stance[..., None], tau, 0.0)


def _solve_legs(legs, stamps, rel, rel_rate, load, stance):
    """Joint angles, rates and torques hitting body-frame hip-to-foot targets.

    rel and rel_rate are (F, L, 3) targets and their rates; load and stance
    are as in _stance_torques. Raises InfeasiblePlan at the first failing
    frame and leg in loop order, with the first check failing there:
    overshoot, IK branch mismatch, singular configuration.
    """
    lh, lt, lc, rw, side, l2 = _leg_params(legs)
    coef = kernels.leg_coefficients(lh, lt, lc, rw, side)
    q, dq, tau = (np.empty_like(rel) for _ in range(3))
    for blk in _blocks(len(rel)):
        target = rel[blk]
        *angles, viol = kernels.ik_joints_array(*np.moveaxis(target, -1, 0),
                                                lh, lt, l2, side)
        q[blk] = np.stack(angles, axis=-1)
        # the foot velocities are not needed; zero rates stand in for them
        back, J, _ = kernels.leg_kinematics(q[blk], np.zeros_like(target), coef)
        checks = (viol > 1e-9,
                  np.max(np.abs(back - target), axis=-1) > 1e-6,
                  np.abs(np.linalg.det(J)) < 1e-10)
        failed = np.logical_or.reduce(checks)
        if failed.any():
            k, i = np.argwhere(failed)[0]
            msgs = ("foot target outside workspace (overshoot %g)" % viol[k, i],
                    "IK branch mismatch at target %s" % target[k, i],
                    "singular leg configuration")
            raise InfeasiblePlan(stamps[blk.start + k],
                                 next(m for c, m in zip(checks, msgs) if c[k, i]))
        # no J of the block is singular here, so the stacked solve cannot fail
        dq[blk] = np.linalg.solve(J, rel_rate[blk][..., None])[..., 0]
        tau[blk] = _stance_torques(J, load[blk], stance[blk])
    return q, dq, tau


class _SpeedProfile:
    """Trapezoidal arclength profile: ramp up, cruise, ramp down."""

    def __init__(self, total, v, ramp):
        self.total = total
        if total <= 0.0 or v <= 0.0:
            self.duration = 0.0
            return
        accel = v / ramp if ramp > 0 else float("inf")
        if ramp <= 0.0:
            self.v, self.ramp, self.accel = v, 0.0, float("inf")
            self.duration = total / v
        elif total >= v * ramp:
            self.v, self.ramp, self.accel = v, ramp, accel
            self.duration = total / v + ramp
        else:
            # short path: triangular profile at reduced peak speed
            self.ramp = math.sqrt(total / accel)
            self.v = accel * self.ramp
            self.accel = accel
            self.duration = 2.0 * self.ramp

    def at(self, tw):
        """(arclength, speed) columns at the times tw since motion start, clamped."""
        if self.total <= 0.0 or self.duration == 0.0:
            return np.zeros_like(tw), np.zeros_like(tw)
        tw = np.minimum(np.maximum(tw, 0.0), self.duration)
        if self.ramp == 0.0:
            return self.v * tw, np.where((0 < tw) & (tw < self.duration), self.v, 0.0)
        rem = self.duration - tw
        phases = tw < self.ramp, tw <= self.duration - self.ramp
        return (np.select(phases, (0.5 * self.accel * tw * tw,
                                   0.5 * self.v * self.ramp + self.v * (tw - self.ramp)),
                          self.total - 0.5 * self.accel * rem * rem),
                np.select(phases, (self.accel * tw, self.v), self.accel * rem))


def frames_per_step(step_period, rate_hz):
    """Frames per trot half-cycle; ValueError unless step_period spans a whole
    number (at least 2) of frames at rate_hz."""
    n = step_period * rate_hz
    fps = int(round(n)) if math.isfinite(n) else 0
    if fps < 2 or abs(fps - n) > 1e-9:
        raise ValueError("step_period must be an integer number of frames")
    return fps


def _rotations_z(yaw):
    """The rotation about z by each yaw of a column, stacked (N, 3, 3)."""
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.zeros((len(yaw), 3, 3))
    rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 0], rot[:, 1, 1] = c, -s, s, c
    rot[:, 2, 2] = 1.0
    return rot


def _apply(mat, vec):
    """mat @ vec over stacked (..., n, n) and (..., n) arrays. numpy runs one
    gemv per item, as for a single (n, n) @ (n,), so each item keeps the bits
    of the per-item product (an elementwise sum does not)."""
    return (mat @ vec[..., None])[..., 0]


def _stance_targets(foot, pos, vel, rot, yawrate, hip):
    """Hip-to-foot targets of feet planted at world points foot (N, L, 3), and
    their rates under the body's motion: pos, vel (N, 3), rot (N, 3, 3) the
    world-from-body rotations, yawrate (N,), hip (L, 3) the hip mounts."""
    rot_t = np.swapaxes(rot, 1, 2)
    rel = _apply(rot_t[:, None], foot - pos[:, None])
    swirl = cross3((0.0, 0.0, yawrate[:, None]), np.moveaxis(rel, -1, 0))
    return rel - hip, -_apply(rot_t, vel)[:, None] - np.stack(swirl, axis=-1)


def _generate_trot(plan):
    """The trot as array passes: the body path at every stamp, the footholds
    and landing states of every half-cycle, the stance targets of every frame
    and leg, then the swing curves written over the swing frames."""
    dt = 1.0 / plan.rate_hz
    sp = plan.step_period
    fps = frames_per_step(sp, plan.rate_hz)  # frames per half-cycle
    path = _Path(plan.waypoints)
    turning = plan.turn_angle > 0.0 and plan.yaw_rate > 0.0
    profile = _SpeedProfile(path.total, plan.speed, plan.speed_ramp)
    if turning:
        move_time = plan.turn_angle / plan.yaw_rate
    else:
        move_time = profile.duration
    _check_frames(move_time * plan.rate_hz + 2.0 * plan.settle_time * plan.rate_hz)
    n_half = max(2, int(math.ceil(move_time / sp - 1e-9)) + 2)
    k_walk0 = int(round(plan.settle_time * plan.rate_hz))
    k_walk1 = k_walk0 + n_half * fps
    n_frames = k_walk1 + int(round(plan.settle_time * plan.rate_hz)) + 1
    _check_frames(n_frames)
    n_legs = len(plan.legs)
    if n_legs <= max(TROT_PAIR_A):
        raise ValueError("a trot needs at least %d legs, got %d" % (max(TROT_PAIR_A) + 1, n_legs))
    if plan.double_support < 0.0:
        raise ValueError("double_support must not be negative, got %r" % plan.double_support)
    swing_frames = fps - int(round(plan.double_support * plan.rate_hz))
    if swing_frames < 2:
        raise ValueError("double_support leaves no room for the swing")
    swing_time = swing_frames * dt

    def body_at(t):
        """pos, vel (N, 3), the world-from-body rotations (N, 3, 3), yaw and
        yaw rate (N,) at the times t (N,)."""
        since = t - plan.settle_time
        tw = np.minimum(np.maximum(since, 0.0), move_time)
        moving = (0.0 < since) & (since < move_time)
        pos, vel = np.zeros((len(t), 3)), np.zeros((len(t), 3))
        pos[:, 2] = plan.body_height
        if turning:
            pos[:, :2] = path.pts[0]
            yaw = plan.yaw_rate * tw
            yawrate = np.where(moving, plan.yaw_rate, 0.0)
        else:
            s, speed = profile.at(tw)
            pos[:, :2], d = path.at(s)
            vel[:, :2] = np.where(moving[:, None], speed[:, None] * d, 0.0)
            yaw = yawrate = np.zeros(len(t))
        if plan.terrain is not None:
            off, doff = plan.terrain.body_offset(pos[:, 0])
            pos[:, 2] = plan.body_height + off
            vel[:, 2] = doff * vel[:, 0]
        yaw = wrap_angle(yaw)
        return pos, vel, _rotations_z(yaw), yaw, yawrate

    # half-cycle h starts at frame k0[h]; its lifting pair lands at t_land[h]
    # on footholds placed where the body will be half a step later. Hold 0 is
    # every leg's first foothold, hold h + 1 the one it lands on in half h.
    halves = np.arange(n_half)
    k0 = k_walk0 + halves * fps
    t_land = plan.settle_time + halves * sp + swing_time
    t_hold = np.concatenate([[0.0], t_land]) + sp / 2.0
    frame = np.arange(n_frames)
    t = frame * dt
    body, landing, hold = zip(*(np.split(c, (n_frames, n_frames + n_half))
                                for c in body_at(np.concatenate([t, t_land, t_hold]))))
    pos, vel, rot, yaw, yawrate = body

    hip = np.array([g.hip_mount for g in plan.legs])
    offset = np.array([(g.hip_mount[0], g.hip_mount[1] + g.side_sign
                        * (g.hip_offset_len + plan.stance_margin)) for g in plan.legs])
    pos_h, _, rot_h, _, _ = hold
    holds = np.empty((n_half + 1, n_legs, 3))
    holds[..., :2] = pos_h[:, None, :2] + _apply(rot_h[:, None, :2, :2], offset)
    holds[..., 2] = (plan.terrain.ground_z(holds[..., 0], holds[..., 1])
                     if plan.terrain is not None else 0.0)

    # the half-cycle bookkeeping, per leg: the pair of TROT_PAIR_A lifts in
    # even half-cycles and the others in odd ones. A leg stands on its last
    # committed hold, then swings from it and stands on the new hold from its
    # landing frame on: through double support and into the next half-cycles
    foot = np.empty((n_frames, n_legs, 3))
    contacts = np.ones((n_frames, n_legs), dtype=bool)
    lifts = [halves[int(i not in TROT_PAIR_A)::2] for i in range(n_legs)]
    swing_rows = [k0[h][:, None] + np.arange(swing_frames) for h in lifts]
    for i, (h, rows) in enumerate(zip(lifts, swing_rows)):
        committed = np.searchsorted(k0[h] + swing_frames, frame, side="right")
        foot[:, i] = holds[np.concatenate([[0], h + 1])[committed], i]
        contacts[rows, i] = False

    rel, rel_rate = _stance_targets(foot, pos, vel, rot, yawrate, hip)
    pos_l, vel_l, rot_l, _, yawrate_l = landing
    land, land_rate = _stance_targets(holds[1:], pos_l, vel_l, rot_l, yawrate_l, hip)
    table = _swing_table(swing_frames, plan.step_height)
    for i, (h, rows) in enumerate(zip(lifts, swing_rows)):
        # each swing runs from the stance target at its first frame, where the
        # leg still stands on its old hold, to the landing target on its new
        # one, both in the hip frame, so the foot never crosses the hip roll
        # axis while the body moves
        ends = (rel[k0[h], i], land[h, i],
                swing_time * rel_rate[k0[h], i], swing_time * land_rate[h, i])
        swing, swing_rate = _swing_curve(table[:4], *ends), _swing_curve(table[4:8], *ends)
        swing[..., 2] += table[8]
        swing_rate[..., 2] += table[9]
        rel[rows, i] = swing
        rel_rate[rows, i] = swing_rate / swing_time

    f_share = np.zeros((n_frames, 3))
    f_share[:, 2] = -plan.mass * GRAVITY / contacts.sum(axis=1)
    load = _apply(np.swapaxes(rot, 1, 2), f_share)
    stamps = t.tolist()
    # one (F, 3, L, 3) array; each frame's joints are a view into it
    joints = np.stack(_solve_legs(plan.legs, stamps, rel, rel_rate, load, contacts), axis=1)
    # (F, 4) and (F, 3) arrays; each frame's att and gyro are views into them
    att = rpy_to_quat(0.0, 0.0, yaw).T.copy()
    gyro = np.zeros((n_frames, 3))
    gyro[:, 2] = yawrate
    rpy = np.zeros((n_frames, 3))
    rpy[:, 2] = yaw
    frames = list(map(SensorFrame, stamps, att, gyro, joints))
    return GaitResult(frames, list(map(BodyState, pos, rpy, vel, stamps)), contacts)


_STAND_Q = np.array([0.0, 0.8, -1.6])


def _generate_static(plan):
    """stand / wheel_roll / wheel_swing / hop: the standing pose, closed-form
    in time. Every channel is a column over all frames (F, ...), wheel angles
    wrapped too, and the frames and states hold row views into them."""
    dt = 1.0 / plan.rate_hz
    _check_frames(plan.duration / dt + 1)
    n_frames = int(round(plan.duration / dt)) + 1
    n_legs = len(plan.legs)
    t = np.arange(n_frames) * dt
    pos = np.zeros((n_frames, 3))
    pos[:, 2] = plan.body_height
    vel = np.zeros((n_frames, 3))
    airborne = np.zeros(n_frames, dtype=bool)
    q = np.tile(_STAND_Q, (n_frames, n_legs, 1))
    dq = np.zeros((n_frames, n_legs, 3))
    wheeled = [i for i, g in enumerate(plan.legs) if g.wheel_radius > 0.0]
    psi = dpsi = np.zeros((n_frames, len(wheeled)))
    if plan.mode == "hop" and plan.flight_window is not None:
        t0, t1 = plan.flight_window
        pos[:, 0] += plan.flight_speed * np.minimum(np.maximum(t - t0, 0.0), t1 - t0)
        airborne = (t0 <= t) & (t < t1)
        vel[airborne, 0] = plan.flight_speed
    elif plan.mode == "wheel_roll":
        pos[:, 0] += plan.speed * t
        vel[:, 0] = plan.speed
        rate = plan.speed / np.array([plan.legs[i].wheel_radius for i in wheeled])
        psi = rate * t[:, None]
        dpsi = np.broadcast_to(rate, psi.shape)
    elif plan.mode == "wheel_swing":
        amp, w = 0.3, 2.0 * np.pi / 2.0
        q[..., 1] += (amp * np.sin(w * t))[:, None]
        dq[..., 1] = (amp * w * np.cos(w * t))[:, None]
        # wheel pinned: encoder follows the shank pitch exactly
        psi = (q[:, wheeled, 1] + q[:, wheeled, 2]) - (_STAND_Q[1] + _STAND_Q[2])
        dpsi = dq[:, wheeled, 1] + dq[:, wheeled, 2]

    contacts = np.repeat(~airborne[:, None], n_legs, axis=1)
    load = np.zeros((n_frames, 3))
    load[~airborne, 2] = -plan.mass * GRAVITY / n_legs
    coef = kernels.leg_coefficients(*_leg_params(plan.legs)[:5])
    tau = np.empty_like(q)
    for blk in _blocks(n_frames):
        _, J, _ = kernels.leg_kinematics(q[blk], dq[blk], coef)
        tau[blk] = _stance_torques(J, load[blk], contacts[blk])

    joints = np.stack((q, dq, tau), axis=1)
    att = np.tile(rpy_to_quat(0.0, 0.0, 0.0), (n_frames, 1))
    gyro, rpy = np.zeros((n_frames, 3)), np.zeros((n_frames, 3))
    wheels = [None] * n_frames
    if wheeled:
        wheels = [[None] * n_legs for _ in range(n_frames)]
        for row, psi_k, dpsi_k in zip(wheels, wrap_angle(psi).tolist(), dpsi.tolist()):
            for i, a, b in zip(wheeled, psi_k, dpsi_k):
                row[i] = WheelReading(a, b)
    stamps = t.tolist()
    return GaitResult(list(map(SensorFrame, stamps, att, gyro, joints, wheels)),
                      list(map(BodyState, pos, rpy, vel, stamps)), contacts)


def generate_gait(plan: GaitPlan) -> GaitResult:
    """Produce a clean sensor stream plus its ground truth for a plan.

    Stance feet are exactly stationary in the world (wheel modes roll exactly
    at the commanded rate), joints come from the analytic IK, torques realize
    an equal split of body weight over the stance set, and the IMU channels
    are exact. Raises InfeasiblePlan with the first violating timestamp.
    """
    if plan.mode == "trot":
        return _generate_trot(plan)
    if plan.mode in MODES:
        return _generate_static(plan)
    raise ValueError("unknown gait mode %r" % plan.mode)


def degrade(frames, imperfections, seed=0, contacts=None, legs=None):
    """Overlay sensing imperfections on a clean stream (input left untouched;
    the output shares no array with it).

    imperfections keys (absent or zero = identity):
      encoder_quantum: floor joint angles to this grid, then recompute joint
        rates by differencing the quantized angles (first frame keeps its
        original rates)
      rate_spikes: (prob, gain) multiplicative spikes on individual joint rates
      yaw_drift: rad/s integrated into the attitude yaw channel
      wheel_slip: wheel rate channel scaled by (1 + slip)
      touchdown_height_noise: amplitude a; each touchdown after stream start
        perturbs that leg's sensed foot height by U(-a, a) for the first few
        stance frames (an impact transient); needs contacts and legs

    The frames' stamps, att, gyro and joints are read once into (F,), (F, 4),
    (F, 3) and (F, 3, L, 3) arrays by `estimator.frame_columns`, the column
    reader the log writer shares, so every frame must have the same legs.
    Each imperfection but the wheel slip is a column pass over them (the yaw
    drift bit-equal to quat_to_rpy and rpy_to_quat frame by frame), and each
    output frame's att, gyro and joints are row views. Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    if not frames:
        return []
    stamps, att, gyro, joints = frame_columns(frames)
    q, dq = joints[:, 0], joints[:, 1]  # (F, L, 3) views into the stack

    noise_amp = float(imperfections.get("touchdown_height_noise", 0.0) or 0.0)
    if noise_amp > 0.0:
        if contacts is None or legs is None:
            raise ValueError("touchdown_height_noise needs contacts and legs")
        n_transient = 3
        contacts = np.asarray(contacts, dtype=bool)
        hits = []  # (frame, leg, height offset) of each perturbed reading
        for i in range(contacts.shape[1]):
            col = contacts[:, i]
            rises = np.flatnonzero(col[1:] & ~col[:-1]) + 1
            for k0 in rises:
                delta = rng.uniform(-noise_amp, noise_amp)
                for k in range(k0, min(k0 + n_transient, len(frames))):
                    if not col[k]:
                        break
                    hits.append((k, i, delta))
        if hits:
            ks, idx, dz = (np.array(c) for c in zip(*hits))
            lh, lt, lc, rw, side, l2 = (p[idx] for p in _leg_params(legs))
            q_hit = q[ks, idx]
            coef = kernels.leg_coefficients(lh, lt, lc, rw, side)
            foot = kernels.leg_kinematics(q_hit, np.zeros_like(q_hit), coef)[0]
            *angles, viol = kernels.ik_joints_array(
                foot[:, 0], foot[:, 1], foot[:, 2] + dz, lh, lt, l2, side)
            ok = ~(viol > 1e-9)
            q[ks[ok], idx[ok]] = np.stack(angles, axis=-1)[ok]

    quantum = float(imperfections.get("encoder_quantum", 0.0) or 0.0)
    if quantum > 0.0:
        q[:] = np.floor(q / quantum) * quantum
        dq[1:] = (q[1:] - q[:-1]) / np.diff(stamps)[:, None, None]

    spikes = imperfections.get("rate_spikes")
    if spikes:
        prob, gain = spikes
        if prob > 0.0:
            # drawn frame by frame, leg by leg, joint by joint: a seed's
            # stream depends on this order
            hit = rng.random(dq.shape) < prob
            dq[:] = np.where(hit, dq * gain, dq)

    drift = float(imperfections.get("yaw_drift", 0.0) or 0.0)
    if drift != 0.0:
        # an overflowing drift gives NaN attitudes, silently, as on floats
        with np.errstate(over="ignore", invalid="ignore"):
            roll, pitch, yaw = quat_to_rpy_columns(att)
            yaw = wrap_angle(yaw + drift * (stamps - stamps[0]))
            att = rpy_to_quat(roll, pitch, yaw).T.copy()
    scale = 1.0 + float(imperfections.get("wheel_slip", 0.0) or 0.0)
    wheels = [None if fr.wheels is None else
              [None if w is None else WheelReading(w.psi, w.dpsi * scale) for w in fr.wheels]
              for fr in frames]
    return list(map(SensorFrame, (fr.stamp for fr in frames), att, gyro, joints, wheels))


__all__ = ["GaitPlan", "GaitResult", "StepTerrain", "InfeasiblePlan",
           "preset_plan", "PRESETS", "MODES", "generate_gait", "degrade", "frames_per_step",
           "GRAVITY"]
