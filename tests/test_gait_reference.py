"""The closed-form static generator, the array-pass trot and the column
`degrade` pinned bit for bit to the per-frame loops they replaced
(`tests/gait_reference.py`)."""

import re

import numpy as np
import pytest

from legodom import gait
from legodom.estimator import SensorFrame
from legodom.geometry import (default_leg_geometries, quat_to_rpy, quat_to_rpy_columns,
                              rpy_to_quat, wrap_angle)
from legodom.logio import encode_json, frame_to_dict, write_frames

import gait_reference as ref

DT = 1.0 / 250.0


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _log_lines(frames):
    """The log line of each frame: the bytes a log holds, so -0.0 and 0.0
    differ and a NaN compares equal to itself."""
    return [encode_json(frame_to_dict(fr)) for fr in frames]


def _wheel_bits(frame):
    if frame.wheels is None:
        return None
    return [None if w is None else _bits([w.psi, w.dpsi]) for w in frame.wheels]


def assert_bit_equal(new, old):
    assert new.contacts.dtype == old.contacts.dtype
    assert np.array_equal(new.contacts, old.contacts)
    assert len(new.frames) == len(old.frames) == len(new.truth) == len(old.truth)
    for channel in ("stamp", "att", "gyro"):
        assert _bits([getattr(f, channel) for f in new.frames]) == \
            _bits([getattr(f, channel) for f in old.frames]), channel
    for channel in ("q", "dq", "tau"):
        assert _bits([[getattr(leg, channel) for leg in f.legs] for f in new.frames]) == \
            _bits([[getattr(leg, channel) for leg in f.legs] for f in old.frames]), channel
    assert [_wheel_bits(f) for f in new.frames] == [_wheel_bits(f) for f in old.frames]
    for channel in ("stamp", "position", "rpy", "velocity"):
        assert _bits([getattr(s, channel) for s in new.truth]) == \
            _bits([getattr(s, channel) for s in old.truth]), channel
    assert all(type(s.stamp) is float for s in new.truth)


def _plans():
    for mode in ("stand", "wheel_roll", "wheel_swing", "hop"):
        for radius in (0.0, 0.05):
            yield "%s-r%g" % (mode, radius), gait.GaitPlan(
                mode=mode, duration=1.0, flight_window=(0.4, 0.7),
                legs=default_leg_geometries(wheel_radius=radius))
    for speed, duration in ((0.495, 0.5), (0.5, 1.3), (0.505, 0.7),
                            (1.7, 0.9), (-0.3, 0.6)):
        plan = gait.preset_plan("wheel_roll")
        plan.speed, plan.duration = speed, duration
        yield "wheel_roll-%g-%g" % (speed, duration), plan
    # hop windows whose ends fall on frame stamps and between them
    for ends in ((100 * DT, 150 * DT), (100.5 * DT, 149.5 * DT), (100 * DT, 149.5 * DT)):
        plan = gait.preset_plan("hop")
        plan.duration, plan.flight_window = 1.0, ends
        yield "hop-%.4f-%.4f" % ends, plan
    plan = gait.preset_plan("hop")
    plan.duration, plan.flight_window = 0.6, None
    yield "hop-no-window", plan


PLANS = dict(_plans())


@pytest.mark.parametrize("name", sorted(PLANS))
def test_static_generator_matches_the_frozen_frame_loop(name):
    plan = PLANS[name]
    assert_bit_equal(gait.generate_gait(plan), ref._generate_static(plan))


def _truth_bits(truth):
    return _bits([[s.stamp, *s.position, *s.rpy, *s.velocity] for s in truth])


@pytest.mark.parametrize("preset", ["flat_loop", "stair_loop", "walk_line", "turn_in_place"])
def test_trot_matches_the_frozen_frame_loop(stream, tmp_path, preset):
    plan, new, _ = stream(preset)
    old = ref._generate_trot(plan)
    # the log lines, through the column writer that test_logio pins to them
    write_frames(tmp_path / "new.jsonl", new.frames)
    write_frames(tmp_path / "old.jsonl", old.frames)
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()
    assert _truth_bits(new.truth) == _truth_bits(old.truth)
    assert all(type(s.stamp) is float for s in new.truth)
    assert new.contacts.dtype == old.contacts.dtype
    assert np.array_equal(new.contacts, old.contacts)


def _trot_plans():
    """Short trots through the corners of the path, the speed profile, the
    terrain and the half-cycle timing, as changes to a 0.5 m line."""
    yield "no-settle", dict(settle_time=0.0)
    yield "no-speed-ramp", dict(speed_ramp=0.0)
    # a path shorter than speed * ramp: a triangular profile
    yield "triangular", dict(waypoints=[(0.0, 0.0), (0.2, 0.0)])
    yield "no-double-support", dict(double_support=0.0)
    # backwards and diagonal, through a repeated waypoint
    yield "reverse-diagonal", dict(waypoints=[(0.3, 0.2), (-0.1, 0.2), (-0.1, 0.2),
                                              (-0.4, -0.1)], speed=0.3)
    yield "standing-still", dict(waypoints=[(0.2, -0.1)])
    yield "turn-on-a-ramp", dict(waypoints=[(0.0, 0.0)], yaw_rate=0.5, turn_angle=1.0,
                                 terrain=gait.StepTerrain(0.1, 0.5, 0.03))
    # over and off a platform, with and without a ramp, and into a pit
    yield "step-up-and-down", dict(waypoints=[(0.0, 0.0), (0.9, 0.0)],
                                   terrain=gait.StepTerrain(0.3, 0.5, 0.04, 0.2))
    yield "sheer-step", dict(terrain=gait.StepTerrain(0.2, 0.35, 0.02, 0.0))
    yield "pit", dict(terrain=gait.StepTerrain(0.1, 0.3, -0.03, 0.1))
    yield "500-hz", dict(rate_hz=500.0, step_period=0.2, step_height=0.06)
    yield "six-legs", dict(legs=default_leg_geometries() + default_leg_geometries()[:2])


TROT_PLANS = {name: gait.GaitPlan(**{"waypoints": [(0.0, 0.0), (0.5, 0.0)],
                                      "settle_time": 0.2, **changes})
              for name, changes in _trot_plans()}


@pytest.mark.parametrize("name", sorted(TROT_PLANS))
def test_trot_plans_match_the_frozen_frame_loop(name):
    plan = TROT_PLANS[name]
    assert_bit_equal(gait.generate_gait(plan), ref._generate_trot(plan))


@pytest.mark.parametrize("preset, key, value, message", [
    ("flat_loop", "speed", 40.0, "t=0.6600: foot target outside workspace"),
    ("walk_line", "step_height", 0.5, "t=0.6780: IK branch mismatch"),
])
def test_infeasible_trots_fail_like_the_frozen_frame_loop(preset, key, value, message):
    plan = gait.preset_plan(preset)
    setattr(plan, key, value)
    with pytest.raises(gait.InfeasiblePlan) as old:
        ref._generate_trot(plan)
    with pytest.raises(gait.InfeasiblePlan) as new:
        gait.generate_gait(plan)
    assert str(new.value) == str(old.value) and str(new.value).startswith(message)
    assert new.value.stamp == old.value.stamp


# per seed, a yaw drift rate that wraps the yaw across +-pi several times in
# each stream (the standing stream is 12 s long)
DRIFTS = (1.7, -2.9, 4.4)
# stair_loop is cut to its first frames, over the step and back, to bound the
# cost of the frozen loop; the golden digests cover its whole stream
STAIR_FRAMES = 4000


def _with_att(frames, changes):
    """frames, with the att of frame k replaced by att for each (k, att)."""
    frames = list(frames)
    for k, att in changes:
        fr = frames[k]
        frames[k] = SensorFrame(fr.stamp, att, fr.gyro, fr.joints, fr.wheels)
    return frames


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("preset", ["standing", "wheel_roll", "stair_loop"])
def test_degrade_matches_the_frozen_frame_loop(stream, preset, seed):
    plan, res, frames = stream(preset)
    n = STAIR_FRAMES if preset == "stair_loop" else len(frames)
    # a quaternion of twice unit norm and a short one are normalised on use
    frames = _with_att(frames[:n], [(5, 2.0 * frames[5].att),
                                    (7, np.array([1e-3, 0.0, 0.0, 0.0]))])
    imperfections = {"yaw_drift": DRIFTS[seed], "encoder_quantum": 1e-3,
                     "rate_spikes": (0.05, 5.0), "wheel_slip": 0.03}
    if preset == "stair_loop":
        imperfections["touchdown_height_noise"] = 0.02
    args = (frames, imperfections, seed, res.contacts[:n], plan.legs)
    new, old = gait.degrade(*args), ref.degrade(*args)
    assert _log_lines(new) == _log_lines(old)
    # the drifted yaw wraps across +-pi several times
    yaw = [quat_to_rpy(fr.att)[2] for fr in new]
    assert np.sum(np.abs(np.diff(yaw)) > np.pi) >= 3


@pytest.mark.parametrize("drift", [0.0, 0.3])
def test_degrade_of_a_zero_quaternion_raises_only_with_drift(stream, drift):
    _, _, frames = stream("standing")
    frames = _with_att(frames[:20], [(9, np.zeros(4))])
    if drift == 0.0:
        new, old = gait.degrade(frames, {}), ref.degrade(frames, {})
        assert new[9].att.tolist() == [0.0, 0.0, 0.0, 0.0]
        assert _log_lines(new) == _log_lines(old)
        return
    with pytest.raises(ValueError) as old:
        ref.degrade(frames, {"yaw_drift": drift})
    with pytest.raises(ValueError, match=re.escape(str(old.value))):
        gait.degrade(frames, {"yaw_drift": drift})


def test_float_and_column_forms_match_the_frozen_helpers():
    rng = np.random.default_rng(7)
    angles = np.concatenate([rng.uniform(-40.0, 40.0, 20_000), [0.0, -0.0, np.pi, -np.pi,
                                                                 3 * np.pi, np.nan]])
    frozen = [ref.wrap_angle(a) for a in angles.tolist()]
    assert _bits([wrap_angle(a) for a in angles.tolist()]) == _bits(frozen)
    assert _bits(wrap_angle(angles)) == _bits(frozen)
    assert type(wrap_angle(np.array(angles[0]))) is float
    quats = rng.normal(size=(5_000, 4))
    quats[::2] /= np.linalg.norm(quats[::2], axis=1)[:, None]
    # at a pitch of +-pi/2 the pitch sine rounds past 1 in some rows, which
    # the clip bounds; a row that is not finite takes the float path
    gimbal = [rpy_to_quat(r, s * np.pi / 2, y)
              for r, y in rng.uniform(-3.0, 3.0, (200, 2)) for s in (1, -1)]
    quats = np.concatenate([quats, gimbal, [[np.nan, 0.0, 0.0, 1.0], [np.inf, 0.0, 0.0, 0.0]]])
    frozen = [ref.quat_to_rpy(q) for q in quats]
    assert _bits([quat_to_rpy(q) for q in quats]) == _bits(frozen)
    assert _bits(quat_to_rpy_columns(quats).T) == _bits(frozen)
