"""The closed-form static generator pinned bit for bit to the per-frame loop
it replaced (`tests/gait_reference.py`)."""

import numpy as np
import pytest

from legodom import gait
from legodom.geometry import default_leg_geometries

import gait_reference as ref

DT = 1.0 / 250.0


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


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
