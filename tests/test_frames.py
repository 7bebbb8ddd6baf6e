"""The frame layout: a frame's joint readings are one float64 (3, legs, 3)
array, `SensorFrame.joints`, indexed by channel (q, dq, tau), leg and joint,
from the log reader and the generator through degrade to the leg kernel."""

import re

import numpy as np
import pytest

from legodom import (Estimator, EstimatorConfig, JointReading, SensorFrame,
                     degrade, generate_gait, kernels, preset_plan)
from legodom.logio import frame_from_dict, frame_to_dict, read_frames, write_frames


def _short(name):
    plan = preset_plan(name)
    if plan.mode == "trot":
        plan.waypoints = [(0.0, 0.0), (0.3, 0.0)]
        plan.settle_time = 0.1
    else:
        plan.duration = 0.2
    return plan


def _assert_layout(frames, n_legs=4):
    for fr in frames:
        assert isinstance(fr.joints, np.ndarray)
        assert fr.joints.dtype == np.float64 and fr.joints.shape == (3, n_legs, 3)
        legs = fr.legs
        assert len(legs) == n_legs
        for i, leg in enumerate(legs):
            assert isinstance(leg, JointReading)
            assert np.array_equal(np.stack(leg), fr.joints[:, i])
            # views, not copies
            assert all(np.shares_memory(part, fr.joints) for part in leg)


@pytest.mark.parametrize("shape", [(4, 3), (3, 4), (4, 4, 3), (3, 4, 2), (2, 4, 3),
                                   (3, 4, 3, 1), ()])
def test_joints_of_another_shape_raise_naming_the_shape(shape):
    with pytest.raises(ValueError, match=re.escape(
            "joints must have shape (3, legs, 3), got %s" % (shape,))):
        SensorFrame(0.0, [1.0, 0.0, 0.0, 0.0], np.zeros(3), np.zeros(shape))


def test_generated_frames_hold_one_joint_array():
    for name in ("walk_line", "standing", "wheel_roll"):
        frames = generate_gait(_short(name)).frames
        _assert_layout(frames)
        # every frame is a view into one array of the stream
        assert frames[0].joints.base is frames[-1].joints.base is not None


def test_parsed_and_degraded_frames_hold_one_joint_array():
    plan = _short("walk_line")
    res = generate_gait(plan)
    out = degrade(res.frames, {"encoder_quantum": 1e-3, "rate_spikes": (0.05, 5.0),
                               "touchdown_height_noise": 0.02, "yaw_drift": 0.01},
                  seed=1, contacts=res.contacts, legs=plan.legs)
    _assert_layout(out)
    parsed = [frame_from_dict(frame_to_dict(fr)) for fr in out]
    _assert_layout(parsed)
    assert all(np.array_equal(a.joints, b.joints) for a, b in zip(parsed, out))


def test_log_round_trip_keeps_every_frame(tmp_path):
    for name in ("walk_line", "wheel_roll"):
        plan = _short(name)
        res = generate_gait(plan)
        frames = degrade(res.frames, {"encoder_quantum": 1e-3, "wheel_slip": 0.02,
                                      "rate_spikes": (0.05, 5.0)}, seed=3)
        log = tmp_path / ("%s.jsonl" % name)
        write_frames(log, frames)
        back = read_frames(log, n_legs=4)
        assert [frame_to_dict(fr) for fr in back] == [frame_to_dict(fr) for fr in frames]


@pytest.mark.parametrize("leg, field, value", [
    (1, "dq", [1.0, 2.0]), (0, "tau", [[1.0], [2.0], [3.0]]), (2, "q", [1.0, [2.0], 3.0]),
    (2, "q", "ab"), (3, "q", 5.0), (0, "dq", (1.0, 2.0, 3.0, 4.0))])
def test_a_joint_field_that_is_not_three_numbers_is_named(leg, field, value):
    d = frame_to_dict(generate_gait(_short("standing")).frames[0])
    d["legs"][leg][field] = value
    with pytest.raises(ValueError, match=r"legs\[%d\]\.%s" % (leg, field)):
        frame_from_dict(d)


def test_a_joint_tuple_of_three_numbers_parses():
    d = frame_to_dict(generate_gait(_short("standing")).frames[0])
    d["legs"][2]["tau"] = (1.0, 2.0, 3.0)
    assert frame_from_dict(d).joints[2, 2].tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("ikvel", [False, True])
def test_leg_kernel_reads_views_of_the_frame_joints(monkeypatch, ikvel):
    plan = _short("walk_line")
    frames = generate_gait(plan).frames[:5]
    seen = []
    leg_rows = kernels.leg_rows

    def spy(q_rows, dq_rows, tau_rows, *rest):
        seen.append([q_rows, dq_rows, tau_rows])
        return leg_rows(q_rows, dq_rows, tau_rows, *rest)

    monkeypatch.setattr(kernels, "leg_rows", spy)
    est = Estimator(EstimatorConfig(initial_position=[0, 0, plan.body_height],
                                    ikvel_enabled=ikvel))
    filtered = []
    update = est.ikvel.update

    def filter_spy(t, q, dq):
        filtered.append((q, dq))
        return update(t, q, dq)

    est.ikvel.update = filter_spy
    for fr in frames:
        est.step(fr)
    # one kernel call per frame, on the rows of one tolist() of its joints;
    # the filter, when on, reads views of the joint angles and rates
    assert len(seen) == len(frames)
    for fr, rows in zip(frames, seen):
        assert rows == fr.joints.tolist()
    assert len(filtered) == (len(frames) if ikvel else 0)
    for fr, args in zip(frames, filtered):
        for channel, arg in enumerate(args):
            assert np.shares_memory(arg, fr.joints)
            assert np.array_equal(arg, fr.joints[channel])
