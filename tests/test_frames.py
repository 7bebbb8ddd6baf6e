"""The frame layout: a frame's joint readings are one float64 (3, legs, 3)
array, `SensorFrame.joints`, indexed by channel (q, dq, tau), leg and joint,
from the log reader and the generator through degrade to the leg kernel."""

import copy
import random
import re

import logio_reference
import numpy as np
import pytest

from legodom import (Estimator, EstimatorConfig, JointReading, SensorFrame,
                     degrade, generate_gait, kernels, preset_plan)
from legodom.estimator import frame_columns
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


@pytest.mark.parametrize("field, value, message", [
    ("att", [1.0, 0.0, 0.0], "att must have shape (4,), got (3,)"),
    ("att", np.eye(2), "att must have shape (4,), got (2, 2)"),
    ("gyro", [0.0, 0.0], "gyro must have shape (3,), got (2,)"),
    ("gyro", np.zeros(4), "gyro must have shape (3,), got (4,)"),
    ("gyro", 0.0, "gyro must have shape (3,), got ()"),
    ("wheels", [None] * 3, "wheels must hold one entry per leg (4), got 3"),
    ("wheels", [None] * 5, "wheels must hold one entry per leg (4), got 5"),
    ("wheels", [], "wheels must hold one entry per leg (4), got 0"),
])
def test_att_gyro_and_wheels_of_another_size_raise_naming_the_field(field, value, message):
    parts = {"stamp": 0.0, "att": [1.0, 0.0, 0.0, 0.0], "gyro": np.zeros(3),
             "joints": np.zeros((3, 4, 3)), "wheels": [None] * 4}
    SensorFrame(**parts)
    parts[field] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        SensorFrame(**parts)


def _good_parts():
    return {"stamp": 0.0, "att": np.array([1.0, 0.0, 0.0, 0.0]), "gyro": np.zeros(3),
            "joints": np.zeros((3, 4, 3)), "wheels": [None] * 4}


def test_a_float64_array_is_kept_as_given():
    block = np.arange(40.0).reshape(10, 4)
    for field, value in (("att", np.array([1.0, 0.0, 0.0, 0.0])), ("att", block[3]),
                         ("att", block[:4, 1]), ("gyro", np.zeros(3)),
                         ("gyro", np.zeros((3, 3))[:, 0]), ("joints", np.zeros((3, 4, 3))),
                         ("joints", np.zeros((2, 3, 4, 3))[1]),
                         ("joints", np.zeros((3, 4, 3, 2))[..., 0])):
        parts = _good_parts()
        parts[field] = value
        assert getattr(SensorFrame(**parts), field) is value, field


class _Subclass(np.ndarray):
    pass


# values of another kind: each is stored as np.asarray(value, dtype=float)
OTHER_KINDS = {
    "list": list,
    "tuple": tuple,
    "float32": lambda v: np.array(v, dtype=np.float32),
    "big_endian": lambda v: np.array(v, dtype=">f8"),
    "subclass": lambda v: np.array(v).view(_Subclass),
    "int": lambda v: np.array(v, dtype=int),
    "object": lambda v: np.array(v, dtype=object),
}


@pytest.mark.parametrize("kind", sorted(OTHER_KINDS))
@pytest.mark.parametrize("field, value", [("att", [0.5, 0.5, -0.5, 0.5]),
                                          ("gyro", [0.25, -1.0, 2.0]),
                                          ("joints", np.arange(36.0).reshape(3, 4, 3).tolist())])
def test_a_value_of_another_kind_is_stored_as_asarray_converts_it(kind, field, value):
    value = OTHER_KINDS[kind](value)
    want = np.asarray(value, dtype=float)
    parts = _good_parts()
    parts[field] = value
    got = getattr(SensorFrame(**parts), field)
    assert type(got) is type(want) is np.ndarray
    assert got.dtype == want.dtype and got.dtype.isnative
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("value", [2.0, np.float64(2.0), np.array(2.0), np.float32(2.0),
                                   np.array(2.0, dtype=">f8")],
                         ids=["float", "float64", "0d_array", "float32", "0d_big_endian"])
def test_a_0d_value_raises_the_shape_that_asarray_gives(value):
    assert np.asarray(value, dtype=float).shape == ()
    for field, message in (("att", "att must have shape (4,), got ()"),
                           ("gyro", "gyro must have shape (3,), got ()"),
                           ("joints", "joints must have shape (3, legs, 3), got ()")):
        parts = _good_parts()
        parts[field] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            SensorFrame(**parts)


def test_the_first_bad_field_named_is_joints_then_att_gyro_and_wheels():
    parts = {"stamp": 0.0, "att": np.zeros(3), "gyro": [0.0] * 4,
             "joints": np.zeros((3, 4, 2)), "wheels": [None]}
    for field, good, message in (
            ("joints", np.zeros((3, 2, 3)), "joints must have shape (3, legs, 3), got (3, 4, 2)"),
            ("att", [1.0, 0.0, 0.0, 0.0], "att must have shape (4,), got (3,)"),
            ("gyro", np.zeros(3), "gyro must have shape (3,), got (4,)"),
            ("wheels", [None, None], "wheels must hold one entry per leg (2), got 1")):
        with pytest.raises(ValueError) as exc:
            SensorFrame(**parts)
        assert str(exc.value) == message
        parts[field] = good
    SensorFrame(**parts)


def _old_frame_columns(frames):
    """The column reader before one copy per channel: np.array over the
    list of each channel's arrays."""
    return (np.array([fr.stamp for fr in frames]), np.array([fr.att for fr in frames]),
            np.array([fr.gyro for fr in frames]), np.array([fr.joints for fr in frames]))


def test_frame_columns_are_the_old_readers_fresh_arrays_bit_for_bit():
    for name in ("walk_line", "standing", "wheel_roll"):
        res = generate_gait(_short(name))
        streams = (res.frames, res.frames[:1], res.frames[1::3],
                   degrade(res.frames, {"encoder_quantum": 1e-3, "yaw_drift": 0.01}, seed=2),
                   [frame_from_dict(frame_to_dict(fr)) for fr in res.frames[:50]])
        for frames in streams:
            for got, want in zip(frame_columns(frames), _old_frame_columns(frames)):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes() and got.flags.c_contiguous
                assert got.base is None or got.base.base is None  # one fresh array
                assert not any(np.shares_memory(got, getattr(fr, channel))
                               for fr in frames[:3] for channel in ("att", "gyro", "joints"))


def test_frame_columns_refuse_mixed_legs_and_no_frames():
    frames = generate_gait(_short("standing")).frames[:4]
    frames[2] = SensorFrame(frames[2].stamp, frames[2].att, frames[2].gyro,
                            frames[2].joints[:, :3])
    with pytest.raises(ValueError):
        frame_columns(frames)
    # no frames, no leg count: ValueError (the np.array reader gave four
    # (0,) arrays)
    with pytest.raises(ValueError):
        frame_columns([])


def _assert_rows_of_one_array(frames):
    """Every frame's att, gyro and joints are row views into one array of the
    stream per channel."""
    for channel in ("att", "gyro", "joints"):
        base = getattr(frames[0], channel).base
        assert base is not None, channel
        assert all(getattr(fr, channel).base is base for fr in frames), channel
        assert np.shares_memory(getattr(frames[-1], channel), base), channel


def test_generated_frames_hold_one_joint_array():
    for name in ("walk_line", "standing", "wheel_roll"):
        frames = generate_gait(_short(name)).frames
        _assert_layout(frames)
        _assert_rows_of_one_array(frames)


def test_parsed_and_degraded_frames_hold_one_joint_array():
    plan = _short("walk_line")
    res = generate_gait(plan)
    out = degrade(res.frames, {"encoder_quantum": 1e-3, "rate_spikes": (0.05, 5.0),
                               "touchdown_height_noise": 0.02, "yaw_drift": 0.01},
                  seed=1, contacts=res.contacts, legs=plan.legs)
    _assert_layout(out)
    _assert_rows_of_one_array(out)
    for name in ("standing", "wheel_roll"):
        for imperfections in ({}, {"yaw_drift": 0.01, "wheel_slip": 0.02}):
            _assert_rows_of_one_array(degrade(generate_gait(_short(name)).frames,
                                              imperfections))
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


NAN, INF = float("nan"), float("inf")


def _wheel_dict():
    plan = preset_plan("wheel_roll")
    plan.duration = 0.1
    return frame_to_dict(generate_gait(plan).frames[0])


def _set(path, value):
    """A change to a frame dict: the item at path (a key or index
    sequence) becomes value."""
    def change(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value
    return change


# the parser's reject set: each change to a good frame dict, and the
# exception type and message it raises
REJECTED = [
    ("joint_str_of_3", _set(("legs", 1, "q"), "123"), ValueError,
     "legs[1].q must hold 3 numbers, got shape ()"),
    ("joint_str", _set(("legs", 1, "q"), "abc"), ValueError,
     "legs[1].q: could not convert string to float: 'abc'"),
    ("joint_bad_str_element", _set(("legs", 0, "tau"), [1.0, "x", 3.0]), ValueError,
     "legs[0].tau: could not convert string to float: 'x'"),
    ("joint_object", _set(("legs", 0, "q"), {"1": 0.0, "2": 0.0, "3": 0.0}), ValueError,
     "legs[0].q: float() argument must be a string or a real number, not 'dict'"),
    ("joint_set", _set(("legs", 2, "dq"), {1.0, 2.0, 3.0}), ValueError,
     "legs[2].dq: float() argument must be a string or a real number, not 'set'"),
    ("joint_2_then_4", lambda d: (_set(("legs", 0, "q"), [1.0, 2.0])(d),
                                  _set(("legs", 0, "dq"), [1.0, 2.0, 3.0, 4.0])(d)),
     ValueError, "legs[0].q must hold 3 numbers, got shape (2,)"),
    ("joint_too_large", _set(("legs", 0, "q"), [10 ** 400, 0, 0]), OverflowError,
     "int too large to convert to float"),
    ("leg_not_an_object", _set(("legs", 1), [1.0, 2.0, 3.0]), TypeError,
     "list indices must be integers or slices, not str"),
    ("leg_a_number", _set(("legs", 1), 5), TypeError, "'int' object is not subscriptable"),
    ("leg_missing_q", lambda d: d["legs"][2].pop("q"), KeyError, "'q'"),
    ("att_5_values", _set(("att",), [1.0, 0.0, 0.0, 0.0, 0.0]), ValueError,
     "att must hold 4 numbers, got shape (5,)"),
    ("att_str_of_4", _set(("att",), "1234"), ValueError, "att must hold 4 numbers, got shape ()"),
    ("att_object", _set(("att",), {"1": 1, "2": 0, "3": 0, "4": 0}), ValueError,
     "att: float() argument must be a string or a real number, not 'dict'"),
    ("att_set", _set(("att",), {1.0, 2.0, 3.0, 4.0}), ValueError,
     "att: float() argument must be a string or a real number, not 'set'"),
    ("gyro_set", _set(("gyro",), {1.0, 2.0, 3.0}), ValueError,
     "gyro: float() argument must be a string or a real number, not 'set'"),
    ("att_nested", _set(("att",), [[1.0, 0.0], [0.0, 0.0]]), ValueError,
     "att must hold 4 numbers, got shape (2, 2)"),
    ("att_null", _set(("att", 0), None), ValueError,
     "att must be finite, got [nan, 0.0, 0.0, 0.0]"),
    ("att_nan_str", _set(("att", 2), "nan"), ValueError,
     "att must be finite, got [1.0, 0.0, nan, 0.0]"),
    ("att_zero", _set(("att",), [0, 0.0, -0.0, False]), ValueError,
     "att must have a nonzero norm, got [0.0, 0.0, -0.0, 0.0]"),
    ("gyro_str", _set(("gyro",), "abc"), ValueError,
     "gyro: could not convert string to float: 'abc'"),
    ("gyro_str_of_3", _set(("gyro",), "123"), ValueError,
     "gyro must hold 3 numbers, got shape ()"),
    ("gyro_too_large", _set(("gyro", 0), 10 ** 400), OverflowError,
     "int too large to convert to float"),
    ("t_null", _set(("t",), None), TypeError,
     "float() argument must be a string or a real number, not 'NoneType'"),
    ("t_list", _set(("t",), [0.5]), TypeError,
     "float() argument must be a string or a real number, not 'list'"),
    ("t_missing", lambda d: d.pop("t"), KeyError, "'t'"),
    ("wheel_not_an_object", _set(("legs", 1, "wheel"), [1.0, 2.0]), TypeError,
     "list indices must be integers or slices, not str"),
    ("wheel_null", _set(("legs", 2, "wheel", "dpsi"), None), TypeError,
     "float() argument must be a string or a real number, not 'NoneType'"),
    # the first bad field in the order the parser checks them is named:
    # joints, wheels, t, att, gyro, then finiteness and the attitude norm
    ("joint_before_t", lambda d: (d.pop("t"), _set(("legs", 3, "dq"), "abc")(d)),
     ValueError, "legs[3].dq: could not convert string to float: 'abc'"),
    ("wheel_before_att", lambda d: (_set(("att",), [1.0])(d),
                                    _set(("legs", 0, "wheel", "psi"), NAN)(d)),
     ValueError, "legs[0].wheel.psi must be finite, got nan"),
    ("gyro_shape_before_att_finite", lambda d: (_set(("att", 1), NAN)(d),
                                                _set(("gyro",), [0.0])(d)),
     ValueError, "gyro must hold 3 numbers, got shape (1,)"),
]
for _value in (NAN, INF, -INF):
    REJECTED += [
        ("t_%r" % _value, _set(("t",), _value), ValueError, "t must be finite, got %r" % _value),
        ("att_%r" % _value, _set(("att", 3), _value), ValueError,
         "att must be finite, got [1.0, 0.0, 0.0, %r]" % _value),
        ("gyro_%r" % _value, _set(("gyro", 1), _value), ValueError,
         "gyro must be finite, got [0.0, %r, 0.0]" % _value),
        ("psi_%r" % _value, _set(("legs", 1, "wheel", "psi"), _value), ValueError,
         "legs[1].wheel.psi must be finite, got %r" % _value),
        ("dpsi_%r" % _value, _set(("legs", 3, "wheel", "dpsi"), _value), ValueError,
         "legs[3].wheel.dpsi must be finite, got %r" % _value),
    ]


@pytest.mark.parametrize("change, error, message", [case[1:] for case in REJECTED],
                         ids=[case[0] for case in REJECTED])
def test_the_parser_rejects_with_the_message_that_names_the_field(change, error, message):
    d = _wheel_dict()
    change(d)
    with pytest.raises(error) as exc:
        frame_from_dict(d)
    assert type(exc.value) is error
    assert str(exc.value) == message


# the parser's accept set beyond plain lists of floats: each change, and the
# (t, att, gyro, leg 0's q, dq and tau) it parses to
ACCEPTED = [
    ("null_numeric_str_true", _set(("legs", 0, "dq"), [None, "0.5", True]),
     (0.0, [1.0, 0, 0, 0], [0.0] * 3, [[0.0, 0.8, -1.6], [NAN, 0.5, 1.0], None])),
    ("joint_tuple", _set(("legs", 0, "tau"), (1, 2.5, -3)),
     (0.0, [1.0, 0, 0, 0], [0.0] * 3, [[0.0, 0.8, -1.6], [0.0] * 3, [1.0, 2.5, -3.0]])),
    ("joint_nan_inf", _set(("legs", 0, "q"), [NAN, INF, -INF]),
     (0.0, [1.0, 0, 0, 0], [0.0] * 3, [[NAN, INF, -INF], [0.0] * 3, None])),
    ("att_gyro_tuples", lambda d: (_set(("att",), (0, 0, 1, 0))(d), _set(("gyro",), (1, 2, 3))(d)),
     (0.0, [0.0, 0, 1, 0], [1.0, 2.0, 3.0], [[0.0, 0.8, -1.6], [0.0] * 3, None])),
    ("att_numeric_str_true", _set(("att",), ["0.5", True, " 0 ", 0]),
     (0.0, [0.5, 1.0, 0.0, 0.0], [0.0] * 3, [[0.0, 0.8, -1.6], [0.0] * 3, None])),
    ("t_numeric_str", _set(("t",), " 2.5 "),
     (2.5, [1.0, 0, 0, 0], [0.0] * 3, [[0.0, 0.8, -1.6], [0.0] * 3, None])),
    ("t_true_gyro_int", lambda d: (_set(("t",), True)(d), _set(("gyro",), [1, 0, -2])(d)),
     (1.0, [1.0, 0, 0, 0], [1.0, 0.0, -2.0], [[0.0, 0.8, -1.6], [0.0] * 3, None])),
    ("wheel_numeric_str", _set(("legs", 1, "wheel", "psi"), "1.5"),
     (0.0, [1.0, 0, 0, 0], [0.0] * 3, [[0.0, 0.8, -1.6], [0.0] * 3, None])),
]


@pytest.mark.parametrize("change, parsed", [case[1:] for case in ACCEPTED],
                         ids=[case[0] for case in ACCEPTED])
def test_the_parser_accepts_what_float_converts(change, parsed):
    d = _wheel_dict()
    change(d)
    fr = frame_from_dict(d)
    t, att, gyro, leg0 = parsed
    assert type(fr.stamp) is float and fr.stamp == t
    for a in (fr.att, fr.gyro, fr.joints):
        assert type(a) is np.ndarray and a.dtype == np.float64
    assert fr.att.tolist() == att and fr.gyro.tolist() == gyro
    assert fr.joints.shape == (3, 4, 3)
    for channel, row in enumerate(leg0):
        if row is not None:
            np.testing.assert_array_equal(fr.joints[channel, 0], row)
    assert [(w.psi, w.dpsi) for w in fr.wheels] == [
        (float(leg["wheel"]["psi"]), float(leg["wheel"]["dpsi"])) for leg in d["legs"]]
    assert all(type(w.psi) is type(w.dpsi) is float for w in fr.wheels)


def test_a_frame_with_no_legs_parses():
    d = _wheel_dict()
    d["legs"] = []
    fr = frame_from_dict(d)
    assert fr.joints.shape == (3, 0, 3) and fr.joints.dtype == np.float64
    assert fr.wheels is None and fr.legs == []
    assert fr.att.tolist() == [1.0, 0.0, 0.0, 0.0]


# values a log line can hold in place of a field or an element of one
_FUZZ_VALUES = [
    None, True, False, 0, 1, -0.0, 1.5, NAN, INF, -INF, 10 ** 400, 1e308, "123", "abc",
    "1.5", " 2 ", "nan", "", [], [1], [1, 2], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4, 5],
    (1, 2, 3), (1, 0, 0, 0), [None, "0.5", True], [0, 0, 0, 0], [[1], 2, 3], {"a": 1},
    {"1": 1, "2": 2, "3": 3}, {"psi": 1.0, "dpsi": 2.0}, [NAN, 0, 0], ["x", 0, 0],
    [1e308, 1e308, 0, 0], [True, 0, 0, 0], ["1", 0, 0, 0], [10 ** 400, 0, 0]]


def _fuzz_paths(d):
    paths = [("t",), ("att",), ("gyro",), ("legs",)]
    paths += [("att", k) for k in range(4)] + [("gyro", k) for k in range(3)]
    for i, leg in enumerate(d["legs"] if isinstance(d.get("legs"), list) else ()):
        paths.append(("legs", i))
        if isinstance(leg, dict):
            for name in ("q", "dq", "tau"):
                paths += [("legs", i, name)] + [("legs", i, name, k) for k in range(3)]
            if "wheel" in leg:
                paths += [("legs", i, "wheel", key) for key in ("psi", "dpsi")]
    return paths


def _outcome(parse, d):
    try:
        fr = parse(copy.deepcopy(d))
    except Exception as exc:
        return type(exc), str(exc)
    return (repr(fr.stamp), type(fr.stamp), fr.att.tobytes(), fr.gyro.tobytes(),
            fr.joints.shape, fr.joints.tobytes(),
            None if fr.wheels is None else [w and (repr(w.psi), repr(w.dpsi))
                                            for w in fr.wheels])


def test_the_parser_accepts_rejects_and_names_as_the_field_by_field_reference():
    rng = random.Random(17)
    bases = [frame_to_dict(generate_gait(_short(name)).frames[k])
             for name in ("wheel_roll", "walk_line") for k in (0, -1)]
    outcomes = set()
    for _ in range(3000):
        d = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.choice((1, 1, 2, 3))):
            *parent, key = rng.choice(_fuzz_paths(d))
            target = d
            for k in parent:
                target = target[k]
            try:
                if rng.random() < 0.85:
                    target[key] = copy.deepcopy(rng.choice(_FUZZ_VALUES))
                else:
                    del target[key]
            except (TypeError, IndexError, KeyError):
                pass  # the path no longer leads anywhere
        expected = _outcome(logio_reference.frame_from_dict, d)
        assert _outcome(frame_from_dict, d) == expected, d
        outcomes.add(expected[0] if isinstance(expected[0], type) else "parsed")
    assert outcomes >= {"parsed", ValueError, TypeError, KeyError, OverflowError}
