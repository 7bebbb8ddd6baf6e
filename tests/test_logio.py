import json

import numpy as np
import pytest

from legodom import (ConfigError, EstimatorConfig, LegGeometry, SensorFrame, WheelReading,
                     generate_gait, load_config, parse_config_text, preset_plan, save_config)
from legodom import logio
from legodom.estimator import BodyState
from legodom.logio import (LogParseError, encode_json, frame_to_dict, read_frames,
                           read_trajectory, write_frames, write_trajectory)
from legodom.planfile import parse_plan_text


def test_frame_round_trip_identity(tmp_path):
    plan = preset_plan("wheel_roll")
    plan.duration = 0.1
    res = generate_gait(plan)
    path = tmp_path / "log.jsonl"
    write_frames(path, res.frames)
    back = read_frames(path)
    assert len(back) == len(res.frames)
    for a, b in zip(back, res.frames):
        assert frame_to_dict(a) == frame_to_dict(b)


# the imperfections of the replay benchmark's wheel_cli plan
WHEEL_CLI = {"wheel_slip": 0.02, "yaw_drift": 0.005}


def _frame(fr, **changes):
    """A copy of frame fr with the given fields replaced."""
    fields = {"stamp": fr.stamp, "att": fr.att, "gyro": fr.gyro, "joints": fr.joints,
              "wheels": fr.wheels, **changes}
    return SensorFrame(**fields)


def _odd_values(frames):
    """frames with NaN (some with the sign bit set), infinite and -0.0
    values in att, gyro and joints."""
    odd = []
    for k, fr in enumerate(frames):
        att, gyro, joints = fr.att.copy(), fr.gyro.copy(), fr.joints.copy()
        att[k % 4] = (np.nan, -np.nan, np.inf, -np.inf)[k % 4]
        gyro[k % 3] = -0.0
        joints[k % 3, 0, :] = (-0.0, 0.0, np.copysign(np.nan, -1.0))
        odd.append(_frame(fr, att=att, gyro=gyro, joints=joints))
    return odd


def _int_att(fr):
    """A copy of frame fr whose att is then set to an int array."""
    fr = _frame(fr)
    fr.att = np.array([1, 0, 0, 0])
    return fr


def _wheels_switching(frames, period):
    """frames whose wheel layout changes every period frames: all four
    wheels, the front two only, all-None, none at all."""
    layouts = (lambda w: w, lambda w: w[:2] + [None, None], lambda w: [None] * 4,
               lambda w: None)
    return [_frame(fr, wheels=layouts[k // period % 4](list(fr.wheels)))
            for k, fr in enumerate(frames)]


def _legs_switching(frames, period):
    """frames with four legs, then two, every period frames in turn."""
    return [_frame(fr, joints=fr.joints[:, :2], wheels=fr.wheels[:2])
            if k // period % 2 else fr for k, fr in enumerate(frames)]


LOG_CASES = {
    "empty": lambda frames: [],
    "one_frame": lambda frames: frames[:1],
    "one_block": lambda frames: frames[:logio._BLOCK],
    "one_block_and_one": lambda frames: frames[:logio._BLOCK + 1],
    "degraded_wheel_cli": lambda frames: frames,
    "nan_inf_and_negative_zero": lambda frames: _odd_values(frames[:300]),
    "int_stamp": lambda frames: [_frame(frames[0], stamp=0)] + frames[1:300],
    "int_stamps": lambda frames: [_frame(fr, stamp=k) for k, fr in enumerate(frames[:300])],
    "int_array_set_after_construction": lambda frames: [
        _int_att(fr) for fr in frames[:logio._BLOCK]] + frames[logio._BLOCK:300],
    "numpy_float_wheel_value": lambda frames: frames[:260] + [_frame(
        frames[260], wheels=[WheelReading(np.float64(1.5), 2.0)] + frames[260].wheels[1:])],
    "int_wheel_value": lambda frames: frames[:260] + [_frame(
        frames[260], wheels=[WheelReading(1, 2.0)] + frames[260].wheels[1:])],
    # a layout per block, each block on columns; then layouts mixed in a block
    "wheel_layout_per_block": lambda frames: _wheels_switching(
        frames[:4 * logio._BLOCK + 10], logio._BLOCK),
    "wheel_layout_changing": lambda frames: _wheels_switching(frames[:600], 100),
    "leg_count_per_block": lambda frames: _legs_switching(
        frames[:2 * logio._BLOCK + 10], logio._BLOCK),
    "leg_count_changing": lambda frames: _legs_switching(frames[:450], 150),
}


@pytest.mark.parametrize("case", sorted(LOG_CASES))
def test_write_frames_writes_the_reference_spelling(stream, tmp_path, case):
    _, _, frames = stream("wheel_roll", 0, WHEEL_CLI)
    frames = LOG_CASES[case](frames)
    path = tmp_path / "log.jsonl"
    write_frames(path, frames)
    reference = "".join(encode_json(frame_to_dict(fr)) + "\n" for fr in frames)
    assert path.read_bytes() == reference.encode("utf-8")


def test_write_frames_spells_a_generated_wheel_stream_on_columns(stream, tmp_path,
                                                                monkeypatch):
    # the column writer must not quietly fall back to the per-frame path
    _, _, frames = stream("wheel_roll", 0, WHEEL_CLI)
    # a layout's template is built once, from one reference line
    write_frames(tmp_path / "first.jsonl", frames[:1])
    calls = []
    reference = logio.frame_to_dict

    def counted(frame):
        calls.append(1)
        return reference(frame)

    monkeypatch.setattr(logio, "frame_to_dict", counted)
    write_frames(tmp_path / "log.jsonl", frames)
    assert len(calls) == 0


def test_the_column_writers_distinct_values_are_numpys_unique():
    # one sort, a dedupe of neighbours and a search per column give
    # np.unique's codes and inverse: -0.0 apart from 0.0, each NaN bit
    # pattern a value of its own, the infinities at the ends
    rng = np.random.default_rng(27)
    odd = [0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, 1.5, -1.5]
    table = rng.normal(size=(64, 13)).round(1)  # with repeats
    odd_at = rng.random(table.shape) < 0.4
    table[odd_at] = rng.choice(odd, size=odd_at.sum())
    ints = table.view(np.int64)
    codes, index = logio._distinct(ints)
    want_codes, want_index = np.unique(ints.ravel(), return_inverse=True)
    assert codes.dtype == want_codes.dtype and index.dtype == want_index.dtype
    assert codes.tolist() == want_codes.tolist() and index.tolist() == want_index.tolist()


def test_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    plan = preset_plan("standing")
    plan.duration = 0.02
    res = generate_gait(plan)
    write_frames(path, res.frames)
    lines = path.read_text().splitlines()
    lines[3] = lines[3][:20]  # truncate a record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogParseError) as err:
        read_frames(path)
    assert err.value.line == 4
    assert "line 4" in str(err.value)


@pytest.mark.parametrize("field, value", [
    ("q", [0.1]), ("dq", [0.0, 0.0, 0.0, 0.0]), ("tau", [[1.0, 2.0, 3.0]]),
    ("att", [1.0, 0.0, 0.0]), ("gyro", 0.0)])
def test_malformed_arrays_name_line_and_field(tmp_path, field, value):
    plan = preset_plan("standing")
    plan.duration = 0.02
    lines = [json.dumps(frame_to_dict(fr)) for fr in generate_gait(plan).frames]
    rec = json.loads(lines[1])
    if field in ("att", "gyro"):
        rec[field] = value
        name = field
    else:
        rec["legs"][2][field] = value
        name = "legs[2].%s" % field
    lines[1] = json.dumps(rec)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogParseError) as err:
        read_frames(path)
    assert err.value.line == 2
    assert name in str(err.value)


def test_stamp_not_increasing_names_line(tmp_path):
    plan = preset_plan("standing")
    plan.duration = 0.02
    lines = [json.dumps(frame_to_dict(fr)) for fr in generate_gait(plan).frames]
    path = tmp_path / "bad.jsonl"
    for bad in (lines[1], lines[2]):  # stamp repeated, then stamp going back
        path.write_text("\n".join(lines[:3] + [bad] + lines[3:]) + "\n")
        with pytest.raises(LogParseError) as err:
            read_frames(path)
        assert err.value.line == 4
        assert "stamp" in str(err.value)


@pytest.mark.parametrize("stamp", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_stamp_names_its_line(tmp_path, stamp):
    # a NaN on line 1 used to pass, and the error then named line 2
    plan = preset_plan("standing")
    plan.duration = 0.02
    lines = [json.dumps(frame_to_dict(fr)) for fr in generate_gait(plan).frames]
    path = tmp_path / "bad.jsonl"
    for k in (0, 2):
        rec = json.loads(lines[k])
        rec["t"] = stamp
        path.write_text("\n".join(lines[:k] + [json.dumps(rec)] + lines[k + 1:]) + "\n")
        with pytest.raises(LogParseError) as err:
            read_frames(path)
        assert err.value.line == k + 1
        assert "t must be finite" in str(err.value)


@pytest.mark.parametrize("field, k", [("att", 1), ("gyro", 2)])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_attitude_or_rate_names_line_and_field(tmp_path, field, k, value):
    plan = preset_plan("standing")
    plan.duration = 0.02
    lines = [json.dumps(frame_to_dict(fr)) for fr in generate_gait(plan).frames]
    rec = json.loads(lines[3])
    rec[field][k] = value
    lines[3] = json.dumps(rec)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogParseError) as err:
        read_frames(path)
    assert err.value.line == 4
    assert "%s must be finite" % field in str(err.value)


def test_leg_count_checked_against_the_config(tmp_path):
    plan = preset_plan("standing")
    plan.duration = 0.02
    lines = [json.dumps(frame_to_dict(fr)) for fr in generate_gait(plan).frames]
    rec = json.loads(lines[2])
    del rec["legs"][3]
    lines[2] = json.dumps(rec)
    path = tmp_path / "three_legs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert len(read_frames(path)) == len(lines)  # no count given, no check
    with pytest.raises(LogParseError) as err:
        read_frames(path, 4)
    assert err.value.line == 3
    assert "frame has 3 legs, config has 4" in str(err.value)


def test_empty_log(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_frames(path) == []


def test_trajectory_round_trip(tmp_path):
    states = [BodyState(np.array([0.1, 0.2, 0.3]), np.array([0.0, 0.01, -0.02]),
                        np.array([1.0, 0.0, 0.0]), 0.5),
              BodyState(np.array([0.2, 0.2, 0.3]), np.zeros(3),
                        np.array([1.0, 0.0, 0.0]), 0.6)]
    path = tmp_path / "traj.csv"
    write_trajectory(path, states)
    arr = read_trajectory(path)
    assert arr.shape == (2, 10)
    assert arr[0, 0] == 0.5 and arr[0, 1] == 0.1 and arr[1, 4] == 0.0


def test_config_defaults_round_trip(tmp_path):
    cfg = EstimatorConfig()
    path = tmp_path / "cfg.txt"
    save_config(cfg, path)
    back = load_config(path)
    assert back.force_threshold == cfg.force_threshold
    assert back.ikvel_q_vel == cfg.ikvel_q_vel
    assert len(back.legs) == len(cfg.legs)
    for a, b in zip(back.legs, cfg.legs):
        assert a.side_sign == b.side_sign
        assert np.array_equal(a.hip_mount, b.hip_mount)


@pytest.mark.parametrize("line", [
    "legs = four", "geom.hip_offset = wide", "geom.thigh = 0.2m", "geom.calf = -",
    "geom.wheel_radius = 5cm", "leg0.side = left", "leg1.side = 2",
    "leg2.mount = 0.1 y 0", "init.position = 0 0 high", "yaw.enabled = maybe",
    "contact.sigma_min = abc", "leg1.mount = 0 0", "legs = 65", "legs = 0",
    "legs = -2"])
def test_config_parse_errors_name_the_key(line):
    key = line.split("=")[0].strip()
    with pytest.raises(ConfigError) as err:
        parse_config_text(line)
    assert str(err.value).startswith("config line 1: ")
    assert key in str(err.value)


def test_config_error_names_the_line_of_a_later_key():
    with pytest.raises(ConfigError, match=r"^config line 3: bad value for yaw.enabled"):
        parse_config_text("# gains\nyaw.alpha0 = 0.05\nyaw.enabled = maybe\n")


def test_repeated_config_key_takes_its_last_line():
    cfg = parse_config_text("yaw.alpha0 = 0.05\nyaw.enabled = false\nyaw.alpha0 = 0.5\n")
    assert cfg.yaw_alpha0 == 0.5 and cfg.yaw_enabled is False
    # only the last line is parsed, so an earlier bad value is overridden
    assert parse_config_text("legs = four\nlegs = 2\n").legs[1].side_sign == -1


def test_config_parsing_and_validation():
    cfg = parse_config_text("""
        # comment
        contact.force_threshold = -25
        yaw.alpha0 = 0.05
        ikvel.enabled = true
        geom.wheel_radius = 0.05
    """)
    assert cfg.force_threshold == -25
    assert cfg.yaw_alpha0 == 0.05
    assert cfg.ikvel_enabled is True
    assert cfg.legs[0].wheel_radius == 0.05

    with pytest.raises(ConfigError):
        parse_config_text("unknown.key = 1")
    with pytest.raises(ConfigError):
        parse_config_text("yaw.alpha0 = 1.5")
    with pytest.raises(ConfigError):
        parse_config_text("height.match_window = -1")
    with pytest.raises(ConfigError):
        parse_config_text("just a line without equals")
    with pytest.raises(ConfigError, match="geom"):
        parse_config_text("geom.thigh = -0.2")


# EstimatorConfig field -> config key, for each field with a range rule
RANGED_FIELDS = {
    "height_window": "height.match_window", "height_fade": "height.fade_time",
    "yaw_alpha0": "yaw.alpha0", "yaw_ramp_time": "yaw.ramp_time",
    "ikvel_q_pos": "ikvel.q_pos", "ikvel_q_vel": "ikvel.q_vel",
    "ikvel_r_angle": "ikvel.r_angle", "ikvel_r_rate": "ikvel.r_rate",
    "pos_blend": "blend.pos_gain", "vel_blend": "blend.vel_gain",
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", sorted(RANGED_FIELDS))
def test_config_built_in_code_rejects_a_non_finite_value(field, value):
    # nan <= 0 is False, so a NaN once passed every `<= 0` check: a NaN
    # sigma_min let a fully extended leg through the wrench gate
    with pytest.raises(ConfigError, match=r"^%s must be finite and within \+-1e\+09, got %r$"
                       % (RANGED_FIELDS[field], value)):
        EstimatorConfig(**{field: value})


def test_config_built_in_code_names_the_key_of_an_out_of_range_value():
    with pytest.raises(ConfigError, match=r"^height\.match_window must be > 0, got -1\.0$"):
        EstimatorConfig(height_window=-1)
    with pytest.raises(ConfigError, match=r"^yaw\.alpha0 must be within \(0, 1\], got 0\.0$"):
        EstimatorConfig(yaw_alpha0=0.0)
    with pytest.raises(ConfigError, match=r"^contact\.force_threshold must be finite"):
        EstimatorConfig(force_threshold=np.nan)
    assert EstimatorConfig(pos_blend=0.0, vel_blend=1.0, yaw_alpha0=1.0).vel_blend == 1.0


@pytest.mark.parametrize("value", [[np.nan, 0.0, 0.3], [0.0, np.inf, 0.3], [0.0, 0.0],
                                   [[0.0, 0.0, 0.3]]], ids=["nan", "inf", "(2,)", "(1, 3)"])
def test_a_position_built_in_code_must_be_three_finite_numbers(value):
    # a NaN initial x once stayed NaN through a whole replay, a (2,) one ended
    # in an IndexError at the first step, and a NaN hip mount made every state NaN
    with pytest.raises(ConfigError, match=r"^init\.position must "):
        EstimatorConfig(initial_position=value)
    with pytest.raises(ValueError, match=r"^hip_mount must be 3 finite numbers, got "):
        LegGeometry(0.08, 0.2, 0.2, hip_mount=value)


def test_plan_file_parsing():
    plan = parse_plan_text("""
        mode = trot
        rate_hz = 200
        speed = 0.4
        step_period = 0.2
        waypoint = 0 0
        waypoint = 2 0
        terrain.x0 = 0.5
        terrain.x1 = 1.0
        terrain.height = 0.08
        degrade.encoder_quantum = 1e-3
        degrade.rate_spike_prob = 0.01
        degrade.rate_spike_gain = 15
    """)
    assert plan.rate_hz == 200
    assert plan.waypoints == [(0.0, 0.0), (2.0, 0.0)]
    assert plan.terrain.height == 0.08
    assert plan.imperfections["encoder_quantum"] == 1e-3
    assert plan.imperfections["rate_spikes"] == (0.01, 15.0)

    preset_based = parse_plan_text("preset = standing\nduration = 3\n")
    assert preset_based.mode == "stand" and preset_based.duration == 3

    with pytest.raises(ConfigError):
        parse_plan_text("mode = trot\nnope = 1\n")
    with pytest.raises(ConfigError):
        parse_plan_text("degrade.bogus = 1\n")
