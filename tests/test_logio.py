import json

import numpy as np
import pytest

from legodom import (ConfigError, EstimatorConfig, generate_gait, load_config,
                     parse_config_text, preset_plan, save_config)
from legodom.estimator import BodyState
from legodom.logio import (LogParseError, frame_to_dict, read_frames,
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
