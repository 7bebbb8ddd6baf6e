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
