import json
import weakref

import numpy as np
import pytest

from legodom import Estimator
from legodom.cli import BLOCK, main
from legodom.logio import read_trajectory


@pytest.fixture(scope="module")
def sim_log(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    log = d / "stand.jsonl"
    gt = d / "stand_gt.csv"
    plan = d / "plan.txt"
    plan.write_text("preset = standing\nduration = 1.0\n")
    assert main(["simulate", "--plan", str(plan), "--out", str(log),
                 "--ground-truth", str(gt)]) == 0
    return d, log, gt


def test_simulate_preset(tmp_path):
    out = tmp_path / "loop.jsonl"
    assert main(["simulate", "--preset", "standing", "--out", str(out)]) == 0
    assert out.exists() and out.stat().st_size > 0


def test_replay_and_metrics(sim_log, capsys):
    d, log, gt = sim_log
    traj = d / "traj.csv"
    assert main(["replay", "--log", str(log), "--out", str(traj)]) == 0
    rows = read_trajectory(traj)
    assert rows.shape[1] == 10
    assert (d / "traj.csv.diag.jsonl").exists()
    capsys.readouterr()
    assert main(["metrics", str(traj)]) == 0
    m = json.loads(capsys.readouterr().out)
    assert m["e_xy"] >= 0.0 and "e_z" in m


def test_replay_deterministic_bytes(sim_log):
    d, log, _ = sim_log
    t1, t2 = d / "a.csv", d / "b.csv"
    assert main(["replay", "--log", str(log), "--out", str(t1)]) == 0
    assert main(["replay", "--log", str(log), "--out", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()


CKF_NAMES = ("CKF_CHOL_RESET", "CKF_RATE_FALLBACK", "CKF_CLAMPED",
             "CKF_UPDATE_SKIPPED", "CKF_MEASUREMENT_SKIPPED")


def _load_cmd(command, d, log, *extra):
    """argv for replay or inspect on log; both share one config/log loader."""
    argv = [command, "--log", str(log), *extra]
    if command == "replay":
        argv += ["--out", str(d / "x.csv")]
    return argv


# the loops below run each exit-code check through both commands that load a
# config and a log
LOADING_COMMANDS = ("replay", "inspect")


def test_replay_parse_error_exit_2(sim_log, capsys):
    d, log, _ = sim_log
    bad = d / "bad.jsonl"
    lines = log.read_text().splitlines()
    lines[2] = lines[2][:10]
    bad.write_text("\n".join(lines) + "\n")
    for command in LOADING_COMMANDS:
        assert main(_load_cmd(command, d, bad)) == 2
        assert "line 3" in capsys.readouterr().err


def test_malformed_leg_array_exit_2(sim_log, capsys):
    d, log, _ = sim_log
    lines = log.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["legs"][1]["q"] = [0.1]
    lines[2] = json.dumps(rec)
    bad = d / "short_q.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    for command in LOADING_COMMANDS:
        assert main(_load_cmd(command, d, bad)) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "legs[1].q" in err


def test_stamp_not_increasing_exit_2(sim_log, capsys):
    d, log, _ = sim_log
    lines = log.read_text().splitlines()
    lines[3], lines[4] = lines[4], lines[3]
    bad = d / "swapped.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    for command in LOADING_COMMANDS:
        assert main(_load_cmd(command, d, bad)) == 2
        err = capsys.readouterr().err
        assert "line 5" in err and "stamp" in err


def test_non_finite_stamp_exit_2(sim_log, capsys):
    d, log, _ = sim_log
    lines = log.read_text().splitlines()
    bad = d / "nan_stamp.jsonl"
    for stamp in (float("nan"), float("inf")):
        rec = json.loads(lines[0])
        rec["t"] = stamp
        bad.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        for command in LOADING_COMMANDS:
            assert main(_load_cmd(command, d, bad)) == 2
            err = capsys.readouterr().err
            assert "line 1:" in err and "t must be finite" in err


def test_non_finite_attitude_or_rate_exit_2(sim_log, capsys):
    d, log, _ = sim_log
    lines = log.read_text().splitlines()
    bad = d / "nan_gyro.jsonl"
    for field, k in (("gyro", 2), ("att", 0)):
        rec = json.loads(lines[9])
        rec[field][k] = float("nan")
        bad.write_text("\n".join(lines[:9] + [json.dumps(rec)] + lines[10:]) + "\n")
        for command in LOADING_COMMANDS:
            assert main(_load_cmd(command, d, bad)) == 2
            err = capsys.readouterr().err
            assert "line 10:" in err and "%s must be finite" % field in err


def test_zero_norm_attitude_exit_2(sim_log, capsys):
    d, log, _ = sim_log
    lines = log.read_text().splitlines()
    rec = json.loads(lines[6])
    rec["att"] = [0, 0, 0, 0]
    lines[6] = json.dumps(rec)
    bad = d / "zero_att.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    for command in LOADING_COMMANDS:
        assert main(_load_cmd(command, d, bad)) == 2
        err = capsys.readouterr().err
        assert "line 7:" in err and "att must have a nonzero norm" in err


@pytest.fixture(scope="module")
def wheel_log(tmp_path_factory):
    d = tmp_path_factory.mktemp("wheel")
    plan = d / "plan.txt"
    plan.write_text("preset = wheel_roll\nduration = 1.0\n")
    log = d / "roll.jsonl"
    assert main(["simulate", "--plan", str(plan), "--out", str(log)]) == 0
    return d, log


def test_non_finite_first_joint_angle_with_the_filter_on_replays_finite(wheel_log, capsys):
    # a NaN angle on the first line used to seed that leg's velocity filter
    # from NaN kinematics: the replay exited 0 with every row from frame 1 on
    # not finite, and metrics exited 2
    d, log = wheel_log
    lines = log.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["legs"][0]["q"][0] = float("nan")
    bad = d / "nan_first_angle.jsonl"
    bad.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    cfg = d / "wheel_filter_on.txt"
    cfg.write_text("geom.wheel_radius = 0.05\nikvel.enabled = true\n")
    traj = d / "nan_first_angle.csv"
    assert main(["replay", "--log", str(bad), "--config", str(cfg), "--out", str(traj)]) == 0
    rows = read_trajectory(traj)
    assert len(rows) == len(lines) and np.isfinite(rows).all()
    capsys.readouterr()
    assert main(["metrics", str(traj)]) == 0


@pytest.mark.parametrize("field", ["psi", "dpsi"])
def test_non_finite_wheel_reading_exit_2(wheel_log, capsys, field):
    # one NaN psi on line 201 of a wheel log used to turn most later rows
    # of the trajectory non-finite, with exit 0
    d, log = wheel_log
    lines = log.read_text().splitlines()
    bad = d / "nan_wheel.jsonl"
    for value in (float("nan"), float("inf")):
        rec = json.loads(lines[200])
        rec["legs"][1]["wheel"][field] = value
        bad.write_text("\n".join(lines[:200] + [json.dumps(rec)] + lines[201:]) + "\n")
        for command in LOADING_COMMANDS:
            assert main(_load_cmd(command, d, bad)) == 2
            err = capsys.readouterr().err
            assert "line 201:" in err and "legs[1].wheel.%s must be finite" % field in err


@pytest.fixture(scope="module")
def long_log(tmp_path_factory):
    """A standing log of more than three blocks of frames."""
    d = tmp_path_factory.mktemp("long")
    plan = d / "plan.txt"
    plan.write_text("preset = standing\nduration = 3.2\n")
    log = d / "stand.jsonl"
    assert main(["simulate", "--plan", str(plan), "--out", str(log)]) == 0
    assert len(log.read_text().splitlines()) > 3 * BLOCK
    return d, log


def test_failed_replay_leaves_its_outputs_as_they_were(long_log, capsys):
    # the bad line comes after the first block has been stepped and written
    d, log = long_log
    lines = log.read_text().splitlines()
    lines[299] = lines[299][:10]
    bad = d / "bad_300.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    cfg = d / "bad_cfg.txt"
    cfg.write_text("yaw.alpha0 = 99\n")
    out = d / "x.csv"
    diag = d / "x.csv.diag.jsonl"
    for extra, code, where in (([], 2, "line 300"), (["--config", str(cfg)], 3, "config")):
        for out_exists in (True, False):
            for path in (out, diag):
                if out_exists:
                    path.write_bytes(b"before " + path.name.encode())
                elif path.exists():
                    path.unlink()
            assert main(_load_cmd("replay", d, bad, *extra)) == code
            assert where in capsys.readouterr().err
            for path in (out, diag):
                if out_exists:
                    assert path.read_bytes() == b"before " + path.name.encode()
                else:
                    assert not path.exists()
            assert not list(d.glob("*.part"))


@pytest.mark.parametrize("command", LOADING_COMMANDS)
def test_a_line_nested_past_the_recursion_limit_exits_2_naming_it(sim_log, tmp_path,
                                                                   capsys, command):
    # orjson refuses the line, and json.loads then raises RecursionError on it,
    # which used to end in a traceback
    _, log, _ = sim_log
    bad = tmp_path / "deep.jsonl"
    bad.write_text(log.read_text().splitlines()[0] + "\n" + "[" * 100_000 + "\n")
    out, diag = tmp_path / "x.csv", tmp_path / "x.csv.diag.jsonl"
    for path in (out, diag):
        path.write_bytes(b"before " + path.name.encode())
    assert main(_load_cmd(command, tmp_path, bad)) == 2
    assert "line 2" in capsys.readouterr().err
    for path in (out, diag):
        assert path.read_bytes() == b"before " + path.name.encode()
    assert not list(tmp_path.glob("*.part"))


def test_replay_to_an_output_that_cannot_be_written_exits_2(sim_log, tmp_path, capsys):
    _, log, _ = sim_log
    out = tmp_path / "missing" / "x.csv"
    assert main(["replay", "--log", str(log), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and err.count("\n") == 1
    assert not out.parent.exists()


@pytest.mark.parametrize("missing", ["log", "ground_truth"])
def test_simulate_to_an_output_that_cannot_be_written_exits_2(tmp_path, capsys, missing):
    # each used to end in a FileNotFoundError traceback, and an unwritable
    # ground truth only after the log had been written
    outs = {"log": tmp_path / "x.jsonl", "ground_truth": tmp_path / "x_gt.csv"}
    outs[missing] = tmp_path / "missing" / outs[missing].name
    assert main(["simulate", "--preset", "standing", "--out", str(outs["log"]),
                 "--ground-truth", str(outs["ground_truth"])]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot write output: ") and captured.err.count("\n") == 1
    assert "missing" in captured.err and captured.out == ""
    assert not outs[missing].parent.exists()
    assert not list(tmp_path.iterdir())  # no log, ground truth or part file


def test_simulate_leaves_its_outputs_as_they_were_on_failure(tmp_path, capsys):
    log, gt = tmp_path / "x.jsonl", tmp_path / "x_gt.csv"
    log.write_bytes(b"before")
    assert main(["simulate", "--preset", "standing", "--out", str(log),
                 "--ground-truth", str(tmp_path / "missing" / "gt.csv")]) == 2
    assert log.read_bytes() == b"before" and not gt.exists()
    assert main(["simulate", "--preset", "standing", "--out", str(log),
                 "--ground-truth", str(gt)]) == 0
    assert log.read_bytes() != b"before" and gt.read_text().startswith("t,x,y,z,")
    assert not list(tmp_path.glob("*.part"))


@pytest.mark.parametrize("existing", [False, True])
def test_simulate_with_one_file_for_log_and_ground_truth_exits_2(tmp_path, capsys, existing):
    # both outputs went through one part file, and the exit-2 run left the
    # ground truth in place of the log
    out = tmp_path / "x.jsonl"
    if existing:
        out.write_bytes(b"before")
    for same in (str(out), "%s/./x.jsonl" % tmp_path):  # a second spelling too
        assert main(["simulate", "--preset", "standing", "--out", str(out),
                     "--ground-truth", same]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("cannot write output: ") and captured.err.count("\n") == 1
        assert "name one file" in captured.err and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == (["x.jsonl"] if existing else [])
        assert not existing or out.read_bytes() == b"before"


def test_simulate_to_the_part_file_of_its_ground_truth_exits_2(tmp_path, capsys):
    # the log's part file was renamed onto the ground truth's part file, so
    # the run exited 0 with the log in the ground truth's place and no --out
    gt = tmp_path / "x.csv"
    assert main(["simulate", "--preset", "standing", "--out", str(gt) + ".part",
                 "--ground-truth", str(gt)]) == 2
    captured = capsys.readouterr()
    assert "name one file" in captured.err and captured.err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_replay_and_inspect_hold_at_most_a_block_of_frames(long_log, monkeypatch):
    d, log = long_log
    n = len(log.read_text().splitlines())
    # the frames alive as each frame's state is handed out; the replay steps
    # each block through step_block
    step_block = Estimator.step_block
    alive = weakref.WeakValueDictionary()  # by id: a SensorFrame is unhashable
    seen = []

    def spy(self, frames):
        for frame in frames:
            alive[id(frame)] = frame
        for state in step_block(self, frames):
            seen.append(len(alive))
            yield state

    monkeypatch.setattr(Estimator, "step_block", spy)
    for command in LOADING_COMMANDS:
        seen.clear()
        assert main(_load_cmd(command, d, log)) == 0
        assert len(seen) == n
        assert max(seen) <= BLOCK + 1, command


def test_leg_count_mismatch_exit_2(sim_log, capsys):
    # a 3-leg frame under the 4-leg default config used to end in a traceback
    d, log, _ = sim_log
    lines = log.read_text().splitlines()
    rec = json.loads(lines[4])
    del rec["legs"][3]
    lines[4] = json.dumps(rec)
    bad = d / "three_legs.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    for command in LOADING_COMMANDS:
        assert main(_load_cmd(command, d, bad)) == 2
        err = capsys.readouterr().err
        assert "line 5" in err and "frame has 3 legs, config has 4" in err


def test_unparseable_config_value_exit_3(sim_log, capsys):
    d, log, _ = sim_log
    cfg = d / "legs_word.txt"
    cfg.write_text("legs = four\n")
    for command in LOADING_COMMANDS:
        assert main(_load_cmd(command, d, log, "--config", str(cfg))) == 3
        err = capsys.readouterr().err
        assert "config error" in err and "legs" in err


def test_replay_bad_config_exit_3(sim_log, capsys):
    d, log, _ = sim_log
    cfg = d / "bad_cfg.txt"
    cfg.write_text("yaw.alpha0 = 99\n")
    for command in LOADING_COMMANDS:
        assert main(_load_cmd(command, d, log, "--config", str(cfg))) == 3
        assert "config error" in capsys.readouterr().err


def test_missing_log_exit_2(sim_log, capsys):
    d, _, _ = sim_log
    for command in LOADING_COMMANDS:
        assert main(_load_cmd(command, d, d / "missing.jsonl")) == 2
        assert "cannot read log" in capsys.readouterr().err


def test_file_that_is_not_utf8_exits_2_or_3(sim_log, capsys):
    d, log, _ = sim_log
    binary = d / "binary.bin"
    binary.write_bytes(b"legs = 4\n\xff\xfe\n")
    for command in LOADING_COMMANDS:
        assert main(_load_cmd(command, d, binary)) == 2
        assert "cannot read log" in capsys.readouterr().err
        assert main(_load_cmd(command, d, log, "--config", str(binary))) == 3
        assert "config error" in capsys.readouterr().err


def test_replay_empty_log_warns(sim_log, capsys):
    d, _, _ = sim_log
    empty = d / "empty.jsonl"
    empty.write_text("")
    traj = d / "empty.csv"
    assert main(["replay", "--log", str(empty), "--out", str(traj)]) == 0
    assert "empty" in capsys.readouterr().err
    assert read_trajectory(traj).shape[0] == 0


def test_inspect_dumps_diagnostics(sim_log, capsys):
    d, log, _ = sim_log
    assert main(["inspect", "--log", str(log)]) == 0
    diag = json.loads(capsys.readouterr().out)
    assert diag["n_contacts"] == 4
    assert len(diag["planes"]) >= 1
    assert diag["ckf_status"] == {name: 0 for name in CKF_NAMES}  # filter off


def test_inspect_prints_filter_status_totals(sim_log, capsys):
    # with the filter on, a NaN joint angle skips that leg's update once; the
    # replay's per-frame diagnostics records carry no status totals
    d, log, _ = sim_log
    lines = log.read_text().splitlines()
    rec = json.loads(lines[10])
    rec["legs"][2]["q"][1] = float("nan")
    lines[10] = json.dumps(rec)
    bad = d / "nan_angle.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    cfg = d / "filter_on.txt"
    cfg.write_text("ikvel.enabled = true\n")
    assert main(["inspect", "--log", str(bad), "--config", str(cfg)]) == 0
    totals = json.loads(capsys.readouterr().out)["ckf_status"]
    assert totals == {name: int(name == "CKF_MEASUREMENT_SKIPPED") for name in CKF_NAMES}
    assert main(_load_cmd("replay", d, bad, "--config", str(cfg))) == 0
    with open(d / "x.csv.diag.jsonl") as fh:
        assert not any("ckf_status" in json.loads(line) for line in fh)


def test_simulate_with_degradation_seeded(tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text("preset = wheel_swing\nduration = 0.5\n"
                    "degrade.rate_spike_prob = 0.05\n")
    a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
    assert main(["simulate", "--plan", str(plan), "--out", str(a), "--seed", "5"]) == 0
    assert main(["simulate", "--plan", str(plan), "--out", str(b), "--seed", "5"]) == 0
    assert main(["simulate", "--plan", str(plan), "--out", str(c), "--seed", "6"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_replay_ground_truth_metrics(sim_log, capsys):
    d, log, gt = sim_log
    traj = d / "traj_gt.csv"
    assert main(["replay", "--log", str(log), "--out", str(traj)]) == 0
    capsys.readouterr()
    assert main(["metrics", str(traj), "--ground-truth", str(gt)]) == 0
    m = json.loads(capsys.readouterr().out)
    assert m["mae_x"] <= 1e-9  # standing in place, zero noise


HEADER = "t,x,y,z,roll,pitch,yaw,vx,vy,vz\n"
ROW = "0.5,0.1,0.2,0.3,0.0,0.0,0.0,0.0,0.0,0.0\n"


@pytest.mark.parametrize("text, where", [
    ("t,x,y\n" + ROW, "line 1: unexpected trajectory header"),
    (HEADER + ROW + ROW.replace("0.3", "0.3m"), "line 3: could not convert"),
    (HEADER + ROW + ROW.rsplit(",", 1)[0] + "\n", "line 3: expected 10 fields, got 9"),
    (HEADER + ROW.replace("0.2", "nan"), "line 2: row is not finite"),
])
def test_metrics_on_a_malformed_trajectory_exits_2(tmp_path, capsys, text, where):
    traj = tmp_path / "bad.csv"
    traj.write_text(text)
    assert main(["metrics", str(traj)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trajectory parse error: %s: %s" % (traj, where))
    assert err.count("\n") == 1


def test_metrics_on_a_missing_file_or_a_mismatched_ground_truth_exits_2(sim_log, tmp_path, capsys):
    d, log, gt = sim_log
    traj = tmp_path / "traj.csv"
    assert main(["replay", "--log", str(log), "--out", str(traj)]) == 0
    capsys.readouterr()
    missing = tmp_path / "none.csv"
    for argv in ([str(missing)], [str(traj), "--ground-truth", str(missing)]):
        assert main(["metrics", *argv]) == 2
        assert "trajectory parse error: %s: " % missing in capsys.readouterr().err
    short = tmp_path / "short.csv"
    short.write_text(HEADER + ROW)
    assert main(["metrics", str(traj), "--ground-truth", str(short)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("metrics error: ground truth row count 1 != trajectory")


def test_metrics_after_replaying_an_empty_log_exits_2(tmp_path, capsys):
    # replay writes a header-only trajectory for an empty log
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    traj = tmp_path / "empty.csv"
    assert main(["replay", "--log", str(empty), "--out", str(traj)]) == 0
    capsys.readouterr()
    assert main(["metrics", str(traj)]) == 2
    assert capsys.readouterr().err == "metrics error: trajectory must have at least one row\n"


def test_metrics_with_an_infinite_value_exits_2_and_prints_no_json(tmp_path, capsys):
    # finite rows far apart: e_xy overflows to inf, which strict JSON cannot hold
    traj = tmp_path / "far.csv"
    traj.write_text("t,x,y,z,roll,pitch,yaw,vx,vy,vz\n"
                    "0,1e308,0,0,0,0,0,0,0,0\n"
                    "1,-1e308,0,0,0,0,0,0,0,0\n")
    assert main(["metrics", str(traj)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "metrics error: e_xy is not finite\n"
    # the same rows against themselves: the error names the first infinite key
    assert main(["metrics", str(traj), "--ground-truth", str(traj)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "metrics error: e_xy is not finite\n"


def _simulate_plan_error(tmp_path, capsys, text):
    """Exit code and stderr of `simulate --plan` on a plan with this text;
    a traceback fails the test."""
    plan = tmp_path / "plan.txt"
    plan.write_text(text)
    code = main(["simulate", "--plan", str(plan), "--out", str(tmp_path / "x.jsonl")])
    err = capsys.readouterr().err
    assert err.startswith("plan error: ") and err.count("\n") == 1
    return code, err


def test_unknown_plan_mode_exit_3(tmp_path, capsys):
    code, err = _simulate_plan_error(tmp_path, capsys, "rate_hz = 250\nmode = bogus\n")
    assert code == 3
    assert "plan line 2" in err and "unknown mode 'bogus'" in err


def test_unknown_terrain_key_exit_3(tmp_path, capsys):
    # a misspelt key once parsed to a flat terrain, the step height dropped
    code, err = _simulate_plan_error(tmp_path, capsys,
                                     "preset = flat_loop\nterrain.heigth = 0.1\n")
    assert code == 3
    assert err == "plan error: plan line 2: unknown terrain key 'terrain.heigth'\n"


def test_infeasible_plan_exit_3(tmp_path, capsys):
    code, err = _simulate_plan_error(tmp_path, capsys, "preset = flat_loop\nspeed = 40\n")
    assert code == 3
    assert "t=0.6600: foot target outside workspace" in err


def test_step_period_off_the_frame_grid_exit_3(tmp_path, capsys):
    code, err = _simulate_plan_error(tmp_path, capsys,
                                     "preset = flat_loop\nstep_period = 0.2413\n")
    assert code == 3
    assert err == ("plan error: plan line 2: step_period must be an integer number of "
                   "frames (step_period 0.2413 s at rate_hz 250 is 60.325 frames)\n")


def test_rate_hz_off_the_frame_grid_exit_3(tmp_path, capsys):
    code, err = _simulate_plan_error(tmp_path, capsys,
                                     "preset = walk_line\n\nrate_hz = 333\n")
    assert code == 3
    assert err == ("plan error: plan line 3: step_period must be an integer number of "
                   "frames (step_period 0.24 s at rate_hz 333 is 79.92 frames)\n")


def test_unparseable_plan_value_exit_3(tmp_path, capsys):
    code, err = _simulate_plan_error(tmp_path, capsys, "mode = stand\nrate_hz = abc\n")
    assert code == 3
    assert "plan line 2: bad value for rate_hz: 'abc'" in err
