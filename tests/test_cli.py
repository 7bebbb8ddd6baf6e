import json

import pytest

from legodom.cli import main
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
