"""Fuzz tests of the input boundary: a sensor-log line, a config file and a
plan file.

Every input must end in one of the documented exit codes (0 ok, 2 log
parse error, 3 config or plan error), never in an exception. The inputs are
drawn from the keys each parser knows, with values from a fixed set of edge
cases (zero, negative, tiny, huge, non-finite, not a number), plus lines of
random text. Runs are derandomized so a failure reproduces, and the example
counts keep the whole file to a few seconds.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from legodom import EstimatorConfig, GaitPlan, generate_gait, kernels
from legodom.cli import main
from legodom.config import _KEYS, parse_config_text
from legodom.logio import frame_to_dict, write_frames
from legodom.planfile import _DEGRADE_KEYS, _FLOAT_KEYS, parse_plan_text

FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

NUMBERS = ["0", "-1", "0.5", "2", "1e-9", "-1e-9", "1e9", "-1e9", "1e300", "-1e300",
           "nan", "inf", "-inf", "abc", "", "1 2"]


def _lines(keys, values=NUMBERS):
    """Lists of `key = value` lines, now and then a line of random text."""
    pair = st.builds("{} = {}".format, st.sampled_from(keys), st.sampled_from(values))
    return st.lists(st.one_of(*[pair] * 7, st.text(max_size=20)), min_size=1, max_size=4)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A scratch directory and a short trot stream whose legs touch down."""
    d = tmp_path_factory.mktemp("fuzz")
    plan = GaitPlan(mode="trot", settle_time=0.02, waypoints=[(0.0, 0.0), (0.3, 0.0)])
    frames = generate_gait(plan).frames[:20]
    log = d / "walk.jsonl"
    write_frames(log, frames)
    return d, log, frame_to_dict(frames[10])


# --- sensor-log lines ---------------------------------------------------------

EDGE_JSON = st.sampled_from([0.0, -1.0, 1e-300, 1e9, 1e300, -1e300, float("nan"),
                             float("inf"), -float("inf"), 10 ** 400, "1", None, True,
                             [], [1.0, 2.0], {"psi": 1.0}])
JSON_VALUES = st.one_of(EDGE_JSON, EDGE_JSON, st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
              st.floats(allow_nan=True, allow_infinity=True)),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8))
FIELD_PATHS = [("t",), ("att",), ("gyro",), ("legs",), ("legs", 0), ("legs", 1, "q"),
               ("legs", 2, "dq"), ("legs", 3, "tau"), ("legs", 0, "wheel"),
               ("legs", 1, "q", 0), ("att", 2), ("gyro", 1)]


def _mutate(frame, path, value):
    """frame with the field at path set to value, or deleted when value is
    the string '<del>'."""
    frame = json.loads(json.dumps(frame))
    node = frame
    for key in path[:-1]:
        node = node[key]
    if value == "<del>":
        if isinstance(node, dict):
            node.pop(path[-1], None)
        else:
            del node[path[-1]]
    else:
        node[path[-1]] = value
    return frame


@settings(FUZZ, max_examples=60)
@given(edits=st.lists(st.tuples(st.sampled_from(FIELD_PATHS),
                                st.one_of(JSON_VALUES, st.just("<del>"))),
                      min_size=1, max_size=3),
       filter_on=st.booleans())
def test_fuzzed_log_line_replays_or_exits_2(work, edits, filter_on):
    # the fuzzed frame follows clean ones of the same stream, so a frame the
    # parser accepts is stepped by an estimator with state
    d, log, frame = work
    for path, value in edits:
        try:
            frame = _mutate(frame, path, value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or replaced the parent
    fuzzed = d / "fuzz.jsonl"
    lines = log.read_text().splitlines()
    fuzzed.write_text("\n".join(lines[:10] + [json.dumps(frame)] + lines[11:]) + "\n")
    config = d / ("filter_%s.txt" % filter_on)
    config.write_text("ikvel.enabled = %s\n" % filter_on)
    assert main(["replay", "--log", str(fuzzed), "--config", str(config),
                 "--out", str(d / "fuzz.csv")]) in (0, 2)


EDGES = ["0", "-1", "1e300", "nan", "inf"]


def test_each_log_field_with_each_edge_value_replays_or_exits_2(work):
    # the sweep behind the fuzz above: one edge value in one field at a time
    d, log, frame = work
    lines = log.read_text().splitlines()
    fuzzed = d / "edge.jsonl"
    for filter_on in (False, True):
        config = d / ("edge_filter_%s.txt" % filter_on)
        config.write_text("ikvel.enabled = %s\n" % filter_on)
        for path in FIELD_PATHS:
            for value in [float(v) for v in EDGES] + [10 ** 400]:
                edited = json.dumps(_mutate(frame, path, value))
                fuzzed.write_text("\n".join(lines[:10] + [edited] + lines[11:]) + "\n")
                code = main(["replay", "--log", str(fuzzed), "--config", str(config),
                             "--out", str(d / "edge.csv")])
                assert code in (0, 2), (path, value, filter_on)


@settings(FUZZ, max_examples=30)
@given(text=st.text(max_size=60))
def test_random_log_text_replays_or_exits_2(work, text):
    d, _, _ = work
    log = d / "text.jsonl"
    log.write_text(text, encoding="utf-8")
    assert main(["replay", "--log", str(log), "--out", str(d / "text.csv")]) in (0, 2)


# finite joint angles whose q1 + q2 overflows to inf; math.cos of it raises
OVERFLOW_Q = [[1e308, 1e308, 1e308], [-1e308, 1e308, 1e308], [0.0, 1e308, 1e308]]
# a magnitude near the largest double, so that two of them overflow
HUGE = st.floats(min_value=1.6e308, max_value=1.7976931348623157e308)
SIGNED_HUGE = st.one_of(HUGE, HUGE.map(lambda x: -x))


def _replay_with_angles(work, leg, q, filter_on):
    """The exit code of a replay of the stream with leg's angles set to q on
    one frame after clean ones."""
    d, log, frame = work
    lines = log.read_text().splitlines()
    edited = json.dumps(_mutate(frame, ("legs", leg, "q"), q))
    fuzzed = d / "angles.jsonl"
    fuzzed.write_text("\n".join(lines[:10] + [edited] + lines[11:]) + "\n")
    config = d / ("angles_filter_%s.txt" % filter_on)
    config.write_text("ikvel.enabled = %s\n" % filter_on)
    return main(["replay", "--log", str(fuzzed), "--config", str(config),
                 "--out", str(d / "angles.csv")])


@pytest.mark.parametrize("q", OVERFLOW_Q)
def test_angles_whose_pair_sum_overflows_gate_the_leg_out(work, q):
    # the leg counts as one with a non-finite angle: NaN position, gated out;
    # the other legs keep their figures, and the replay runs on
    coef = [kernels.leg_coefficients(*g.kernel_args()) for g in EstimatorConfig().legs]
    good = [0.0, 0.7, -1.4]
    r, _, f, ok = kernels.leg_rows([q, good], [[0.1, 0.2, 0.3]] * 2,
                                   [[1.0, 2.0, 3.0]] * 2, coef[:2], kernels.SIGMA_MIN)
    assert all(x != x for x in r[0]) and f[0] == (0.0, 0.0, 0.0) and not ok[0]
    assert all(x == x for x in r[1]) and ok[1]
    for filter_on in (False, True):
        assert _replay_with_angles(work, 1, q, filter_on) == 0, filter_on


@settings(FUZZ, max_examples=40)
@given(q0=st.one_of(st.just(0.0), SIGNED_HUGE), q1=SIGNED_HUGE, q2=SIGNED_HUGE,
       leg=st.integers(0, 3), filter_on=st.booleans())
def test_angle_pairs_near_the_largest_double_replay(work, q0, q1, q2, leg, filter_on):
    assert _replay_with_angles(work, leg, [q0, q1, q2], filter_on) == 0


# --- config files -------------------------------------------------------------

CONFIG_KEYS = sorted(_KEYS["config"]) + [
    "legs", "leg0.side", "leg3.side", "leg1.mount", "init.position"]
CONFIG_VALUES = NUMBERS + ["true", "no", "4", "2", "0 0 0.3", "0 nan 0", "1e300 0 0"]


@settings(FUZZ, max_examples=50)
@given(lines=_lines(CONFIG_KEYS, CONFIG_VALUES))
def test_fuzzed_config_replays_or_exits_2_or_3(work, lines):
    d, log, _ = work
    config = d / "fuzz.config.txt"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["replay", "--log", str(log), "--config", str(config),
                 "--out", str(d / "config.csv")])
    # 2 where the config's leg count differs from the log's
    assert code in (0, 2, 3)


def test_each_config_key_with_each_edge_value_replays_or_exits_2_or_3(work):
    d, log, _ = work
    config = d / "edge.config.txt"
    # with the filter on, a replay runs every stage a config reaches
    for key in CONFIG_KEYS:
        for value in EDGES + ["1e9"]:
            config.write_text("ikvel.enabled = true\n%s = %s\n" % (key, value))
            code = main(["replay", "--log", str(log), "--config", str(config),
                         "--out", str(d / "edge.csv")])
            assert code in (0, 2, 3), (key, value)


# (key, its rule, values outside its range, values at its edge that must parse)
CONFIG_RANGES = [
    ("geom.thigh", "> 0", ["0", "-0.2", "-1e-9"], ["1e-9"]),
    ("geom.calf", "> 0", ["0", "-0.2", "-1e-9"], ["1e-9"]),
    ("geom.wheel_radius", ">= 0", ["-1e-9", "-0.05"], ["0"]),
    ("height.match_window", "> 0", ["0", "-1"], ["1e-9"]),
    ("height.fade_time", "> 0", ["0", "-30"], ["1e-9"]),
    ("yaw.alpha0", "within (0, 1]", ["0", "-0.02", "1.5", "1.000001"], ["1e-9", "1"]),
    ("yaw.ramp_time", "> 0", ["0", "-3"], ["1e-9"]),
    ("ikvel.q_pos", "> 0", ["0", "-1e-6"], ["1e-9"]),
    ("ikvel.q_vel", "> 0", ["0", "-0.3"], ["1e-9"]),
    ("ikvel.r_angle", "> 0", ["0", "-2.5e-7"], ["1e-9"]),
    ("ikvel.r_rate", "> 0", ["0", "-0.3"], ["1e-9"]),
    ("blend.pos_gain", "within [0, 1]", ["-1e-9", "1.5"], ["0", "1"]),
    ("blend.vel_gain", "within [0, 1]", ["-0.8", "1.000001"], ["0", "1"]),
]


def test_each_range_checked_config_key_exits_3_naming_line_and_key(work, capsys):
    d, log, _ = work
    config = d / "range.config.txt"
    for key, rule, bad, edge in CONFIG_RANGES:
        for value in bad:
            config.write_text("# tuned values\n%s = %s\n" % (key, value))
            code = main(["replay", "--log", str(log), "--config", str(config),
                         "--out", str(d / "range.csv")])
            err = capsys.readouterr().err
            assert code == 3, (key, value)
            assert err == "config error: config line 2: %s must be %s, got %r\n" % (
                key, rule, value), err
        for value in edge:
            parse_config_text("%s = %s" % (key, value))


# keys a config once took, whose guards are now constants of the operators
# that apply them; a file that sets one (as every file save_config wrote
# then did) is refused, not silently read without them
RETIRED_CONFIG_KEYS = ["contact.sigma_min", "height.decay_scale", "yaw.min_baseline",
                       "ikvel.dt_max", "wheel.heading_eps"]


def test_each_retired_config_key_exits_3_naming_its_line(work, capsys):
    d, log, _ = work
    config = d / "retired.config.txt"
    for key in RETIRED_CONFIG_KEYS:
        config.write_text("yaw.alpha0 = 0.05\n%s = 1e-6\n" % key)
        code = main(["replay", "--log", str(log), "--config", str(config),
                     "--out", str(d / "retired.csv")])
        assert code == 3, key
        assert capsys.readouterr().err == (
            "config error: config line 2: unknown config key %r\n" % key)


# --- plan files ---------------------------------------------------------------

PLAN_KEYS = sorted(_FLOAT_KEYS) + ["mode", "preset", "waypoint", "wheel_radius",
                                   "terrain.x0", "terrain.x1", "terrain.height",
                                   "terrain.ramp", "degrade.rate_spike_prob",
                                   "degrade.rate_spike_gain", "degrade.nope"] + [
    "degrade." + k for k in _DEGRADE_KEYS]
PLAN_VALUES = NUMBERS + ["trot", "stand", "hop", "wheel_roll", "walk_line", "standing",
                         "turn_in_place", "wheel_swing", "0 0", "0.2 0", "nan 0"]
# a short path and stream under the fuzzed lines keep a plan that generates
# to a few hundred frames; a later line of the same key overrides these
PLAN_BASE = ["rate_hz = 50", "step_period = 0.2", "waypoint = 0 0",
             "waypoint = 0.05 0", "settle_time = 0.05", "duration = 0.4",
             "turn_angle = 0.2"]


@settings(FUZZ, max_examples=60)
@given(lines=_lines(PLAN_KEYS, PLAN_VALUES))
def test_fuzzed_plan_simulates_or_exits_3(work, lines):
    d, _, _ = work
    plan = d / "fuzz.plan.txt"
    plan.write_text("\n".join(PLAN_BASE + lines) + "\n", encoding="utf-8")
    code = main(["simulate", "--plan", str(plan), "--out", str(d / "plan.jsonl"),
                 "--seed", "1"])
    assert code in (0, 3)


def test_each_plan_key_with_each_edge_value_simulates_or_exits_3(work):
    d, _, _ = work
    plan = d / "edge.plan.txt"
    for key in PLAN_KEYS:
        for value in EDGES + ["1e9"]:
            plan.write_text("\n".join(PLAN_BASE + ["%s = %s" % (key, value)]) + "\n")
            code = main(["simulate", "--plan", str(plan), "--out", str(d / "edge.jsonl")])
            assert code in (0, 3), (key, value)


# (key, its rule, values outside its range, values at its edge that must parse);
# on the trot of PLAN_BASE, a rate_hz or step_period must also keep the
# half-cycle a whole number of frames
PLAN_RANGES = [
    ("rate_hz", "> 0", ["0", "-50", "-1e-9"], ["10"]),
    ("mass", "> 0", ["0", "-1", "-1e-9"], ["1e-9"]),
    ("body_height", "> 0", ["0", "-0.3"], ["1e-9"]),
    ("duration", ">= 0", ["-1e-9", "-1"], ["0"]),
    ("step_period", ">= 0", ["-1e-9", "-0.2"], ["0.04"]),
    ("speed", ">= 0", ["-1e-9", "-0.5"], ["0"]),
    ("settle_time", ">= 0", ["-1e-9", "-0.6"], ["0"]),
    ("step_height", ">= 0", ["-1e-9", "-1"], ["0"]),
    ("wheel_radius", ">= 0", ["-1e-9", "-0.05"], ["0"]),
    ("degrade.encoder_quantum", ">= 0", ["-1e-9", "-1e-3"], ["0"]),
    ("degrade.touchdown_height_noise", ">= 0", ["-1e-9", "-0.02"], ["0"]),
    ("degrade.rate_spike_prob", "within [0, 1]", ["-1e-9", "1.5", "2"], ["0", "1"]),
]


def test_each_range_checked_plan_key_exits_3_naming_line_and_key(work, capsys):
    d, _, _ = work
    plan = d / "range.plan.txt"
    lineno = len(PLAN_BASE) + 1
    for key, rule, bad, edge in PLAN_RANGES:
        for value in bad:
            plan.write_text("\n".join(PLAN_BASE + ["%s = %s" % (key, value)]) + "\n")
            code = main(["simulate", "--plan", str(plan), "--out", str(d / "range.jsonl")])
            err = capsys.readouterr().err
            assert code == 3, (key, value)
            assert err == "plan error: plan line %d: %s must be %s, got %r\n" % (
                lineno, key, rule, value), err
        for value in edge:
            parse_plan_text("\n".join(PLAN_BASE + ["%s = %s" % (key, value)]))


# --- trajectory CSVs ----------------------------------------------------------

TRAJ_HEADER = "t,x,y,z,roll,pitch,yaw,vx,vy,vz"
# mostly finite fields (huge ones among them), so that many rows parse
FIELD = st.one_of(*[st.sampled_from(["0", "-1", "0.5", "2e-9", "1e9", "1e308",
                                     "-1e308"])] * 4, st.sampled_from(NUMBERS))
ROW = st.one_of(*[st.lists(FIELD, min_size=10, max_size=10)] * 3,
                st.lists(FIELD, max_size=12)).map(",".join)
CSV_TEXT = st.builds(lambda head, rows: "\n".join([head] + rows) + "\n",
                     st.one_of(st.just(TRAJ_HEADER), st.just(""), st.text(max_size=20)),
                     st.lists(st.one_of(*[ROW] * 5, st.text(max_size=20)), max_size=4))


@settings(FUZZ, max_examples=80)
@given(traj=CSV_TEXT, gt=st.one_of(st.none(), CSV_TEXT))
@example(traj=TRAJ_HEADER + "\n0,1e308,0,0,0,0,0,0,0,0\n1,-1e308,0,0,0,0,0,0,0,0\n",
         gt=None)
def test_random_trajectory_csv_measures_or_exits_2(work, traj, gt):
    d, _, _ = work
    argv = ["metrics", str(d / "traj.csv")]
    (d / "traj.csv").write_text(traj, encoding="utf-8")
    if gt is not None:
        (d / "gt.csv").write_text(gt, encoding="utf-8")
        argv += ["--ground-truth", str(d / "gt.csv")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (0, 2)
    if code == 0:
        # strict JSON: NaN and Infinity are not numbers there
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == ""


def _reject_constant(name):
    raise ValueError("metrics printed %s, which strict JSON has no number for" % name)
