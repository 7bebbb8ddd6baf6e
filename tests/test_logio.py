import json
import os
import subprocess
import sys
import types

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legodom import (ConfigError, Estimator, EstimatorConfig, LegGeometry, SensorFrame,
                     WheelReading, degrade, generate_gait, load_config, parse_config_text,
                     preset_plan, save_config)
from legodom import logio
from legodom.estimator import BodyState
from legodom.gait import PRESETS
from legodom.logio import (LogParseError, encode_json, frame_to_dict, read_frames,
                           read_trajectory, trajectory_line, write_frames, write_trajectory)
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


# --- the float speller and the replay's block writers --------------------------

def _spelled(values):
    """Each of a list of finite floats as the writers spell it: orjson's
    text of the list, through the speller."""
    return logio._repr_floats(orjson.dumps(values).decode())[1:-1].split(",")


def _both_signs(values):
    return [v for x in values for v in (x, -x)]


def test_the_float_speller_spells_random_bit_patterns_as_repr():
    bits = np.random.default_rng(35).integers(0, 2 ** 64, size=250_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)].tolist()
    assert len(values) > 200_000
    assert _spelled(values) == list(map(repr, values))


def test_the_float_speller_spells_every_power_of_ten_and_its_neighbours_as_repr():
    # every decade boundary that is a double, the two doubles beside it, and
    # each digit count from 1 to 17 around the decades where orjson and repr
    # switch between fixed and exponent forms
    powers = [float("1e%d" % k) for k in range(-323, 309)]
    values = [v for p in powers for v in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))]
    values += [float("1.%se%d" % ("2345678901234567"[:digits], k))
               for digits in range(17) for k in range(-8, 20)]
    values = _both_signs([float(v) for v in values if np.isfinite(v)])
    assert _spelled(values) == list(map(repr, values))


def test_the_float_speller_spells_subnormals_zeros_extremes_and_the_tiny_form_as_repr():
    tiny = np.random.default_rng(36).uniform(1e-5, 1e-4, size=2000).tolist()
    values = (
        [0.0, -0.0, 5e-324, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
         1.7976931348623157e308]
        + (np.arange(1, 2000) * 5e-324).tolist()
        # [1e-5, 1e-4): orjson writes 0.0000d..., repr d...e-05
        + [1e-5, 1.5e-5, 9.999999999999999e-05, np.nextafter(1e-4, 0.0), 1e-4] + tiny
        # 0.0000 after a digit, and other near misses, are not the tiny form
        + [10.00001, 100.00003, 1230.00004, 10.000015, 0.00010001, 1.00001e-6])
    values = _both_signs([float(v) for v in values])
    assert _spelled(values) == list(map(repr, values))


@pytest.fixture(scope="module")
def replays(stream):
    """{name: [(states, records) of each replay block]}: every preset's
    replay with the default config, and each replay-benchmark workload's
    degraded stream at seed 0 with its config, stepped as `legodom replay`
    steps them."""
    from test_stream_digests import sd

    runs = {name: (stream(name)[2], EstimatorConfig()) for name in PRESETS}
    for name, (plan_text, config) in sd.WORKLOADS.items():
        plan = parse_plan_text(sd.workload_plan(plan_text, 0))
        res = generate_gait(plan)
        runs[name] = (degrade(res.frames, plan.imperfections, seed=0, contacts=res.contacts,
                              legs=plan.legs), parse_config_text(config))
    out = {}
    for name, (frames, cfg) in runs.items():
        est = Estimator(cfg)
        out[name] = [tuple(zip(*[(st, est.diagnostics()) for st in est.step_block(block)]))
                     for block in (frames[k:k + 256] for k in range(0, len(frames), 256))]
    return out


def _reference_csv(states):
    return "".join(map(trajectory_line, states))


def _reference_diag(records):
    return "".join(encode_json(rec) + "\n" for rec in records)


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts of the calls the block writers make to their reference
    spellings, `trajectory_line` and `encode_json`."""
    calls = {"trajectory_line": 0, "encode_json": 0}
    for name in calls:
        reference = getattr(logio, name)

        def counted(value, reference=reference, name=name):
            calls[name] += 1
            return reference(value)
        monkeypatch.setattr(logio, name, counted)
    return calls


@pytest.mark.parametrize("name", PRESETS + ("stair_trot", "ckf_walk", "wheel_cli"))
def test_the_block_writers_spell_each_replay_as_their_references(replays, name, fallbacks):
    blocks = replays[name]
    want = [(_reference_csv(states), _reference_diag(records)) for states, records in blocks]
    got = [(logio.trajectory_lines(states), logio.diagnostics_lines(records))
           for states, records in blocks]
    assert got == want
    # every block is spelled by orjson, none through the reference
    assert fallbacks == {"trajectory_line": 0, "encode_json": 0}


def _state(*values, stamp=1.5):
    """A BodyState of position, rpy and velocity from nine values."""
    return BodyState(np.array(values[:3]), np.array(values[3:6]), np.array(values[6:]), stamp)


PLAIN = (0.1, -0.2, 0.3, 0.01, -0.02, 0.03, 1.0, 0.0, -0.5)
# (states, whether the writer must take the reference spelling)
STATE_CASES = {
    "plain": ([_state(*PLAIN)] * 3, False),
    "tiny_and_exponent": ([_state(1.5e-5, -9.99e-5, 1e-5, 10.00001, 1e-7, -2.5e-12,
                                  1e16, -1.2e300, 5e-324, stamp=3e-05)], False),
    "int_arrays": ([BodyState(np.arange(3), np.zeros(3, dtype=int), np.ones(3, dtype=int), 2)],
                   False),
    "numpy_float_stamp": ([_state(*PLAIN, stamp=np.float64(0.25))], False),
    "nan": ([_state(*PLAIN), _state(0.1, np.nan, *PLAIN[2:])], True),
    "negative_nan": ([_state(*PLAIN[:8], np.copysign(np.nan, -1.0))], True),
    "infinities": ([_state(np.inf, -np.inf, *PLAIN[2:])], True),
    "infinite_stamp": ([_state(*PLAIN, stamp=np.inf)], True),
    "bool_array": ([BodyState(np.array([True, False, True]), np.zeros(3), np.zeros(3), 0.5)],
                   True),
    "nested_array": ([BodyState(np.zeros((3, 1)), np.zeros(3), np.zeros(3), 0.5)], True),
}


@pytest.mark.parametrize("case", sorted(STATE_CASES))
def test_trajectory_lines_spell_odd_states_as_the_reference(case, fallbacks):
    states, falls_back = STATE_CASES[case]
    want = _reference_csv(states)
    assert logio.trajectory_lines(states) == want
    assert (fallbacks["trajectory_line"] > 0) == falls_back


def test_write_trajectory_writes_each_block_as_the_reference(tmp_path):
    rng = np.random.default_rng(37)
    values = rng.normal(size=(600, 9)) * rng.choice([1e-5, 3e-5, 1e-3, 1.0, 1e17], (600, 9))
    states = [_state(*row, stamp=0.004 * k) for k, row in enumerate(values.tolist())]
    states[300] = _state(np.nan, *PLAIN[1:])  # the block holding it goes through the reference
    path = tmp_path / "traj.csv"
    write_trajectory(path, states)
    assert path.read_text() == logio.TRAJ_HEADER + _reference_csv(states)


def _record(**changes):
    record = {"t": 0.5, "n_contacts": 2, "contacts": [0, 3], "touchdowns": [3],
              "anchors": [[0.2, 0.1, 0.0], None, None, [-0.2, -0.1, 0.0]],
              "planes": [{"h": 0.0, "w": 2.0, "t": 0.25}], "yaw_kin": 0.01, "yaw_err": -0.002,
              "mode": "fused"}
    record.update(changes)
    return record


# (records, whether the writer must take the reference spelling)
RECORD_CASES = {
    "plain": ([_record(), {}, _record(yaw_kin=None, yaw_err=None, mode="predict")], False),
    "tiny_anchor_and_yaw_err": ([_record(anchors=[[1.5e-5, -9.99e-5, 10.00001], None,
                                                  [1e-5, 3e-5, -1e-7], None],
                                         yaw_err=3.25e-05)], False),
    "exponents": ([_record(yaw_kin=1e-7, yaw_err=-2.5e-17,
                           planes=[{"h": 1e16, "w": 1e300, "t": 5e-324}])], False),
    "bool_and_big_int": ([_record(n_contacts=True, contacts=[2 ** 63 - 1])], False),
    "nan_yaw_err": ([_record(), _record(yaw_err=np.nan)], True),
    "infinite_anchor": ([_record(anchors=[[np.inf, 0.0, 0.0], None, None, None])], True),
    "negative_infinite_plane": ([_record(planes=[{"h": -np.inf, "w": 1.0, "t": 0.0}])], True),
    "nested_none": ([_record(planes=[{"h": None, "w": 1.0, "t": 0.0}])], True),
    "numpy_float": ([_record(yaw_kin=np.float64(0.5))], True),
    "int_beyond_64_bits": ([_record(n_contacts=2 ** 64)], True),
    "int_key": ([{1: 2.5}], True),
    "comma_in_string": ([_record(mode="a,b")], True),
    "colon_in_key": ([{"a:b": 1.5}], True),
    "digit_in_string": ([_record(mode="0.00001e5")], True),
    "quote_in_string": ([_record(mode='say "hi"')], True),
    "backslash_in_key": ([{"a\\b": 1.5}], True),
    "newline_in_string": ([_record(mode="a\nb")], True),
    "non_ascii_string": ([_record(mode="gefüllt")], True),
}


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_diagnostics_lines_spell_odd_records_as_the_reference(case, fallbacks):
    records, falls_back = RECORD_CASES[case]
    want = _reference_diag(records)
    assert logio.diagnostics_lines(records) == want
    assert (fallbacks["encode_json"] > 0) == falls_back


def test_the_block_writers_of_no_rows_write_nothing():
    assert logio.trajectory_lines([]) == "" and logio.diagnostics_lines([]) == ""


@pytest.fixture
def fresh_speller_check():
    """`logio._speller_exact` re-run on its next call, and again after the test."""
    logio._speller_exact.cache_clear()
    yield logio._speller_exact
    logio._speller_exact.cache_clear()


def test_the_installed_orjson_spells_the_edges_of_its_forms_as_repr(fresh_speller_check):
    # were it not, every writer would spell through its reference
    assert fresh_speller_check()


def test_a_speller_that_misses_an_edge_sends_every_writer_through_its_reference(
        fresh_speller_check, fallbacks, monkeypatch, stream, tmp_path):
    # as an orjson release that kept its exponent form past the fix-up would
    spell = logio._repr_floats
    monkeypatch.setattr(logio, "_repr_floats", lambda text: spell(text).replace("e+", "e"))
    assert not fresh_speller_check()
    states, _ = STATE_CASES["tiny_and_exponent"]
    records, _ = RECORD_CASES["exponents"]
    assert logio.trajectory_lines(states) == _reference_csv(states)
    assert logio.diagnostics_lines(records) == _reference_diag(records)
    assert fallbacks["trajectory_line"] > 0 and fallbacks["encode_json"] > 0
    _, _, frames = stream("wheel_roll", 0, WHEEL_CLI)
    frames = frames[:300]
    assert logio._spell_block(frames[:logio._BLOCK]) is None
    write_frames(tmp_path / "log.jsonl", frames)
    reference = "".join(encode_json(frame_to_dict(fr)) + "\n" for fr in frames)
    assert (tmp_path / "log.jsonl").read_text() == reference


def _refuse(line):
    raise orjson.JSONDecodeError("refused", line, 0)


# orjson made to refuse every line: the parse is then json.loads alone
REFUSING = types.SimpleNamespace(loads=_refuse, JSONDecodeError=orjson.JSONDecodeError)


def _frames_or_error(path):
    """The frames of the log at path, or the message of its LogParseError."""
    try:
        return read_frames(path)
    except LogParseError as exc:
        return str(exc)


def _json_only(path, monkeypatch):
    """_frames_or_error(path) with orjson refusing every line."""
    parse = logio._parse_line
    with monkeypatch.context() as m:
        m.setattr(logio, "_parse_line", lambda line, _: parse(line, REFUSING))
        return _frames_or_error(path)


def _same_frames(got, want):
    assert isinstance(got, list) and isinstance(want, list), (got, want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert float(a.stamp).hex() == float(b.stamp).hex()
        for name in ("att", "gyro", "joints"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
        assert a.wheels == b.wheels


def _line(q=None, x=None, **fields):
    """The first line of a short wheel_roll log with the top-level fields
    replaced, as json.dumps spells them, and where given, the text q as the
    first leg's q and the text x as the value of an unread key "x"."""
    plan = preset_plan("wheel_roll")
    plan.duration = 0.01
    rec = dict(frame_to_dict(generate_gait(plan).frames[0]), **fields)
    texts = {}
    if q is not None:
        rec["legs"][0]["q"], texts['"@q@"'] = "@q@", q
    if x is not None:
        rec["x"], texts['"@x@"'] = "@x@", x
    line = json.dumps(rec)
    for mark, text in texts.items():
        line = line.replace(mark, text)
    return line


FALLBACK_LINES = {  # lines that orjson refuses or must not read
    "non_finite_joints": lambda: _line(q="[NaN, Infinity, -Infinity]"),
    "int_stamp": lambda: _line(t=3),
    "ints_past_64_bits": lambda: _line(t=2 ** 70 + 1, att=[2 ** 65 + 3, -2 ** 64 - 7, 0, 1]),
    "int_past_a_double_in_a_joint": lambda: _line(q="[%d, 0.0, 0.0]" % 10 ** 400),
    "lone_surrogate_in_an_unread_key": lambda: _line(x='{"\\ud800": 1}'),
    "unclosed_100000_deep": lambda: "[" * 100_000,
    "closed_100000_deep_in_an_unread_key": lambda: _line(x="[" * 100_000 + "]" * 100_000),
    "many_shallow_brackets_in_an_unread_key": lambda: _line(x=json.dumps([[0]] * 600)),
}
# the cases that end in an error, with a part of its message
FALLBACK_ERRORS = {"int_past_a_double_in_a_joint": "int too large to convert to float",
                   "unclosed_100000_deep": "recursion",
                   "closed_100000_deep_in_an_unread_key": "recursion"}


@pytest.mark.parametrize("case", sorted(FALLBACK_LINES))
def test_a_line_orjson_refuses_parses_as_json_loads_alone_parses_it(case, tmp_path,
                                                                     monkeypatch):
    path = tmp_path / "log.jsonl"
    path.write_text(FALLBACK_LINES[case]() + "\n")
    got, want = _frames_or_error(path), _json_only(path, monkeypatch)
    if case in FALLBACK_ERRORS:
        assert FALLBACK_ERRORS[case] in want and got == want
    else:
        _same_frames(got, want)


def test_a_generated_log_parses_as_json_loads_alone_parses_it(stream, tmp_path,
                                                               monkeypatch):
    # every 7th frame with NaN, infinite and -0.0 joints, which orjson refuses
    _, _, frames = stream("wheel_roll", 0, WHEEL_CLI)
    for k in range(0, len(frames), 7):
        joints = frames[k].joints.copy()
        joints[k % 3, k % 4] = (np.nan, np.inf, -np.inf)
        joints[(k + 1) % 3, k % 4] = (-0.0, np.copysign(np.nan, -1.0), 0.0)
        frames[k] = _frame(frames[k], joints=joints)
    path = tmp_path / "log.jsonl"
    write_frames(path, frames)
    got = _frames_or_error(path)
    assert len(got) == len(frames)
    _same_frames(got, _json_only(path, monkeypatch))


_LINE = _line(q="[@, 0.0, 0.0]")
NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"-?(0|[1-9][0-9]{0,24})(\.[0-9]{1,25})?([eE][-+]?[0-9]{1,3})?",
                  fullmatch=True))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(text=NUMBER_TEXT)
def test_a_number_in_a_log_line_parses_to_float_of_its_text(text):
    frame = logio.frame_from_dict(logio._parse_line(_LINE.replace("@", text), orjson))
    # an integer literal is a JSON int: "-0" is 0
    want = float(int(text)) if text.lstrip("-").isdigit() else float(text)
    assert frame.joints[0, 0, 0].hex() == want.hex()


def test_importing_the_package_leaves_orjson_unloaded():
    # only iter_frames imports orjson: the import costs a process that never
    # reads a log about 4 ms and 2 MB
    import legodom

    src = os.path.dirname(os.path.dirname(os.path.abspath(legodom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, legodom, legodom.logio, legodom.cli\n"
            "assert legodom.__file__.startswith(%r), legodom.__file__\n"
            "assert 'orjson' not in sys.modules\n" % src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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
