"""The summary of benchmarks/ab.py on canned run records (no subprocess)."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks", "ab.py")
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

END_TO_END = [
    {"name": "step_us_p50", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "replay_fps", "unit": "frames/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _runs(**columns):
    n = len(next(iter(columns.values())))
    return [{name: values[k] for name, values in columns.items()} for k in range(n)]


def test_summary_gives_medians_base_iqr_wins_and_bounds():
    base = _runs(step_us_p50=[100.0, 110.0, 120.0, 130.0],
                 replay_fps=[1000.0, 1000.0, 1000.0, 1000.0],
                 peak_rss_mb=[90.0, 91.0, 92.0, 93.0])
    change = _runs(step_us_p50=[99.0, 111.0, 119.0, 129.0],
                   replay_fps=[700.0, 800.0, 1000.0, 1100.0],
                   peak_rss_mb=[110.0, 100.0, 101.0, 99.0])
    rows = {r["name"]: r for r in ab.summarize(base, change, END_TO_END)}
    assert list(rows) == ["step_us_p50", "replay_fps", "peak_rss_mb"]

    step = rows["step_us_p50"]
    assert step["base"] == 115.0 and step["change"] == 115.0
    # linear quartiles of 100, 110, 120, 130: 107.5 and 122.5
    assert step["base_iqr"] == pytest.approx(15.0)
    assert step["wins"] == 3 and step["pairs"] == 4 and step["within"]
    assert step["unit"] == "us"

    fps = rows["replay_fps"]
    assert fps["base"] == 1000.0 and fps["change"] == 900.0
    assert fps["base_iqr"] == 0.0
    # higher is better: only the 1100 pair wins, and a tie is no win;
    # 900 is within 25 % of 1000
    assert fps["wins"] == 1 and fps["within"]

    rss = rows["peak_rss_mb"]
    assert rss["base"] == 91.5 and rss["change"] == 100.5
    assert rss["wins"] == 0
    # within: 100.5 <= 91.5 * 1.1 = 100.65
    assert rss["within"]


def test_summary_flags_a_median_beyond_its_bound():
    base = _runs(step_us_p50=[100.0, 100.0], replay_fps=[1000.0, 1000.0],
                 peak_rss_mb=[50.0, 50.0])
    change = _runs(step_us_p50=[127.0, 125.0], replay_fps=[740.0, 744.0],
                   peak_rss_mb=[55.5, 55.5])
    rows = {r["name"]: r for r in ab.summarize(base, change, END_TO_END)}
    assert not rows["step_us_p50"]["within"]  # 126 > 100 * 1.25
    assert not rows["replay_fps"]["within"]  # 742 < 1000 * 0.75
    assert not rows["peak_rss_mb"]["within"]  # 55.5 > 50 * 1.1
    # a median on the bound is within it
    at_bound = ab.summarize(base, _runs(step_us_p50=[125.0, 125.0],
                                        replay_fps=[750.0, 750.0],
                                        peak_rss_mb=[55.0, 55.0]), END_TO_END)
    assert all(r["within"] for r in at_bound)


def test_table_has_one_line_per_metric():
    base = _runs(step_us_p50=[1.0], replay_fps=[1.0], peak_rss_mb=[1.0])
    text = ab.format_rows(ab.summarize(base, base, END_TO_END))
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("step_us_p50") and "0 of 1" in lines[1]
    assert "within" in lines[1]
