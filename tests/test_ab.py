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


def test_sign_test_is_exact_and_two_sided():
    # 4 of 4: 2 * (1/16); 9 of 10: 2 * 11/1024; 3 of 5 or a tie: 1
    assert ab.sign_test(4, 0) == 0.125
    assert ab.sign_test(0, 4) == 0.125
    assert ab.sign_test(9, 1) == pytest.approx(22 / 1024)
    assert ab.sign_test(3, 2) == 1.0
    assert ab.sign_test(0, 0) == 1.0


def test_summary_gives_each_pairs_ratio_their_median_and_the_sign_test():
    base = _runs(step_us_p50=[100.0, 100.0, 200.0, 100.0, 100.0],
                 replay_fps=[1000.0, 1000.0, 1000.0, 1000.0, 1000.0],
                 peak_rss_mb=[50.0, 50.0, 50.0, 50.0, 50.0])
    change = _runs(step_us_p50=[60.0, 55.0, 120.0, 65.0, 100.0],
                   replay_fps=[1500.0, 1000.0, 900.0, 1600.0, 1700.0],
                   peak_rss_mb=[50.0, 50.0, 50.0, 50.0, 50.0])
    rows = {r["name"]: r for r in ab.summarize(base, change, END_TO_END)}
    step = rows["step_us_p50"]
    assert step["ratios"] == [0.6, 0.55, 0.6, 0.65, 1.0]
    assert step["ratio"] == 0.6
    # four wins and a tie: the tie is left out, p = 2 / 2**4
    assert (step["wins"], step["losses"]) == (4, 0)
    assert step["p"] == 0.125
    fps = rows["replay_fps"]
    assert fps["ratios"] == [1.5, 1.0, 0.9, 1.6, 1.7] and fps["ratio"] == 1.5
    assert (fps["wins"], fps["losses"]) == (3, 1) and fps["p"] == 0.625
    text = ab.format_ratios(ab.summarize(base, change, END_TO_END))
    assert text.splitlines()[1].split() == ["step_us_p50", "0.6000", "0.5500", "0.6000",
                                            "0.6500", "1.0000"]


def test_a_to_a_runs_show_no_change():
    # the same checkout on both sides: every pair ties or the splits even out,
    # every ratio is 1 and p is 1
    runs = _runs(step_us_p50=[101.0, 99.0, 104.0, 98.0],
                 replay_fps=[9000.0, 9100.0, 8900.0, 9050.0],
                 peak_rss_mb=[60.0, 61.0, 60.5, 60.0])
    for r in ab.summarize(runs, runs, END_TO_END):
        assert r["wins"] == r["losses"] == 0
        assert r["ratios"] == [1.0] * 4 and r["ratio"] == 1.0
        assert r["p"] == 1.0 and r["within"]
    swapped = _runs(step_us_p50=[99.0, 101.0, 98.0, 104.0],
                    replay_fps=[9100.0, 9000.0, 9050.0, 8900.0],
                    peak_rss_mb=[61.0, 60.0, 60.0, 60.5])
    for r in ab.summarize(runs, swapped, END_TO_END):
        assert r["wins"] == r["losses"] == 2 and r["p"] == 1.0
