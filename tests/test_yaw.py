import numpy as np
import pytest

from legodom import (DegenerateMean, InsufficientContacts,
                     apply_yaw_correction, circular_mean, pairwise_yaw,
                     wrap_angle)
from legodom.geometry import rpy_rows

import estimator_reference as reference


def test_pairwise_yaw_aligned():
    got = pairwise_yaw([np.zeros(3), np.array([1.0, 0, 0])],
                       [np.zeros(3), np.array([1.0, 0, 0])], 0.0, 0.0)
    assert np.allclose(got, [0.0])


def test_pairwise_yaw_quarter_turn():
    got = pairwise_yaw([np.zeros(3), np.array([1.0, 0, 0])],
                       [np.zeros(3), np.array([0.0, 1.0, 0])], 0.0, 0.0)
    assert np.allclose(got, [-np.pi / 2])


def test_pairwise_yaw_insufficient():
    with pytest.raises(InsufficientContacts):
        pairwise_yaw([np.zeros(3)], [np.zeros(3)], 0.0, 0.0)


def test_pairwise_yaw_recovers_true_yaw_under_tilt():
    rng = np.random.default_rng(1)
    for _ in range(200):
        roll, pitch = rng.uniform(-0.4, 0.4, 2)
        yaw = rng.uniform(-np.pi, np.pi)
        rot = np.array(rpy_rows(roll, pitch, yaw))
        feet = [rng.normal(size=3) for _ in range(3)]
        anchors = [rot @ f for f in feet]  # translation-free world geometry
        vals = pairwise_yaw(anchors, feet, roll, pitch)
        for v in vals:
            assert abs(wrap_angle(v - yaw)) <= 1e-9


def test_pairwise_yaw_translation_invariant():
    rng = np.random.default_rng(2)
    feet = [rng.normal(size=3) for _ in range(4)]
    rot = np.array(rpy_rows(0.1, -0.2, 0.7))
    anchors = [rot @ f for f in feet]
    base = pairwise_yaw(anchors, feet, 0.1, -0.2)
    shift = rng.normal(size=3)
    moved = pairwise_yaw([a + shift for a in anchors], feet, 0.1, -0.2)
    assert np.allclose(base, moved)


def test_pairwise_yaw_skips_short_baselines():
    anchors = [np.zeros(3), np.array([1e-3, 0, 0]), np.array([1.0, 0, 0])]
    feet = [np.zeros(3), np.array([1e-3, 0, 0]), np.array([1.0, 0, 0])]
    got = pairwise_yaw(anchors, feet, 0.0, 0.0)
    assert len(got) == 2  # the near-coincident pair is dropped


def test_circular_mean_basic():
    assert np.isclose(circular_mean([0.1, 0.1, 0.1]), 0.1)
    assert np.isclose(circular_mean(np.deg2rad([0.0, 90.0])), np.deg2rad(45.0))


def test_circular_mean_wraps():
    got = circular_mean(np.deg2rad([179.0, -179.0]))
    assert np.isclose(abs(got), np.pi, atol=1e-9) or np.isclose(got, np.pi)
    assert abs(wrap_angle(got - np.pi)) <= 1e-9


def test_circular_mean_shift_invariant():
    rng = np.random.default_rng(3)
    angs = rng.uniform(-np.pi, np.pi, 5)
    base = circular_mean(angs)
    shifted = angs.copy()
    shifted[2] += 2 * np.pi
    assert np.isclose(circular_mean(shifted), base)


def test_circular_mean_degenerate():
    with pytest.raises(DegenerateMean):
        circular_mean([0.0, np.pi])


def test_yaw_correction_zero_error():
    y, t0 = apply_yaw_correction(0.3, 0.3, 4, 4, 10.0, None, 0.02, 3.0)
    assert y == 0.3
    assert t0 == 10.0


def test_yaw_correction_partial_support():
    y, t0 = apply_yaw_correction(0.0, 0.5, 3, 4, 10.0, 5.0, 0.02, 3.0)
    assert np.isclose(y, 0.01)  # alpha0 * e
    assert t0 is None


def test_yaw_correction_saturated_ramp():
    y, t0 = apply_yaw_correction(0.2, -0.8, 4, 4, 10.0, 10.0 - 6.0, 0.02, 3.0)
    assert np.isclose(y, -0.8)  # alpha clipped to 1 after the ramp
    assert t0 == 4.0


def test_yaw_correction_output_wrapped():
    rng = np.random.default_rng(4)
    t0 = None
    for k in range(100):
        y, t0 = apply_yaw_correction(rng.uniform(-10, 10), rng.uniform(-10, 10),
                                     rng.integers(1, 5), 4, float(k), t0, 0.05, 3.0)
        assert -np.pi < y <= np.pi


def test_tilt_rotation_is_pitch_then_roll():
    # regression: tilt compensation is Ry(pitch) Rx(roll), not a full rpy matrix
    roll, pitch = 0.2, -0.3
    v = np.array([0.4, 0.1, -0.2])
    anchors = [np.zeros(3), np.array(rpy_rows(roll, pitch, 0.0)) @ v]
    got = pairwise_yaw(anchors, [np.zeros(3), v], roll, pitch)
    assert abs(got[0]) <= 1e-12


def _four_leg_stance(rng, roll, pitch, yaw):
    """Anchors and body feet of a tilted 4-leg stance, the anchors with a
    little slip so the pairs disagree."""
    feet = [np.array([sx * 0.19, sy * 0.13, -0.27]) + rng.normal(scale=0.01, size=3)
            for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    rot = np.array(rpy_rows(roll, pitch, yaw))
    shift = rng.normal(size=3)
    anchors = [rot @ f + shift + rng.normal(scale=0.005, size=3) for f in feet]
    return anchors, feet


def test_pairwise_yaw_four_leg_stance_matches_frozen_numpy_form():
    rng = np.random.default_rng(11)
    for _ in range(300):
        roll, pitch = rng.uniform(-0.4, 0.4, 2)
        yaw = rng.uniform(-np.pi, np.pi)
        anchors, feet = _four_leg_stance(rng, roll, pitch, yaw)
        got = pairwise_yaw(anchors, feet, roll, pitch)
        want = reference.pairwise_yaw(anchors, feet, roll, pitch)
        assert len(got) == len(want) == 6
        # same (i < j) pair order, each angle to the last bits
        for g, w in zip(got, want):
            assert type(g) is float
            assert abs(wrap_angle(g - w)) <= 1e-15
        assert abs(circular_mean(got) - reference.circular_mean(want)) <= 1e-15


def test_pairwise_yaw_four_leg_pair_order_and_skips():
    # legs 1 and 3 are 1 mm apart in the body plane, so pair (1, 3) is
    # skipped; the anchors slip by a different amount per leg, so every pair
    # has its own angle and the order shows
    feet = [np.array([0.2, 0.1, -0.3]), np.array([0.2, -0.1, -0.3]),
            np.array([-0.2, 0.1, -0.3]), np.array([0.2 + 1e-3, -0.1, -0.25])]
    slip = [np.array([0.0, 0.0, 0.0]), np.array([0.01, 0.0, 0.0]),
            np.array([0.0, 0.02, 0.0]), np.array([-0.03, 0.01, 0.0])]
    anchors = [f + np.array([1.0, 2.0, 0.0]) + d for f, d in zip(feet, slip)]

    def bearing(v):
        return np.arctan2(v[1], v[0])

    def expect(pairs):
        return [wrap_angle(bearing(anchors[j] - anchors[i]) - bearing(feet[j] - feet[i]))
                for i, j in pairs]

    got = pairwise_yaw(anchors, feet, 0.0, 0.0)
    want = expect([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    assert len(set(want)) == 5
    assert np.allclose(got, want, rtol=0.0, atol=1e-15)
    assert np.allclose(got, reference.pairwise_yaw(anchors, feet, 0.0, 0.0),
                       rtol=0.0, atol=1e-15)
    # a baseline short in the world frame only is skipped too
    anchors[2] = anchors[0] + np.array([0.0, 1e-3, 0.0])
    got = pairwise_yaw(anchors, feet, 0.0, 0.0)
    want = expect([(0, 1), (0, 3), (1, 2), (2, 3)])
    assert np.allclose(got, want, rtol=0.0, atol=1e-15)
    assert np.allclose(got, reference.pairwise_yaw(anchors, feet, 0.0, 0.0),
                       rtol=0.0, atol=1e-15)


def test_circular_mean_of_float_pairs_still_raises_degenerate():
    with pytest.raises(DegenerateMean):
        circular_mean([0.5, 0.5 + np.pi])
    with pytest.raises(DegenerateMean):
        circular_mean([0.1, 0.1 + 2 * np.pi / 3, 0.1 - 2 * np.pi / 3])
    with pytest.raises(ValueError):
        circular_mean([])
