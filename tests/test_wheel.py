import numpy as np

from legodom import (effective_roll_increment, heading_direction,
                     propagate_contact, rolling_velocity, wrap_angle)
from legodom.geometry import rpy_rows


def test_wrap_range_and_idempotence():
    rng = np.random.default_rng(0)
    for _ in range(500):
        a = rng.uniform(-50, 50)
        w = wrap_angle(a)
        assert type(w) is float
        assert -np.pi <= w <= np.pi
        assert wrap_angle(w) == w
    assert wrap_angle(np.pi) == np.pi
    assert wrap_angle(-np.pi) == np.pi


def test_effective_roll_pinned_wheel():
    # pure leg swing: encoder moves with the shank pitch, no true rolling
    got = effective_roll_increment(0.1, 0.0, 0.0, 0.0, 0.05, 0.05, 0.0, 0.0)
    assert got == 0.0


def test_effective_roll_pure_rolling():
    got = effective_roll_increment(0.2, 0.0, 0.0, 0.0, 0.3, -1.6, 0.3, -1.6)
    assert np.isclose(got, 0.2)


def test_effective_roll_wrap():
    got = effective_roll_increment(-3.1, 3.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert np.isclose(got, 2 * np.pi - 6.2)
    assert np.isclose(got, 0.0831853, atol=1e-6)


def test_heading_direction_flat():
    assert np.allclose(heading_direction(np.eye(3)), [1, 0, 0])
    assert np.allclose(heading_direction(np.array(rpy_rows(0, 0, np.pi / 2))),
                       [0, 1, 0], atol=1e-15)


def test_heading_direction_degenerate():
    assert heading_direction(np.array(rpy_rows(0.0, np.pi / 2, 0.0))) is None


def test_propagate_point_foot_degenerate():
    anchor = np.array([1.0, 2.0, 0.1])
    assert np.array_equal(propagate_contact(anchor, 0.5, 0.0, np.array([1.0, 0, 0])),
                          anchor)
    assert np.array_equal(propagate_contact(anchor, 0.5, 0.05, None), anchor)


def test_propagate_direct_value():
    got = propagate_contact(np.zeros(3), 0.2, 0.05, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(got, [0.01, 0.0, 0.0])


def test_propagate_preserves_height():
    rng = np.random.default_rng(3)
    for _ in range(100):
        anchor = rng.normal(size=3)
        rot = np.array(rpy_rows(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                                rng.uniform(-np.pi, np.pi)))
        h = heading_direction(rot)
        out = propagate_contact(anchor, rng.normal(), 0.05, h)
        assert out[2] == anchor[2]


def test_rolling_velocity_cases():
    h = np.array([1.0, 0.0, 0.0])
    assert np.allclose(rolling_velocity(4.0, 0.0, 0.0, 0.05, h), [0.2, 0, 0])
    assert np.allclose(rolling_velocity(1.0, 0.6, 0.4, 0.05, h), 0.0)
    assert np.allclose(rolling_velocity(4.0, 0.0, 0.0, 0.0, h), 0.0)


def test_rolling_velocity_excludes_body_pitch_rate():
    # only the joint-induced shank pitch rate is removed; feeding identical
    # joint rates with any pitch motion elsewhere must not change the result
    h = np.array([0.0, 1.0, 0.0])
    v1 = rolling_velocity(2.0, 0.5, 0.3, 0.04, h)
    assert np.allclose(v1, 0.04 * (2.0 - 0.8) * h)


def test_closed_roll_trajectory_returns():
    # integrate a rolling excursion that returns to the start
    rng = np.random.default_rng(8)
    anchor = np.zeros(3)
    h = np.array([1.0, 0.0, 0.0])
    increments = rng.normal(size=400) * 0.05
    for d in increments:
        anchor = propagate_contact(anchor, d, 0.05, h)
    for d in increments[::-1]:
        anchor = propagate_contact(anchor, -d, 0.05, h)
    assert np.max(np.abs(anchor)) <= 0.05 * 1e-9
