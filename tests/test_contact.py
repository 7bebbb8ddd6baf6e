import numpy as np
import pytest

from legodom import (EmptyContactSet, anchored_position_obs,
                     anchored_velocity_obs, detect_touchdown,
                     fuse_observations, gate_contact, record_footfall)
from legodom.geometry import cross3, rpy_rows


def test_gate_contact_sign_convention():
    assert gate_contact(-50.0, -20.0)
    assert not gate_contact(-10.0, -20.0)
    assert gate_contact(-20.0, -20.0)  # boundary inclusive


def test_gate_contact_monotone():
    rng = np.random.default_rng(0)
    for _ in range(200):
        f = rng.uniform(-100, 50)
        if gate_contact(f, -20.0):
            assert gate_contact(f - rng.uniform(0, 50), -20.0)


def test_detect_touchdown_table():
    assert detect_touchdown(False, True)
    assert not detect_touchdown(True, True)
    assert not detect_touchdown(True, False)
    assert not detect_touchdown(False, False)


def test_record_footfall_identity_rotation():
    got = record_footfall(np.zeros(3), np.eye(3), [0.2, 0.1, -0.3])
    assert np.allclose(got, [0.2, 0.1, -0.3])
    got = record_footfall([1, 2, 0.3], np.eye(3), [0.2, 0.1, -0.3])
    assert np.allclose(got, [1.2, 2.1, 0.0])


def test_record_footfall_yawed():
    rot = np.array(rpy_rows(0.0, 0.0, np.pi / 2))
    got = record_footfall(np.zeros(3), rot, [0.2, 0.0, -0.3])
    assert np.allclose(got, [0.0, 0.2, -0.3], atol=1e-15)


def test_anchored_position_obs_values():
    got = anchored_position_obs([1, 2, 0.3], np.eye(3), [0.2, 0.1, -0.3])
    assert np.allclose(got, [0.8, 1.9, 0.6])


def test_record_and_observe_are_inverses():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = rng.normal(size=3)
        rot = np.array(rpy_rows(*rng.uniform(-0.5, 0.5, 3)))
        foot = rng.normal(size=3)
        anchor = record_footfall(p, rot, foot)
        assert np.max(np.abs(anchored_position_obs(anchor, rot, foot) - p)) <= 1e-12


def test_anchored_velocity_pure_translation():
    got = anchored_velocity_obs(np.eye(3), np.zeros(3), [0.3, 0.0, -0.3],
                                [-0.5, 0.0, 0.0])
    assert np.allclose(got, [0.5, 0.0, 0.0])


def test_anchored_velocity_pure_rotation():
    got = anchored_velocity_obs(np.eye(3), [0.0, 0.0, 1.0], [0.3, 0.0, -0.3],
                                np.zeros(3))
    # omega x p = (0, 0.3, 0); observation is its negation
    assert np.allclose(got, [0.0, -0.3, 0.0])


def test_anchored_velocity_cross_product_oracle():
    rng = np.random.default_rng(9)
    for _ in range(200):
        rot = np.array(rpy_rows(*rng.uniform(-1, 1, 3)))
        om = rng.normal(size=3)
        foot = rng.normal(size=3)
        fv = rng.normal(size=3)
        expect = -rot @ (np.cross(om, foot) + fv)
        assert np.allclose(anchored_velocity_obs(rot, om, foot, fv), expect, atol=1e-14)


def test_cross3_bit_equal_to_numpy_cross():
    rng = np.random.default_rng(10)
    for _ in range(5000):
        a = rng.normal(size=3) * 10.0 ** rng.uniform(-4, 4, 3)
        b = rng.normal(size=3) * 10.0 ** rng.uniform(-4, 4, 3)
        assert np.array_equal(cross3(a, b), np.cross(a, b))


def test_fuse_mean():
    p, v = fuse_observations([(1, 0, 0), (3, 0, 0)], [(0, 1, 0), (0, 3, 0)])
    assert np.allclose(p, [2, 0, 0])
    assert np.allclose(v, [0, 2, 0])


def test_fuse_single_leg():
    p, v = fuse_observations([(1.5, 2.0, 0.3)], [(0.1, 0.0, 0.0)])
    assert np.allclose(p, [1.5, 2.0, 0.3])
    assert np.allclose(v, [0.1, 0.0, 0.0])


def test_fuse_empty_raises():
    with pytest.raises(EmptyContactSet):
        fuse_observations([], [])


def test_fuse_permutation_invariant_and_idempotent():
    rng = np.random.default_rng(21)
    ps = [rng.normal(size=3) for _ in range(4)]
    vs = [rng.normal(size=3) for _ in range(4)]
    p1, v1 = fuse_observations(ps, vs)
    order = [2, 0, 3, 1]
    p2, v2 = fuse_observations([ps[i] for i in order], [vs[i] for i in order])
    assert np.allclose(p1, p2)
    assert np.allclose(v1, v2)
    p3, v3 = fuse_observations([ps[0]] * 3, [vs[0]] * 3)
    assert np.allclose(p3, ps[0])
    assert np.allclose(v3, vs[0])
