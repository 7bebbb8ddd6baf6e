"""The filter cycle pinned bit for bit against the frozen copy of the cycle it
replaced (tests/ckf_cycle_reference.py): the states x and P and the CKF_*
status of every leg, on the 1,000 frames of the replay benchmark's
`ckf_walk` stream and on stacks that force every recovery branch beside
healthy legs."""

import numpy as np
import pytest

import legodom.ikvel as ikvel
import legodom.planfile
from legodom import (CkfLegState, CkfNoise, Estimator, LegGeometry, degrade,
                     generate_gait, parse_config_text)

import ckf_cycle_reference as ref
from conftest import feet, kinematics, sample_joint
from test_stream_digests import sd


def _bits(a):
    return np.asarray(a).dtype.str, np.shape(a), np.asarray(a).tobytes()


def _link_params(filt):
    """The tiled (L * 12,) link parameters the frozen cycle takes."""
    coef = filt._ik
    return coef.lh, coef.lt, coef.l2, coef.side


def _both_cycles(filt, x, P, dt, z):
    """The library cycle and the frozen one of filt from the same inputs;
    asserts their x, P and status are bit-equal and returns the library's."""
    got = ikvel._ckf_legs(x, P, dt, z, filt.noise, filt._ik, filt._side)
    want = ref._ckf_legs(x.copy(), P.copy(), dt, z.copy(), filt.noise, *_link_params(filt),
                         filt._side)
    for g, w in zip(got, want):
        assert _bits(g) == _bits(w)
    return got


@pytest.fixture(scope="module")
def ckf_walk():
    """The first 1,000 frames of the replay benchmark's ckf_walk stream at
    seed 0, and its config."""
    plan_text, config = sd.WORKLOADS["ckf_walk"]
    plan = legodom.planfile.parse_plan_text(sd.workload_plan(plan_text, 0))
    res = generate_gait(plan)
    frames = degrade(res.frames, plan.imperfections, seed=0, contacts=res.contacts,
                     legs=plan.legs)
    return frames[:1000], parse_config_text(config)


def test_ckf_walk_cycles_are_bit_equal_to_the_frozen_cycle(ckf_walk):
    frames, cfg = ckf_walk
    assert len(frames) == 1000
    filt = Estimator(cfg).ikvel
    for k, fr in enumerate(frames):
        q, dq = fr.joints[0], fr.joints[1]
        r = feet(cfg.legs, q)
        st = filt.states
        if st is None:
            st = CkfLegState(np.concatenate([r, np.zeros_like(r)], axis=1),
                             np.tile(ref._prior_cov(), (len(q), 1, 1)), fr.stamp)
        dt = ikvel._truncated_dt(fr.stamp, st.t)
        x, P, status = _both_cycles(filt, st.x, st.P, dt, np.concatenate([q, dq], axis=1))
        counts = dict(filt.status_counts)
        filt.update(fr.stamp, q, dq, r)
        assert _bits(filt.states.x) == _bits(x) and _bits(filt.states.P) == _bits(P), k
        for s in status.tolist():
            if s:
                counts[s] = counts.get(s, 0) + 1
        assert filt.status_counts == counts


def _mixed_stack(legs4, rng):
    """A stack of ten legs: one per recovery branch, the rest healthy.

    Returns (filter, x, P, z, noise, cases), cases naming each leg's branch.
    A slightly negative R leaves every innovation covariance positive
    definite except that of the leg whose covariance is ~0."""
    geoms = legs4 + legs4 + legs4[:2]
    noise = CkfNoise(CkfNoise.from_diagonals().q_cov, -1e-12 * np.eye(6))
    p_op = np.diag([1e-6] * 3 + [1e-2] * 3)
    cases = ["non_pd_prior", "out_of_reach", "singular", "non_pd_innovation",
             "nan_z", "big_z", "nan_prior", "healthy", "healthy", "healthy"]
    xs, ps, zs = [], [], []
    for geom, case in zip(geoms, cases):
        qg = sample_joint(rng) * np.array([geom.side_sign, 1, 1])
        dq = rng.normal(scale=0.2, size=3)
        r, _, v = kinematics(geom, [qg], [dq])
        x = np.concatenate([r[0], v[0]])
        P = p_op.copy()
        z = np.concatenate([qg + rng.normal(scale=1e-3, size=3), dq])
        reach = geom.thigh_len + geom.l2
        if case == "non_pd_prior":
            P = -np.eye(6)
        elif case == "out_of_reach":
            x[:3] *= 1.5
        elif case == "singular":
            x = np.array([0.0, geom.side_sign * geom.hip_offset_len, -reach, 0.0, 0.1, 0.0])
        elif case == "non_pd_innovation":
            P = 1e-20 * np.eye(6)
        elif case == "nan_z":
            z[1] = np.nan
        elif case == "big_z":
            z[4] = 1e300
        elif case == "nan_prior":
            P[4, 4] = np.nan
        xs.append(x)
        ps.append(P)
        zs.append(z)
    filt = ikvel.LegVelocityFilter(geoms, noise=noise)
    return filt, np.array(xs), np.array(ps), np.array(zs), noise, cases


def test_forced_recovery_branches_are_bit_equal_to_the_frozen_cycle(legs4):
    rng = np.random.default_rng(31)
    filt, x, P, z, noise, cases = _mixed_stack(legs4, rng)
    x, P, status = _both_cycles(filt, x, P, 0.002, z)
    assert [s for case, s in zip(cases, status.tolist()) if case == "healthy"] == [0] * 3
    assert np.bitwise_or.reduce(status) == sum(ikvel._STATUS_BITS.values())
    # later cycles start from the library's states
    for dt in (0.0, 0.002, 0.05):
        z = z + rng.normal(scale=1e-4, size=z.shape)
        x, P, status = _both_cycles(filt, x, P, dt, z)


def test_forced_branches_in_the_filter_update_match_the_frozen_cycle(legs4):
    rng = np.random.default_rng(32)
    filt, x, P, z, noise, cases = _mixed_stack(legs4, rng)
    filt.states = CkfLegState(x, P, 0.0)
    want = ref._ckf_legs(x.copy(), P.copy(), 0.002, z.copy(), noise, *_link_params(filt),
                         filt._side)
    vel = filt.update(0.002, z[:, :3], z[:, 3:], feet(filt.geometries, z[:, :3]))
    assert _bits(filt.states.x) == _bits(want[0]) and _bits(filt.states.P) == _bits(want[1])
    assert _bits(vel) == _bits(want[0][:, 3:])
    expected = {}
    for s in want[2].tolist():
        if s:
            expected[s] = expected.get(s, 0) + 1
    assert filt.status_counts == expected
    assert np.bitwise_or.reduce(list(expected)) == sum(ikvel._STATUS_BITS.values())


def test_one_leg_cycles_are_bit_equal_to_the_frozen_cycle():
    # a filter of one geometry, over random operating points and covariances
    rng = np.random.default_rng(33)
    geom = LegGeometry(0.0955, 0.213, 0.2, 0.05, -1, np.zeros(3))
    filt = ikvel.LegVelocityFilter([geom])
    for _ in range(200):
        q = sample_joint(rng) * np.array([-1, 1, 1])
        dq = rng.normal(size=3)
        r, _, v = kinematics(geom, [q], [dq])
        x = np.concatenate([r[0], v[0]])[None] + rng.normal(scale=1e-3, size=(1, 6))
        A = rng.normal(size=(6, 6)) * rng.uniform(1e-4, 1e-1, size=6)
        P = (A @ A.T + 1e-8 * np.eye(6))[None]
        z = np.concatenate([q + rng.normal(scale=1e-3, size=3),
                            dq + rng.normal(scale=0.1, size=3)])[None]
        _both_cycles(filt, x, P, rng.uniform(0.0, ikvel.DT_MAX), z)
