import copy

import numpy as np
import pytest

from legodom import (CkfLegState, LegVelocityFilter, default_leg_geometries, degrade,
                     generate_gait, kernels, preset_plan)
from legodom.gait import GaitResult


@pytest.fixture
def point_leg():
    """Left front leg of the default point-foot robot."""
    return default_leg_geometries()[0]


@pytest.fixture
def legs4():
    return default_leg_geometries()


# documented branch-valid joint ranges used for randomized sweeps: knee folded
# back, foot on its own lateral side
Q1_RANGE = (-0.18, 0.18)
Q2_RANGE = (-0.1, 1.0)
Q3_RANGE = (-1.9, -0.9)


def sample_joint(rng):
    return np.array([rng.uniform(*Q1_RANGE), rng.uniform(*Q2_RANGE),
                     rng.uniform(*Q3_RANGE)])


def leg_coefficients(geoms):
    """kernels.leg_coefficients of the legs geoms, as (L,) arrays: in a
    kernels.leg_kinematics call, the last-but-one axis of q runs over geoms."""
    params = zip(*(g.kernel_args() for g in geoms))
    return kernels.leg_coefficients(*(np.array(p) for p in params))


def kinematics(geom, q, dq=None):
    """One kernels.leg_kinematics call over a stack of joint samples q (N, 3)
    of the leg geom, at rates dq (zeros when None): (r, J, v), one row each,
    with the foot velocities v = J @ dq."""
    q = np.asarray(q, dtype=float)
    dq = np.zeros_like(q) if dq is None else np.asarray(dq, dtype=float)
    r, J = kernels.leg_kinematics(q, kernels.leg_coefficients(*geom.kernel_args()))
    return r, J, (J @ dq[..., None])[..., 0]


def feet(geoms, q):
    """The (L, 3) hip-to-foot positions of the legs geoms at joint angles q
    (L, 3), the r of LegVelocityFilter.update, from one
    kernels.leg_kinematics call: NaN where a leg's angles are not all finite,
    as kernels.leg_rows gives them."""
    q = np.asarray(q, dtype=float)
    q = np.where(np.isfinite(q).all(axis=-1, keepdims=True), q, np.nan)
    return kernels.leg_kinematics(q, leg_coefficients(geoms))[0]


def filter_cycle(x, P, z, t_now, noise, geom, t=0.0):
    """One cycle of the one-leg filter LegVelocityFilter([geom], noise) from
    the state (x, P) at stamp t against z = (angles, rates) at t_now.
    Returns (x, P, status), status the cycle's CKF_* bits (0 when none)."""
    filt = LegVelocityFilter([geom], noise)
    filt.states = CkfLegState(np.array(x, dtype=float)[None],
                              np.array(P, dtype=float)[None], t)
    z = np.asarray(z, dtype=float)[None]
    filt.update(t_now, z[:, :3], z[:, 3:], feet([geom], z[:, :3]))
    (status,) = filt.status_counts or (0,)
    return filt.states.x[0], filt.states.P[0], status


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


@pytest.fixture(scope="session")
def stream():
    """stream(preset, seed=0, imperfections=None) -> (plan, result, frames):
    the preset's generated gait and its frames, degraded by imperfections
    under seed as `legodom simulate` degrades them (the generated frames when
    None or empty).

    Each stream is made once per session. Every call hands out a fresh plan
    and fresh lists; the frames and states they hold are shared, with their
    arrays read-only, so no test can change another's stream."""
    cache = {}

    def get(preset, seed=0, imperfections=None):
        key = (preset, seed, tuple(sorted((imperfections or {}).items())))
        if key not in cache:
            if imperfections:
                plan, res, _ = get(preset)
                frames = degrade(res.frames, imperfections, seed=seed,
                                 contacts=res.contacts, legs=plan.legs)
            else:
                plan = preset_plan(preset)
                res = generate_gait(plan)
                frames = res.frames
                for st in res.truth:
                    _read_only(st.position, st.rpy, st.velocity)
                _read_only(res.contacts)
            for fr in frames:
                _read_only(fr.att, fr.gyro, fr.joints)
            cache[key] = (plan, res, frames)
        plan, res, frames = cache[key]
        return (copy.deepcopy(plan),
                GaitResult(list(res.frames), list(res.truth), res.contacts),
                list(frames))

    return get
