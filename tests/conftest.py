import copy

import numpy as np
import pytest

from legodom import default_leg_geometries, degrade, generate_gait, preset_plan
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
