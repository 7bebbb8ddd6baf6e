import numpy as np
import pytest

from legodom import default_leg_geometries


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
