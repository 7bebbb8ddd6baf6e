"""The library surface of `legodom`, pinned: a name that leaves the package
cannot come back unnoticed, and a new one is added here on purpose."""

import pkgutil
import types

import legodom

PUBLIC_NAMES = [
    "BodyState", "CkfLegState", "CkfNoise", "ConfigError", "Estimator",
    "EstimatorConfig", "FootfallRecord", "GaitPlan", "GaitResult", "InfeasiblePlan",
    "JointReading",
    "LegGeometry", "LegVelocityFilter", "SensorFrame", "StepTerrain", "SupportPlane",
    "WheelReading", "anchored_position_obs", "anchored_velocity_obs",
    "apply_yaw_correction", "circular_mean", "compute_metrics", "correct_height",
    "create", "cubature_step", "default_leg_geometries", "degrade",
    "detect_touchdown", "diagnostics", "effective_roll_increment",
    "fuse_observations", "gate_contact", "generate_gait", "heading_direction",
    "load_config", "pairwise_yaw", "parse_config_text", "preset_plan",
    "propagate_contact", "prune_stale", "quat_to_rpy", "record_footfall",
    "rolling_bias", "rolling_velocity", "rpy_to_quat", "save_config", "step",
    "wrap_angle",
]

MODULES = ["cli", "config", "contact", "estimator", "gait", "geometry", "height",
           "ikvel", "kernels", "logio", "metrics", "planfile", "wheel", "yawkin"]


def test_public_names_of_the_package_are_pinned():
    # the names the package itself binds, not the submodules that importing
    # it (or a test) happens to set as attributes
    names = sorted(n for n, v in vars(legodom).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_NAMES
    assert sorted(m.name for m in pkgutil.iter_modules(legodom.__path__)) == MODULES
