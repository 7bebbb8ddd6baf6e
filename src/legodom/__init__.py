"""legodom: contact-anchored proprioceptive odometry for legged robots.

Fuses IMU attitude/gyro with motor measurements (joint angles, rates,
torques) into body pose and velocity by treating stance feet as stationary
world anchors, with support-plane height snapping, wheel-contact rolling
propagation, an optional per-leg velocity filter, and a kinematic yaw
reference. Ships with a synthetic gait simulator and a replay CLI.
"""

from .config import ConfigError, EstimatorConfig, load_config, parse_config_text, save_config
from .contact import (EmptyContactSet, FootfallRecord, anchored_position_obs,
                      anchored_velocity_obs, detect_touchdown, fuse_observations,
                      gate_contact, record_footfall)
from .estimator import BodyState, Estimator, SensorFrame, create, diagnostics, step
from .gait import (GaitPlan, GaitResult, InfeasiblePlan, StepTerrain, degrade,
                   generate_gait, preset_plan)
from .geometry import (JointReading, LegGeometry, WheelReading,
                       default_leg_geometries, quat_to_rpy, rpy_to_quat, wrap_angle)
from .height import SupportPlane, correct_height, prune_stale
from .ikvel import CkfLegState, CkfNoise, LegVelocityFilter, cubature_step
from .metrics import compute_metrics
from .wheel import (effective_roll_increment, heading_direction,
                    propagate_contact, rolling_bias, rolling_velocity)
from .yawkin import (DegenerateMean, InsufficientContacts, apply_yaw_correction,
                     circular_mean, pairwise_yaw)

__version__ = "0.1.0"
