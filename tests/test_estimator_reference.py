"""`Estimator.step` pinned against the frozen numpy step it replaced.

`estimator_reference.ReferenceEstimator` is the step from before its per-leg
stage moved to Python floats. Both run the same degraded streams: a
filter-off trot over the stair step with noisy touchdown heights (the plane
store at work), a filter-on walk with quantized, spiky encoders, and a
slipping wheel roll (wheel propagation and rolling velocity). Every stance,
touchdown and plane decision must agree, and the states may differ only by
the summation order of a few 3-vector products.
"""

import numpy as np
import pytest

from legodom import Estimator, EstimatorConfig, SensorFrame, degrade, generate_gait, preset_plan

from estimator_reference import ReferenceEstimator

# preset -> (plan fields, imperfections, config fields, frames kept)
CASES = {
    "stair_loop": ({"waypoints": [(0.0, 0.0), (3.6, 0.0), (0.0, 0.0)]},
                   {"touchdown_height_noise": 0.02, "yaw_drift": 0.004}, {}, None),
    "walk_line": ({"waypoints": [(0.0, 0.0), (0.3, 0.0)], "settle_time": 0.1},
                  {"encoder_quantum": 1e-3, "rate_spikes": (0.02, 5.0)},
                  {"ikvel_enabled": True}, 600),
    "wheel_roll": ({"duration": 3.0}, {"wheel_slip": 0.02, "yaw_drift": 0.005}, {}, None),
}


def _stream(name):
    plan_fields, imperfections, cfg_fields, keep = CASES[name]
    plan = preset_plan(name)
    for key, value in plan_fields.items():
        setattr(plan, key, value)
    res = generate_gait(plan)
    frames = degrade(res.frames, imperfections, seed=3, contacts=res.contacts,
                     legs=plan.legs)[:keep]
    cfg = EstimatorConfig(legs=plan.legs, initial_position=[0, 0, plan.body_height],
                          **cfg_fields)
    return frames, cfg


def _compare(frames, cfg):
    """Step both estimators over the frames and check that they agree; the
    touchdowns of each frame, as the library's diagnostics list them, and
    the largest plane count."""
    est, ref = Estimator(cfg), ReferenceEstimator(cfg)
    worst = 0.0
    touchdowns = []
    planes_max = 0
    for fr in frames:
        got, want = est.step(fr), ref.step(fr)
        assert got.stamp == want.stamp
        for a, b in ((got.position, want.position), (got.rpy, want.rpy),
                     (got.velocity, want.velocity)):
            worst = max(worst, float(np.max(np.abs(a - b))))
        d_got, d_want = est.diagnostics(), ref.diagnostics()
        for key in ("contacts", "touchdowns", "n_contacts", "mode"):
            assert d_got[key] == d_want[key], (fr.stamp, key)
        assert len(d_got["planes"]) == len(d_want["planes"]), fr.stamp
        assert (d_got["yaw_kin"] is None) == (d_want["yaw_kin"] is None), fr.stamp
        touchdowns.append(d_got["touchdowns"])
        planes_max = max(planes_max, len(d_got["planes"]))
    assert worst <= 1e-12
    return touchdowns, planes_max


@pytest.mark.parametrize("name", sorted(CASES))
def test_step_matches_the_frozen_numpy_step(name):
    frames, cfg = _stream(name)
    touchdowns, planes_max = _compare(frames, cfg)
    # the stream reached the stages it is here for
    assert sum(map(len, touchdowns)) > 0
    if name == "stair_loop":
        assert planes_max >= 2
    if name == "wheel_roll":
        assert frames[0].wheels is not None


def test_dropped_wheel_readings_match_the_frozen_numpy_step():
    # the wheel roll with its legs lifted in turn, each for LIFT frames of
    # every PERIOD (no torque, so no force and no stance), and wheel
    # readings dropped: whole frames, every touchdown frame among them, and
    # single legs' readings; a touchdown on a frame without readings must
    # leave no wheel cache behind for the next frames to roll from
    PERIOD, LIFT = 40, 8
    frames, cfg = _stream("wheel_roll")
    dropped = []
    for k, fr in enumerate(frames):
        joints = fr.joints.copy()
        if 0 < k and k % PERIOD < LIFT:
            joints[2, (k // PERIOD) % 4] = 0.0
        wheels = list(fr.wheels)
        if k % PERIOD == LIFT or k % 9 == 0:
            wheels = None
        elif k % 4 == 0:
            wheels[(k // 4) % 4] = None
        dropped.append(SensorFrame(fr.stamp, fr.att, fr.gyro, joints, wheels))
    touchdowns, _ = _compare(dropped, cfg)
    late = [k for k, legs in enumerate(touchdowns) if legs and k > 0]
    assert len(late) >= 15
    assert all(dropped[k].wheels is None for k in late)
    # the frames after a touchdown carry readings again, which the wheel
    # stage then propagates from
    assert all(dropped[k + 1].wheels is not None for k in late if (k + 1) % 9)
