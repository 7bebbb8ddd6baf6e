import re

import numpy as np
import pytest

from legodom import InfeasiblePlan, degrade, generate_gait, preset_plan, quat_to_rpy
from legodom import gait, kernels
from legodom.gait import GRAVITY, GaitPlan
from legodom.geometry import rpy_rows
from legodom.logio import frame_to_dict

from conftest import kinematics, leg_coefficients


def _feet_body(plan, frames):
    """Hip-to-foot positions (F, L, 3) of the frames' joint angles: one
    kernels.leg_kinematics call over the stack."""
    q = np.array([fr.joints[0] for fr in frames])
    return kernels.leg_kinematics(q, np.zeros_like(q), leg_coefficients(plan.legs))[0]


def test_stance_feet_exactly_stationary():
    plan = preset_plan("flat_loop")
    plan.waypoints = [(0.0, 0.0), (1.5, 0.0)]
    res = generate_gait(plan)
    n = len(plan.legs)
    feet = _feet_body(plan, res.frames)
    prev = [None] * n
    for k, (fr, tr) in enumerate(zip(res.frames, res.truth)):
        rot = np.array(rpy_rows(*quat_to_rpy(fr.att)))
        for i in range(n):
            if res.contacts[k, i]:
                w = tr.position + rot @ (plan.legs[i].hip_mount + feet[k, i])
                if prev[i] is not None and res.contacts[k - 1, i]:
                    assert np.max(np.abs(w - prev[i])) <= 1e-9
                prev[i] = w
            else:
                prev[i] = None


def test_stance_torques_recover_prescribed_share():
    plan = preset_plan("flat_loop")
    plan.waypoints = [(0.0, 0.0), (1.0, 0.0)]
    res = generate_gait(plan)
    for k in (0, len(res.frames) // 2, len(res.frames) - 1):
        fr, tr = res.frames[k], res.truth[k]
        stance = np.flatnonzero(res.contacts[k])
        share = plan.mass * GRAVITY / len(stance)
        rot = np.array(rpy_rows(*quat_to_rpy(fr.att)))
        q, dq, tau = fr.joints.tolist()
        _, _, forces, ok = kernels.leg_rows(q, dq, tau, [kernels.leg_coefficients(
            *g.kernel_args()) for g in plan.legs], 1e-6)
        for i in stance:
            assert ok[i]
            f_world = rot @ np.array(forces[i])
            assert np.max(np.abs(f_world - [0.0, 0.0, -share])) <= 1e-9


def test_swing_legs_unloaded():
    plan = preset_plan("flat_loop")
    plan.waypoints = [(0.0, 0.0), (1.0, 0.0)]
    res = generate_gait(plan)
    k = len(res.frames) // 2
    swing = np.flatnonzero(~res.contacts[k])
    assert swing.size > 0
    for i in swing:
        assert np.allclose(res.frames[k].legs[i].tau, 0.0)


def test_stream_invariants(stream):
    plan, res, _ = stream("stair_loop")
    stamps = [fr.stamp for fr in res.frames]
    assert all(b > a for a, b in zip(stamps, stamps[1:]))
    assert all(len(fr.legs) == len(plan.legs) for fr in res.frames)
    assert len(res.frames) == len(res.truth) == res.contacts.shape[0]


def test_closed_loop_truth_closure_zero(stream):
    _, res, _ = stream("flat_loop")
    assert np.allclose(res.truth[0].position, res.truth[-1].position, atol=1e-12)


def test_stair_truth_net_elevation_zero(stream):
    _, res, _ = stream("stair_loop")
    assert abs(res.truth[-1].position[2] - res.truth[0].position[2]) <= 1e-12


def test_infeasible_plan_reports_timestamp():
    plan = GaitPlan(mode="trot", body_height=0.46,
                    waypoints=[(0.0, 0.0), (1.0, 0.0)])  # beyond leg reach
    with pytest.raises(InfeasiblePlan) as err:
        generate_gait(plan)
    assert err.value.stamp == 0.0
    assert str(err.value) == "t=0.0000: foot target outside workspace (overshoot 0.378496)"


@pytest.mark.parametrize("overrides, stamp, msg", [
    # the first swing apex folds the knee past the IK branch mid-stream
    ({"step_height": 0.4}, 0.704,
     "IK branch mismatch at target [0.0105649  0.1155     0.09707077]"),
    # the stride outgrows the leg once the speed ramp ends, frames later
    ({"speed": 2.0, "waypoints": [(0.0, 0.0), (4.0, 0.0)]}, 2.536,
     "foot target outside workspace (overshoot 0.0036713)"),
])
def test_infeasible_plan_names_first_failing_frame_mid_stream(overrides, stamp, msg):
    plan = GaitPlan(mode="trot", waypoints=[(0.0, 0.0), (1.0, 0.0)])
    for key, value in overrides.items():
        setattr(plan, key, value)
    with pytest.raises(InfeasiblePlan) as err:
        generate_gait(plan)
    assert err.value.stamp == stamp
    assert str(err.value) == "t=%.4f: %s" % (stamp, msg)


@pytest.mark.parametrize("step_period, rate_hz", [
    (0.2413, 250.0), (0.24, 333.0), (0.004, 250.0), (0.0, 250.0), (1e300, 1e300)])
def test_step_period_off_the_frame_grid_raises(step_period, rate_hz):
    with pytest.raises(ValueError, match="^step_period must be an integer number of frames$"):
        gait.frames_per_step(step_period, rate_hz)
    with pytest.raises(ValueError, match="^step_period must be an integer number of frames$"):
        generate_gait(GaitPlan(step_period=step_period, rate_hz=rate_hz))


def test_trot_needs_the_legs_of_its_pair(legs4):
    assert gait.frames_per_step(0.24, 250.0) == 60
    with pytest.raises(ValueError, match="^a trot needs at least 4 legs, got 3$"):
        generate_gait(GaitPlan(legs=legs4[:3]))


@pytest.mark.parametrize("double_support", [-0.001, -0.02, -0.2])
def test_a_negative_double_support_is_refused(double_support):
    # a swing longer than its half-cycle used to be cut short of its landing
    # target, and the foot jumped there on the next frame, with no error
    plan = preset_plan("walk_line")
    plan.waypoints = [(0.0, 0.0), (0.5, 0.0)]
    plan.double_support = double_support
    with pytest.raises(ValueError, match="^double_support must not be negative, got %s$"
                       % re.escape(repr(double_support))):
        generate_gait(plan)
    plan.double_support = 0.0
    q = np.array([fr.joints[0] for fr in generate_gait(plan).frames])
    assert np.abs(np.diff(q, axis=0)).max() < 0.02


def test_generator_runs_the_leg_kernels_once_per_block_of_frames(monkeypatch):
    calls = {"ik_joints_array": 0, "leg_kinematics": 0}
    for name in calls:
        def counted(*args, _name=name, _kernel=getattr(kernels, name)):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(kernels, name, counted)
    plan = preset_plan("flat_loop")
    plan.waypoints = [(0.0, 0.0), (0.5, 0.0)]
    n_frames = len(generate_gait(plan).frames)
    blocks = -(-n_frames // gait._BLOCK)
    assert blocks >= 3
    assert calls == {"ik_joints_array": blocks, "leg_kinematics": blocks}


def test_degrade_zero_is_identity():
    plan = preset_plan("standing")
    plan.duration = 0.2
    res = generate_gait(plan)
    out = degrade(res.frames, {}, seed=3)
    assert len(out) == len(res.frames)
    for a, b in zip(out, res.frames):
        assert frame_to_dict(a) == frame_to_dict(b)
    out = degrade(res.frames, {"encoder_quantum": 0.0, "yaw_drift": 0.0,
                               "wheel_slip": 0.0}, seed=3)
    for a, b in zip(out, res.frames):
        assert frame_to_dict(a) == frame_to_dict(b)


def test_degrade_does_not_mutate_input():
    plan = preset_plan("standing")
    plan.duration = 0.1
    res = generate_gait(plan)
    before = [frame_to_dict(fr) for fr in res.frames]
    degrade(res.frames, {"encoder_quantum": 1e-3, "yaw_drift": 0.01}, seed=0)
    assert [frame_to_dict(fr) for fr in res.frames] == before
    # the output shares no array and no wheel reading with the input, with
    # and without imperfections, so writing into it leaves the input as it was
    wheel_plan = preset_plan("wheel_roll")
    wheel_plan.duration = 0.1
    for frames, imperfections in (
            (res.frames, {"encoder_quantum": 1e-3, "yaw_drift": 0.01}),
            (res.frames, {}),
            (generate_gait(wheel_plan).frames, {"wheel_slip": 0.1,
                                                "rate_spikes": (0.5, 3.0)})):
        before = [frame_to_dict(fr) for fr in frames]
        out = degrade(frames, imperfections, seed=0)
        for a, b in zip(out, frames):
            for x in (a.joints, a.att, a.gyro):
                assert not any(np.shares_memory(x, y) for y in (b.joints, b.att, b.gyro))
            if b.wheels is not None:
                assert not any(wa is wb for wa, wb in zip(a.wheels, b.wheels)
                               if wb is not None)
            a.joints[:] = 7.0
            a.att[:] = 7.0
            a.gyro[:] = 7.0
        assert [frame_to_dict(fr) for fr in frames] == before


def test_quantization_floors_to_grid():
    plan = preset_plan("standing")
    plan.duration = 0.05
    res = generate_gait(plan)
    res.frames[0].legs[0].q[0] = 0.012349
    out = degrade(res.frames, {"encoder_quantum": 1e-3}, seed=0)
    assert np.isclose(out[0].legs[0].q[0], 0.012)
    # rates recomputed by differencing the quantized angles
    dtf = out[1].stamp - out[0].stamp
    expect = (out[1].legs[0].q - out[0].legs[0].q) / dtf
    assert np.allclose(out[1].legs[0].dq, expect)


def test_degrade_seed_determinism():
    plan = preset_plan("wheel_swing")  # nonzero joint rates for spikes to bite
    plan.duration = 0.3
    res = generate_gait(plan)
    imp = {"rate_spikes": (0.05, 20.0)}
    a = degrade(res.frames, imp, seed=7)
    b = degrade(res.frames, imp, seed=7)
    c = degrade(res.frames, imp, seed=8)
    assert all(frame_to_dict(x) == frame_to_dict(y) for x, y in zip(a, b))
    assert any(frame_to_dict(x) != frame_to_dict(y) for x, y in zip(a, c))


def test_yaw_drift_integrates():
    plan = preset_plan("standing")
    plan.duration = 2.0
    res = generate_gait(plan)
    rate = np.deg2rad(0.5)
    out = degrade(res.frames, {"yaw_drift": rate}, seed=0)
    rpy = quat_to_rpy(out[-1].att)
    assert np.isclose(rpy[2], rate * (out[-1].stamp - out[0].stamp), atol=1e-12)


def test_wheel_slip_scales_rate():
    plan = preset_plan("wheel_roll")
    plan.duration = 0.1
    res = generate_gait(plan)
    out = degrade(res.frames, {"wheel_slip": 0.1}, seed=0)
    for a, b in zip(out, res.frames):
        for wa, wb in zip(a.wheels, b.wheels):
            assert np.isclose(wa.dpsi, wb.dpsi * 1.1)
            assert wa.psi == wb.psi


def test_touchdown_noise_requires_contacts():
    plan = preset_plan("standing")
    plan.duration = 0.1
    res = generate_gait(plan)
    with pytest.raises(ValueError):
        degrade(res.frames, {"touchdown_height_noise": 0.02}, seed=0)


def test_touchdown_noise_shifts_fk_height():
    plan = preset_plan("walk_line")
    plan.waypoints = [(0.0, 0.0), (1.0, 0.0)]
    res = generate_gait(plan)
    amp = 0.02
    out = degrade(res.frames, {"touchdown_height_noise": amp}, seed=1,
                  contacts=res.contacts, legs=plan.legs)
    rises = np.flatnonzero(res.contacts[1:, 0] & ~res.contacts[:-1, 0]) + 1
    assert rises.size > 0
    hit = 0
    p0s = kinematics(plan.legs[0], [res.frames[k].joints[0, 0] for k in rises])[0]
    p1s = kinematics(plan.legs[0], [out[k].joints[0, 0] for k in rises])[0]
    for p0, p1 in zip(p0s, p1s):
        dz = p1[2] - p0[2]
        assert abs(dz) <= amp + 1e-9
        assert abs(p1[0] - p0[0]) <= 1e-7 and abs(p1[1] - p0[1]) <= 1e-7
        if abs(dz) > 1e-6:
            hit += 1
    assert hit > 0
