import numpy as np
import pytest

from legodom import (Estimator, EstimatorConfig, JointReading, SensorFrame,
                     create, diagnostics, generate_gait, kernels, preset_plan,
                     step, wrap_angle)


def _run(plan, cfg=None, frames=None):
    res = generate_gait(plan)
    frames = frames if frames is not None else res.frames
    if cfg is None:
        cfg = EstimatorConfig(legs=plan.legs,
                              initial_position=[0, 0, plan.body_height])
    est = Estimator(cfg)
    states = [est.step(fr) for fr in frames]
    return est, states, res


def test_zero_noise_walk_tracks_ground_truth():
    plan = preset_plan("walk_line")
    plan.waypoints = [(0.0, 0.0), (3.0, 0.0)]
    est, states, res = _run(plan)
    for st, tr in zip(states, res.truth):
        assert np.max(np.abs(st.position - tr.position)) <= 1e-9
    assert np.max(np.abs(states[-1].position - res.truth[-1].position)) <= 1e-6


def test_zero_noise_velocity_observation_matches_truth():
    # with a unit velocity gain the state equals the fused anchored velocity
    # observation, which must match ground truth exactly under zero noise
    plan = preset_plan("walk_line")
    plan.waypoints = [(0.0, 0.0), (2.0, 0.0)]
    cfg = EstimatorConfig(initial_position=[0, 0, plan.body_height],
                          vel_blend=1.0)
    est, states, res = _run(plan, cfg=cfg)
    errs = [np.max(np.abs(st.velocity - tr.velocity))
            for st, tr in zip(states, res.truth)]
    assert max(errs) <= 1e-9


def test_stamp_precondition():
    plan = preset_plan("standing")
    plan.duration = 0.1
    res = generate_gait(plan)
    cfg = EstimatorConfig(initial_position=[0, 0, plan.body_height])
    est = Estimator(cfg)
    est.step(res.frames[0])
    est.step(res.frames[1])
    with pytest.raises(ValueError):
        est.step(res.frames[1])  # same stamp again


def test_leg_count_mismatch_rejected():
    plan = preset_plan("standing")
    plan.duration = 0.05
    res = generate_gait(plan)
    est = Estimator(EstimatorConfig())
    bad = SensorFrame(res.frames[0].stamp, res.frames[0].att,
                      res.frames[0].gyro, res.frames[0].legs[:2])
    with pytest.raises(ValueError):
        est.step(bad)


def test_airborne_window_prediction_only_and_continuity():
    plan = preset_plan("hop")
    est, states, res = _run(plan)
    dt = 1.0 / plan.rate_hz
    est2 = Estimator(EstimatorConfig(initial_position=[0, 0, plan.body_height]))
    modes = []
    for fr in res.frames:
        est2.step(fr)
        modes.append(est2.diagnostics()["mode"])
    t0, t1 = plan.flight_window
    k0, k1 = int(round(t0 * plan.rate_hz)), int(round(t1 * plan.rate_hz))
    assert all(m == "predict" for m in modes[k0:k1])
    assert modes[k0 - 1] == "fused" and modes[k1] == "fused"
    # position advances by held velocity during flight and does not jump at
    # the regain frame (fresh anchors are seeded from the prediction)
    for k in range(k0, k1 + 1):
        jump = np.linalg.norm(states[k].position - states[k - 1].position)
        assert jump <= np.linalg.norm(states[k - 1].velocity) * dt + 1e-9


def test_ikvel_toggle_leaves_zero_noise_positions_unchanged():
    plan = preset_plan("walk_line")
    plan.waypoints = [(0.0, 0.0), (2.0, 0.0)]
    res = generate_gait(plan)
    outs = {}
    for enabled in (False, True):
        cfg = EstimatorConfig(initial_position=[0, 0, plan.body_height],
                              ikvel_enabled=enabled)
        est = Estimator(cfg)
        outs[enabled] = np.array([est.step(fr).position for fr in res.frames])
    assert np.array_equal(outs[False], outs[True])


def test_determinism_bit_identical():
    plan = preset_plan("walk_line")
    plan.waypoints = [(0.0, 0.0), (1.5, 0.0)]
    res = generate_gait(plan)
    runs = []
    for _ in range(2):
        est = Estimator(EstimatorConfig(initial_position=[0, 0, plan.body_height]))
        runs.append(np.array([np.concatenate([st.position, st.rpy, st.velocity])
                              for st in (est.step(fr) for fr in res.frames)]))
    assert np.array_equal(runs[0], runs[1])


def test_output_stamps_equal_input_stamps():
    plan = preset_plan("standing")
    plan.duration = 0.5
    est, states, res = _run(plan)
    assert all(st.stamp == fr.stamp for st, fr in zip(states, res.frames))


def test_predict_only_examples():
    est = Estimator(EstimatorConfig())
    est.state.velocity = np.array([1.0, 0.0, 0.0])
    st = est.predict_only(0.01, np.zeros(3))
    assert np.allclose(st.position, [0.01, 0.0, 0.0])
    assert np.allclose(st.rpy, 0.0)
    st = est.predict_only(0.01, np.array([0.0, 0.0, 1.0]))
    assert np.isclose(st.rpy[2], 0.01)
    with pytest.raises(ValueError):
        est.predict_only(0.0, np.zeros(3))


def test_yaw_held_when_imu_yaw_disabled():
    plan = preset_plan("standing")
    plan.duration = 1.0
    res = generate_gait(plan)
    cfg = EstimatorConfig(initial_position=[0, 0, plan.body_height],
                          imu_yaw_enabled=False, yaw_enabled=False)
    est = Estimator(cfg)
    for fr in res.frames:
        st = est.step(fr)
    assert st.rpy[2] == 0.0


def test_kinematics_only_heading_closes_turn():
    # with the IMU yaw channel disabled the contact-geometry heading carries
    # the whole rotation; the residual is reported, not asserted (unmodeled
    # compliance dominates it on hardware)
    plan = preset_plan("turn_in_place")
    res = generate_gait(plan)
    cfg = EstimatorConfig(initial_position=[0, 0, plan.body_height],
                          imu_yaw_enabled=False)
    est = Estimator(cfg)
    for fr, tr in zip(res.frames, res.truth):
        st = est.step(fr)
    residual = wrap_angle(st.rpy[2] - res.truth[-1].rpy[2])
    closure = np.linalg.norm(st.position - cfg.initial_position)
    print("kinematics-only turn: yaw residual %.4f deg, closure %.2e m"
          % (np.rad2deg(residual), closure))
    assert np.isfinite(residual)
    assert closure <= 1e-6  # the closed plan still closes in position


def test_diagnostics_record_shape():
    plan = preset_plan("standing")
    plan.duration = 0.2
    est, states, res = _run(plan)
    d = est.diagnostics()
    for key in ("t", "n_contacts", "contacts", "anchors", "planes",
                "yaw_kin", "mode"):
        assert key in d
    assert d["n_contacts"] == 4
    assert d["mode"] == "fused"
    import json
    json.dumps(d)  # serializable as a diagnostics line


def test_module_level_api():
    plan = preset_plan("standing")
    plan.duration = 0.05
    res = generate_gait(plan)
    handle = create(EstimatorConfig(initial_position=[0, 0, plan.body_height]))
    out = step(handle, res.frames[0])
    assert out.stamp == res.frames[0].stamp
    assert diagnostics(handle)["n_contacts"] == 4


def _walk_frames(length):
    plan = preset_plan("walk_line")
    plan.waypoints = [(0.0, 0.0), (length, 0.0)]
    return plan, generate_gait(plan).frames


def test_step_makes_one_leg_kernel_call_per_frame(monkeypatch):
    plan, frames = _walk_frames(0.3)
    calls = []
    leg_frame = kernels.leg_frame

    def counted(*args):
        calls.append(1)
        return leg_frame(*args)

    def scalar_kernel(*args):
        raise AssertionError("step called a one-leg kernel")

    monkeypatch.setattr(kernels, "leg_frame", counted)
    monkeypatch.setattr(kernels, "fk_position", scalar_kernel)
    monkeypatch.setattr(kernels, "leg_jacobian", scalar_kernel)
    est = Estimator(EstimatorConfig(initial_position=[0, 0, plan.body_height]))
    assert not est.config.ikvel_enabled
    for fr in frames:
        est.step(fr)
    assert len(calls) == len(frames)


def test_non_finite_joint_angle_gates_the_leg_out_for_that_frame():
    plan, frames = _walk_frames(1.0)
    cfg = EstimatorConfig(initial_position=[0, 0, plan.body_height])
    assert not cfg.ikvel_enabled and cfg.legs[0].wheel_radius == 0.0
    est = Estimator(cfg)
    clean = []
    for fr in frames:
        est.step(fr)
        clean.append(est.diagnostics()["contacts"])
    k = next(i for i in range(len(frames) // 2, len(frames))
             if 0 in clean[i - 1] and 0 in clean[i])
    bad = frames[k]
    q = bad.legs[0].q.copy()
    q[1] = np.nan
    frames = list(frames)
    frames[k] = SensorFrame(bad.stamp, bad.att, bad.gyro,
                            [JointReading(q, bad.legs[0].dq, bad.legs[0].tau)]
                            + bad.legs[1:], bad.wheels)
    est = Estimator(cfg)
    for i, fr in enumerate(frames):
        st = est.step(fr)
        assert np.isfinite(np.concatenate([st.position, st.rpy, st.velocity])).all()
        if i == k:
            assert est.diagnostics()["contacts"] == [j for j in clean[k] if j != 0]
