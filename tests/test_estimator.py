import numpy as np
import pytest

from legodom import (Estimator, EstimatorConfig, SensorFrame, WheelReading,
                     create, diagnostics, generate_gait, ikvel, kernels, preset_plan,
                     quat_to_rpy, rpy_to_quat, step, wrap_angle)
from legodom.geometry import quat_to_rpy_columns
from legodom.ikvel import CKF_MEASUREMENT_SKIPPED
from legodom.logio import encode_json


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


@pytest.mark.parametrize("stamp", [np.nan, np.inf, -np.inf])
def test_non_finite_stamp_rejected(stamp):
    # a NaN stamp used to pass silently and turn every later state NaN
    plan = preset_plan("standing")
    plan.duration = 0.05
    frames = generate_gait(plan).frames
    est = Estimator(EstimatorConfig(initial_position=[0, 0, plan.body_height]))

    def stamped(fr):
        return SensorFrame(stamp, fr.att, fr.gyro, fr.joints)

    with pytest.raises(ValueError, match="not finite"):
        est.step(stamped(frames[0]))  # the first frame has no stamp to compare
    est.step(frames[0])
    with pytest.raises(ValueError, match="not finite"):
        est.step(stamped(frames[1]))
    assert np.all(np.isfinite(est.step(frames[1]).position))


@pytest.mark.parametrize("field, k", [("gyro", 2), ("att", 0), ("att", 3)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_attitude_or_rate_rejected_before_the_state(field, k, value):
    # a NaN gyro[2] on frame 10 of standing used to make every later state NaN
    plan = preset_plan("standing")
    plan.duration = 0.2
    frames = generate_gait(plan).frames
    est = Estimator(EstimatorConfig(initial_position=[0, 0, plan.body_height]))
    for fr in frames[:10]:
        est.step(fr)
    before, diag = est.state.copy(), est.diagnostics()
    bad = SensorFrame(frames[10].stamp, frames[10].att.copy(), frames[10].gyro.copy(),
                      frames[10].joints)
    getattr(bad, field)[k] = value
    with pytest.raises(ValueError, match="%s .* not finite" % field):
        est.step(bad)
    assert est.state.stamp == before.stamp
    for name in ("position", "rpy", "velocity"):
        assert np.array_equal(getattr(est.state, name), getattr(before, name))
    assert est.diagnostics() == diag
    states = [est.step(fr) for fr in frames[10:]]
    assert all(np.isfinite(np.concatenate([st.position, st.rpy, st.velocity])).all()
               for st in states)


@pytest.mark.parametrize("field", ["psi", "dpsi"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_wheel_reading_rejected_before_the_state(field, value):
    # one NaN psi or dpsi on a wheel_roll frame used to make most later
    # states non-finite, with no error
    plan = preset_plan("wheel_roll")
    plan.duration = 0.2
    frames = generate_gait(plan).frames
    est = Estimator(EstimatorConfig(legs=plan.legs,
                                    initial_position=[0, 0, plan.body_height]))
    for fr in frames[:10]:
        est.step(fr)
    before, diag = est.state.copy(), est.diagnostics()
    wheels = [WheelReading(w.psi, w.dpsi) for w in frames[10].wheels]
    setattr(wheels[2], field, value)
    bad = SensorFrame(frames[10].stamp, frames[10].att, frames[10].gyro,
                      frames[10].joints, wheels)
    with pytest.raises(ValueError, match="wheel .* not finite"):
        est.step(bad)
    assert est.state.stamp == before.stamp
    for name in ("position", "rpy", "velocity"):
        assert np.array_equal(getattr(est.state, name), getattr(before, name))
    assert est.diagnostics() == diag
    states = [est.step(fr) for fr in frames[10:]]
    assert all(np.isfinite(np.concatenate([st.position, st.rpy, st.velocity])).all()
               for st in states)


def test_scaled_attitude_quaternion_reads_as_its_unit_quaternion():
    # quat_to_rpy assumed a unit quaternion: 2q read a roll of 0.41 for 0.1
    q = rpy_to_quat(0.1, -0.2, 0.3)
    for scale in (2.0, 0.5, 1e-3, 1e3):
        assert np.max(np.abs(quat_to_rpy(scale * q) - [0.1, -0.2, 0.3])) <= 1e-12
    plan = preset_plan("hop")
    plan.duration = 0.5
    frames = generate_gait(plan).frames
    cfg = EstimatorConfig(initial_position=[0, 0, plan.body_height])
    unit, scaled = Estimator(cfg), Estimator(cfg)
    for fr in frames:
        a = unit.step(fr)
        b = scaled.step(SensorFrame(fr.stamp, 3.0 * fr.att, fr.gyro, fr.joints))
        assert np.max(np.abs(a.rpy - b.rpy)) <= 1e-12
        assert np.max(np.abs(a.position - b.position)) <= 1e-12


def test_zero_attitude_quaternion_rejected_before_the_state():
    # a zero quaternion used to read as level
    with pytest.raises(ValueError, match="zero norm"):
        quat_to_rpy([0.0, 0.0, 0.0, 0.0])
    plan = preset_plan("standing")
    plan.duration = 0.2
    frames = generate_gait(plan).frames
    est = Estimator(EstimatorConfig(initial_position=[0, 0, plan.body_height],
                                    ikvel_enabled=True))
    for fr in frames[:10]:
        est.step(fr)
    before, diag = est.state.copy(), est.diagnostics()
    filt_x = est.ikvel.states.x.copy()
    bad = SensorFrame(frames[10].stamp, np.zeros(4), frames[10].gyro, frames[10].joints)
    with pytest.raises(ValueError, match="zero norm"):
        est.step(bad)
    assert est.state.stamp == before.stamp
    for name in ("position", "rpy", "velocity"):
        assert np.array_equal(getattr(est.state, name), getattr(before, name))
    assert est.diagnostics() == diag
    assert np.array_equal(est.ikvel.states.x, filt_x)
    assert est.ikvel.states.t == frames[9].stamp


def test_leg_count_mismatch_rejected():
    plan = preset_plan("standing")
    plan.duration = 0.05
    res = generate_gait(plan)
    est = Estimator(EstimatorConfig())
    bad = SensorFrame(res.frames[0].stamp, res.frames[0].att,
                      res.frames[0].gyro, res.frames[0].joints[:, :2])
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


def test_kinematics_only_heading_closes_turn(stream):
    # with the IMU yaw channel disabled the contact-geometry heading carries
    # the whole rotation; the residual is reported, not asserted (unmodeled
    # compliance dominates it on hardware)
    plan, res, _ = stream("turn_in_place")
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


def test_diagnostics_records_hold_only_json_types(stream):
    # a plane's weight used to be an np.float64
    plan, res, _ = stream("stair_loop")
    est = Estimator(EstimatorConfig(initial_position=[0, 0, plan.body_height]))
    types, planes = set(), 0

    def walk(value):
        types.add(type(value))
        for item in value.values() if type(value) is dict else (
                value if type(value) is list else ()):
            walk(item)

    for fr in res.frames:
        est.step(fr)
        record = est.diagnostics()
        planes += len(record["planes"])
        walk(record)
    assert planes > len(res.frames)  # the planes and their weights are in the records
    assert types <= {int, float, str, list, dict, type(None)}, types


def test_module_level_api():
    plan = preset_plan("standing")
    plan.duration = 0.05
    res = generate_gait(plan)
    handle = create(EstimatorConfig(initial_position=[0, 0, plan.body_height]))
    out = step(handle, res.frames[0])
    assert out.stamp == res.frames[0].stamp
    assert diagnostics(handle)["n_contacts"] == 4


def test_diagnostics_before_the_first_step_is_empty():
    assert Estimator(EstimatorConfig()).diagnostics() == {}


def test_a_record_built_on_demand_equals_one_built_every_frame(stream):
    # the record is built from the last step's references when asked for;
    # with touchdown-height noise the plane store holds planes, so the
    # record reads the anchors, contacts and planes the step left behind
    plan, _, frames = stream("stair_loop", imperfections={"touchdown_height_noise": 0.02})
    cfg = EstimatorConfig(initial_position=[0, 0, plan.body_height])
    asked, never = Estimator(cfg), Estimator(cfg)
    planes = 0
    for fr in frames:
        asked.step(fr)
        never.step(fr)
        record = asked.diagnostics()
        planes = max(planes, len(record["planes"]))
        built = encode_json(record)
        for value in record.values():  # the caller owns the record it gets
            if type(value) is list:
                value.append(99)
        assert encode_json(asked.diagnostics()) == built
    assert planes >= 2
    assert encode_json(never.diagnostics()) == encode_json(asked.diagnostics())
    assert never.diagnostics()["planes"]


@pytest.mark.parametrize("imu_yaw", [True, False])
def test_writing_into_returned_states_changes_no_later_step(stream, imu_yaw):
    # the estimator keeps no reference into the arrays it hands out, from
    # step() or from est.state; with the IMU yaw off, yaw is the held state
    plan, _, frames = stream("stair_loop", imperfections={"touchdown_height_noise": 0.02})
    cfg = EstimatorConfig(initial_position=[0, 0, plan.body_height],
                          imu_yaw_enabled=imu_yaw)
    clean, written = Estimator(cfg), Estimator(cfg)
    for fr in frames:
        want = clean.step(fr)
        got = written.step(fr)
        for name in ("position", "rpy", "velocity"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
            assert np.array_equal(getattr(written.state, name), getattr(want, name))
            getattr(got, name)[:] = np.nan
            getattr(written.state, name)[:] = np.nan
        assert written.state.stamp == want.stamp
    assert np.isfinite(written.state.position).all()


def test_the_float_attitude_intake_equals_quat_to_rpy_bit_for_bit():
    # the step reads the attitude from the floats of its finite check; roll,
    # pitch and yaw must be the bits quat_to_rpy and its column form give
    rng = np.random.default_rng(26)
    unit = rng.normal(size=(3_000, 4))
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    scaled = rng.normal(size=(1_000, 4)) * rng.uniform(1e-3, 1e3, (1_000, 1))
    # at a pitch of +-pi/2 the pitch sine rounds past 1 in some rows
    gimbal = [rpy_to_quat(r, s * np.pi / 2, y)
              for r, y in rng.uniform(-3.0, 3.0, (300, 2)) for s in (1, -1)]
    quats = np.concatenate([unit, scaled, gimbal])
    est = Estimator(EstimatorConfig())
    intake = np.array([est._attitude(q)[:3] for q in quats.tolist()])
    assert intake.dtype == float
    assert intake.tobytes() == np.array([quat_to_rpy(q) for q in quats]).tobytes()
    assert intake.tobytes() == np.ascontiguousarray(quat_to_rpy_columns(quats).T).tobytes()
    assert all(type(v) is float for v in est._attitude(quats[0].tolist())[:3])


def _walk_frames(length):
    plan = preset_plan("walk_line")
    plan.waypoints = [(0.0, 0.0), (length, 0.0)]
    return plan, generate_gait(plan).frames


def _with_nan_angle(frames, k):
    """frames with q[1] of leg 0 at frame k replaced by NaN."""
    bad = frames[k]
    joints = bad.joints.copy()
    joints[0, 0, 1] = np.nan
    frames = list(frames)
    frames[k] = SensorFrame(bad.stamp, bad.att, bad.gyro, joints, bad.wheels)
    return frames


def _assert_finite(st):
    assert np.isfinite(np.concatenate([st.position, st.rpy, st.velocity])).all()


def test_step_makes_one_leg_kernel_call_per_frame(monkeypatch):
    plan, frames = _walk_frames(0.3)
    calls = []
    leg_rows = kernels.leg_rows

    def counted(*args):
        calls.append(1)
        return leg_rows(*args)

    monkeypatch.setattr(kernels, "leg_rows", counted)
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
    est = Estimator(cfg)
    for i, fr in enumerate(_with_nan_angle(frames, k)):
        _assert_finite(est.step(fr))
        if i == k:
            assert est.diagnostics()["contacts"] == [j for j in clean[k] if j != 0]


def test_filter_skips_the_update_of_a_leg_with_a_non_finite_angle():
    # the NaN used to stay in leg 0's filter state, and the body state turned
    # non-finite 50 frames later, when the leg was next in stance
    plan, frames = _walk_frames(1.0)
    est = Estimator(EstimatorConfig(initial_position=[0, 0, plan.body_height],
                                    ikvel_enabled=True))
    for fr in _with_nan_angle(frames, 1320):
        _assert_finite(est.step(fr))
    assert est.ikvel.status_counts == {CKF_MEASUREMENT_SKIPPED: 1}


def test_the_filter_starts_each_leg_at_the_leg_kernels_position(monkeypatch):
    # the filter keeps no forward model: the first cycle of each leg starts
    # at rest, with the prior, at the r that kernels.leg_rows gave the step
    # that frame, bit for bit, also for a leg whose first finite angles come
    # on a later frame
    plan, frames = _walk_frames(0.3)
    frames = _with_nan_angle(_with_nan_angle(frames, 0), 1)
    feet, starts = [], []
    leg_rows, ckf_legs = kernels.leg_rows, ikvel._ckf_legs

    def kept_rows(*args):
        out = leg_rows(*args)
        feet.append(np.array(out[0]))
        return out

    monkeypatch.setattr(kernels, "leg_rows", kept_rows)
    monkeypatch.setattr(kernels, "leg_kinematics", None)
    monkeypatch.setattr(ikvel, "_ckf_legs",
                        lambda x, P, *args: starts.append((x, P)) or ckf_legs(x, P, *args))
    est = Estimator(EstimatorConfig(initial_position=[0, 0, plan.body_height],
                                    ikvel_enabled=True))
    for fr in frames[:4]:
        est.step(fr)
    prior = ikvel._prior_cov()
    for k, legs in ((0, [1, 2, 3]), (2, [0])):
        x, P = starts[k]
        assert x[legs, :3].tobytes() == feet[k][legs].tobytes()
        assert not x[legs, 3:].any()
        assert all(P[i].tobytes() == prior.tobytes() for i in legs)
    assert np.isnan(starts[1][0][0]).all()
    assert est.ikvel._unseeded is None
