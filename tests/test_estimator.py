import importlib.util
import os

import numpy as np
import pytest

from legodom import (Estimator, EstimatorConfig, SensorFrame, WheelReading, contact,
                     create, degrade, diagnostics, generate_gait, height, ikvel, kernels,
                     parse_config_text, preset_plan, quat_to_rpy, rpy_to_quat, step,
                     wrap_angle)
from legodom.gait import PRESETS
from legodom.geometry import quat_to_rpy_columns, rpy_rows
from legodom.planfile import parse_plan_text
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
    before, diag = est.state, est.diagnostics()
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
    before, diag = est.state, est.diagnostics()
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
    before, diag = est.state, est.diagnostics()
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
    # and so are the rotation rows, on floats and on the columns step_block
    # takes them from
    rows = np.array([est._attitude(q)[3] for q in quats.tolist()])
    columns = np.array(rpy_rows(*quat_to_rpy_columns(quats), np.cos, np.sin))
    assert rows.tobytes() == np.moveaxis(columns, -1, 0).tobytes()


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


# --- step_block ---------------------------------------------------------------

_DIGESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "benchmarks", "stream_digests.py")


@pytest.fixture(scope="module")
def workload():
    """workload(name) -> (frames, config): a replay-benchmark workload's
    degraded stream at seed 0 and its config, as `legodom simulate` and
    `legodom replay` take them (plans and configs from stream_digests)."""
    spec = importlib.util.spec_from_file_location("stream_digests", _DIGESTS)
    sd = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sd)
    cache = {}

    def get(name):
        if name not in cache:
            plan_text, config = sd.WORKLOADS[name]
            plan = parse_plan_text(sd.workload_plan(plan_text, 0))
            res = generate_gait(plan)
            cache[name] = (degrade(res.frames, plan.imperfections, seed=0,
                                   contacts=res.contacts, legs=plan.legs),
                           parse_config_text(config))
        return cache[name]

    return get


def _state_key(st):
    return (np.concatenate([st.position, st.rpy, st.velocity]).tobytes(), st.stamp,
            type(st.stamp))


def _estimator_key(est):
    """Everything an estimator holds that a later step or record reads."""
    filt = est.ikvel.states
    return (_state_key(est.state), encode_json(est.diagnostics()),
            [rec.anchor for rec in est.records], list(est.prev_contact),
            encode_json(height.planes_to_json(est.planes)), est.full_support_since,
            list(est.wheel_cache), dict(est.ikvel.status_counts),
            None if filt is None else (filt.x.tobytes(), filt.P.tobytes(), filt.t),
            None if est.ikvel._unseeded is None else est.ikvel._unseeded.tolist())


def _stepped(cfg, frames):
    """(each frame's state and record, the estimator) of stepping frames one
    at a time with step."""
    est = Estimator(cfg)
    out = [(_state_key(est.step(fr)), encode_json(est.diagnostics())) for fr in frames]
    return out, _estimator_key(est)


def _assert_blocks_step_as_frames(cfg, frames, sizes=(256,)):
    """step_block over blocks of each size yields the states and records,
    and leaves the estimator, that stepping one frame at a time does."""
    want = _stepped(cfg, frames)
    for size in sizes:
        est = Estimator(cfg)
        out = []
        for i in range(0, len(frames), size):
            out.extend((_state_key(st), encode_json(est.diagnostics()))
                       for st in est.step_block(frames[i:i + size]))
        assert (out, _estimator_key(est)) == want, size


def _config(plan, **kwargs):
    return EstimatorConfig(legs=plan.legs, initial_position=[0, 0, plan.body_height], **kwargs)


@pytest.mark.parametrize("preset", PRESETS)
def test_step_block_steps_every_preset_as_step_does(stream, preset):
    # the first 4,000 frames (16 s) of each: the stair itself is stair_trot's
    plan, _, frames = stream(preset)
    _assert_blocks_step_as_frames(_config(plan), frames[:4000])


@pytest.mark.parametrize("name", ["stair_trot", "ckf_walk", "wheel_cli"])
def test_step_block_steps_each_workloads_degraded_stream_as_step_does(workload, name):
    # ckf_walk runs the filter; wheel_cli's 1,001 frames end in a part block
    frames, cfg = workload(name)
    _assert_blocks_step_as_frames(cfg, frames[:1000] if name == "ckf_walk" else frames,
                                  sizes=(1, 2, 256) if name == "wheel_cli" else (256,))


@pytest.mark.parametrize("preset", ["walk_line", "turn_in_place", "wheel_roll"])
@pytest.mark.parametrize("ikvel_on, imu_yaw", [(True, True), (False, False), (True, False)])
def test_step_block_with_the_filter_or_the_imu_yaw_off_steps_as_step_does(
        stream, preset, ikvel_on, imu_yaw):
    # with the IMU yaw off, the rotation rows 0-1 follow the held yaw
    plan, _, frames = stream(preset)
    cfg = _config(plan, ikvel_enabled=ikvel_on, imu_yaw_enabled=imu_yaw)
    _assert_blocks_step_as_frames(cfg, frames[:400], sizes=(2, 256))
    if not imu_yaw and preset != "wheel_roll":
        # a block that starts on the first touchdown after frame 0 takes its
        # touchdowns and its held yaw from the state the block before left
        # (wheel_roll's legs touch down only on frame 0)
        est = Estimator(cfg)
        est.step(frames[0])
        for k in range(1, len(frames)):
            est.step(frames[k])
            if est.diagnostics()["touchdowns"]:
                break
        assert est.diagnostics()["touchdowns"]
        _assert_blocks_step_as_frames(cfg, frames[:k + 50], sizes=(k,))


def test_step_block_on_wheel_frames_with_missing_readings_steps_as_step_does(stream):
    plan, _, frames = stream("wheel_roll")
    edited = []
    for k, fr in enumerate(frames[:900]):
        wheels = fr.wheels
        if k % 7 == 3:
            wheels = None
        elif k % 5 == 1:
            wheels = [None if i == k % 4 else w for i, w in enumerate(wheels)]
        edited.append(SensorFrame(fr.stamp, fr.att, fr.gyro, fr.joints, wheels))
    _assert_blocks_step_as_frames(_config(plan), edited, sizes=(1, 256))


# near-singular knees: the wrench gate's bound cannot decide them, and J's SVD
# passes the first and fails the second; [0, 0, 0] is a straight, singular leg
SVD_PASS_Q, SVD_FAIL_Q, SINGULAR_Q = [0.0, 0.4, -1.15e-5], [0.0, 0.4, -1e-5], [0.0] * 3


# (channel, leg, joints, value) written into a frame's joints: a NaN or an
# infinite value, angles whose q1 + q2 overflows, a singular leg and legs
# that need the SVD; then the scales of an attitude quaternion off unit norm
FUZZ_ROWS = [(0, 0, 1, np.nan), (1, 1, 2, np.inf), (2, 2, 0, -np.inf),
             (0, 3, slice(None), [0.0, 1e308, 1e308]), (0, 1, slice(None), [1e308, -1e308, 0.5]),
             (0, 2, slice(None), SINGULAR_Q), (0, 0, slice(None), SVD_PASS_Q),
             (0, 3, slice(None), SVD_FAIL_Q)]
ATT_SCALES = [3.0, 1e-3, 1e200]


def _fuzzed_walk(frames):
    """frames with one fuzz row or quaternion scale, in turn, on every third
    frame."""
    out = []
    for k, fr in enumerate(frames):
        joints, att = fr.joints.copy(), fr.att.copy()
        edit = (k // 3) % (len(FUZZ_ROWS) + len(ATT_SCALES))
        if k % 3 == 0 and edit < len(FUZZ_ROWS):
            channel, leg, joint, value = FUZZ_ROWS[edit]
            joints[channel, leg, joint] = value
        elif k % 3 == 0:
            att *= ATT_SCALES[edit - len(FUZZ_ROWS)]
        out.append(SensorFrame(fr.stamp, att, fr.gyro, joints, fr.wheels))
    return out


@pytest.mark.parametrize("ikvel_on", [False, True])
def test_step_block_on_the_fuzz_rows_steps_as_step_does(stream, monkeypatch, ikvel_on):
    plan, _, frames = stream("walk_line")
    frames = _fuzzed_walk(frames[:600])
    svd = kernels._svd_clears
    calls = []
    monkeypatch.setattr(kernels, "_svd_clears",
                        lambda jac, sigma_min: calls.append(np.shape(jac)) or svd(jac, sigma_min))
    _assert_blocks_step_as_frames(_config(plan, ikvel_enabled=ikvel_on), frames, sizes=(256,))
    # both paths took the SVD of the undecided legs: step one leg at a time,
    # step_block a stack of them
    assert (8,) in calls and any(len(shape) == 2 for shape in calls)


def _bad_frames(frames, k):
    """(name, message pattern, frame k made bad in that way) for each way
    step rejects a frame."""
    fr, prev = frames[k], frames[k - 1]

    def frame(**kw):
        args = dict(stamp=fr.stamp, att=fr.att, gyro=fr.gyro, joints=fr.joints,
                    wheels=fr.wheels)
        args.update(kw)
        return SensorFrame(**args)

    wheels = [WheelReading(w.psi, w.dpsi) for w in fr.wheels]
    wheels[1].dpsi = np.inf
    return [("legs", "legs, config has", frame(joints=fr.joints[:, :3], wheels=None)),
            ("stamp", "stamp .* not finite", frame(stamp=np.nan)),
            ("att", "att .* not finite", frame(att=np.where(np.arange(4) == 2, np.inf, fr.att))),
            ("gyro", "gyro .* not finite", frame(gyro=np.array([0.0, np.nan, 0.0]))),
            ("wheel", "wheel .* not finite", frame(wheels=wheels)),
            ("order", "not after state stamp", frame(stamp=prev.stamp)),
            ("zero", "zero norm", frame(att=np.zeros(4)))]


@pytest.mark.parametrize("k", [0, 7, 40])
def test_a_bad_frame_in_a_block_raises_after_the_frames_before_it(stream, k):
    # frame k of the second block is bad: step_block raises step's
    # ValueError with the state advanced through the frame before it, and the
    # stream goes on from there as it does with step
    plan, _, frames = stream("wheel_roll")
    frames = frames[:160]
    cfg = _config(plan, ikvel_enabled=True)
    start = 30
    for name, pattern, bad in _bad_frames(frames, start + k):
        want, got = Estimator(cfg), Estimator(cfg)
        for fr in frames[:start + k]:
            want.step(fr)
        with pytest.raises(ValueError, match=pattern) as want_exc:
            want.step(bad)
        list(got.step_block(frames[:start]))
        block = frames[start:start + k] + [bad] + frames[start + k + 1:start + 100]
        yielded = []
        with pytest.raises(ValueError, match=pattern) as got_exc:
            for st in got.step_block(block):
                yielded.append(_state_key(st))
        assert str(got_exc.value) == str(want_exc.value), name
        assert len(yielded) == k, name
        assert _estimator_key(got) == _estimator_key(want), name
        rest = frames[start + k + 1:]
        assert ([_state_key(st) for st in got.step_block(rest)]
                == [_state_key(want.step(fr)) for fr in rest]), name
        assert _estimator_key(got) == _estimator_key(want), name


def test_step_block_calls_step_once_per_frame(stream, monkeypatch):
    # a wrapper of step sees every frame of a block, each inside its own
    # call, whichever way the frames are stepped
    plan, _, frames = stream("wheel_roll")
    frames = frames[:300]
    step = Estimator.step
    seen = []

    def spy(self, frame, *block):
        seen.append(frame)
        return step(self, frame, *block)

    monkeypatch.setattr(Estimator, "step", spy)
    est = Estimator(_config(plan))
    for i in range(0, len(frames), 256):
        list(est.step_block(frames[i:i + 256]))
    assert [id(fr) for fr in seen] == [id(fr) for fr in frames]


def test_each_path_runs_the_touchdown_rule_once_per_leg_and_frame(stream, monkeypatch):
    # the rule runs in step's advance on both paths, against the flags of
    # the frame before, with the same results
    plan, _, frames = stream("turn_in_place")
    frames = frames[:600]
    detect = contact.detect_touchdown
    results = []
    monkeypatch.setattr(contact, "detect_touchdown",
                        lambda prev, on: results.append(detect(prev, on)) or results[-1])
    est = Estimator(_config(plan))
    for fr in frames:
        est.step(fr)
    want = list(results)
    assert len(want) == len(plan.legs) * len(frames) and want.count(True) > len(plan.legs)
    for size in (1, 7, 256):
        results.clear()
        est = Estimator(_config(plan))
        for i in range(0, len(frames), size):
            list(est.step_block(frames[i:i + size]))
        assert results == want, size


def test_a_step_between_two_frames_of_a_block_raises():
    # the block's stamp checks were made against the state at its first
    # frame; a step taken in between would make them stale
    plan = preset_plan("walk_line")
    plan.duration = 0.2
    frames = generate_gait(plan).frames
    est = Estimator(_config(plan))
    block = est.step_block(frames[:10])
    next(block)
    est.step(frames[10])
    with pytest.raises(RuntimeError, match="between two frames of a step_block"):
        next(block)
