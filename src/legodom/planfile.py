"""Declarative gait plan files: flat key-value lines plus a waypoint list.

Example:

    mode = trot
    rate_hz = 250
    speed = 0.5
    body_height = 0.30
    waypoint = 0 0
    waypoint = 8 0
    terrain.x0 = 1.2
    terrain.x1 = 2.4
    terrain.height = 0.1
    degrade.encoder_quantum = 1e-3
"""

from .config import ConfigError, parse_value, read_pairs
from .gait import MODES, PRESETS, GaitPlan, StepTerrain, frames_per_step, preset_plan
from .geometry import default_leg_geometries

_FLOAT_KEYS = ("rate_hz", "body_height", "speed", "step_period", "step_height",
               "settle_time", "mass", "yaw_rate", "turn_angle", "duration",
               "flight_speed")

_DEGRADE_KEYS = ("encoder_quantum", "yaw_drift", "wheel_slip",
                 "touchdown_height_noise")


def parse_plan_text(text):
    kv = read_pairs(text, "plan", repeated=("waypoint",))
    waypoints = [parse_value("plan", "waypoint", lineno, value, count=2)
                 for lineno, value in kv.pop("waypoint", ())]

    if "preset" in kv:
        lineno, name = kv.pop("preset")
        if name not in PRESETS:
            raise ConfigError("plan line %d: unknown preset %r" % (lineno, name))
        plan = preset_plan(name)
    else:
        lineno, mode = kv.pop("mode", (0, "trot"))
        if mode not in MODES:
            raise ConfigError("plan line %d: unknown mode %r (one of %s)"
                              % (lineno, mode, ", ".join(MODES)))
        plan = GaitPlan(mode=mode)
    if waypoints:
        plan.waypoints = waypoints

    lines = {}
    for key in _FLOAT_KEYS:
        if key in kv:
            lines[key] = kv[key][0]
            setattr(plan, key, parse_value("plan", key, *kv.pop(key)))

    if "wheel_radius" in kv:
        plan.legs = default_leg_geometries(
            wheel_radius=parse_value("plan", "wheel_radius", *kv.pop("wheel_radius")))

    terrain_kv = {}
    for k in list(kv):
        if k.startswith("terrain."):
            terrain_kv[k.split(".", 1)[1]] = parse_value("plan", k, *kv.pop(k))
    if terrain_kv:
        plan.terrain = StepTerrain(
            terrain_kv.get("x0", 0.0), terrain_kv.get("x1", 0.0),
            terrain_kv.get("height", 0.0), terrain_kv.get("ramp", 0.6))

    spike_prob = kv.pop("degrade.rate_spike_prob", None)
    spike_gain = kv.pop("degrade.rate_spike_gain", None)
    if spike_prob is None and spike_gain is not None:
        raise ConfigError("plan line %d: degrade.rate_spike_gain needs "
                          "degrade.rate_spike_prob" % spike_gain[0])
    if spike_prob is not None:
        gain = (20.0 if spike_gain is None
                else parse_value("plan", "degrade.rate_spike_gain", *spike_gain))
        plan.imperfections["rate_spikes"] = (
            parse_value("plan", "degrade.rate_spike_prob", *spike_prob), gain)
    for k in list(kv):
        if k.startswith("degrade."):
            name = k.split(".", 1)[1]
            if name not in _DEGRADE_KEYS:
                raise ConfigError("plan line %d: unknown degrade key %r" % (kv[k][0], k))
            plan.imperfections[name] = parse_value("plan", k, *kv.pop(k))

    if kv:
        raise ConfigError("unknown plan keys: %s" % ", ".join(
            "%s (line %d)" % (k, kv[k][0]) for k in sorted(kv)))
    _check_frame_grid(plan, lines)
    return plan


def _check_frame_grid(plan, lines):
    """The trot generator's frame-grid check, run on a trot whose file sets
    step_period or rate_hz (by line, in lines): a ConfigError naming the
    step_period line, or the rate_hz line when the file sets only that."""
    keys = [k for k in ("step_period", "rate_hz") if k in lines]
    if plan.mode != "trot" or not keys:
        return
    try:
        frames_per_step(plan.step_period, plan.rate_hz)
    except ValueError as exc:
        raise ConfigError("plan line %d: %s (step_period %g s at rate_hz %g is %g frames)"
                          % (lines[keys[0]], exc, plan.step_period, plan.rate_hz,
                             plan.step_period * plan.rate_hz)) from None


def load_plan(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_plan_text(fh.read())


__all__ = ["parse_plan_text", "load_plan"]
