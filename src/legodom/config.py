"""Estimator configuration: dataclass, validation, and the flat key-value
file format used by the CLI."""

from dataclasses import dataclass, field

import numpy as np

from .geometry import LegGeometry, default_leg_geometries


class ConfigError(Exception):
    """Invalid configuration value or unparseable config file."""


@dataclass
class EstimatorConfig:
    legs: list = field(default_factory=default_leg_geometries)

    # contact gating (N); supporting contacts are negative, threshold included
    force_threshold: float = -20.0
    sigma_min: float = 1e-6

    # support-plane height correction
    height_enabled: bool = True
    height_window: float = 0.04
    height_fade: float = 30.0
    height_decay_scale: float = 1.0

    # kinematic yaw correction
    yaw_enabled: bool = True
    imu_yaw_enabled: bool = True
    yaw_alpha0: float = 0.02
    yaw_ramp_time: float = 3.0
    yaw_min_baseline: float = 0.02

    # per-leg velocity filter
    ikvel_enabled: bool = False
    ikvel_q_pos: float = 1e-6
    ikvel_q_vel: float = 0.3
    ikvel_r_angle: float = 2.5e-7
    ikvel_r_rate: float = 0.3
    ikvel_dt_max: float = 0.1

    # translational observation blending
    pos_blend: float = 1.0
    vel_blend: float = 0.8

    heading_eps: float = 1e-9

    initial_position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    initial_yaw: float = 0.0

    def __post_init__(self):
        self.initial_position = np.asarray(self.initial_position, dtype=float)
        self.validate()

    def validate(self):
        if len(self.legs) < 1:
            raise ConfigError("need at least one leg")
        if self.height_window <= 0:
            raise ConfigError("height.match_window must be > 0")
        if self.height_fade <= 0:
            raise ConfigError("height.fade_time must be > 0")
        if self.height_decay_scale <= 0:
            raise ConfigError("height.decay_scale must be > 0")
        if not 0.0 < self.yaw_alpha0 <= 1.0:
            raise ConfigError("yaw.alpha0 must be in (0, 1]")
        if self.yaw_ramp_time <= 0:
            raise ConfigError("yaw.ramp_time must be > 0")
        if self.ikvel_dt_max <= 0:
            raise ConfigError("ikvel.dt_max must be > 0")
        for name in ("ikvel_q_pos", "ikvel_q_vel", "ikvel_r_angle", "ikvel_r_rate"):
            if getattr(self, name) <= 0:
                raise ConfigError(name.replace("ikvel_", "ikvel.") + " must be > 0")
        if not 0.0 <= self.pos_blend <= 1.0 or not 0.0 <= self.vel_blend <= 1.0:
            raise ConfigError("blend gains must be in [0, 1]")
        if self.heading_eps <= 0:
            raise ConfigError("wheel.heading_eps must be > 0")
        if self.sigma_min <= 0:
            raise ConfigError("contact.sigma_min must be > 0")


# config file key -> (attribute, parser)
_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(v):
    """True or False for a boolean word; KeyError on anything else."""
    return _BOOL[v.lower()]


_SCALAR_KEYS = {
    "contact.force_threshold": ("force_threshold", float),
    "contact.sigma_min": ("sigma_min", float),
    "height.enabled": ("height_enabled", _parse_bool),
    "height.match_window": ("height_window", float),
    "height.fade_time": ("height_fade", float),
    "height.decay_scale": ("height_decay_scale", float),
    "yaw.enabled": ("yaw_enabled", _parse_bool),
    "yaw.imu_yaw_enabled": ("imu_yaw_enabled", _parse_bool),
    "yaw.alpha0": ("yaw_alpha0", float),
    "yaw.ramp_time": ("yaw_ramp_time", float),
    "yaw.min_baseline": ("yaw_min_baseline", float),
    "ikvel.enabled": ("ikvel_enabled", _parse_bool),
    "ikvel.q_pos": ("ikvel_q_pos", float),
    "ikvel.q_vel": ("ikvel_q_vel", float),
    "ikvel.r_angle": ("ikvel_r_angle", float),
    "ikvel.r_rate": ("ikvel_r_rate", float),
    "ikvel.dt_max": ("ikvel_dt_max", float),
    "blend.pos_gain": ("pos_blend", float),
    "blend.vel_gain": ("vel_blend", float),
    "wheel.heading_eps": ("heading_eps", float),
    "init.yaw": ("initial_yaw", float),
}


# a config or plan number must be finite and within +-MAX_MAGNITUDE (no gain,
# length, time or rate comes near it, and products of such numbers stay far
# from overflow), and a config describes 1 to _MAX_LEGS legs
MAX_MAGNITUDE = 1e9
_MAX_LEGS = 64


def read_pairs(text, what, repeated=()):
    """The `key = value` lines of a config or plan file as {key: (line, value)}.

    `#` starts a comment, blank lines are skipped, and a line splits on its
    first `=`. A repeated key keeps its last line, except the keys in
    `repeated`, which map to the list of their (line, value) pairs in file
    order. `what` ("config" or "plan") starts each error message.
    """
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("%s line %d: expected 'key = value'" % (what, lineno))
        key, value = (s.strip() for s in stripped.split("=", 1))
        if key in repeated:
            pairs.setdefault(key, []).append((lineno, value))
        else:
            pairs[key] = (lineno, value)
    return pairs


def parse_value(what, key, line, value, parser=float, count=None):
    """parser(value), finite and within +-MAX_MAGNITUDE, or a ConfigError
    that reads `<what> line N: ... KEY ...`.

    With `count` (2 or 3), value holds that many whitespace-separated numbers
    (x y or x y z) and a tuple of them is returned.
    """
    if count is not None:
        parts = value.split()
        if len(parts) != count:
            raise ConfigError("%s line %d: %s needs %s"
                              % (what, line, key, " ".join("xyz"[:count])))
        return tuple(parse_value(what, key, line, p, parser) for p in parts)
    try:
        parsed = parser(value)
    except (KeyError, ValueError):
        raise ConfigError("%s line %d: bad value for %s: %r"
                          % (what, line, key, value)) from None
    if not abs(parsed) <= MAX_MAGNITUDE:
        raise ConfigError("%s line %d: %s must be finite and within +-%g, got %r"
                          % (what, line, key, MAX_MAGNITUDE, value))
    return parsed


def parse_config_text(text):
    """Parse flat `key = value` lines into an EstimatorConfig.

    Geometry keys: `legs = N`, global `geom.hip_offset/thigh/calf/wheel_radius`,
    per-leg `legN.side` and `legN.mount = x y z`. Unknown keys are an error.
    """
    pairs = read_pairs(text, "config")

    def take(key, parser=float, count=None):
        return parse_value("config", key, *pairs.pop(key), parser, count)

    geom_kw = {}
    n_legs = 4
    if "legs" in pairs:
        line = pairs["legs"][0]
        n_legs = take("legs", int)
        if not 1 <= n_legs <= _MAX_LEGS:
            raise ConfigError("config line %d: legs must be from 1 to %d, got %d"
                              % (line, _MAX_LEGS, n_legs))
    # LegGeometry checks these ranges too, but only here is the line known
    for src, dst, rule in (("geom.hip_offset", "hip_offset", None),
                           ("geom.thigh", "thigh", "> 0"), ("geom.calf", "calf", "> 0"),
                           ("geom.wheel_radius", "wheel_radius", ">= 0")):
        if src in pairs:
            line, text = pairs[src]
            geom_kw[dst] = length = take(src)
            if rule and not (length > 0.0 or rule == ">= 0" and length == 0.0):
                raise ConfigError("config line %d: %s must be %s, got %r"
                                  % (line, src, rule, text))
    legs = default_leg_geometries(**geom_kw)
    if n_legs != 4:
        base = legs[0]
        legs = [LegGeometry(base.hip_offset_len, base.thigh_len, base.calf_len,
                            base.wheel_radius, 1 if i % 2 == 0 else -1,
                            np.zeros(3)) for i in range(n_legs)]
    for i in range(n_legs):
        side_key = "leg%d.side" % i
        mount_key = "leg%d.mount" % i
        g = legs[i]
        side, mount = g.side_sign, g.hip_mount
        if side_key in pairs:
            line = pairs[side_key][0]
            side = take(side_key, int)
            if side not in (1, -1):
                raise ConfigError("config line %d: %s must be 1 or -1, got %d"
                                  % (line, side_key, side))
        if mount_key in pairs:
            mount = np.array(take(mount_key, count=3))
        legs[i] = LegGeometry(g.hip_offset_len, g.thigh_len, g.calf_len,
                              g.wheel_radius, side, mount)

    kwargs = {"legs": legs}
    if "init.position" in pairs:
        kwargs["initial_position"] = take("init.position", count=3)
    for key, (line, value) in pairs.items():
        if key not in _SCALAR_KEYS:
            raise ConfigError("config line %d: unknown config key %r" % (line, key))
        attr, parser = _SCALAR_KEYS[key]
        kwargs[attr] = parse_value("config", key, line, value, parser)
    return EstimatorConfig(**kwargs)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def save_config(cfg: EstimatorConfig, path):
    """Write a config file that parse_config_text reads back equivalently."""
    lines = ["legs = %d" % len(cfg.legs)]
    g0 = cfg.legs[0]
    lines += [
        "geom.hip_offset = %r" % float(g0.hip_offset_len),
        "geom.thigh = %r" % float(g0.thigh_len),
        "geom.calf = %r" % float(g0.calf_len),
        "geom.wheel_radius = %r" % float(g0.wheel_radius),
    ]
    for i, g in enumerate(cfg.legs):
        lines.append("leg%d.side = %d" % (i, g.side_sign))
        lines.append("leg%d.mount = %r %r %r"
                     % (i, float(g.hip_mount[0]), float(g.hip_mount[1]),
                        float(g.hip_mount[2])))
    inverse = {attr: key for key, (attr, _) in _SCALAR_KEYS.items()}
    for attr, key in inverse.items():
        v = getattr(cfg, attr)
        lines.append("%s = %s" % (key, ("true" if v else "false")
                                  if isinstance(v, bool) else repr(float(v))))
    lines.append("init.position = %r %r %r" % tuple(float(v) for v in cfg.initial_position))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


__all__ = ["EstimatorConfig", "ConfigError", "MAX_MAGNITUDE", "read_pairs",
           "parse_value", "parse_config_text", "load_config", "save_config"]
