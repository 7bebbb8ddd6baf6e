"""Estimator configuration: dataclass, validation, and the flat key-value
file format used by the CLI."""

from dataclasses import dataclass, field, replace

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

    def with_updates(self, **kwargs):
        return replace(self, **kwargs)


# config file key -> (attribute, parser)
_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(v):
    try:
        return _BOOL[v.strip().lower()]
    except KeyError:
        raise ConfigError("expected boolean, got %r" % v)


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


# a config number must be finite and within +-_MAX_MAGNITUDE (no gain, length
# or time of the estimator comes near it), and a config may describe at most
# _MAX_LEGS legs
_MAX_MAGNITUDE = 1e9
_MAX_LEGS = 64


def _parsed(key, value, parser):
    """parser(value), or a ConfigError naming the key."""
    try:
        parsed = parser(value)
    except ValueError:
        raise ConfigError("bad value for %s: %r" % (key, value)) from None
    if parser is float and not abs(parsed) <= _MAX_MAGNITUDE:
        raise ConfigError("%s must be finite and within +-%g, got %r"
                          % (key, _MAX_MAGNITUDE, value))
    return parsed


def _triple(key, value):
    """Three whitespace-separated numbers as a (3,) array."""
    parts = value.split()
    if len(parts) != 3:
        raise ConfigError(key + ": expected three numbers")
    return np.array([_parsed(key, p, float) for p in parts])


def parse_config_text(text):
    """Parse flat `key = value` lines into an EstimatorConfig.

    Geometry keys: `legs = N`, global `geom.hip_offset/thigh/calf/wheel_radius`,
    per-leg `legN.side` and `legN.mount = x y z`. Unknown keys are an error.
    """
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("line %d: expected 'key = value'" % lineno)
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()

    geom_kw = {}
    n_legs = _parsed("legs", raw.pop("legs", "4"), int)
    if n_legs > _MAX_LEGS:
        raise ConfigError("legs must be at most %d, got %d" % (_MAX_LEGS, n_legs))
    for src, dst in (("geom.hip_offset", "hip_offset"), ("geom.thigh", "thigh"),
                     ("geom.calf", "calf"), ("geom.wheel_radius", "wheel_radius")):
        if src in raw:
            geom_kw[dst] = _parsed(src, raw.pop(src), float)
    try:
        legs = default_leg_geometries(**geom_kw)
    except ValueError as exc:
        raise ConfigError("geom: %s" % exc) from None
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
        if side_key in raw:
            side = _parsed(side_key, raw.pop(side_key), int)
            if side not in (1, -1):
                raise ConfigError("%s must be 1 or -1, got %d" % (side_key, side))
        if mount_key in raw:
            mount = _triple(mount_key, raw.pop(mount_key))
        legs[i] = LegGeometry(g.hip_offset_len, g.thigh_len, g.calf_len,
                              g.wheel_radius, side, mount)

    kwargs = {"legs": legs}
    if "init.position" in raw:
        kwargs["initial_position"] = _triple("init.position", raw.pop("init.position"))
    for key, value in raw.items():
        if key not in _SCALAR_KEYS:
            raise ConfigError("unknown config key %r" % key)
        attr, parser = _SCALAR_KEYS[key]
        kwargs[attr] = _parsed(key, value, parser)
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


__all__ = ["EstimatorConfig", "ConfigError", "parse_config_text",
           "load_config", "save_config"]
