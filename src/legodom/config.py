"""Estimator configuration: dataclass, validation, and the flat key-value
file format used by the CLI."""

from dataclasses import dataclass, field, replace

import numpy as np

from . import ikvel
from .geometry import default_leg_geometries


class ConfigError(Exception):
    """Invalid configuration value or unparseable config file."""


@dataclass
class EstimatorConfig:
    legs: list = field(default_factory=default_leg_geometries)

    # contact gating (N); supporting contacts are negative, threshold included
    force_threshold: float = -20.0

    # support-plane height correction
    height_enabled: bool = True
    height_window: float = 0.04
    height_fade: float = 30.0

    # kinematic yaw correction
    yaw_enabled: bool = True
    imu_yaw_enabled: bool = True
    yaw_alpha0: float = 0.02
    yaw_ramp_time: float = 3.0

    # per-leg velocity filter
    ikvel_enabled: bool = False
    ikvel_q_pos: float = ikvel.Q_POS
    ikvel_q_vel: float = ikvel.Q_VEL
    ikvel_r_angle: float = ikvel.R_ANGLE
    ikvel_r_rate: float = ikvel.R_RATE

    # translational observation blending
    pos_blend: float = 1.0
    vel_blend: float = 0.8

    initial_position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    initial_yaw: float = 0.0

    def __post_init__(self):
        self.initial_position = np.asarray(self.initial_position, dtype=float)
        self.validate()

    def validate(self):
        """ConfigError unless there is a leg, each number of the config is
        finite and within the range its key has in _KEYS, and the initial
        position is three such numbers."""
        if len(self.legs) < 1:
            raise ConfigError("need at least one leg")
        for key, (attr, parser, rule) in _KEYS["config"].items():
            if parser is float and not key.startswith("geom."):
                _check_value(key, getattr(self, attr), rule)
        if self.initial_position.shape != (3,):
            raise ConfigError("init.position must have shape (3,), got %s"
                              % (self.initial_position.shape,))
        for v in self.initial_position:
            _check_value("init.position", v, None)


_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(v):
    """True or False for a boolean word; KeyError on anything else."""
    return _BOOL[v.lower()]


# what -> key -> (attribute, parser, rule) for each config key that takes one
# value and each plan key whose number has a range. A config key's attribute
# is that of EstimatorConfig, a geom.* key's that of every leg's LegGeometry;
# a plan key's is the GaitPlan attribute it sets. A rule is a key of _RULES,
# or None for any number within +-MAX_MAGNITUDE.
_KEYS = {
    "config": {
        "geom.hip_offset": ("hip_offset_len", float, None),
        "geom.thigh": ("thigh_len", float, "> 0"),
        "geom.calf": ("calf_len", float, "> 0"),
        "geom.wheel_radius": ("wheel_radius", float, ">= 0"),
        "contact.force_threshold": ("force_threshold", float, None),
        "height.enabled": ("height_enabled", _parse_bool, None),
        "height.match_window": ("height_window", float, "> 0"),
        "height.fade_time": ("height_fade", float, "> 0"),
        "yaw.enabled": ("yaw_enabled", _parse_bool, None),
        "yaw.imu_yaw_enabled": ("imu_yaw_enabled", _parse_bool, None),
        "yaw.alpha0": ("yaw_alpha0", float, "within (0, 1]"),
        "yaw.ramp_time": ("yaw_ramp_time", float, "> 0"),
        "ikvel.enabled": ("ikvel_enabled", _parse_bool, None),
        "ikvel.q_pos": ("ikvel_q_pos", float, "> 0"),
        "ikvel.q_vel": ("ikvel_q_vel", float, "> 0"),
        "ikvel.r_angle": ("ikvel_r_angle", float, "> 0"),
        "ikvel.r_rate": ("ikvel_r_rate", float, "> 0"),
        "blend.pos_gain": ("pos_blend", float, "within [0, 1]"),
        "blend.vel_gain": ("vel_blend", float, "within [0, 1]"),
        "init.yaw": ("initial_yaw", float, None),
    },
    "plan": {
        "rate_hz": ("rate_hz", float, "> 0"),
        "mass": ("mass", float, "> 0"),
        "body_height": ("body_height", float, "> 0"),
        "duration": ("duration", float, ">= 0"),
        "step_period": ("step_period", float, ">= 0"),
        "speed": ("speed", float, ">= 0"),
        "settle_time": ("settle_time", float, ">= 0"),
        "step_height": ("step_height", float, ">= 0"),
        "wheel_radius": ("legs", float, ">= 0"),
        "degrade.encoder_quantum": ("imperfections", float, ">= 0"),
        "degrade.touchdown_height_noise": ("imperfections", float, ">= 0"),
        "degrade.rate_spike_prob": ("imperfections", float, "within [0, 1]"),
    },
}
_RULES = {"> 0": lambda v: v > 0.0, ">= 0": lambda v: v >= 0.0,
          "within [0, 1]": lambda v: 0.0 <= v <= 1.0,
          "within (0, 1]": lambda v: 0.0 < v <= 1.0}


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


def _check_value(key, number, rule, where="", text=None):
    """number if it is finite, within +-MAX_MAGNITUDE and within rule (a key
    of _RULES, or None), else a ConfigError that reads `<where>KEY must ...,
    got TEXT`, with text the number as a file spells it (default its float)."""
    finite = abs(number) <= MAX_MAGNITUDE
    if not finite or rule is not None and not _RULES[rule](number):
        raise ConfigError("%s%s must be %s, got %r" % (
            where, key, rule if finite else "finite and within +-%g" % MAX_MAGNITUDE,
            float(number) if text is None else text))
    return number


def parse_value(what, key, line, value, parser=float, count=None):
    """parser(value), finite, within +-MAX_MAGNITUDE and within the rule of
    _KEYS[what][key], or a ConfigError that reads `<what> line N: ... KEY ...`.

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
    rule = _KEYS[what].get(key, (None, None, None))[2]
    return _check_value(key, parsed, rule, "%s line %d: " % (what, line), value)


def parse_config_text(text):
    """Parse flat `key = value` lines into an EstimatorConfig.

    Geometry keys: `legs = N`, global `geom.hip_offset/thigh/calf/wheel_radius`,
    per-leg `legN.side` and `legN.mount = x y z`. Unknown keys are an error.
    """
    pairs = read_pairs(text, "config")

    def take(key, parser=float, count=None):
        return parse_value("config", key, *pairs.pop(key), parser, count)

    keys = _KEYS["config"]
    n_legs = 4
    if "legs" in pairs:
        line = pairs["legs"][0]
        n_legs = take("legs", int)
        if not 1 <= n_legs <= _MAX_LEGS:
            raise ConfigError("config line %d: legs must be from 1 to %d, got %d"
                              % (line, _MAX_LEGS, n_legs))
    geom = {attr: take(key) for key, (attr, _, _) in keys.items()
            if key.startswith("geom.") and key in pairs}
    legs = default_leg_geometries()
    if n_legs != 4:
        legs = [replace(legs[0], side_sign=1 if i % 2 == 0 else -1, hip_mount=np.zeros(3))
                for i in range(n_legs)]
    for i in range(n_legs):
        side_key = "leg%d.side" % i
        mount_key = "leg%d.mount" % i
        leg_kw = dict(geom)
        if side_key in pairs:
            line = pairs[side_key][0]
            leg_kw["side_sign"] = side = take(side_key, int)
            if side not in (1, -1):
                raise ConfigError("config line %d: %s must be 1 or -1, got %d"
                                  % (line, side_key, side))
        if mount_key in pairs:
            leg_kw["hip_mount"] = np.array(take(mount_key, count=3))
        legs[i] = replace(legs[i], **leg_kw)

    kwargs = {"legs": legs}
    if "init.position" in pairs:
        kwargs["initial_position"] = take("init.position", count=3)
    for key, (line, value) in pairs.items():
        if key not in keys:
            raise ConfigError("config line %d: unknown config key %r" % (line, key))
        attr, parser, _ = keys[key]
        kwargs[attr] = parse_value("config", key, line, value, parser)
    return EstimatorConfig(**kwargs)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def save_config(cfg: EstimatorConfig, path):
    """Write a config file that parse_config_text reads back equivalently."""
    lines = ["legs = %d" % len(cfg.legs)]
    for i, g in enumerate(cfg.legs):
        lines.append("leg%d.side = %d" % (i, g.side_sign))
        lines.append("leg%d.mount = %r %r %r" % (i, *map(float, g.hip_mount)))
    for key, (attr, _, _) in _KEYS["config"].items():
        v = getattr(cfg.legs[0] if key.startswith("geom.") else cfg, attr)
        lines.append("%s = %s" % (key, ("true" if v else "false")
                                  if isinstance(v, bool) else repr(float(v))))
    lines.append("init.position = %r %r %r" % tuple(float(v) for v in cfg.initial_position))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


__all__ = ["EstimatorConfig", "ConfigError", "MAX_MAGNITUDE", "read_pairs",
           "parse_value", "parse_config_text", "load_config", "save_config"]
