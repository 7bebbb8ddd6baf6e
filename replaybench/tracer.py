"""Span tracer for the replay benchmark.

Wraps public functions of the legodom modules *where they are looked up*:
`estimator.py`, `cli.py` and `ikvel.py` import some functions by name, so
those names are wrapped in the importing module as well as in the defining
one. Class methods (`Estimator.step`, `LegVelocityFilter.update`) are wrapped
on their class. The program itself is not modified.

Each span records (name, start, end, parent span, frame index); the frame
index is the ordinal of the enclosing `Estimator.step` call, or -1 outside a
step. Spans stay in memory and are written out when the run ends. A site
that no longer exists is reported as absent instead of raising.
"""

import importlib
import json
import time
from collections import defaultdict

# (span name, layer, lookup sites "module:attr[.attr]")
SPANS = [
    ("estimator.step", "estimator", ["legodom.estimator:Estimator.step"]),
    ("estimator.diagnostics", "estimator", ["legodom.estimator:Estimator.diagnostics"]),
    ("geometry.quat_to_rpy", "geometry", ["legodom.estimator:quat_to_rpy"]),
    ("geometry.rpy_matrix", "geometry", ["legodom.estimator:rpy_matrix"]),
    ("kernels.fk_position", "kernels", ["legodom.kernels:fk_position"]),
    ("kernels.foot_force", "kernels", ["legodom.kernels:foot_force"]),
    ("kernels.ckf_leg_step", "kernels", ["legodom.kernels:ckf_leg_step"]),
    ("legkin.fk_velocity", "legkin", ["legodom.ikvel:fk_velocity",
                                      "legodom.legkin:fk_velocity"]),
    ("ikvel.update", "ikvel", ["legodom.ikvel:LegVelocityFilter.update"]),
    ("ikvel.ckf_step", "ikvel", ["legodom.ikvel:ckf_step"]),
    ("contact.gate_contact", "contact", ["legodom.contact:gate_contact"]),
    ("contact.detect_touchdown", "contact", ["legodom.contact:detect_touchdown"]),
    ("contact.record_footfall", "contact", ["legodom.contact:record_footfall"]),
    ("contact.anchored_position_obs", "contact", ["legodom.contact:anchored_position_obs"]),
    ("contact.anchored_velocity_obs", "contact", ["legodom.contact:anchored_velocity_obs"]),
    ("contact.fuse_observations", "contact", ["legodom.contact:fuse_observations"]),
    ("height.correct_height", "height", ["legodom.height:correct_height"]),
    ("height.planes_to_json", "height", ["legodom.height:planes_to_json"]),
    ("wheel.heading_direction", "wheel", ["legodom.wheel:heading_direction"]),
    ("wheel.effective_roll_increment", "wheel", ["legodom.wheel:effective_roll_increment"]),
    ("wheel.propagate_contact", "wheel", ["legodom.wheel:propagate_contact"]),
    ("wheel.rolling_velocity", "wheel", ["legodom.wheel:rolling_velocity"]),
    ("yawkin.pairwise_yaw", "yawkin", ["legodom.yawkin:pairwise_yaw"]),
    ("yawkin.circular_mean", "yawkin", ["legodom.yawkin:circular_mean"]),
    ("yawkin.apply_yaw_correction", "yawkin", ["legodom.yawkin:apply_yaw_correction"]),
    ("gait.generate_gait", "gait", ["legodom.gait:generate_gait",
                                    "legodom.cli:generate_gait"]),
    ("gait.degrade", "gait", ["legodom.gait:degrade", "legodom.cli:degrade"]),
    ("logio.read_frames", "logio", ["legodom.logio:read_frames", "legodom.cli:read_frames"]),
    ("logio.write_frames", "logio", ["legodom.logio:write_frames",
                                     "legodom.cli:write_frames"]),
    ("logio.write_trajectory", "logio", ["legodom.logio:write_trajectory",
                                         "legodom.cli:write_trajectory"]),
    ("logio.write_diagnostics", "logio", ["legodom.logio:write_diagnostics",
                                          "legodom.cli:write_diagnostics"]),
    ("logio.read_trajectory", "logio", ["legodom.logio:read_trajectory",
                                        "legodom.cli:read_trajectory"]),
    ("cli.replay", "cli", ["legodom.cli:cmd_replay"]),
    ("cli.simulate", "cli", ["legodom.cli:cmd_simulate"]),
    ("cli.metrics", "cli", ["legodom.cli:cmd_metrics"]),
    ("planfile.load_plan", "planfile", ["legodom.planfile:load_plan",
                                        "legodom.cli:load_plan"]),
    ("config.load_config", "config", ["legodom.config:load_config",
                                      "legodom.cli:load_config"]),
    ("metrics.compute_metrics", "metrics", ["legodom.metrics:compute_metrics",
                                            "legodom.cli:compute_metrics"]),
]

LAYER_OF = {name: layer for name, layer, _ in SPANS}


def _resolve(site):
    """(owner object, attribute name) of a lookup site, or None if absent."""
    mod_name, path = site.split(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Records nested spans around the wrapped call sites while installed."""

    def __init__(self):
        self.names = [name for name, _, _ in SPANS]
        self.spans = []  # (name id, start, end, parent index, frame index)
        self.results = defaultdict(list)  # name -> _OBSERVE outputs, one per call
        self.errors = defaultdict(int)  # "name:ExceptionType" -> count
        self.absent = []
        self._stack = []
        self._frame = -1
        self._n_steps = 0
        self._saved = []

    def install(self):
        """Replace every resolvable site with a recording wrapper."""
        if self._saved:
            return
        absent = []
        for name_id, (name, _, sites) in enumerate(SPANS):
            for site in sites:
                found = _resolve(site)
                if found is None:
                    absent.append(site)
                    continue
                owner, attr = found
                original = owner.__dict__.get(attr, getattr(owner, attr))
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name_id, name, getattr(owner, attr)))
        self.absent = absent

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # the observations the per-layer ratios need, keyed by span name
    _OBSERVE = {
        "kernels.foot_force": lambda a, r: bool(r[1]),
        "ikvel.ckf_step": lambda a, r: int(r[1]),
        "contact.gate_contact": lambda a, r: bool(r),
        "contact.detect_touchdown": lambda a, r: bool(r),
        "height.correct_height": lambda a, r: (r[0] != a[0], len(r[1])),
    }

    def _wrap(self, name_id, name, fn):
        spans = self.spans
        stack = self._stack
        observe = self._OBSERVE.get(name)
        results = self.results[name]
        is_step = name == "estimator.step"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if is_step:
                self._frame = self._n_steps
                self._n_steps += 1
            frame = self._frame
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.errors["%s:%s" % (name, type(exc).__name__)] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, frame)
                if is_step:
                    self._frame = -1
            if observe is not None:
                results.append(observe(args, out))
            return out

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        """Spans as JSON lines: [name, start_s, end_s, parent, frame]."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, t0, t1, parent, frame in self.spans:
                fh.write(json.dumps([self.names[name_id], t0, t1, parent, frame]) + "\n")

    # ------------------------------------------------------------- analysis

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (_, t0, t1, _, _), c in zip(self.spans, child)]

    def check_nesting(self):
        """Raise ValueError unless every span lies inside its parent and
        sibling spans never overlap, so self times are non-negative."""
        last_end = {}
        for idx, (_, t0, t1, parent, _) in enumerate(self.spans):
            if t1 < t0:
                raise ValueError("span %d ends before it starts" % idx)
            if parent >= 0:
                _, p0, p1, _, _ = self.spans[parent]
                if t0 < p0 or t1 > p1:
                    raise ValueError("span %d leaves its parent %d" % (idx, parent))
                if t0 < last_end.get(parent, p0):
                    raise ValueError("span %d overlaps a sibling" % idx)
                last_end[parent] = t1

    def totals(self):
        """name -> (calls, total inclusive seconds, calls inside a step,
        seconds inside a step), plus the per-layer self seconds of everything
        that ran inside a step."""
        agg = {name: [0, 0.0, 0, 0.0] for name in self.names}
        layer_self = defaultdict(float)
        for (name_id, t0, t1, _, frame), own in zip(self.spans, self.self_times()):
            row = agg[self.names[name_id]]
            row[0] += 1
            row[1] += t1 - t0
            if frame >= 0:
                row[2] += 1
                row[3] += t1 - t0
                layer_self[LAYER_OF[self.names[name_id]]] += own
        return agg, dict(layer_self)

    def step_durations(self):
        step_id = self.names.index("estimator.step")
        return [t1 - t0 for name_id, t0, t1, _, _ in self.spans if name_id == step_id]
