"""In-memory span tracer for the microgt benchmark.

The tracer replaces the module attribute that each caller looks up (for
example ``microgt.bearing.solve_reynolds``, or ``microgt.cli.validate``,
which ``cli`` binds through ``from .config import validate``) with a timing
wrapper.  Each wrapped call records a span -- name, start, end, parent span
and item id -- in flat typed arrays, so a long traced run stays a few tens
of megabytes.  Self time is a span's duration minus the durations of its
child spans; a layer's self time is the sum over its spans.  Calls are
counted per item, so that counts can be taken over whole studies.

Calls made from inside a span of the same layer are only counted when that
layer is declared without nested spans (``gas`` and ``turbo``): those are
small property and kinematics functions calling each other, where a span per
nested call would double the trace without moving any layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np

ITEM_SPAN = "bench.item"


class Tracer:
    """Collects spans and call counts from wrapped module attributes."""

    def __init__(self):
        self.names = []  # span name per name id
        self.layers = []  # layer per name id
        self._name_ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        # wrapped function name -> calls, nested ones included; one Counter
        # per item and one for everything outside items
        self.outside_calls = Counter()
        self.item_calls = {}
        self.calls = self.outside_calls  # the Counter of the current item
        self.setup_calls = Counter()  # outside_calls when the first item began
        self.first_item_start = None
        self.errors = Counter()  # (layer, item id) -> exceptions leaving the layer
        self.tags = {}  # span index -> tag set by a hook (e.g. grid size)
        self.repeats = Counter()  # (span name, item id) -> calls repeating inputs
        self._seen = {}  # (span name, item id) -> set of input keys
        self.item_id = -1
        self._stack = [-1]
        self._layer_stack = [None]
        self._patches = []  # (module, attribute, original, wrapper)

    def _name_id(self, name, layer):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._name_ids[name]

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.item.append(self.item_id)
        self.start.append(0.0)
        self.end.append(0.0)
        return idx

    # -- items -----------------------------------------------------------

    def begin_item(self, item_id):
        if self.first_item_start is None:
            self.setup_calls = self.outside_calls.copy()
        self.item_id = item_id
        self.calls = self.item_calls.setdefault(item_id, Counter())
        idx = self._open(self._name_id(ITEM_SPAN, "bench"))
        self._stack.append(idx)
        self._layer_stack.append("bench")
        self.start[idx] = time.perf_counter()
        if self.first_item_start is None:
            self.first_item_start = self.start[idx]
        return idx

    def end_item(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._layer_stack.pop()
        self.item_id = -1
        self.calls = self.outside_calls

    # -- wrapping --------------------------------------------------------

    def wrap(self, module, attr, name, layer, nested_spans=True,
             input_key=None):
        """Replace ``module.attr`` with a span-recording wrapper.

        ``input_key(bound_arguments)`` (optional) returns a hashable key of
        the call's inputs and a tag; calls whose key was already seen in the
        same item count as repeats, and the tag is stored with the span.
        """
        original = getattr(module, attr)
        name_id = self._name_id(name, layer)
        signature = inspect.signature(original) if input_key else None
        errors = self.errors
        stack, layer_stack = self._stack, self._layer_stack
        start, end = self.start, self.end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if not nested_spans and layer_stack[-1] == layer:
                return original(*args, **kwargs)
            idx = tracer._open(name_id)
            if input_key is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key, tag = input_key(bound.arguments)
                seen = tracer._seen.setdefault((name, tracer.item_id), set())
                if key in seen:
                    tracer.repeats[name, tracer.item_id] += 1
                seen.add(key)
                tracer.tags[idx] = tag
            stack.append(idx)
            layer_stack.append(layer)
            start[idx] = clock()
            try:
                return original(*args, **kwargs)
            except Exception:
                if layer_stack[-2] != layer:
                    errors[layer, tracer.item_id] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                layer_stack.pop()

        self._patches.append((module, attr, original, wrapper))
        setattr(module, attr, wrapper)

    def uninstall(self):
        """Put every original attribute back; returns the ones not restored."""
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)
        return [f"{module.__name__}.{attr}"
                for module, attr, original, _ in self._patches
                if getattr(module, attr) is not original]

    # -- analysis --------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, parent, item, start, end, self."""
        n = len(self.start)
        name = np.frombuffer(self.name, dtype=np.uint16, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        item = np.frombuffer(self.item, dtype=np.int32, count=n)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        duration = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=n)
        return name, parent, item, start, end, duration - child

    def write(self, path):
        """Write every span and the name table to an .npz file."""
        name, parent, item, start, end, _ = self.arrays()
        np.savez(path, name=name, parent=parent, item=item, start=start,
                 end=end, names=np.array(self.names),
                 layers=np.array(self.layers))


def _reynolds_key(arguments):
    return tuple(arguments.values()), f"{arguments['n_r']}x{arguments['n_theta']}"


GAS_FUNCTIONS = ("enthalpy_mass", "sensible_enthalpy_mass", "cp_mass", "gamma",
                 "density", "burned_composition", "unburned_mixture",
                 "fuel_air_mass_ratio")
TURBO_FUNCTIONS = ("velocity_triangle", "incidence", "euler_specific_work",
                   "imbalance_load", "design_rpm_for_zero_incidence",
                   "blade_speed", "rotor_inlet_area", "rotor_exit_area")
GRIDS = ("33x64", "65x96", "129x192")


def install(tracer, gas, bearing, combustor, cycle, turbo, config, cli):
    """Wrap the public functions of every microgt layer."""
    for attr in GAS_FUNCTIONS:
        tracer.wrap(gas, attr, f"gas.{attr}", "gas", nested_spans=False)
    tracer.wrap(bearing, "solve_reynolds", "bearing.solve_reynolds", "bearing",
                input_key=_reynolds_key)
    for attr in ("load_capacity", "axial_stiffness", "axial_equilibrium"):
        tracer.wrap(bearing, attr, f"bearing.{attr}", "bearing")
    for attr in ("stability", "adiabatic_flame_temperature", "blowout_mass_flow"):
        tracer.wrap(combustor, attr, f"combustor.{attr}", "combustor")
    tracer.wrap(cycle, "run_cycle", "cycle.run_cycle", "cycle")
    for attr in TURBO_FUNCTIONS:
        tracer.wrap(turbo, attr, f"turbo.{attr}", "turbo", nested_spans=False)
    tracer.wrap(config, "validate", "config.validate", "config")
    tracer.wrap(cli, "validate", "config.validate", "config")
    tracer.wrap(cli, "main", "cli.main", "cli")
    tracer.wrap(cli, "run", "cli.run", "cli")


def _per(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer, n_items, n_studies, kinds):
    """Per-layer metrics as {name: (value, unit)}.

    Counts and times are totals over the first n_items items, which make
    up n_studies whole studies, divided by n_studies: a study has a fixed
    composition, so the figures compare across commits however many
    studies a run completes.  ``config.validate.setup_*`` cover the set-up
    before the first item.  kinds[i] is the kind of item i.
    """
    name, parent, item, start, end, self_time = tracer.arrays()
    duration = end - start
    ids = {n: i for i, n in enumerate(tracer.names)}
    n_names = len(tracer.names)
    layers = np.array(tracer.layers)
    traced = (item >= 0) & (item < n_items)
    in_setup = (item < 0) & (end <= (tracer.first_item_start or np.inf))

    def self_by_name(mask):
        return np.bincount(name[mask], weights=self_time[mask], minlength=n_names)

    item_self = self_by_name(traced)
    setup_self = self_by_name(in_setup)
    calls = Counter()
    for i in range(n_items):
        calls.update(tracer.item_calls.get(i, ()))

    def per_study(value):
        return _per(value, n_studies)

    def self_s(span_name):
        return float(item_self[ids[span_name]]) if span_name in ids else 0.0

    def layer_self_s(layer):
        return float(item_self[layers == layer].sum())

    def count(counter, layer_or_name):
        return sum(v for (key, i), v in counter.items()
                   if key == layer_or_name and 0 <= i < n_items)

    def spans_under(child, ancestor):
        """Traced spans named `child` with a span named `ancestor` above."""
        if child not in ids or ancestor not in ids:
            return 0
        target = ids[ancestor]
        total = 0
        for idx in np.flatnonzero(traced & (name == ids[child])):
            p = parent[idx]
            while p >= 0 and name[p] != target:
                p = parent[p]
            total += int(p >= 0)
        return total

    metrics = {}

    def calls_and_self(span_name):
        metrics[f"{span_name}.calls"] = (per_study(calls[span_name]), "count/study")
        metrics[f"{span_name}.self_s"] = (per_study(self_s(span_name)), "s/study")

    solve = "bearing.solve_reynolds"
    calls_and_self(solve)
    for grid in GRIDS:
        spans = [i for i, tag in tracer.tags.items() if tag == grid and traced[i]]
        metrics[f"{solve}.s_per_call.{grid}"] = (
            _per(float(duration[spans].sum()), len(spans)), "s")
    metrics[f"{solve}.repeat_frac"] = (
        _per(count(tracer.repeats, solve), calls[solve]), "1")
    metrics["bearing.load_capacity.self_s"] = (
        per_study(self_s("bearing.load_capacity")), "s/study")
    calls_and_self("bearing.axial_stiffness")
    calls_and_self("bearing.axial_equilibrium")
    metrics["bearing.solves_per_equilibrium"] = (
        _per(spans_under(solve, "bearing.axial_equilibrium"),
             calls["bearing.axial_equilibrium"]), "1")
    metrics["bearing.errors"] = (per_study(count(tracer.errors, "bearing")), "count/study")
    metrics["bearing.self_s"] = (per_study(layer_self_s("bearing")), "s/study")

    calls_and_self("combustor.stability")
    calls_and_self("combustor.blowout_mass_flow")
    metrics["combustor.adiabatic_flame_temperature.self_s"] = (
        per_study(self_s("combustor.adiabatic_flame_temperature")), "s/study")
    metrics["combustor.points_per_blowout"] = (
        _per(spans_under("combustor.stability", "combustor.blowout_mass_flow"),
             calls["combustor.blowout_mass_flow"]), "1")
    metrics["combustor.errors"] = (per_study(count(tracer.errors, "combustor")),
                                   "count/study")
    metrics["combustor.self_s"] = (per_study(layer_self_s("combustor")), "s/study")

    for fn in ("enthalpy_mass", "sensible_enthalpy_mass", "cp_mass"):
        metrics[f"gas.{fn}.calls"] = (per_study(calls[f"gas.{fn}"]), "count/study")
    metrics["gas.self_s"] = (per_study(layer_self_s("gas")), "s/study")

    calls_and_self("cycle.run_cycle")
    metrics["turbo.calls"] = (
        per_study(sum(calls[f"turbo.{fn}"] for fn in TURBO_FUNCTIONS)), "count/study")
    metrics["turbo.self_s"] = (per_study(layer_self_s("turbo")), "s/study")
    calls_and_self("config.validate")
    metrics["config.validate.setup_calls"] = (
        tracer.setup_calls["config.validate"], "count")
    metrics["config.validate.setup_s"] = (
        float(setup_self[ids["config.validate"]]) if "config.validate" in ids else 0.0,
        "s")
    metrics["cli.run.self_s"] = (per_study(self_s("cli.run")), "s/study")
    metrics["cli.self_s"] = (per_study(layer_self_s("cli")), "s/study")

    items = traced & (name == ids.get(ITEM_SPAN, -1))
    item_total = float(duration[items].sum())
    covered = duration[items] - self_time[items]
    # coverage of each kind of item, summed over its items so that one
    # interrupted microsecond-scale item does not decide it
    item_kinds = np.array(kinds)[item[items]]
    kind_coverage = [_per(float(covered[item_kinds == k].sum()),
                          float(duration[items][item_kinds == k].sum()))
                     for k in set(kinds[:n_items])]
    metrics["bearing.self_frac"] = (_per(layer_self_s("bearing"), item_total), "1")
    metrics["trace.items_s"] = (per_study(item_total), "s/study")
    metrics["trace.coverage_frac"] = (_per(float(covered.sum()), item_total), "1")
    metrics["trace.coverage_kind_min"] = (min(kind_coverage, default=0.0), "1")
    metrics["trace.spans"] = (per_study(int(traced.sum())), "count/study")
    return metrics
