"""Spans around the public functions of each vortexmoduli layer.

The tracer wraps the functions in ``TRACED`` from the outside: it
replaces every binding of the original function object in the loaded
``vortexmoduli`` modules (``from .moduli import build_moduli`` makes a
second binding in ``cli``), or the class attribute for a method.  Each
call records one span (name, parent span, start, end, tag) in flat
in-memory arrays; ``write`` stores them when the traced process ends.
The program itself is not modified.

``aggregate`` turns a span table into additive per-layer counters:
calls, busy time (outermost activations only, so recursion is not
counted twice), self time (duration minus the direct child spans) and
the tagged outcome counts named in ``TAGS``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

TRACED = (
    "cli.load_model",
    "cli.build_report",
    "cli.render_json",
    "moduli.build_moduli",
    "moduli.moduli_dimension_glsm",
    "maps.unstable_planes",
    "metrics.kahler_class",
    "metrics.volume_moduli",
    "metrics.total_scalar_curvature",
    "fourier_mukai.chern_closed_form",
    "fourier_mukai.fm_kahler_power",
    "geometry.r_sections",
    "geometry.volume_and_slope",
    "cones.in_cone_interior",
    "cones.in_cone_closed",
    "cones.check_C1",
    "cones.minimal_support",
    "simplex.maximize",
    "scalars.PiPoly.sign",
    "scalars.PiPoly.enclosure",
    "scalars.PiPoly.approx",
    "cohomring.RingElement.__mul__",
    "cohomring.fibre_integrate",
    "linalg.rank",
    "linalg.left_nullspace",
    "linalg.det",
)

_LP_STATUS = {"optimal": 1, "infeasible": 2, "unbounded": 3}

# Span tags: an outcome recorded at the boundary where the work happens.
TAGS = {
    "cones.in_cone_interior": lambda args, result: 1 if result else 0,
    "simplex.maximize": lambda args, result: _LP_STATUS[result.status],
    # A sign call on a non-constant polynomial refines the pi enclosure.
    "scalars.PiPoly.sign": lambda args, result: 1 if len(args[0].coeffs) > 1 else 0,
}


def _resolve(dotted: str):
    """(owner, attribute, original) for ``module.func`` or ``module.Class.method``."""
    parts = dotted.split(".")
    owner = importlib.import_module("vortexmoduli." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Records one span per call of each function in ``TRACED``."""

    def __init__(self):
        self.names = list(TRACED)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_tag = array("b")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every traced function; the vortexmoduli modules must be imported."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "vortexmoduli" or name.startswith("vortexmoduli.")]
        for name_id, dotted in enumerate(self.names):
            owner, attr, original = _resolve(dotted)
            wrapper = self._wrap(name_id, original, TAGS.get(dotted))
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name_id, fn, tag):
        names, parents, tags = self.span_name, self.span_parent, self.span_tag
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            tags.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if tag is not None:
                tags[idx] = tag(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def table(self, **extra) -> dict:
        return {
            **extra,
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "tag": self.span_tag.tolist(),
        }

    def write(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.table(**extra), handle, separators=(",", ":"))


def read(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


MAX_COMBINED = ("scalars.pi_enclosure.max_digits",)


def aggregate(table: dict) -> dict[str, float]:
    """Per-layer counters of one span table: additive across tables,
    except those in ``MAX_COMBINED``."""
    names = table["names"]
    name, parent, tag = table["name"], table["parent"], table["tag"]
    start, end = table["start"], table["end"]
    out: dict[str, float] = {"scalars.pi_enclosure.max_digits": table["pi_max_digits"]}
    for dotted in names:
        out[f"{dotted}.calls"] = 0
        out[f"{dotted}.busy_s"] = 0.0
        out[f"{dotted}.self_s"] = 0.0
    child = [0.0] * len(name)
    outer_end = [float("-inf")] * len(names)
    for i in range(len(name)):
        dur = end[i] - start[i]
        if parent[i] >= 0:
            child[parent[i]] += dur
        n = name[i]
        # Spans are stored in start order, so a span that starts before the
        # current outermost span of its name ends is nested in it.
        if start[i] >= outer_end[n]:
            out[f"{names[n]}.busy_s"] += dur
            outer_end[n] = end[i]
    approx = names.index("scalars.PiPoly.approx")
    enclosure = names.index("scalars.PiPoly.enclosure")
    out["scalars.PiPoly.approx.enclosure_calls"] = 0
    out["cones.in_cone_interior.true"] = 0
    out["scalars.PiPoly.sign.refined_calls"] = 0
    for status in _LP_STATUS:
        out[f"simplex.maximize.status.{status}"] = 0
    status_name = {code: status for status, code in _LP_STATUS.items()}
    for i in range(len(name)):
        dotted = names[name[i]]
        out[f"{dotted}.calls"] += 1
        out[f"{dotted}.self_s"] += (end[i] - start[i]) - child[i]
        if name[i] == enclosure and parent[i] >= 0 and name[parent[i]] == approx:
            out["scalars.PiPoly.approx.enclosure_calls"] += 1
        if tag[i]:
            if dotted == "cones.in_cone_interior":
                out["cones.in_cone_interior.true"] += 1
            elif dotted == "simplex.maximize":
                out[f"simplex.maximize.status.{status_name[tag[i]]}"] += 1
            elif dotted == "scalars.PiPoly.sign":
                out["scalars.PiPoly.sign.refined_calls"] += 1
    return out


def combine(totals: dict[str, float], counters: dict[str, float]) -> None:
    """Add one table's counters into running totals."""
    for key, value in counters.items():
        if key in MAX_COMBINED:
            totals[key] = max(totals.get(key, value), value)
        else:
            totals[key] = totals.get(key, 0) + value
