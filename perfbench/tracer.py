"""Span tracer that wraps the package from outside, without editing it.

``Tracer.install()`` replaces every public function of each layer (the
names in a module's ``__all__``) in every package module that binds it,
and wraps ``__init__`` of every public class plus
``BlaschkeProduct.eval``.  Each call records one span: name, start, end,
self time (duration minus the time covered by direct child spans), the
parent span, the operation id the benchmark set, the error it raised,
and a few per-call facts (degree, entry count, ...).  Spans stay in
memory, in flat arrays, until ``write_jsonl``.  ``uninstall()`` puts
every original object back, so an untraced run executes the package
unchanged.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import statistics
import time
from array import array
from typing import Callable

PACKAGE = "blaschkediv"
LAYERS = ("hypgeo", "divisor", "blaschke", "boundary", "lamination",
          "experiments", "cli")
#: Modules whose namespaces may bind a layer's functions.
BINDING_MODULES = ("", ".errors", ".svgfig") + tuple("." + l for l in LAYERS)
#: Methods wrapped beyond the public constructors.
EXTRA_METHODS = (("blaschke", "BlaschkeProduct", "eval"),)
#: Spans kept per run (about 50 bytes each); a traced phase stops
#: sending operations once the tracer is full.
SPAN_LIMIT = 1_000_000


def _zeros_info(args, kwargs, result):
    return {"e": args[0].degree}


def _critical_info(args, kwargs, result):
    return {"e": args[0].e, "residual_count": result.residual_count}


def _table_info(args, kwargs, result):
    return {"entries": len(result)}


def _classify_info(args, kwargs, result):
    return {"numeric": result.dynrel.status == "none_within_depth"}


def _prescribe_info(args, kwargs, result):
    return {"iterations": result.iterations}


def _cli_info(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None}


#: Per-call facts recorded on success, by span name.
INFO: dict[str, Callable] = {
    "blaschke.zeros_from_critical": _zeros_info,
    "blaschke.critical_divisor": _critical_info,
    "lamination.lamination_table": _table_info,
    "boundary.classify": _classify_info,
    "experiments.prescribe_distance": _prescribe_info,
    "cli.main": _cli_info,
}


def public_targets() -> list[tuple[str, object, str]]:
    """``(span name, owner, attribute)`` for every wrapped callable; the
    owner is the defining module for functions and the class for
    methods."""
    targets = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                targets.append((f"{layer}.{name}", mod, name))
            elif inspect.isclass(obj) and "__init__" in vars(obj):
                targets.append((f"{layer}.{name}", obj, "__init__"))
    for layer, cls_name, meth in EXTRA_METHODS:
        cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
        targets.append((f"{layer}.{cls_name}.{meth}", cls, meth))
    return targets


class Tracer:
    """In-memory span recorder; one per traced run.  Span ``i`` is
    column ``i`` of the arrays; ``parent`` is -1 for a top-level call."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self.parent = array("q")
        self.op_of = array("q")
        self.error: dict[int, str] = {}
        self.info: dict[int, dict] = {}
        self.op = -1
        #: While set, wrapped calls run unrecorded (the benchmark's checks).
        self.paused = False
        self._stack: list[list[int]] = []
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    @property
    def full(self) -> bool:
        return len(self.start) >= SPAN_LIMIT

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.op_of.append(tracer.op)
            tracer.end.append(0)
            tracer.self_ns.append(0)
            frame = [idx, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            tracer.start.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.error[idx] = type(exc).__name__
                t = getattr(exc, "last_good_t", None)
                if t is not None:
                    tracer.info[idx] = {"last_good_t": t}
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer.end[idx] = end
                tracer.self_ns[idx] = dur - frame[1]
            if info is not None:
                tracer.info[idx] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(PACKAGE + suffix)
                   for suffix in BINDING_MODULES]
        for name, owner, attr in public_targets():
            if inspect.isclass(owner):
                original = vars(owner)[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def span(self, i: int) -> dict:
        return {"name": self.names[self.name[i]], "start_ns": self.start[i],
                "end_ns": self.end[i], "self_ns": self.self_ns[i],
                "parent": self.parent[i], "op": self.op_of[i],
                "error": self.error.get(i), "info": self.info.get(i)}

    def write_jsonl(self, path: str) -> None:
        """Gzipped JSON lines, one object per span in start order;
        ``parent`` is the line index of the parent span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self)):
                fh.write(json.dumps(self.span(i), sort_keys=True) + "\n")


#: Layer functions whose calls, mean self time and errors are reported.
REPORTED = (
    "hypgeo.hull_contains", "hypgeo.hyp_dist",
    "divisor.Divisor", "divisor.matching_distance",
    "blaschke.BlaschkeProduct", "blaschke.BlaschkeProduct.eval",
    "blaschke.critical_divisor", "blaschke.zeros_from_critical",
    "boundary.classify", "boundary.has_dynamical_relation",
    "boundary.in_E_zeta", "boundary.extend_phi",
    "lamination.lamination_table", "lamination.preimages_of",
    "experiments.verify_extension_convergence",
    "experiments.verify_cont_orbit", "experiments.multiplier_limit_check",
    "experiments.prescribe_distance", "cli.main",
)
CLI_COMMANDS = ("critpts", "invert", "classify", "extend", "lamination",
                "experiment")
PACKAGE_ERRORS = frozenset((
    "CalculusError", "PreconditionError", "AmbiguousModulusError",
    "NumericalError", "ContinuationError", "SchemaError"))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer numbers from one traced run (zero where a workload
    never reaches the layer)."""
    by_name: dict[str, list[int]] = {}
    for i, n in enumerate(t.name):
        by_name.setdefault(t.names[n], []).append(i)
    out: dict[str, float] = {}
    for name in REPORTED:
        idx = by_name.get(name, [])
        out[f"{name}.calls"] = len(idx)
        out[f"{name}.self_us"] = (
            sum(t.self_ns[i] for i in idx) / len(idx) / 1e3 if idx else 0.0)
        out[f"{name}.errors"] = sum(t.error.get(i) in PACKAGE_ERRORS
                                    for i in idx)

    def dur(i: int) -> float:
        return t.end[i] - t.start[i]

    def ok(name: str) -> list[int]:
        return [i for i in by_name.get(name, []) if i not in t.error]

    crit = ok("blaschke.critical_divisor")
    for e in (4, 8, 16, 24):
        out[f"blaschke.critical_divisor.e{e}.p50_us"] = _median(
            [dur(i) / 1e3 for i in crit if t.info[i]["e"] == e])
    out["blaschke.critical_divisor.residual_count"] = sum(
        t.info[i]["residual_count"] for i in crit)

    solves = by_name.get("blaschke.zeros_from_critical", [])
    done = ok("blaschke.zeros_from_critical")
    for e in (2, 4, 8, 12):
        out[f"blaschke.zeros_from_critical.e{e}.p50_ms"] = _median(
            [dur(i) / 1e6 for i in done if t.info[i]["e"] == e])
    out["blaschke.zeros_from_critical.stalls"] = sum(
        t.error.get(i) == "ContinuationError" for i in solves)
    solve_ids = set(solves)

    def in_solve(i: int) -> bool:
        p = t.parent[i]
        while p >= 0:
            if p in solve_ids:
                return True
            p = t.parent[p]
        return False

    nested = sum(map(in_solve, by_name.get("blaschke.critical_divisor", [])))
    out["blaschke.zeros_from_critical.critical_divisor_per_solve"] = (
        nested / len(solves) if solves else 0.0)

    verdicts = ok("boundary.classify")
    out["boundary.classify.numeric_share"] = (
        sum(t.info[i]["numeric"] for i in verdicts) / len(verdicts)
        if verdicts else 0.0)

    tables = ok("lamination.lamination_table")
    out["lamination.lamination_table.entries"] = sum(
        t.info[i]["entries"] for i in tables)
    sizes = sorted({t.info[i]["entries"] for i in tables})
    per_size = {n: _median([dur(i) / 1e3 for i in tables
                            if t.info[i]["entries"] == n]) for n in sizes}
    small, large = (sizes[0], sizes[-1]) if sizes else (0, 0)
    out["lamination.lamination_table.small.us_per_entry"] = (
        per_size[small] / small if small else 0.0)
    out["lamination.lamination_table.large.us_per_entry"] = (
        per_size[large] / large if large else 0.0)
    out["lamination.lamination_table.growth"] = (
        math.log(per_size[large] / per_size[small]) / math.log(large / small)
        if large > small else 0.0)

    certs = ok("experiments.prescribe_distance")
    out["experiments.prescribe_distance.iterations"] = (
        sum(t.info[i]["iterations"] for i in certs) / len(certs)
        if certs else 0.0)

    mains = ok("cli.main")
    out["cli.main_ms"] = _median([dur(i) / 1e6 for i in mains])
    for cmd in CLI_COMMANDS:
        out[f"cli.main.{cmd}.p50_ms"] = _median(
            [dur(i) / 1e6 for i in mains if t.info[i]["command"] == cmd])
    return out
