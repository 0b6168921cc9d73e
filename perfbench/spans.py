"""Span recorder and the wrap points that time gatefid's layers from outside.

The benchmark never edits the package. It replaces a name in the module that
looks it up at call time (the name an importing module bound with
``from .prg import generate_tape``, or a module global for same-module calls)
with a wrapper that records a span, and puts the original back afterwards.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    variant: str = ""
    error: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans of one thread; spans opened during one op share its id.

    ``between_ops``, when set, runs at every op boundary before the op starts.
    """

    def __init__(self, between_ops: Callable | None = None):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.between_ops = between_ops
        self._stack: list[Span] = []

    def next_op(self) -> None:
        if self.between_ops is not None:
            self.between_ops()
        self.op = (self.op or 0) + 1

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.op, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        self.spans = []


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that direct children cover."""
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    return {s.id: max(0.0, s.duration - covered.get(s.id, 0.0)) for s in spans}


@dataclass(frozen=True)
class WrapPoint:
    """One layer boundary: a span name and every place a caller looks it up.

    A site is "module:attribute" or "module:Class.method". ``counts`` maps
    (args, kwargs, result) to counters; ``variant`` splits self time by an
    argument, as tpe_lambda's tensor power.
    """

    name: str
    sites: tuple
    counts: Callable | None = None
    variant: Callable | None = None

    @property
    def module(self) -> str:
        return self.name.split(".")[0]


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _estimators(*names):
    return tuple(
        WrapPoint(f"estimators.{n}", (f"gatefid.cli:{n}", f"gatefid.estimators:{n}"))
        for n in names
    )


def _harness_checks(*names):
    return tuple(WrapPoint(f"harness.{n}", (f"gatefid.harness:{n}",)) for n in names)


WRAP_POINTS = (
    WrapPoint(
        "prg.generate_tape",
        ("gatefid.estimators:generate_tape", "gatefid.cli:generate_tape"),
        counts=lambda a, k, r: {"bits": len(r.bits)},
    ),
    WrapPoint(
        "prg.indices_from_bits",
        ("gatefid.estimators:indices_from_bits", "gatefid.prg:indices_from_bits"),
        counts=lambda a, k, r: {
            "ideal_bits": len(r.indices) * math.log2(_arg(a, k, 1, "set_size")),
            "bits_consumed": r.bits_consumed,
        },
    ),
    WrapPoint(
        "streams.take_bits",
        ("gatefid.streams:BitSource.take_bits",),
        counts=lambda a, k, r: {"bits": len(r)},
    ),
    WrapPoint(
        "streams.take_gaussians",
        ("gatefid.streams:BitSource.take_gaussians",),
        counts=lambda a, k, r: {"count": len(r)},
    ),
    WrapPoint(
        "ensembles.tpe_lambda",
        (
            "gatefid.ensembles:tpe_lambda",
            "gatefid.estimators:tpe_lambda",
            "gatefid.harness:tpe_lambda",
            "gatefid.cli:tpe_lambda",
        ),
        counts=lambda a, k, r: {"power_iterations": r.iterations or 0},
        variant=lambda a, k: f"t{_arg(a, k, 1, 't')}",
    ),
    WrapPoint("ensembles.tensor_product", ("gatefid.ensembles:tensor_product",)),
    WrapPoint(
        "ensembles.builtin_ensemble",
        ("gatefid.ensembles:builtin_ensemble", "gatefid.cli:builtin_ensemble"),
    ),
    WrapPoint(
        "quantum.gate_fidelity_vector",
        ("gatefid.estimators:gate_fidelity_vector", "gatefid.quantum:gate_fidelity_vector"),
    ),
    WrapPoint(
        "quantum.haar_unitaries_batch",
        ("gatefid.harness:haar_unitaries_batch",),
        counts=lambda a, k, r: {"unitaries": len(r)},
    ),
    *_estimators(
        "estimate_naive_haar",
        "estimate_design_iid",
        "estimate_kwise_design",
        "estimate_single_qtpe",
        "estimate_two_phase",
    ),
    WrapPoint(
        "estimators._fidelity_columns",
        ("gatefid.estimators:_fidelity_columns", "gatefid.harness:_fidelity_columns"),
        counts=lambda a, k, r: {"rows": len(r)},
    ),
    WrapPoint(
        "estimators._fidelity_table",
        ("gatefid.estimators:_fidelity_table", "gatefid.harness:_fidelity_table"),
    ),
    WrapPoint("channels.parse_channel_spec", ("gatefid.cli:parse_channel_spec",)),
    WrapPoint("channels.noise_preset", ("gatefid.channels:noise_preset",)),
    WrapPoint("harness.harness_confidence", ("gatefid.harness:harness_confidence",)),
    WrapPoint(
        "harness.exhaustive_bias_check",
        ("gatefid.harness:exhaustive_bias_check", "gatefid.cli:exhaustive_bias_check"),
        counts=lambda a, k, r: {"subsets": r.subsets_checked},
    ),
    *_harness_checks("variance_check", "tail_check", "moment_gap_checks", "prop1_tail_check"),
    WrapPoint("cli.main", ("gatefid.cli:main",)),
)


def _wrap(tracer: Tracer, point: WrapPoint, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(point.name)
        try:
            if point.variant is not None:
                span.variant = point.variant(args, kwargs)
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            tracer.close(span)
        if point.counts is not None:
            span.counts = point.counts(args, kwargs, result)
        return result

    return wrapper


def _resolve(site: str):
    """(owner, attribute) for a site, or None when the name no longer exists."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


@contextmanager
def installed(tracer: Tracer, points=WRAP_POINTS):
    """Wrap every resolvable site; yields the set of (point, site) that are gone.

    The originals are restored on exit, also when the body raises.
    """
    saved = []
    missing = set()
    try:
        for point in points:
            for site in point.sites:
                found = _resolve(site)
                if found is None:
                    missing.add((point.name, site))
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(tracer, point, original))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def absent_points(missing: set, points=WRAP_POINTS) -> set:
    """Names of points none of whose sites exist any more."""
    gone = {}
    for name, site in missing:
        gone.setdefault(name, set()).add(site)
    return {p.name for p in points if gone.get(p.name, set()) >= set(p.sites)}


def aggregate(spans: list[Span]) -> dict:
    """Per point: calls, self_s, errors, summed counters and "<variant>.self_s"."""
    selfs = self_times(spans)
    out: dict = {}
    for s in spans:
        a = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "errors": 0})
        a["calls"] += 1
        a["self_s"] += selfs[s.id]
        a["errors"] += int(s.error)
        if s.variant:
            key = f"{s.variant}.self_s"
            a[key] = a.get(key, 0.0) + selfs[s.id]
        for key, value in s.counts.items():
            a[key] = a.get(key, 0) + value
    return out
