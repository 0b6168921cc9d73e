"""Metric tables and the arithmetic the benchmark reports with.

END_TO_END and PER_LAYER are the names, units and directions that
BENCHMARK.json declares; a test keeps the two in step.
"""

from __future__ import annotations

import math
import statistics

from spans import WRAP_POINTS

# (name, unit, better); failed_frac is printed beside these but is 0 when
# the program is correct, so it is not a regression metric of its own.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p95_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ledger_bits", "bits", "lower"),
)

# Fewest samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def nearest_rank(values, p: float) -> float:
    """The p-th percentile by the nearest-rank rule (p in (0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def tail_percentile(n: int, want: int = 95, beyond: int = TAIL_BEYOND) -> int:
    """Highest whole percentile <= want with at least `beyond` samples past it.

    Falls back to 50 when even the median has fewer than `beyond` samples
    past it, so the tail figure is never taken below the median.
    """
    for p in range(want, 50, -1):
        if n - math.ceil(p * n / 100) >= beyond:
            return p
    return 50


def _field(point, key, unit, better):
    return (f"{point}.{key}", unit, better, (point,), lambda g: g(point, key))


def _ratio(name, unit, better, num, den):
    def value(g):
        d = g(*den)
        return g(*num) / d if d else 0.0

    return (name, unit, better, (num[0], den[0]), value)


def _self_s(*points):
    return tuple(_field(p, "self_s", "s", "lower") for p in points)


def _calls_self(*points):
    return tuple(m for p in points for m in (_field(p, "calls", "count", "lower"), *_self_s(p)))


_ESTIMATORS = tuple(
    f"estimators.estimate_{a}"
    for a in ("naive_haar", "design_iid", "kwise_design", "single_qtpe", "two_phase")
)
_MODULES = tuple(dict.fromkeys(p.module for p in WRAP_POINTS))

# (name, unit, better, points it reads, value from a per-batch getter)
PER_LAYER = (
    *_calls_self("prg.generate_tape"),
    _field("prg.generate_tape", "bits", "bits", "lower"),
    _ratio("prg.tape_bits_per_s", "bits/s", "higher",
           ("prg.generate_tape", "bits"), ("prg.generate_tape", "self_s")),
    *_calls_self("prg.indices_from_bits"),
    _ratio("prg.index_bit_efficiency", "ratio", "higher",
           ("prg.indices_from_bits", "ideal_bits"), ("prg.indices_from_bits", "bits_consumed")),
    *_calls_self("streams.take_bits"),
    _field("streams.take_bits", "bits", "bits", "lower"),
    _field("streams.take_gaussians", "count", "count", "lower"),
    *_self_s("streams.take_gaussians"),
    _field("ensembles.tpe_lambda", "calls", "count", "lower"),
    _field("ensembles.tpe_lambda", "t2.self_s", "s", "lower"),
    _field("ensembles.tpe_lambda", "t4.self_s", "s", "lower"),
    _field("ensembles.tpe_lambda", "power_iterations", "count", "lower"),
    *_self_s("ensembles.tensor_product", "ensembles.builtin_ensemble"),
    *_calls_self("quantum.gate_fidelity_vector"),
    _field("quantum.haar_unitaries_batch", "unitaries", "count", "lower"),
    *_self_s("quantum.haar_unitaries_batch"),
    *_calls_self(*_ESTIMATORS),
    _field("estimators._fidelity_columns", "rows", "count", "lower"),
    *_self_s("estimators._fidelity_columns", "estimators._fidelity_table"),
    *_self_s("channels.parse_channel_spec", "channels.noise_preset"),
    *_self_s("harness.harness_confidence", "harness.exhaustive_bias_check"),
    _field("harness.exhaustive_bias_check", "subsets", "count", "higher"),
    _ratio("harness.subsets_per_s", "subsets/s", "higher",
           ("harness.exhaustive_bias_check", "subsets"), ("harness.exhaustive_bias_check", "self_s")),
    *_self_s(*(f"harness.{n}" for n in
               ("variance_check", "tail_check", "moment_gap_checks", "prop1_tail_check"))),
    *_calls_self("cli.main"),
    *(
        (f"{mod}.errors", "count", "lower",
         tuple(p.name for p in WRAP_POINTS if p.module == mod),
         lambda g, mod=mod: sum(g(p.name, "errors") for p in WRAP_POINTS if p.module == mod))
        for mod in _MODULES
    ),
)

TRACE_OVERHEAD = ("trace.overhead_s", "s", "lower")


def layer_values(agg: dict, absent: set) -> dict:
    """Metric name -> value for one traced batch; None when every point it
    reads is gone from the program (absent, never reported as zero)."""

    def get(point, key):
        if point in absent:
            return 0
        return agg.get(point, {}).get(key, 0)

    return {
        name: None if all(p in absent for p in points) else value(get)
        for name, _, _, points, value in PER_LAYER
    }


def median_or_none(values):
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None
