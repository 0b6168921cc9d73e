"""The percentile rule, input generation and BENCHMARK.json's metric lists."""

import json
from pathlib import Path

import pytest

import metrics
import workloads

BENCH_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.mark.parametrize(
    "n, expected",
    [(1, 50), (15, 50), (20, 50), (21, 52), (100, 90), (199, 94), (200, 95), (5000, 95)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = metrics.tail_percentile(n)
    assert p == expected
    if p > 50:
        rank = -(-p * n // 100)
        assert n - rank >= metrics.TAIL_BEYOND
        # one percentile higher would leave fewer than ten beyond, unless capped
        if p < 95:
            assert n - (-(-(p + 1) * n // 100)) < metrics.TAIL_BEYOND


def test_nearest_rank():
    values = list(range(1, 201))
    assert metrics.nearest_rank(values, 50) == 100
    assert metrics.nearest_rank(values, 95) == 190
    assert metrics.nearest_rank([3.0], 95) == 3.0
    with pytest.raises(ValueError):
        metrics.nearest_rank([], 50)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed_and_batch(name):
    cls = workloads.WORKLOADS[name]
    a, b, other = cls(11), cls(11), cls(12)
    for index in (0, 1, 5):
        assert a.inputs(index) == b.inputs(index)
    if name != "certify":  # certify repeats one computation every pass
        assert a.inputs(0) != a.inputs(1)
        assert a.inputs(0) != other.inputs(0)
    else:
        assert a.inputs(0) != other.inputs(0)


def test_mix_ledgers_match_the_documented_reference_point():
    planned = dict(zip(workloads.MIX, map(workloads.planned_bits, workloads.MIX)))
    design_iid = next(e for e in workloads.MIX if e[0] == "design-iid")
    assert planned[design_iid] == 46735  # README: design-iid (46735 bits)


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads(BENCH_JSON.read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(
        metrics.END_TO_END
    )
    declared = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    emitted = [row[:3] for row in metrics.PER_LAYER] + [metrics.TRACE_OVERHEAD]
    assert declared == emitted
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_speed_probe_keeps_its_interval_and_scales_by_nearby_probes():
    import speed

    probe = speed.SpeedProbe()
    probe()
    probe()  # within INTERVAL_S of the first: skipped
    assert len(probe.samples) == 1
    assert probe.spent == probe.samples[0][1]
    ref = speed.REFERENCE_S
    probe.samples = [(0.0, 2 * ref), (0.5, 2 * ref), (10.0, 4 * ref), (10.2, 4 * ref)]
    assert probe.scaled(0.2, 0.4, 3.0) == pytest.approx(1.5)
    assert probe.scaled(9.8, 10.1, 3.0) == pytest.approx(0.75)
    # no probe within WINDOW_S: the run's median probe (3 ref) sets the speed
    assert probe.scaled(20.0, 21.0, 3.0) == pytest.approx(1.0)
