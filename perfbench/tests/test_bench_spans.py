"""Span arithmetic and wrap points, including a wrap point the program lost."""

import sys
import types

import pytest

import metrics
import spans


def _span(tracer, name, start, end, parent=None, variant=""):
    s = spans.Span(len(tracer.spans), parent, tracer.op, name, start, end, variant)
    tracer.spans.append(s)
    return s


def test_self_time_subtracts_direct_children_only():
    t = spans.Tracer()
    root = _span(t, "a.outer", 0.0, 10.0)
    mid = _span(t, "b.mid", 1.0, 7.0, parent=root.id)
    _span(t, "c.leaf", 2.0, 5.0, parent=mid.id)
    _span(t, "c.leaf", 8.0, 9.0, parent=root.id)
    selfs = spans.self_times(t.spans)
    assert selfs == pytest.approx({0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0})
    agg = spans.aggregate(t.spans)
    assert agg["c.leaf"]["calls"] == 2
    assert agg["c.leaf"]["self_s"] == pytest.approx(4.0)
    # self times of all spans add up to the root's duration
    assert sum(a["self_s"] for a in agg.values()) == pytest.approx(10.0)


def test_variant_self_time_and_live_nesting():
    t = spans.Tracer()
    t.op = 7
    outer = t.open("x.outer")
    inner = t.open("x.inner")
    inner.variant = "t2"
    t.close(inner)
    t.close(outer)
    assert [s.op for s in t.spans] == [7, 7]
    assert t.spans[1].parent == t.spans[0].id
    agg = spans.aggregate(t.spans)
    assert agg["x.inner"]["t2.self_s"] == pytest.approx(agg["x.inner"]["self_s"])


def test_spans_must_close_innermost_first():
    t = spans.Tracer()
    outer = t.open("x.outer")
    t.open("x.inner")
    with pytest.raises(RuntimeError):
        t.close(outer)


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fakeprog")

    def work(n):
        return list(range(n))

    def boom():
        raise ValueError("no")

    mod.work, mod.boom = work, boom
    monkeypatch.setitem(sys.modules, "fakeprog", mod)
    return mod


def test_installed_wraps_counts_errors_and_restores(fake_module):
    original = fake_module.work
    points = (
        spans.WrapPoint("fake.work", ("fakeprog:work",), counts=lambda a, k, r: {"items": len(r)}),
        spans.WrapPoint("fake.boom", ("fakeprog:boom",)),
    )
    t = spans.Tracer()
    with spans.installed(t, points) as missing:
        assert fake_module.work is not original
        assert fake_module.work(3) == [0, 1, 2]
        with pytest.raises(ValueError):
            fake_module.boom()
    assert missing == set()
    assert fake_module.work is original
    agg = spans.aggregate(t.spans)
    assert agg["fake.work"]["items"] == 3
    assert agg["fake.boom"]["errors"] == 1


def test_removed_wrap_point_is_absent_not_zero(fake_module):
    points = (
        spans.WrapPoint("fake.work", ("fakeprog:work", "fakeprog:gone")),
        spans.WrapPoint("fake.gone", ("fakeprog:gone", "noprog.sub:gone")),
    )
    with spans.installed(spans.Tracer(), points) as missing:
        pass
    assert ("fake.work", "fakeprog:gone") in missing
    assert spans.absent_points(missing, points) == {"fake.gone"}


def test_layer_metrics_of_a_removed_point_are_none():
    values = metrics.layer_values({}, absent={"prg.generate_tape"})
    for name in ("prg.generate_tape.calls", "prg.generate_tape.self_s", "prg.tape_bits_per_s"):
        assert values[name] is None
    # a present point that simply did no work reads zero
    assert values["prg.indices_from_bits.calls"] == 0
    assert values["prg.errors"] == 0
    assert metrics.median_or_none([None, None]) is None


def test_real_wrap_point_lost_to_a_refactor(monkeypatch):
    import gatefid.cli
    import gatefid.estimators

    monkeypatch.delattr(gatefid.estimators, "generate_tape")
    monkeypatch.delattr(gatefid.cli, "generate_tape")
    with spans.installed(spans.Tracer()) as missing:
        absent = spans.absent_points(missing)
    assert absent == {"prg.generate_tape"}
    values = metrics.layer_values({}, absent)
    assert values["prg.generate_tape.bits"] is None
    assert values["prg.errors"] == 0  # prg's other points still exist


def test_every_wrap_site_exists_at_this_commit():
    with spans.installed(spans.Tracer()) as missing:
        pass
    assert missing == set()
