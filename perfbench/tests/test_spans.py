import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402


def _span(name, start, end, parent=None, op="op"):
    return (name, start, end, parent, op)


def test_self_time_subtracts_children():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("subord.solve_subordination", 1.0, 6.0, parent=0),
        _span("opval.matrix_f", 2.0, 3.0, parent=1),
        _span("opval.matrix_f", 4.0, 5.5, parent=1),
        _span("measure.integrate_piece", 7.0, 9.0, parent=0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0])


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span("a", 0.0, 4.0),
        _span("b", 1.0, 3.0, parent=0),
        _span("c", 2.0, 5.0, parent=0),  # overlaps b and outlives the parent
    ]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_layer_metrics_from_recorder():
    rec = spans.Recorder()
    rec.spans = [
        _span("cli.main", 0.0, 10.0),
        _span("rmt.oracle_report", 1.0, 9.0, parent=0),
        _span("measure.quantiles", 1.0, 4.0, parent=1),
        _span(spans.EIGENSOLVE, 4.0, 8.0, parent=1),
    ]
    rec.keys["measure.quantiles"].add(("mu", 10))
    rec.counters["subord.iterations"] = 12
    m = spans.layer_metrics(rec, out_bytes=77)
    assert m["measure.quantiles.calls"] == 1
    assert m["measure.quantiles.self_s"] == pytest.approx(3.0)
    assert m["measure.quantiles.unique_ratio"] == 1.0
    assert m["rmt.eigensolve.self_s"] == pytest.approx(4.0)
    assert m["rmt.histogram.self_s"] == pytest.approx(1.0)
    assert m["cli.main.self_s"] == pytest.approx(2.0)
    assert m["cli.out_bytes"] == 77
    assert m["subord.iterations_per_solve"] == 0.0  # no solve recorded
    assert set(m) == set(spans.LAYER_METRICS) - {"trace.overhead_ratio"}
    share = spans.share_under(rec, ["measure.quantiles", spans.EIGENSOLVE], ["op"])
    assert share == pytest.approx(0.7)


def test_instrumentation_wraps_every_namespace_and_restores():
    from freeatoms import atoms, measure, opval, rmt, subord

    original_f = opval.matrix_f
    original_np = rmt.np
    rec = spans.Recorder()
    with spans.Instrumentation(rec) as inst:
        assert subord.matrix_f is opval.matrix_f is not original_f
        assert atoms.solve_subordination is subord.solve_subordination
        assert rmt.quantiles is measure.quantiles
        assert inst.absent == []
        measure.quantiles(measure.bernoulli_symmetric(), 4)
        rmt.np.linalg.eigvalsh(rmt.np.eye(3))
    assert opval.matrix_f is original_f and subord.matrix_f is original_f
    assert rmt.np is original_np
    names = [s[0] for s in rec.spans]
    assert names == ["measure.quantiles", spans.EIGENSOLVE]
    assert rec.counters["rmt.dense.flop"] == pytest.approx(16.0 / 3.0 * 27)


def test_missing_stage_function_is_reported_absent(monkeypatch):
    from freeatoms import rmt

    monkeypatch.delattr(rmt, "_find_spikes")
    with spans.Instrumentation(spans.Recorder()) as inst:
        pass
    assert inst.absent == ["rmt._find_spikes"]
