"""Self-time and closure arithmetic, span recording and wrapper install."""

import asyncio

import pytest

from e2ebench import layers, spans

PHASES = ["t"]


def _span(index, name, start, end, parent=-1, thread=1, kind=spans.SYNC,
          request=-1, counts=(0.0, 0.0)):
    return (index, NAMES.index(name), 0, kind, start, end, parent, thread,
            request, *counts)


NAMES = ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K", "L", "phase"]


def _reduce(records):
    return spans.reduce(records, NAMES, PHASES)


def test_self_time_subtracts_the_union_of_children():
    # A[0,10] { B[1,4] { C[2,3] }, D[5,7] }, E[11,11.5]; thread 2:
    # F[0,4] { G[1,2] }.  Recorded in end order, children first.
    records = [
        _span(2, "C", 2, 3, parent=1),
        _span(1, "B", 1, 4, parent=0),
        _span(3, "D", 5, 7, parent=0),
        _span(0, "A", 0, 10),
        _span(4, "E", 11, 11.5),
        _span(6, "G", 1, 2, parent=5, thread=2),
        _span(5, "F", 0, 4, thread=2),
        _span(7, "phase", 0, 12, kind=spans.PHASE),
    ]
    reduced = _reduce(records)
    self_of = {name: stat.self_s for (_, name), stat in reduced.stats.items()}
    assert self_of == {"C": 1, "B": 2, "D": 2, "A": 5, "E": 0.5, "G": 1,
                       "F": 3}
    assert reduced.by_parent[("t", "C", "B")] == 1
    assert reduced.by_parent[("t", "B", "A")] == 2
    assert reduced.phase_walls == {"t": 12}
    # Closure: the phase opened on thread 1, whose top-level spans A and
    # E cover 10.5 s of its 12 s; thread 2's spans do not count.
    assert reduced.covered_s["t"] == pytest.approx(10.5)
    assert reduced.orphans == 0
    view = layers.View([reduced], ("t",), 0.0)
    assert view.closure_gap_share() == pytest.approx(1.5 / 12)


def test_async_parent_with_overlapping_children_in_other_threads():
    records = [
        _span(1, "I", 1, 5, parent=0, thread=2),
        _span(2, "J", 3, 8, parent=0, thread=3),
        _span(0, "H", 0, 10, kind=spans.ASYNC),
        _span(3, "phase", 0, 10, kind=spans.PHASE),
    ]
    reduced = _reduce(records)
    assert reduced.stats[("t", "H")].self_s == 3     # 10 - |[1, 8]|
    assert reduced.covered_s["t"] == 10              # H covers the phase


def test_a_child_outliving_its_parent_is_an_orphan():
    records = [
        _span(0, "K", 0, 5),
        _span(1, "L", 4, 6, parent=0),
        _span(2, "phase", 0, 5, kind=spans.PHASE),
    ]
    reduced = _reduce(records)
    assert reduced.orphans == 1
    assert reduced.covered_s["t"] == 5
    _, problems = layers.compute("sign-bulk",
                                 layers.View([reduced], ("t",), 0.0))
    assert any("outlived their parent" in line for line in problems)


def _closure_problems(records):
    values, problems = layers.compute(
        "sign-bulk", layers.View([_reduce(records)], ("t",), 0.0))
    return values["trace.closure_gap_share"], [
        line for line in problems if "closure" in line]


def test_untraced_time_in_a_phase_fails_the_closure_check():
    # Harness spans (WAIT) and calls (SYNC) cover 6 s of a 10 s phase:
    # 4 s went to work no wrapper sees.
    gap, problems = _closure_problems([
        _span(0, "A", 0, 3),
        _span(1, "B", 5, 7, kind=spans.WAIT),
        _span(2, "C", 7, 8),
        _span(3, "phase", 0, 10, kind=spans.PHASE),
    ])
    assert gap == pytest.approx(0.4)
    assert problems == ["trace.closure_gap_share 0.4000 > 0.1"]


def test_a_phase_its_spans_explain_closes():
    gap, problems = _closure_problems([
        _span(1, "B", 0.5, 1, parent=0),
        _span(0, "A", 0, 9.5),
        _span(2, "C", 9.4, 10, kind=spans.REQUEST),
        _span(3, "phase", 0, 10, kind=spans.PHASE),
    ])
    assert gap == pytest.approx(0.0)
    assert problems == []


def test_wrappers_link_parents_across_threads_and_carry_requests(tmp_path):
    tracer = spans.Tracer()

    def inner(value):
        return value * 2

    traced_inner = tracer.wrap("inner", inner,
                               post=lambda s, a, k, r: (float(r), 0.0))

    def outer(value):
        return traced_inner(value) + 1

    traced_outer = tracer.wrap("outer", outer)

    async def handler(request_id):
        return await asyncio.to_thread(traced_outer, request_id)

    traced_handler = tracer.wrap("handler", handler, request_arg=0)
    tracer.set_phase("p")
    assert traced_outer(3) == 7            # disabled: nothing recorded
    tracer.enabled = True
    assert traced_outer(3) == 7
    assert asyncio.run(traced_handler(41)) == 83
    tracer.enabled = False
    path = tracer.dump(tmp_path / "spans.trace")
    reduced = spans.reduce(*spans.load(path),
                           keep_requests=frozenset({"inner"}))
    assert reduced.stats[("p", "inner")].count == 2
    assert reduced.stats[("p", "inner")].count1 == 6 + 82
    assert ("p", "inner", "outer") in reduced.by_parent
    assert ("p", "outer", "handler") in reduced.by_parent
    assert list(reduced.requests) == [("inner", 41)]
    assert reduced.orphans == 0


def test_install_and_uninstall_restore_every_name():
    from repro.falcon import batchverify, ledger, scheme

    before = (scheme.compress, batchverify.verify_batch_report,
              ledger.Ledger.commit, scheme.SecretKey.sign_many)
    tracer = layers.install(spans.Tracer())
    try:
        assert scheme.compress is not before[0]
        assert ledger.Ledger.commit is not before[2]
    finally:
        tracer.uninstall()
    assert (scheme.compress, batchverify.verify_batch_report,
            ledger.Ledger.commit, scheme.SecretKey.sign_many) == before


def test_every_metric_name_is_unique_and_benchmark_lists_them():
    import json
    from pathlib import Path

    names = [metric.name for metric in layers.METRICS]
    assert len(names) == len(set(names))
    benchmark = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    if benchmark.exists():
        listed = [m["name"] for m in json.loads(
            benchmark.read_text())["per_layer"]]
        assert listed == names
