"""Tests for per-packet lifecycle span trees (repro.obs.causal)."""

import pytest

from repro import obs
from repro.obs.analyze import analyze, render_markdown, render_text
from repro.obs.causal import REPAIR_LIFECYCLE, build_span_trees


@pytest.fixture(autouse=True)
def _clean_switchboard():
    yield
    obs.disable()
    obs.reset()


def _record(etype, t, **fields):
    return {"t": t, "type": etype, **fields}


def _local_repair_records(ctx=7, flow="flow0"):
    """One datagram lost on the wire and locally repaired by the sidecar.

    The quACK that reveals the gap is emitted by the *surrounding*
    packets while the victim is missing; the middlebox only observes the
    victim after the repair re-sends it.
    """
    return [
        _record("transport.send", 1.00, flow=flow, pn=3, size=1460, ctx=ctx),
        _record("link.drop", 1.01, link="p1->p2", kind="data", size=1460,
                reason="loss", ctx=ctx),
        _record("sidecar.quack_emit", 1.05, role="proxy", flow=flow, epoch=0),
        _record("sidecar.gap_detect", 1.06, flow=flow, ctx=ctx,
                latency=0.06),
        _record("sidecar.retransmit", 1.06, flow=flow, cause="quack",
                latency=0.06, ctx=ctx),
        _record("sidecar.mb_observe", 1.07, flow=flow, ctx=ctx),
        _record("transport.deliver", 1.10, flow=flow, pn=3, ctx=ctx),
    ]


class TestAssembly:
    def test_local_repair_span_is_complete_and_monotonic(self):
        analysis = build_span_trees(_local_repair_records())
        assert len(analysis.roots) == 1
        root = analysis.roots[0]
        assert root.ctx == 7
        assert root.attribution == "sidecar"
        assert root.monotonic
        assert root.lifecycle_complete
        assert root.tree_stages() >= set(REPAIR_LIFECYCLE)

    def test_quack_association_picks_gap_revealing_emit(self):
        # Two emits bracket the gap detection; the one *before* it (the
        # decode input) must be credited, not the later one.
        records = _local_repair_records()
        records.append(_record("sidecar.quack_emit", 1.09, role="proxy",
                               flow="flow0", epoch=0))
        root = build_span_trees(records).roots[0]
        emit = next(entry for entry in root.stages
                    if entry.stage == "quack_emitted")
        assert emit.time == 1.05
        assert emit.detail["gap"] == 1.06

    def test_e2e_retransmission_becomes_child_span(self):
        records = [
            _record("transport.send", 1.0, flow="f", pn=0, size=1460, ctx=1),
            _record("transport.loss", 1.4, flow="f", pn=0, trigger="reorder",
                    congestion=True, ctx=1),
            _record("transport.retransmit", 1.5, flow="f", pn=5, size=1460,
                    cause="ack", latency=0.5, ctx=9, parent_ctx=1),
            _record("transport.deliver", 1.6, flow="f", pn=5, ctx=9),
        ]
        analysis = build_span_trees(records)
        assert len(analysis.roots) == 1
        root = analysis.roots[0]
        assert [child.ctx for child in root.children] == [9]
        assert root.attribution == "e2e-ack"
        assert root.delivered_in_tree
        assert root.monotonic
        # The parent mirrors the child's departure as its repair stage.
        times = root.stage_times()
        assert times["retransmitted"] == 1.5

    def test_undelivered_span_is_lost(self):
        records = [
            _record("transport.send", 1.0, flow="f", pn=0, size=1460, ctx=1),
            _record("link.drop", 1.1, link="a->b", kind="data", size=1460,
                    reason="loss", ctx=1),
        ]
        root = build_span_trees(records).roots[0]
        assert root.attribution == "lost"
        assert not root.lifecycle_complete

    def test_clean_delivery_has_no_gap_stage(self):
        records = [
            _record("transport.send", 1.0, flow="f", pn=0, size=1460, ctx=1),
            _record("sidecar.mb_observe", 1.1, flow="f", ctx=1),
            _record("sidecar.quack_emit", 1.2, role="proxy", flow="f",
                    epoch=0),
            _record("transport.deliver", 1.3, flow="f", pn=0, ctx=1),
        ]
        root = build_span_trees(records).roots[0]
        assert root.attribution == "clean"
        assert root.monotonic
        # The covering quACK is attached without a gap credit.
        emit = next(entry for entry in root.stages
                    if entry.stage == "quack_emitted")
        assert "gap" not in emit.detail

    def test_events_without_ctx_contribute_nothing(self):
        records = [
            _record("transport.send", 1.0, flow="f", pn=0, size=1460),
            _record("sidecar.quack_emit", 1.2, role="proxy", flow="f",
                    epoch=0),
        ]
        analysis = build_span_trees(records)
        assert analysis.roots == []

    def test_out_of_order_input_is_sorted_by_time(self):
        records = list(reversed(_local_repair_records()))
        root = build_span_trees(records).roots[0]
        assert root.monotonic and root.lifecycle_complete


class TestRendering:
    """The span trees are printed by the report's packets section."""

    @staticmethod
    def _packets(records, **options):
        return analyze(records).report(**options)[0]

    def test_span_tree_text(self):
        packets = self._packets(_local_repair_records(), spans=True)
        assert packets.title == "packets"
        text = render_text([packets])
        assert "ctx 7 flow=flow0 [sidecar]" in text
        assert "quack_emitted" in text and "retransmitted" in text
        assert "cause=quack latency=0.06 local=True" in text
        assert "!! non-monotonic" not in text
        # ... and only on request.
        assert "ctx 7" not in render_text(
            [self._packets(_local_repair_records())])
        # The markdown renderer walks the same table.
        assert "| retransmitted | 1.060000 | +0.000 | cause=quack " \
            "latency=0.06 local=True |" in render_markdown([packets])

    def test_causal_summary_counts(self):
        text = render_text([self._packets(_local_repair_records())])
        assert "span trees: 1 packets, 1 with the complete repair " \
            "lifecycle" in text
        assert "attribution per packet: sidecar=1" in text
        assert "loss-recovery attribution (1 retransmits)" in text

    def test_retransmissions_are_read_off_the_trees(self):
        records = _local_repair_records() + [
            _record("transport.loss", 1.4, flow="flow0", pn=3,
                    trigger="reorder", congestion=True, ctx=7),
            _record("transport.retransmit", 1.5, flow="flow0", pn=9,
                    size=1460, cause="ack", latency=0.5, ctx=12,
                    parent_ctx=7),
            _record("transport.retransmit", 1.6, flow="flow0", pn=10,
                    size=1460, ctx=13, parent_ctx=7),   # pre-tagging
        ]
        trees = build_span_trees(records)
        # The stage the parent mirrors from each child is not counted again.
        assert sorted(trees.retransmissions(), key=str) == [
            ("ack", 0.5), ("quack", 0.06), (None, None)]
        assert trees.lowest_pn() == {"flow0": 3}
        assert [root.complete for root in trees.roots] == [True]

    def test_span_to_dict_round_trips_edges(self):
        root = build_span_trees(_local_repair_records()).roots[0]
        record = root.to_dict()
        assert record["attribution"] == "sidecar"
        assert record["monotonic"] is True
        assert any("gap_detected" in key for key in record["edges"])


class TestAcceptance:
    """The ISSUE's acceptance surface: a real traced retransmission run
    produces at least one complete, monotonic repair lifecycle."""

    def test_traced_retransmission_yields_complete_repairs(self):
        from repro.obs.runner import run_traced

        result = run_traced("retransmission", seed=1,
                            total_bytes=1460 * 200, loss=0.05)
        try:
            analysis = build_span_trees(result.events)
        finally:
            obs.disable()
            obs.reset()
        assert len(analysis.roots) >= 200
        complete = analysis.complete_repairs()
        assert len(complete) >= 1
        assert all(root.monotonic for root in analysis.roots)
        counts = analysis.attribution_counts()
        assert counts.get("sidecar", 0) >= 1
        # Every complete repair shows the full chain in virtual-time
        # order inside its own tree.
        for root in complete:
            assert root.tree_stages() >= set(REPAIR_LIFECYCLE)
