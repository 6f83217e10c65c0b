"""Tests for the benchmark harness itself (timing, workloads, tables)."""

import time

import pytest

from repro.bench.frequency import (
    PAPER_TARGET_MISSING,
    ack_reduction_sizing,
    cc_division_sizing,
)
from repro.bench.tables import (
    ARTIFACTS,
    fig5_series,
    fig6_series,
    table2_report,
    table3_report,
)
from repro.bench.timing import TimingResult, measure, measure_throughput
from repro.bench.workloads import PAPER_T, QuackWorkload, make_workload
from repro.obs.analyze import render_markdown
from repro.sidecar.frequency import retransmission_cadence


class TestMeasure:
    def test_statistics_fields(self):
        result = measure(lambda: sum(range(100)), trials=10, warmup=1)
        assert result.trials == 10
        assert result.minimum <= result.median <= result.maximum
        assert result.mean > 0
        assert result.mean_us == pytest.approx(result.mean * 1e6)

    def test_single_trial_has_zero_stdev(self):
        result = measure(lambda: None, trials=1, warmup=0)
        assert result.stdev == 0.0

    def test_warmup_not_recorded(self):
        calls = []
        measure(lambda: calls.append(1), trials=3, warmup=2)
        assert len(calls) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            measure(lambda: None, trials=0)

    def test_str_format(self):
        result = measure(lambda: None, trials=3, warmup=0)
        assert "us" in str(result)

    def test_throughput(self):
        rate = measure_throughput(lambda: time.sleep(0.001),
                                  items_per_call=100, trials=3)
        assert 1_000 < rate < 100_000  # ~100 items / ~1ms

    def test_throughput_validation(self):
        with pytest.raises(ValueError):
            measure(lambda: None, trials=-1)


class TestWorkloads:
    def test_shape(self):
        workload = make_workload(n=50, num_missing=7, bits=32, seed=1)
        assert workload.n == 50
        assert workload.num_missing == 7
        assert workload.received.size == 43
        assert len(workload.missing) == 7

    def test_missing_is_sent_minus_received(self):
        from collections import Counter
        workload = make_workload(n=80, num_missing=10, seed=2)
        diff = Counter(int(x) for x in workload.sent)
        diff.subtract(Counter(int(x) for x in workload.received))
        assert sorted(diff.elements()) == sorted(workload.missing)

    def test_deterministic(self):
        a = make_workload(n=30, num_missing=3, seed=9)
        b = make_workload(n=30, num_missing=3, seed=9)
        assert a.missing == b.missing
        assert a.sent.tolist() == b.sent.tolist()

    def test_bits_respected(self):
        workload = make_workload(n=100, num_missing=0, bits=8, seed=0)
        assert all(v < 256 for v in workload.sent.tolist())

    def test_validation(self):
        with pytest.raises(ValueError):
            make_workload(n=5, num_missing=6)
        with pytest.raises(ValueError):
            make_workload(n=5, num_missing=-1)

    def test_zero_missing(self):
        workload = make_workload(n=10, num_missing=0)
        assert workload.missing == ()
        assert workload.received.size == 10


class TestTables:
    def test_table2_report_rows(self):
        rows = table2_report(trials=2)
        assert set(rows) == {"strawman1", "strawman2", "power_sum"}
        assert rows["power_sum"].size_bits == PAPER_T * 32 + 16
        assert rows["strawman2"].decode_extrapolated_days is not None
        assert rows["strawman1"].decode is not None

    def test_format_table2_includes_paper(self):
        text = render_markdown([ARTIFACTS["table2"].section(trials=2)])
        assert "| construction (paper) | construction (ours) |" in text
        assert "| Power Sums | 106 us |" in text

    def test_fig5_series_shape(self):
        series = fig5_series(thresholds=(2, 6), bits_options=(16, 32),
                             n=50, trials=2)
        assert set(series) == {16, 32}
        assert set(series[16]) == {2, 6}
        assert all(v > 0 for curve in series.values()
                   for v in curve.values())

    def test_fig6_series_shape(self):
        series = fig6_series(missing_counts=(0, 2), bits_options=(32,),
                             n=60, trials=2)
        assert set(series[32]) == {0, 2}
        assert series[32][0] < series[32][2]

    def test_table3_report_matches_module(self):
        from repro.quack.collision import collision_probability
        report = table3_report()
        assert report[16]["ours"] == collision_probability(1000, 16)


class TestFrequency:
    def test_cc_division_paper_point(self):
        sizing = cc_division_sizing()
        assert (sizing.packets_per_rtt, sizing.threshold) == (1000, 20)

    def test_ack_reduction_factor(self):
        assert ack_reduction_sizing(every_n=64, threshold=16) \
            .bandwidth_saving_factor == pytest.approx(4.0)

    def test_cadence_validation(self):
        # 1.0 is a ratio the sender-side proxy can observe over a window.
        with pytest.raises(ValueError):
            retransmission_cadence(1.01, PAPER_TARGET_MISSING)
        with pytest.raises(ValueError):
            retransmission_cadence(-0.1, PAPER_TARGET_MISSING)

    def test_cadence_monotone_in_loss(self):
        cadences = [retransmission_cadence(loss, PAPER_TARGET_MISSING)
                    for loss in (0.4, 0.2, 0.1, 0.05)]
        assert cadences == sorted(cadences)
