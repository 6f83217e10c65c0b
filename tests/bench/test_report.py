"""Tests for report generation (repro.bench.report)."""

import pytest

from repro.bench.report import (
    ReportOptions,
    environment_section,
    full_report,
    observability_section,
    sizing_section,
    table2_section,
    table3_section,
)


class TestSections:
    def test_environment_mentions_python(self):
        assert "Python" in environment_section()

    def test_table3_contains_paper_row(self):
        section = table3_section()
        assert "| 8 | 0.98 |" in section
        assert "2.3e-07" in section

    def test_table2_structure(self):
        section = table2_section(trials=2)
        assert "Power Sums" in section
        assert "656 / 656" in section
        assert "272 / 272" in section
        assert "days" in section  # the extrapolated hash decode

    def test_sizing_section(self):
        section = sizing_section()
        assert "1000 packets per RTT" in section
        assert "82 B" in section

    def test_observability_section(self):
        section = observability_section(60_000)
        assert section.startswith("## Observability")
        for title in ("time", "packets", "assistance", "coverage",
                      "metrics"):
            assert f"\n### {title}\n" in section
        for component in ("link", "transport", "quack", "sidecar"):
            assert f"{component}=" in section   # events by component
        assert "quack.newton" in section  # the profiling spans table


class TestFullReport:
    def test_quick_report_assembles(self):
        progress_log = []
        options = ReportOptions(trials=2, protocol_bytes=120_000,
                                headroom_trials=2, include_chaos=False,
                                scale_flows=500)
        text = full_report(options, progress=progress_log.append)
        assert text.startswith("# Sidecar / quACK reproduction report")
        assert "## Table 2" in text
        assert "## Table 3" in text
        assert "CC division (E7)" in text
        assert "Threshold headroom" in text
        assert "## Multi-tenant flow table at scale" in text
        assert "## Observability" in text
        assert len(progress_log) == 5

    def test_sections_can_be_disabled(self):
        options = ReportOptions(trials=2, include_protocols=False,
                                include_headroom=False, include_chaos=False,
                                include_scale=False,
                                include_observability=False)
        text = full_report(options)
        assert "CC division (E7)" not in text
        assert "Threshold headroom" not in text
        assert "Robustness under fault injection" not in text
        assert "flow table at scale" not in text
        assert "## Observability" not in text
        assert "## Table 2" in text

    def test_chaos_section_reports_invariants(self):
        options = ReportOptions(trials=2, include_protocols=False,
                                include_headroom=False, include_scale=False,
                                include_observability=False)
        text = full_report(options)
        assert "Robustness under fault injection" in text
        assert "| blackout |" in text
        assert "VIOLATED" not in text
