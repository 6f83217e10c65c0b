"""Tests for the report's sections: each paper artifact's section
rendered by :func:`repro.obs.analyze.render_markdown`, as ``repro tables
all`` prints them."""

from repro.bench.tables import ARTIFACTS
from repro.obs.analyze import render_markdown


def render(artifact, trials):
    return render_markdown([artifact.section(trials)])


class TestSections:
    def test_table3_contains_paper_row(self):
        section = render(ARTIFACTS["table3"], trials=1)
        assert section.startswith("## Table 3")
        assert "| 8 | 0.98 | 0.98 |" in section
        assert "| 32 | 2.3e-07 | 2.33e-07 |" in section

    def test_table2_structure(self):
        section = render(ARTIFACTS["table2"], trials=2)
        assert section.startswith("## Table 2")
        assert "| Power Sums |" in section
        assert "| 656 | 656 |" in section
        assert "| 272 | 272 |" in section
        assert "days |" in section  # the extrapolated hash decode

    def test_sizing_section(self):
        section = render(ARTIFACTS["sizing"], trials=1)
        assert section.startswith("## Section 4.3")
        assert "| packets per RTT | ~1000 | 1000 |" in section
        assert "| 82 | 82 (4000) |" in section
