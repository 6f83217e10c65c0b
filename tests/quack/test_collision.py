"""Tests for collision analytics (repro.quack.collision) -- Table 3."""

import random

import pytest

from repro.quack.collision import (
    collision_probability,
    monte_carlo_collision_rate,
)


class TestClosedForm:
    @pytest.mark.parametrize("bits,paper_value,tolerance", [
        (8, 0.98, 0.005),
        (16, 0.015, 0.0005),
        (24, 6.0e-05, 0.05e-5),
        (32, 2.3e-07, 0.05e-7),
    ])
    def test_matches_paper_table3(self, bits, paper_value, tolerance):
        assert collision_probability(1000, bits) == pytest.approx(
            paper_value, abs=tolerance)

    def test_intro_headline_value(self):
        # Section 1: "0.000023% chance that a candidate packet has an
        # indeterminate result" = 2.3e-7 for n=1000, b=32.
        assert collision_probability(1000, 32) == pytest.approx(
            2.3e-7, rel=0.02)

    def test_single_packet_never_collides(self):
        assert collision_probability(1, 32) == 0.0

    def test_monotone_in_n(self):
        values = [collision_probability(n, 16) for n in (2, 10, 100, 1000)]
        assert values == sorted(values)
        assert all(0 <= v <= 1 for v in values)

    def test_monotone_decreasing_in_bits(self):
        values = [collision_probability(1000, b) for b in (8, 16, 24, 32)]
        assert values == sorted(values, reverse=True)

    def test_matches_naive_formula(self):
        for n, b in [(2, 8), (50, 16), (1000, 24)]:
            naive = 1 - (1 - 1 / 2 ** b) ** (n - 1)
            assert collision_probability(n, b) == pytest.approx(naive, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            collision_probability(0, 32)
        with pytest.raises(ValueError):
            collision_probability(10, 0)


class TestMonteCarlo:
    def test_agrees_with_closed_form_small_space(self):
        # b=8 has a high rate, measurable with few trials.
        rate = monte_carlo_collision_rate(100, 8, trials=400,
                                          rng=random.Random(1))
        expected = collision_probability(100, 8)
        assert rate == pytest.approx(expected, abs=0.08)

    def test_agrees_for_16_bits(self):
        rate = monte_carlo_collision_rate(1000, 16, trials=600,
                                          rng=random.Random(2))
        expected = collision_probability(1000, 16)  # ~1.5%
        # Binomial stderr ~ sqrt(p(1-p)/600) ~ 0.005.
        assert abs(rate - expected) < 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_collision_rate(10, 8, trials=0)

    def test_deterministic_given_rng(self):
        a = monte_carlo_collision_rate(50, 8, 100, random.Random(7))
        b = monte_carlo_collision_rate(50, 8, 100, random.Random(7))
        assert a == b
