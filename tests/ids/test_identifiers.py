"""Tests for identifier generation (repro.ids)."""

import random

import pytest

from repro.ids.identifiers import (
    IdentifierFactory,
    random_identifiers,
    sample_unique_identifiers,
)


class TestIdentifierFactory:
    def test_deterministic_per_key(self):
        f = IdentifierFactory(b"key", bits=32)
        assert f.identifier(7) == f.identifier(7)
        assert IdentifierFactory(b"key").identifier(7) == f.identifier(7)

    def test_key_changes_identifiers(self):
        a = IdentifierFactory(b"key-a")
        b = IdentifierFactory(b"key-b")
        same = sum(a.identifier(i) == b.identifier(i) for i in range(200))
        assert same <= 1  # collisions possible but vanishingly rare

    def test_bits_mask(self):
        for bits in (8, 16, 24, 32, 48, 64):
            f = IdentifierFactory(b"key", bits=bits)
            values = [f.identifier(i) for i in range(100)]
            assert all(0 <= v < (1 << bits) for v in values)
            # With enough samples the high bit should be exercised.
            assert any(v >= (1 << (bits - 1)) for v in values)

    def test_validation(self):
        with pytest.raises(ValueError):
            IdentifierFactory(b"key", bits=0)
        with pytest.raises(ValueError):
            IdentifierFactory(b"key", bits=65)
        with pytest.raises(ValueError):
            IdentifierFactory(b"", bits=32)

    def test_uniformity_coarse(self):
        # Mean of uniform 32-bit values should be near 2**31.
        f = IdentifierFactory(b"uniformity")
        mean = sum(f.identifier(i) for i in range(4000)) / 4000
        assert abs(mean - 2 ** 31) < 2 ** 31 * 0.05


class TestRandomIdentifiers:
    def test_reproducible(self):
        a = random_identifiers(20, rng=random.Random(5))
        b = random_identifiers(20, rng=random.Random(5))
        assert a.tolist() == b.tolist()

    def test_range(self):
        values = random_identifiers(100, bits=16, rng=random.Random(1))
        assert all(0 <= v < 65536 for v in values.tolist())

    def test_count(self):
        assert random_identifiers(0).size == 0
        assert random_identifiers(7).size == 7


class TestSampleUnique:
    def test_uniqueness(self):
        values = sample_unique_identifiers(1000, bits=16,
                                           rng=random.Random(2))
        assert len(set(values.tolist())) == 1000

    def test_space_exhaustion_guard(self):
        with pytest.raises(ValueError):
            sample_unique_identifiers(300, bits=8)

    def test_full_space(self):
        values = sample_unique_identifiers(256, bits=8, rng=random.Random(3))
        assert sorted(values.tolist()) == list(range(256))
