import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bvlab.seeding import derive_seed, spawn_rng


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(12345, 1, 2, 3) == derive_seed(12345, 1, 2, 3)

    def test_uint64_range(self):
        for seed in (0, 1, -5, 2**64 + 17, 987654321):
            value = derive_seed(seed, 0)
            assert 0 <= value < 2**64

    def test_paths_decorrelate(self):
        """Different index paths (and orders) must land on distinct streams."""
        seen = {
            derive_seed(7, *path)
            for path in [(0,), (1,), (2,), (0, 0), (0, 1), (1, 0), (2, 1), (1, 2)]
        }
        assert len(seen) == 8

    def test_master_seed_matters(self):
        assert derive_seed(1, 5) != derive_seed(2, 5)

    def test_adjacent_master_seeds_share_no_stream(self):
        """512,000 distinct seeds for master seeds below 2,000 and indices
        below 256.  Folding an index into ``master + golden`` before mixing
        made ``(m, t)`` and ``(m + 1, t ^ 1)`` one seed for every odd m."""
        seeds = {derive_seed(m, t) for m in range(2000) for t in range(256)}
        assert len(seeds) == 2000 * 256

    def test_empty_path_keeps_its_stream(self):
        """``derive_seed(m)`` is the SplitMix64 finalizer of m."""
        assert derive_seed(12345) == 17540659726606785873
        assert derive_seed(-1) == 13029008266876403067
        assert derive_seed(0) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(), st.lists(st.integers(), max_size=6))
    def test_deterministic_for_any_path(self, master_seed, path):
        """Equal inputs give equal 64-bit seeds; inputs count modulo 2**64."""
        value = derive_seed(master_seed, *path)
        assert 0 <= value < 2**64
        assert derive_seed(master_seed, *path) == value
        assert derive_seed(master_seed % 2**64, *(i % 2**64 for i in path)) == value
        first = spawn_rng(master_seed, *path).integers(2**63, size=4)
        assert np.array_equal(spawn_rng(master_seed, *path).integers(2**63, size=4), first)


class TestSpawnRng:
    def test_reproducible_streams(self):
        a = spawn_rng(99, 3).standard_normal(8)
        b = spawn_rng(99, 3).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_streams(self):
        a = spawn_rng(99, 3).standard_normal(8)
        b = spawn_rng(99, 4).standard_normal(8)
        assert not np.array_equal(a, b)
