"""Property tests for the ASURA-style replica placement (repro.replica).

The two properties the replication layer depends on:

- **uniformity**: every ASU receives an equal share of primaries within
  sampling noise (the tentpole bound: ±2% of the mean at fleet sizes of
  64+ ASUs, with enough shards that the binomial noise floor sits below
  the bound);
- **minimal movement**: growing the fleet N -> N+1 relocates ~1/(N+1) of
  shard assignments and never moves a shard between two surviving ASUs
  (every move lands on the new ASU).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.replica import SEGMENT, ReplicaPlacement
from repro.replica.placement import _BLOCK, _splitmix64


def scalar_walk(p: ReplicaPlacement, shard: int):
    """The scalar rejection walk over ``_draw``: yields ``(k, asu)`` — each
    newly ranked ASU with the number of draws consumed to reach it."""
    limit = p.n_asus * SEGMENT
    chosen: set[int] = set()
    k = 0
    while len(chosen) < p.n_asus:
        x = p._draw(shard, k)
        k += 1
        if x < limit and x // SEGMENT not in chosen:
            chosen.add(x // SEGMENT)
            yield k, x // SEGMENT


class TestDraws:
    def test_scalar_vector_equivalence(self):
        p = ReplicaPlacement(7, capacity=64, seed=11)
        shards = np.arange(512, dtype=np.uint64)
        vec = p.primaries(shards)
        assert [p.primary(int(s)) for s in shards] == vec.tolist()

    def test_deterministic_and_seed_sensitive(self):
        a = ReplicaPlacement(16, seed=1)
        b = ReplicaPlacement(16, seed=1)
        c = ReplicaPlacement(16, seed=2)
        sets_a = [a.replicas(s, 3) for s in range(200)]
        assert sets_a == [b.replicas(s, 3) for s in range(200)]
        assert sets_a != [c.replicas(s, 3) for s in range(200)]

    def test_replicas_ordered_distinct(self):
        p = ReplicaPlacement(8)
        for s in range(100):
            reps = p.replicas(s, 3)
            assert len(reps) == 3
            assert len(set(reps)) == 3
            assert all(0 <= d < 8 for d in reps)
            # rank 0 is the primary; prefixes are consistent across r
            assert p.replicas(s, 1) == reps[:1]
            assert p.replicas(s, 2) == reps[:2]

    @pytest.mark.parametrize("n,capacity,seed", [(1, 4, 0), (5, 16, 3), (16, 1024, 0)])
    def test_ranked_is_the_lazy_form_of_replicas(self, n, capacity, seed):
        from itertools import islice

        p = ReplicaPlacement(n, capacity=capacity, seed=seed)

        def eager(shard, r):
            """The pre-``ranked`` algorithm: walk the draws until r are chosen."""
            chosen, k = [], 0
            while len(chosen) < min(r, n):
                x = p._draw(shard, k)
                k += 1
                if x < n * SEGMENT and x // SEGMENT not in chosen:
                    chosen.append(x // SEGMENT)
            return tuple(chosen)

        for shard in (0, 1, 7, (3 << 24) | 9, (1 << 48) | 5):
            full = list(p.ranked(shard))  # terminates after exactly n ASUs
            assert sorted(full) == list(range(n))
            for r in range(1, n + 1):
                assert tuple(islice(p.ranked(shard), r)) == p.replicas(shard, r)
                assert p.replicas(shard, r) == eager(shard, r) == tuple(full[:r])

    def test_r_clamped_to_fleet(self):
        p = ReplicaPlacement(3)
        assert len(p.replicas(0, 5)) == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one ASU"):
            ReplicaPlacement(0)
        with pytest.raises(ValueError, match="capacity"):
            ReplicaPlacement(8, capacity=4)
        with pytest.raises(ValueError, match="r >= 1"):
            ReplicaPlacement(8).replicas(0, 0)

    def test_nearby_seeds_decorrelate(self):
        # Regression: the raw seed XORed onto the k-indexed draw input only
        # flips low bits, which merely permutes the draw sequence within
        # small blocks — seeds 0 and 9 then produce near-identical
        # placements.  The seed must be mixed to full width first.
        n_shards = 2000
        shards = np.arange(n_shards, dtype=np.uint64)
        a = ReplicaPlacement(6, seed=0).primaries(shards)
        b = ReplicaPlacement(6, seed=9).primaries(shards)
        agree = (a == b).mean()
        # independent uniform placements agree on ~1/6 of shards
        assert agree < 0.35, f"seeds 0 and 9 agree on {agree:.0%} of shards"

    def test_splitmix64_reference(self):
        # Known-answer test for the underlying mix (splitmix64 of 0 and 1).
        assert _splitmix64(0) == 0xE220A8397B1DCDAF
        assert _splitmix64(1) == 0x910A2DEC89025CC1


class TestBlockWalk:
    """``ranked`` computes its draws a NumPy block at a time; the ranking
    must be the scalar walk's over ``_draw``, draw for draw."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 64),
        extra=st.sampled_from([0, 1, 7, 64, 1024]),
        seed=st.integers(0, (1 << 32) - 1),
        shard=st.one_of(
            st.integers(0, (1 << 40) - 1),
            st.integers(1 << 63, (1 << 64) - 1),
        ),
    )
    def test_block_walk_equals_scalar_walk(self, n, extra, seed, shard):
        p = ReplicaPlacement(n, capacity=n + extra, seed=seed)
        assert list(p.ranked(shard)) == [d for _k, d in scalar_walk(p, shard)]

    def test_walks_crossing_block_boundaries(self):
        # 1 accept in 1024 at capacity 1024 with one ASU: the first hit
        # lies blocks deep for most shards.
        p = ReplicaPlacement(1, capacity=1024, seed=5)
        deep = 0
        for shard in range(40):
            ((k, d),) = scalar_walk(p, shard)
            assert list(p.ranked(shard)) == [d]
            deep += k > _BLOCK
        assert deep > 20

    def test_primaries_match_the_walk_beyond_2_63(self):
        p = ReplicaPlacement(9, capacity=32, seed=3)
        shards = [(1 << 63) + i * 977 for i in range(64)] + [(1 << 64) - 1]
        vec = p.primaries(np.array(shards, dtype=np.uint64))
        assert vec.tolist() == [next(scalar_walk(p, s))[1] for s in shards]


class TestUniformity:
    def test_primaries_uniform_at_64_asus(self):
        # 1.5M shards over 64 ASUs: mean 23437.5/ASU, binomial sigma
        # ~0.65% of the mean, so the ±2% tentpole bound is a 3-sigma test.
        n_asus, n_shards = 64, 1_500_000
        p = ReplicaPlacement(n_asus, capacity=128, seed=5)
        counts = np.bincount(
            p.primaries(np.arange(n_shards, dtype=np.uint64)), minlength=n_asus
        )
        mean = n_shards / n_asus
        dev = np.abs(counts - mean) / mean
        assert dev.max() < 0.02, f"max deviation {dev.max():.4f} >= 2%"

    def test_replica_ranks_uniform(self):
        # Every rank of the replica set inherits uniformity, not just rank 0
        # (looser bound: fewer samples per rank in the scalar path).
        n_asus, n_shards, r = 16, 60_000, 3
        p = ReplicaPlacement(n_asus, capacity=64, seed=9)
        per_rank = np.zeros((r, n_asus), dtype=np.int64)
        for s in range(n_shards):
            for rank, d in enumerate(p.replicas(s, r)):
                per_rank[rank, d] += 1
        mean = n_shards / n_asus
        dev = np.abs(per_rank - mean) / mean
        assert dev.max() < 0.05, f"max rank deviation {dev.max():.4f} >= 5%"


class TestMinimalMovement:
    @pytest.mark.parametrize("n", [4, 63, 64])
    def test_grow_moves_one_over_n(self, n):
        # N -> N+1: expected move fraction is exactly 1/(N+1); allow 3-sigma
        # binomial slack around it.
        n_shards = 200_000
        shards = np.arange(n_shards, dtype=np.uint64)
        before = ReplicaPlacement(n, capacity=128, seed=7).primaries(shards)
        after = ReplicaPlacement(n + 1, capacity=128, seed=7).primaries(shards)
        moved = before != after
        frac = moved.mean()
        expect = 1.0 / (n + 1)
        sigma = np.sqrt(expect * (1 - expect) / n_shards)
        assert abs(frac - expect) < 3 * sigma, (
            f"moved {frac:.4f}, expected {expect:.4f} ± {3 * sigma:.4f}"
        )
        # Every move lands on the *new* ASU: no reshuffling among survivors.
        assert (after[moved] == n).all()

    def test_shrink_reassigns_only_lost_segment(self):
        n, n_shards = 32, 100_000
        shards = np.arange(n_shards, dtype=np.uint64)
        before = ReplicaPlacement(n, capacity=128, seed=3).primaries(shards)
        after = ReplicaPlacement(n - 1, capacity=128, seed=3).primaries(shards)
        moved = before != after
        # Only shards whose primary was the removed ASU move.
        assert (before[moved] == n - 1).all()
        assert moved.sum() == (before == n - 1).sum()

    def test_segment_constant_pins_draw_space(self):
        # The fixed draw space IS the minimal-movement property; changing
        # SEGMENT silently would reshuffle every deployment's placement.
        assert SEGMENT == 1 << 16
