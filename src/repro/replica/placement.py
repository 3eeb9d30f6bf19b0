"""ASURA-style deterministic replica placement over the ASU fleet.

Maps a shard id to an *ordered* replica set of ASU indices with the two
properties the replication layer needs (PAPERS.md -> ASURA):

- **uniformity** — each ASU receives an equal share of primaries (and of
  every replica rank), within sampling noise;
- **minimal movement** — growing or shrinking the fleet N -> N±1 relocates
  only ~1/N of shard assignments, because assignments are decided by a
  per-shard *fixed* pseudo-random draw sequence over a fixed value space,
  and resizing only changes which draws land in the assigned region.

The value space is ``[0, capacity * SEGMENT)`` and never changes; ASU ``i``
owns the segment ``[i * SEGMENT, (i + 1) * SEGMENT)``.  With ``N`` ASUs the
assigned region is the prefix ``[0, N * SEGMENT)``.  A shard's draw sequence
``x_0, x_1, ...`` is a pure function of ``(shard, seed, k)`` (splitmix64);
its rank-0 replica is the owner of the first draw landing in the assigned
region.  Because the winning draw is uniform over the assigned region,
placement is uniform by construction; because the sequence is fixed,
growing N -> N+1 relocates a shard only when some draw hits the *newly*
assigned segment before its current winner — probability 1/(N+1).

Replica ranks > 0 continue the same draw sequence, skipping ASUs already
chosen, so the replica set is ordered, distinct, and inherits both
properties per rank.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

__all__ = ["ReplicaPlacement", "SEGMENT"]

#: width of each ASU's segment in the draw space.  The expected number of
#: draws to land a shard is capacity / N, so the constant trades placement
#: cost at small fleets against the maximum supported fleet size.
_SEGMENT_BITS = 16
SEGMENT = 1 << _SEGMENT_BITS

#: draws :meth:`ReplicaPlacement.ranked` computes per NumPy pass.  A walk to
#: the first two distinct ASUs of 16 at ``capacity=1024`` takes ~130 draws
#: (median 107, p90 ~250), so one block usually serves a whole replica set.
_BLOCK = 256

_MASK = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D


def _splitmix64(x: int) -> int:
    """One splitmix64 output for integer input ``x`` (stateless, exact)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` elementwise over a ``uint64`` array, in place
    (array arithmetic wraps modulo 2**64, as the scalar form masks)."""
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


_BLOCK_OFFSETS = np.arange(_BLOCK, dtype=np.uint64)
_SEGMENT_SHIFT = np.uint64(_SEGMENT_BITS)


class ReplicaPlacement:
    """Deterministic shard -> ordered replica-set mapping over ``n_asus``.

    ``capacity`` bounds the fleet size the draw space supports (the space is
    fixed at ``capacity * SEGMENT`` values so it never changes on resize —
    that fixedness IS the minimal-movement property).  ``seed`` decorrelates
    independent placements (e.g. two jobs on one fleet).
    """

    def __init__(self, n_asus: int, capacity: int = 1024, seed: int = 0):
        if n_asus < 1:
            raise ValueError(f"need at least one ASU, got {n_asus}")
        if capacity < n_asus:
            raise ValueError(
                f"placement capacity {capacity} < fleet size {n_asus}"
            )
        self.n_asus = int(n_asus)
        self.capacity = int(capacity)
        self.seed = int(seed)
        # Full-width mix of the seed.  XORing the raw seed onto the
        # k-indexed input would only flip its low bits, which merely
        # *permutes* the draw sequence within small k-blocks — placements
        # under nearby seeds would be almost identical.  A mixed constant
        # perturbs the high bits, so distinct seeds give unrelated streams.
        self._seed_mix = _splitmix64(self.seed)
        self._space = self.capacity * SEGMENT
        # The block walk's operands, converted once.
        self._seed_u64 = np.uint64(self._seed_mix)
        self._space_u64 = np.uint64(self._space)
        self._limit_u64 = np.uint64(self.n_asus * SEGMENT)

    def _draw(self, shard: int, k: int) -> int:
        """Draw ``k`` of ``shard``'s sequence — the scalar definition that
        :meth:`_accepted` computes a block at a time."""
        h = _splitmix64(
            (((shard & _MASK) * _MULT + k) & _MASK)
            ^ self._seed_mix
        )
        return h % self._space

    def _accepted(self, shard: int, k0: int) -> list[int]:
        """ASU indices of the draws ``k0 .. k0 + _BLOCK - 1`` of ``shard``
        that land in the assigned region, in draw order."""
        x = _BLOCK_OFFSETS + np.uint64(((shard & _MASK) * _MULT + k0) & _MASK)
        x ^= self._seed_u64
        _splitmix64_array(x)
        x %= self._space_u64
        return (x[x < self._limit_u64] >> _SEGMENT_SHIFT).tolist()

    def ranked(self, shard: int):
        """Lazily rank the whole fleet for ``shard``: yields every ASU index
        exactly once, in replica-rank order, drawing only as far as the
        caller consumes (the walk to the *last* ranks is a coupon-collector
        problem over the rejection sampler — callers want the first few).

        Draws come a block at a time (:meth:`_accepted`); the ranking is the
        scalar walk's over :meth:`_draw`, draw for draw."""
        n = self.n_asus
        chosen: set[int] = set()
        k = 0
        while True:
            for d in self._accepted(shard, k):
                if d not in chosen:
                    chosen.add(d)
                    yield d
                    if len(chosen) == n:
                        return
            k += _BLOCK

    def replicas(self, shard: int, r: int) -> tuple[int, ...]:
        """Ordered replica set of ``min(r, n_asus)`` distinct ASU indices."""
        if r < 1:
            raise ValueError(f"need r >= 1, got {r}")
        return tuple(islice(self.ranked(shard), r))

    def primary(self, shard: int) -> int:
        return self.replicas(shard, 1)[0]

    # -- vectorised primaries (property tests sweep millions of shards) -----
    def primaries(self, shards: np.ndarray) -> np.ndarray:
        """Rank-0 replica for each shard id in ``shards`` (vectorised)."""
        shards = np.asarray(shards, dtype=np.uint64)
        out = np.full(shards.shape, -1, dtype=np.int64)
        pending = np.arange(shards.size, dtype=np.int64)
        limit = self._limit_u64
        seed = self._seed_u64
        mult = np.uint64(_MULT)
        k = 0
        while pending.size:
            x = shards[pending] * mult + np.uint64(k)
            x ^= seed
            x = _splitmix64_array(x) % self._space_u64
            hit = x < limit
            out[pending[hit]] = (x[hit] // np.uint64(SEGMENT)).astype(np.int64)
            pending = pending[~hit]
            k += 1
        return out

    def __repr__(self) -> str:
        return (
            f"<ReplicaPlacement n={self.n_asus} capacity={self.capacity} "
            f"seed={self.seed}>"
        )
