"""The α-way distribute functor (DSM-Sort step 1, §4.3).

Partitions records into α key-range buckets using binary search over α-1
splitter keys: log2(α) comparisons per record, which is exactly how Figure 9's
"higher α values shift more computation load per block to the ASUs" works.
The splitter table (α-1 keys) is the functor's entire internal state, so the
ASU buffer space bounds α.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..util.records import DEFAULT_SCHEMA, RecordSchema
from .base import Functor, FunctorError

__all__ = ["DistributeFunctor", "uniform_splitters", "sample_splitters"]


def uniform_splitters(
    alpha: int, schema: RecordSchema = DEFAULT_SCHEMA
) -> np.ndarray:
    """Equal-width key-range splitters for α buckets."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    edges = np.linspace(0, schema.key_max, alpha + 1)[1:-1]
    return edges.astype(np.uint64)


def sample_splitters(
    keys: np.ndarray, alpha: int, rng: Optional[np.random.Generator] = None, oversample: int = 32
) -> np.ndarray:
    """Data-derived splitters: sample keys and take α-quantiles.

    The defence against skew the paper's load manager complements: balanced
    bucket *sizes* need splitters that follow the data distribution.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if alpha == 1:
        return np.empty(0, dtype=np.uint64)
    n = keys.shape[0]
    if n == 0:
        raise ValueError("cannot sample splitters from empty keys")
    size = min(n, alpha * oversample)
    sample = keys if rng is None else rng.choice(keys, size=size, replace=False) if size < n else keys
    qs = np.quantile(np.sort(np.asarray(sample, dtype=np.float64)), np.linspace(0, 1, alpha + 1)[1:-1])
    return qs.astype(np.uint64)


class DistributeFunctor(Functor):
    """Partition records into α buckets by key (one output port per bucket)."""

    name = "distribute"
    replicable = True          # bucket membership is per-record: any instance
    verified_kernel = True     # a prepackaged primitive (§3.1)

    def __init__(self, splitters: Sequence[int] | np.ndarray):
        self.splitters = np.asarray(splitters, dtype=np.uint64)
        if self.splitters.ndim != 1:
            raise FunctorError("splitters must be one-dimensional")
        if np.any(self.splitters[1:] < self.splitters[:-1]):
            raise FunctorError("splitters must be nondecreasing")
        self.alpha = int(self.splitters.shape[0]) + 1
        # Narrowest unsigned type holding a bucket id: for one or two bytes
        # NumPy's stable argsort is a radix pass (see ``apply``).
        self._id_dtype = np.min_scalar_type(self.alpha - 1)
        self.n_outputs = self.alpha
        self.name = f"distribute:{self.alpha}"

    @classmethod
    def uniform(cls, alpha: int, schema: RecordSchema = DEFAULT_SCHEMA) -> "DistributeFunctor":
        return cls(uniform_splitters(alpha, schema))

    def compares_per_record(self) -> float:
        """Binary search over the splitter table: log2(α) compares."""
        return math.log2(self.alpha) if self.alpha > 1 else 0.0

    def state_bytes(self) -> float:
        return float(self.splitters.nbytes)

    def bucket_of(self, keys: np.ndarray) -> np.ndarray:
        """Bucket index per key (real binary search via searchsorted)."""
        return np.searchsorted(self.splitters, keys.astype(np.uint64), side="right")

    def apply(self, batch: np.ndarray) -> list[np.ndarray]:
        """Partition a batch into α bucket batches (relative order kept)."""
        if self.alpha == 1:
            return [batch]
        idx = self.bucket_of(batch["key"]).astype(self._id_dtype)
        # Stable grouping: argsort on the bucket index keeps record order
        # inside each bucket, matching a sequential distribute pass.  Records
        # move once (the take); the pieces are slices of it, cut where the
        # running bucket counts say.
        moved = batch.take(np.argsort(idx, kind="stable"))
        ends = np.bincount(idx, minlength=self.alpha).cumsum().tolist()
        return [moved[start:end] for start, end in zip([0] + ends, ends)]

    def histogram(self, batch: np.ndarray) -> np.ndarray:
        """Bucket occupancy for a batch (skew diagnosis, no data movement)."""
        return np.bincount(self.bucket_of(batch["key"]), minlength=self.alpha)
