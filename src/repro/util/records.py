"""Fixed-size records, the unit of data in the streaming model.

The paper's experiments sort 128-byte records with 4-byte keys (§6).  We
represent record batches as NumPy structured arrays with a ``key`` field and a
``payload`` byte field; all functors operate on such batches.  A
:class:`RecordSchema` captures the layout so containers and the emulator can
convert between record counts and bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "RecordSchema",
    "DEFAULT_SCHEMA",
    "make_records",
    "records_nbytes",
    "concat_records",
    "empty_records",
    "sort_records",
]


@dataclass(frozen=True)
class RecordSchema:
    """Layout of a fixed-size record: a sortable key plus opaque payload.

    Parameters
    ----------
    record_size:
        Total bytes per record (payload size is derived).
    key_dtype:
        NumPy dtype of the key field; must be a fixed-size scalar type.
    """

    record_size: int = 128
    key_dtype: str = "<u4"

    def __post_init__(self) -> None:
        if self.record_size < self.key_size:
            raise ValueError(
                f"record_size={self.record_size} smaller than key "
                f"({self.key_size} bytes)"
            )

    @property
    def key_size(self) -> int:
        return int(np.dtype(self.key_dtype).itemsize)

    @property
    def payload_size(self) -> int:
        return self.record_size - self.key_size

    @cached_property
    def dtype(self) -> np.dtype:
        """Structured dtype for a batch of records (built once per schema)."""
        if self.payload_size:
            return np.dtype(
                [("key", self.key_dtype), ("payload", "V%d" % self.payload_size)]
            )
        return np.dtype([("key", self.key_dtype)])

    @property
    def key_max(self) -> int:
        """Largest representable key value (for integer key dtypes)."""
        dt = np.dtype(self.key_dtype)
        if dt.kind in "iu":
            return int(np.iinfo(dt).max)
        raise TypeError(f"key dtype {dt} has no integer max")

    def nbytes(self, n_records: int) -> int:
        """Bytes occupied by ``n_records`` records."""
        return int(n_records) * self.record_size

    def records_in(self, n_bytes: int) -> int:
        """How many whole records fit in ``n_bytes``."""
        return int(n_bytes) // self.record_size


DEFAULT_SCHEMA = RecordSchema(record_size=128, key_dtype="<u4")


def make_records(
    keys: np.ndarray, schema: RecordSchema = DEFAULT_SCHEMA
) -> np.ndarray:
    """Build a record batch from an array of keys (payload zero-filled)."""
    keys = np.asarray(keys)
    out = np.zeros(keys.shape[0], dtype=schema.dtype)
    out["key"] = keys.astype(schema.key_dtype, copy=False)
    return out


def empty_records(schema: RecordSchema = DEFAULT_SCHEMA) -> np.ndarray:
    """An empty record batch of the given schema."""
    return np.empty(0, dtype=schema.dtype)


def records_nbytes(batch: np.ndarray) -> int:
    """Total bytes of a record batch."""
    return int(batch.nbytes)


def concat_records(batches: list[np.ndarray], schema: RecordSchema = DEFAULT_SCHEMA) -> np.ndarray:
    """Concatenate record batches (empty list yields an empty batch).

    Same bytes as ``np.concatenate``.  When every batch already has the
    schema's dtype — the only case the emulation produces — the result is
    allocated once and filled by slice assignment, skipping the structured-
    dtype field promotion ``np.concatenate`` redoes on every call (as
    :func:`sort_records` skips it for sorts): run formation at high α
    concatenates thousands of four-record fragments.
    """
    if not batches:
        return empty_records(schema)
    if len(batches) == 1:
        return batches[0]
    dtype = schema.dtype
    total = 0
    for b in batches:
        if b.dtype != dtype:
            return np.concatenate(batches)
        total += b.shape[0]
    out = np.empty(total, dtype=dtype)
    at = 0
    for b in batches:
        n = b.shape[0]
        out[at : at + n] = b
        at += n
    return out


def sort_records(batch: np.ndarray) -> np.ndarray:
    """Stable sort of a record batch by its ``key`` field.

    Same element order as ``np.sort(batch, order="key", kind="stable")`` for
    the record batches used here (payloads are opaque and zero-filled, so key
    ties are full-record ties and stability pins their order either way), but
    implemented as a stable argsort of the key column plus a take — skipping
    NumPy's per-call structured-dtype field promotion, which dominates the
    cost of small-run sorts.
    """
    if batch.dtype.names:
        return batch[np.argsort(batch["key"], kind="stable")]
    return np.sort(batch, kind="stable")
