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
    "stable_key_order",
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
        # Splitters span [0, key_max] and bucket search compares as uint64:
        # a signed or float key would be accepted here and mis-sorted there.
        if np.dtype(self.key_dtype).kind != "u":
            raise ValueError(
                f"key_dtype={self.key_dtype!r} is not an unsigned integer type "
                f"(map other keys to one first, as terraflow's sortable_f64_key does)"
            )
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
        """Largest representable key value."""
        return int(np.iinfo(np.dtype(self.key_dtype)).max)

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


#: Below this many keys :func:`stable_key_order` keeps NumPy's stable argsort:
#: packing allocates three temporaries whatever n is.  Measured on the strided
#: key column of 128-byte records (NumPy 2.4, alternating calls, median us),
#: argsort | packed: n = 4: 1.7 | 3.2, 128: 2.9 | 3.7, 256: 4.6 | 4.6,
#: 512: 8.3 | 7.0, 4096: 237 | 38.
_PACKED_MIN = 256
_LOW_WORD = np.uint64(0xFFFFFFFF)


def stable_key_order(keys: np.ndarray) -> np.ndarray:
    """Indices that stably sort ``keys``: ``np.argsort(keys, kind="stable")``.

    Unsigned keys of at most four bytes are packed with their position into
    one ``uint64`` word each, ``(key << 32) | position``, and the words are
    value-sorted.  The words are distinct and ordered by (key, position), so
    *every* correct sort yields the stable order — NumPy may use its
    vectorised unstable sort on contiguous words instead of a timsort over a
    strided key column — and the low halves of the sorted words are the
    answer.  Wider or non-unsigned keys, 2^32 keys or more, and short runs
    (``_PACKED_MIN``) take the argsort itself, through the array's own
    method (the same sort without ``np.argsort``'s Python dispatch, which
    costs more than sorting a four-record run).
    """
    n = keys.shape[0]
    if keys.dtype.kind == "u" and keys.dtype.itemsize <= 4 and _PACKED_MIN <= n < 1 << 32:
        words = keys.astype(np.uint64)
        words <<= 32
        words |= np.arange(n, dtype=np.uint64)
        words.sort()
        words &= _LOW_WORD
        return words.astype(np.intp)
    return keys.argsort(kind="stable")


def sort_records(batch: np.ndarray) -> np.ndarray:
    """Stable sort of a record batch by its ``key`` field.

    Records with equal keys keep their input order, whatever their payloads
    hold (``np.sort(batch, order="key")`` would break such ties on the payload
    bytes, and pays a structured-dtype field promotion per call).  The order
    is decided on the key column alone (:func:`stable_key_order`); each
    record is then moved once, by one ``take``.
    """
    if batch.dtype.names:
        return batch.take(stable_key_order(batch["key"]))
    return np.sort(batch, kind="stable")
