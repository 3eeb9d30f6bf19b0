"""Tests for record schemas and batch construction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util import records as records_module
from repro.util.records import (
    DEFAULT_SCHEMA,
    RecordSchema,
    concat_records,
    empty_records,
    make_records,
    records_nbytes,
    sort_records,
    stable_key_order,
)


def stamped(keys, schema: RecordSchema = DEFAULT_SCHEMA) -> np.ndarray:
    """Records whose payload carries their position in ``keys``.

    Records with tied keys then differ in their bytes, so a kernel that
    breaks stability shows up in ``tobytes()`` instead of hiding behind
    interchangeable zero payloads.  The serial is big-endian so that payloads
    compare bytewise in input order: ``np.sort(order="key")`` breaks key ties
    on the remaining fields, and only then equals the stable sort by key.
    """
    batch = make_records(np.asarray(keys, dtype=np.uint64), schema)
    raw = batch.view(np.uint8).reshape(batch.shape[0], schema.record_size)
    serial = np.arange(batch.shape[0], dtype=">u4").view(np.uint8).reshape(-1, 4)
    raw[:, schema.key_size : schema.key_size + 4] = serial
    return batch


def stable_by_key(batch: np.ndarray) -> np.ndarray:
    """The reference order: stable argsort of the key column, then a gather."""
    return batch[np.argsort(batch["key"], kind="stable")]


#: sizes around the packed path's cut-over, plus the paper's β
ORDER_SIZES = sorted({0, 1, 2, records_module._PACKED_MIN - 1, records_module._PACKED_MIN,
                      records_module._PACKED_MIN + 1, 4096})


def keys_of(dtype: str, n: int, distinct: int | None, seed: int) -> np.ndarray:
    """``n`` random keys of ``dtype``; at most ``distinct`` values if given."""
    rng = np.random.default_rng(seed)
    high = int(np.iinfo(dtype).max) if distinct is None else distinct - 1
    return rng.integers(0, high, n, dtype=np.uint64, endpoint=True).astype(dtype)


class TestRecordSchema:
    def test_default_matches_paper(self):
        # §6: 128-byte records with 4-byte keys.
        assert DEFAULT_SCHEMA.record_size == 128
        assert DEFAULT_SCHEMA.key_size == 4
        assert DEFAULT_SCHEMA.payload_size == 124

    def test_dtype_itemsize_equals_record_size(self):
        assert DEFAULT_SCHEMA.dtype.itemsize == 128

    def test_key_only_record(self):
        s = RecordSchema(record_size=4, key_dtype="<u4")
        assert s.payload_size == 0
        assert s.dtype.itemsize == 4

    def test_record_smaller_than_key_rejected(self):
        with pytest.raises(ValueError):
            RecordSchema(record_size=2, key_dtype="<u4")

    def test_key_max(self):
        assert DEFAULT_SCHEMA.key_max == 2**32 - 1
        s8 = RecordSchema(record_size=16, key_dtype="<u8")
        assert s8.key_max == 2**64 - 1

    def test_key_max_float_rejected(self):
        # The constructor, not key_max, is the one place that rejects it.
        with pytest.raises(ValueError, match="unsigned"):
            RecordSchema(record_size=16, key_dtype="<f8")

    @pytest.mark.parametrize("key_dtype", ["<i4", "<i8", "<f4", "?", "S4", "V4"])
    def test_non_unsigned_key_dtype_rejected(self, key_dtype):
        # A signed key used to be accepted and then mis-sorted: splitters span
        # [0, key_max] and bucket_of compares as uint64, so -5 and -1 landed
        # in the *top* bucket.
        with pytest.raises(ValueError, match="unsigned"):
            RecordSchema(record_size=16, key_dtype=key_dtype)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_nbytes_roundtrip(self, n):
        assert DEFAULT_SCHEMA.records_in(DEFAULT_SCHEMA.nbytes(n)) == n

    def test_records_in_truncates(self):
        assert DEFAULT_SCHEMA.records_in(129) == 1
        assert DEFAULT_SCHEMA.records_in(127) == 0


class TestMakeRecords:
    def test_keys_preserved(self):
        keys = np.array([5, 3, 9], dtype=np.uint32)
        batch = make_records(keys)
        assert np.array_equal(batch["key"], keys)

    def test_batch_nbytes(self):
        batch = make_records(np.arange(10, dtype=np.uint32))
        assert records_nbytes(batch) == 10 * 128

    def test_empty(self):
        batch = empty_records()
        assert batch.shape == (0,)
        assert batch.dtype == DEFAULT_SCHEMA.dtype

    def test_concat(self):
        a = make_records(np.array([1, 2], dtype=np.uint32))
        b = make_records(np.array([3], dtype=np.uint32))
        c = concat_records([a, b])
        assert list(c["key"]) == [1, 2, 3]

    def test_concat_empty_list(self):
        assert concat_records([]).shape == (0,)

    def test_concat_single_is_same_object(self):
        a = make_records(np.array([1], dtype=np.uint32))
        assert concat_records([a]) is a

    @pytest.mark.parametrize("schema", [DEFAULT_SCHEMA, RecordSchema(8, "<u8"),
                                        RecordSchema(16, "<u2")])
    def test_concat_is_byte_equal_to_np_concatenate_on_random_splits(self, schema):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(0, 40))
            whole = make_records(rng.integers(0, schema.key_max, n, dtype=np.uint64), schema)
            if schema.payload_size:  # opaque payload bytes must survive too
                whole["payload"] = rng.integers(
                    0, 256, (n, schema.payload_size), dtype=np.uint8
                ).view(whole.dtype["payload"]).reshape(n)
            # cut points may repeat or sit at the ends: empty pieces included
            cuts = np.sort(rng.integers(0, n + 1, int(rng.integers(1, 6))))
            pieces = np.split(whole, cuts)
            got = concat_records(pieces, schema)
            ref = np.concatenate(pieces)
            assert got.dtype == ref.dtype == schema.dtype
            assert got.tobytes() == ref.tobytes() == whole.tobytes()
            assert not any(np.shares_memory(got, p) for p in pieces)

    def test_concat_of_foreign_dtype_falls_back_to_np_concatenate(self):
        # Batches that are not of the schema's dtype take NumPy's own path
        # (promotion and all) instead of being squeezed into the schema.
        a = np.array([1, 2], dtype=np.int64)
        b = np.array([3.5])
        got = concat_records([a, b])
        assert got.dtype == np.float64 and got.tolist() == [1.0, 2.0, 3.5]
        small = RecordSchema(8, "<u4")
        mixed = [make_records(np.arange(2), small), make_records(np.arange(3), small)]
        got = concat_records(mixed)  # caller forgot schema=: still right
        assert got.dtype == small.dtype and list(got["key"]) == [0, 1, 0, 1, 2]

    def test_schema_dtype_is_built_once(self):
        schema = RecordSchema(32, "<u4")
        assert schema.dtype is schema.dtype
        assert schema == RecordSchema(32, "<u4") and hash(schema) == hash(RecordSchema(32, "<u4"))

    def test_key_dtype_conversion(self):
        batch = make_records(np.array([1.0, 2.0]))  # float in
        assert batch["key"].dtype == np.dtype("<u4")


class TestStableKeyOrder:
    """``stable_key_order`` is ``np.argsort(kind="stable")``, on either path."""

    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from(["<u1", "<u2", "<u4", "<u8", ">u4", "<i4", "<f8"]),
        n=st.sampled_from(ORDER_SIZES),
        distinct=st.sampled_from([None, 1, 2, 8]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_stable_argsort(self, dtype, n, distinct, seed):
        if dtype in ("<i4", "<f8"):  # fall-back dtypes: any values will do
            keys = np.random.default_rng(seed).integers(-4, 4, n).astype(dtype)
        else:
            keys = keys_of(dtype, n, distinct, seed)
        got = stable_key_order(keys)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.argsort(keys, kind="stable"))

    def test_extreme_keys_keep_their_positions(self):
        # The packed word must not lose the top key bit or the position.
        n = records_module._PACKED_MIN * 2
        keys = np.full(n, 2**32 - 1, dtype="<u4")
        keys[::3] = 0
        assert np.array_equal(stable_key_order(keys), np.argsort(keys, kind="stable"))

    def test_strided_key_column(self):
        batch = stamped(keys_of("<u4", 1000, 8, seed=5))
        keys = batch["key"]
        assert not keys.flags.c_contiguous
        assert np.array_equal(stable_key_order(keys), np.argsort(keys, kind="stable"))


class TestSortRecords:
    @settings(max_examples=40, deadline=None)
    @given(
        schema=st.sampled_from([DEFAULT_SCHEMA, RecordSchema(16, "<u1"), RecordSchema(8, "<u2"),
                                RecordSchema(64, "<u4"), RecordSchema(16, "<u8")]),
        n=st.sampled_from(ORDER_SIZES),
        distinct=st.sampled_from([None, 2, 8]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_byte_equal_to_np_sort_by_key(self, schema, n, distinct, seed):
        batch = stamped(keys_of(schema.key_dtype, n, distinct, seed), schema)
        before = batch.tobytes()
        got = sort_records(batch)
        assert got.dtype == batch.dtype
        assert got.tobytes() == stable_by_key(batch).tobytes()
        assert got.tobytes() == np.sort(batch, order="key", kind="stable").tobytes()
        assert batch.tobytes() == before  # input untouched
        assert n == 0 or not np.shares_memory(got, batch)

    def test_plain_key_array(self):
        keys = np.array([3, 1, 2, 1], dtype=np.uint32)
        assert sort_records(keys).tolist() == [1, 1, 2, 3]
