"""Tests for functors: costs, eligibility, and real data transformation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.emulator.params import SystemParams
from repro.functors import (
    AggregateFunctor,
    BlockSortFunctor,
    DistributeFunctor,
    FilterFunctor,
    FunctorError,
    MapFunctor,
    MergeFunctor,
    ScanFunctor,
    asu_eligible,
    merge_sorted_batches,
    sample_splitters,
    uniform_splitters,
)
from repro.util.records import DEFAULT_SCHEMA, RecordSchema, make_records
from repro.util.validation import check_sorted_permutation, is_sorted

from .test_util_records import keys_of, stable_by_key, stamped


def batch_of(keys):
    return make_records(np.asarray(keys, dtype=np.uint32))


PARAMS = SystemParams()


class TestCostModel:
    def test_distribute_cost_is_log_alpha(self):
        f = DistributeFunctor.uniform(16)
        assert f.compares_per_record() == pytest.approx(4.0)

    def test_blocksort_cost_is_log_beta(self):
        f = BlockSortFunctor(beta=1024)
        assert f.compares_per_record() == pytest.approx(10.0)

    def test_merge_cost_is_log_gamma(self):
        f = MergeFunctor(gamma=8)
        assert f.compares_per_record() == pytest.approx(3.0)

    def test_degenerate_costs_zero(self):
        assert DistributeFunctor.uniform(1).compares_per_record() == 0.0
        assert BlockSortFunctor(1).compares_per_record() == 0.0
        assert MergeFunctor(1).compares_per_record() == 0.0

    def test_cost_cycles_formula(self):
        f = DistributeFunctor.uniform(4)  # 2 compares/record
        n = 1000
        expected = n * (2 * PARAMS.cycles_per_compare + PARAMS.cycles_per_record)
        assert f.cost_cycles(n, PARAMS) == pytest.approx(expected)

    def test_total_work_is_n_log_alphabetagamma(self):
        # §4.3: total = n log(αβγ); with αβγ = n it is n log n.
        alpha, beta, gamma = 16, 1024, 64
        n = alpha * beta * gamma
        per_rec = (
            DistributeFunctor.uniform(alpha).compares_per_record()
            + BlockSortFunctor(beta).compares_per_record()
            + MergeFunctor(gamma).compares_per_record()
        )
        assert per_rec == pytest.approx(math.log2(n))


class TestAsuEligibility:
    def test_bounded_functors_eligible(self):
        for f in (ScanFunctor(), DistributeFunctor.uniform(16), BlockSortFunctor(64)):
            ok, reason = asu_eligible(f, asu_mem_bytes=8 << 20)
            assert ok, reason

    def test_unbounded_cost_ineligible(self):
        f = MapFunctor(lambda b: b, compares=math.inf)
        ok, reason = asu_eligible(f, asu_mem_bytes=8 << 20)
        assert not ok and "unbounded" in reason

    def test_state_exceeding_memory_ineligible(self):
        f = BlockSortFunctor(beta=1 << 20)  # 128 MiB of state
        ok, reason = asu_eligible(f, asu_mem_bytes=1 << 20)
        assert not ok and "exceeds ASU memory" in reason

    def test_unbounded_cost_cannot_be_scheduled(self):
        f = MapFunctor(lambda b: b, compares=math.inf)
        with pytest.raises(FunctorError):
            f.cost_cycles(10, PARAMS)


class TestBasicFunctors:
    def test_scan_passthrough(self):
        b = batch_of([1, 2])
        assert ScanFunctor().apply(b)[0] is b

    def test_map_transforms(self):
        f = MapFunctor(lambda b: np.sort(b, order="key"), compares=1)
        out = f.apply(batch_of([3, 1, 2]))[0]
        assert list(out["key"]) == [1, 2, 3]

    def test_map_length_change_rejected(self):
        f = MapFunctor(lambda b: b[:1], compares=1)
        with pytest.raises(FunctorError):
            f.apply(batch_of([1, 2]))

    def test_map_negative_cost_rejected(self):
        with pytest.raises(FunctorError):
            MapFunctor(lambda b: b, compares=-1)

    def test_filter_keeps_matching(self):
        f = FilterFunctor(lambda b: b["key"] > 2)
        out = f.apply(batch_of([1, 2, 3, 4]))[0]
        assert list(out["key"]) == [3, 4]

    def test_filter_selectivity(self):
        f = FilterFunctor(lambda b: b["key"] % 2 == 0)
        assert f.selectivity(batch_of([0, 1, 2, 3])) == pytest.approx(0.5)
        assert f.selectivity(batch_of([])) == 0.0

    @pytest.mark.parametrize(
        "op,expected", [("count", 4), ("sum", 10), ("min", 1), ("max", 4)]
    )
    def test_aggregate_ops(self, op, expected):
        f = AggregateFunctor(op)
        f.apply(batch_of([1, 2]))
        f.apply(batch_of([3, 4]))
        assert f.value == expected

    def test_aggregate_combine_matches_single(self):
        a, b, c = AggregateFunctor("sum"), AggregateFunctor("sum"), AggregateFunctor("sum")
        a.apply(batch_of([1, 2]))
        b.apply(batch_of([3]))
        c.apply(batch_of([1, 2]))
        c.apply(batch_of([3]))
        assert a.combine(b).value == c.value

    def test_aggregate_unknown_op(self):
        with pytest.raises(FunctorError):
            AggregateFunctor("median")

    def test_aggregate_combine_mismatched_ops(self):
        with pytest.raises(FunctorError):
            AggregateFunctor("sum").combine(AggregateFunctor("min"))


class TestDistribute:
    def test_partitions_cover_input(self):
        f = DistributeFunctor.uniform(4)
        b = batch_of(np.linspace(0, 2**32 - 2, 100, dtype=np.uint32))
        parts = f.apply(b)
        assert len(parts) == 4
        total = np.concatenate(parts)
        assert sorted(total["key"].tolist()) == sorted(b["key"].tolist())

    def test_bucket_ranges_disjoint_and_ordered(self):
        f = DistributeFunctor.uniform(4)
        b = batch_of(np.random.default_rng(0).integers(0, 2**32 - 1, 1000, dtype=np.uint64))
        parts = f.apply(b)
        for lo_part, hi_part in zip(parts, parts[1:]):
            if lo_part.shape[0] and hi_part.shape[0]:
                assert lo_part["key"].max() <= hi_part["key"].min()

    def test_relative_order_within_bucket_kept(self):
        f = DistributeFunctor(splitters=[10])
        b = batch_of([5, 20, 3, 30, 7])
        lo, hi = f.apply(b)
        assert list(lo["key"]) == [5, 3, 7]
        assert list(hi["key"]) == [20, 30]

    def test_alpha_one_is_identity(self):
        f = DistributeFunctor.uniform(1)
        b = batch_of([4, 2])
        assert f.apply(b) == [b]

    def test_histogram_matches_partition(self):
        f = DistributeFunctor.uniform(8)
        b = batch_of(np.random.default_rng(1).integers(0, 2**32 - 1, 500, dtype=np.uint64))
        hist = f.histogram(b)
        sizes = [p.shape[0] for p in f.apply(b)]
        assert hist.tolist() == sizes

    def test_decreasing_splitters_rejected(self):
        with pytest.raises(FunctorError):
            DistributeFunctor(splitters=[100, 50])

    def test_splitters_above_int64_range_accepted(self):
        # The monotonicity check used to cast to int64, where 2**63 + 1 wraps
        # negative and a nondecreasing table looked decreasing.
        f = DistributeFunctor(np.array([1, 2**63 + 1], dtype=np.uint64))
        keys = np.array([0, 1, 2**63, 2**63 + 1, 2**64 - 1], dtype=np.uint64)
        assert f.bucket_of(keys).tolist() == [0, 1, 1, 2, 2]
        with pytest.raises(FunctorError, match="nondecreasing"):
            DistributeFunctor(np.array([2**63 + 1, 1], dtype=np.uint64))

    def test_sample_splitters_balance_skew(self):
        rng = np.random.default_rng(2)
        keys = (np.clip(rng.exponential(0.05, 20000), 0, 1) * (2**32 - 1)).astype(np.uint64)
        f_uniform = DistributeFunctor.uniform(8)
        f_sampled = DistributeFunctor(sample_splitters(keys, 8, rng))
        b = make_records(keys.astype(np.uint32))
        h_u = f_uniform.histogram(b)
        h_s = f_sampled.histogram(b)
        # Sampled splitters give a far flatter histogram than uniform ones.
        assert h_s.max() < h_u.max() / 2

    def test_sample_splitters_empty_rejected(self):
        with pytest.raises(ValueError):
            sample_splitters(np.empty(0, dtype=np.uint64), 4)

    def test_uniform_splitters_count(self):
        assert uniform_splitters(8).shape == (7,)
        assert uniform_splitters(1).shape == (0,)


class TestBlockSort:
    def test_run_packets_sorted_and_complete(self):
        f = BlockSortFunctor(beta=4)
        b = batch_of([9, 1, 8, 2, 7, 3, 6, 4, 5])
        packets = f.run_packets(b)
        assert [p.n_records for p in packets] == [4, 4, 1]
        for p in packets:
            assert p.sorted and is_sorted(p.batch)
        merged = np.concatenate([p.batch for p in packets])
        assert sorted(merged["key"].tolist()) == sorted(b["key"].tolist())

    def test_feed_flush_streaming(self):
        f = BlockSortFunctor(beta=4)
        out = []
        out += f.feed(batch_of([5, 3]))
        out += f.feed(batch_of([4, 1]))   # completes one block of 4
        out += f.feed(batch_of([2]))
        out += f.flush()                   # tail run of 1
        assert [p.n_records for p in out] == [4, 1]
        assert all(is_sorted(p.batch) for p in out)
        keys = np.concatenate([p.batch for p in out])["key"]
        assert sorted(keys.tolist()) == [1, 2, 3, 4, 5]

    def test_flush_idempotent(self):
        f = BlockSortFunctor(beta=4)
        f.feed(batch_of([1]))
        assert len(f.flush()) == 1
        assert f.flush() == []

    def test_bad_beta(self):
        with pytest.raises(FunctorError):
            BlockSortFunctor(0)


class TestMerge:
    def test_merge_runs(self):
        f = MergeFunctor(gamma=3)
        runs = [batch_of([1, 4, 7]), batch_of([2, 5, 8]), batch_of([3, 6, 9])]
        out = f.merge(runs, verify=True)
        assert list(out["key"]) == list(range(1, 10))

    def test_merge_too_many_runs_rejected(self):
        f = MergeFunctor(gamma=2)
        with pytest.raises(FunctorError, match="split the merge"):
            f.merge([batch_of([1]), batch_of([2]), batch_of([3])])

    def test_merge_verify_catches_unsorted(self):
        f = MergeFunctor(gamma=2)
        with pytest.raises(AssertionError):
            f.merge([batch_of([3, 1])], verify=True)

    def test_merge_packets_requires_sorted_mark(self):
        from repro.containers import Packet

        f = MergeFunctor(gamma=2)
        with pytest.raises(FunctorError):
            f.merge_packets([Packet(batch_of([1]))], verify=True)

    def test_merge_empty(self):
        assert merge_sorted_batches([]).shape == (0,)
        assert merge_sorted_batches([batch_of([])]).shape == (0,)

    def test_merge_of_empty_batches_keeps_the_callers_dtype(self):
        # The nothing-left branch used to hard-code the 128-byte default.
        small = RecordSchema(64, "<u4")
        empty = make_records(np.empty(0, dtype=np.uint32), small)
        for batches in ([empty], [empty, empty]):
            out = merge_sorted_batches(batches)
            assert out.shape == (0,) and out.dtype == small.dtype
        assert merge_sorted_batches([]).dtype == DEFAULT_SCHEMA.dtype
        assert merge_sorted_batches(iter([])).dtype == DEFAULT_SCHEMA.dtype

    def test_plan_passes(self):
        f = MergeFunctor(gamma=8)
        assert f.plan_passes(1) == 0
        assert f.plan_passes(8) == 1
        assert f.plan_passes(9) == 2
        assert f.plan_passes(64) == 2

    def test_plan_passes_fanin_one(self):
        with pytest.raises(FunctorError):
            MergeFunctor(1).plan_passes(5)


def distribute_reference(f: DistributeFunctor, batch):
    """``DistributeFunctor.apply`` as it was before the byte-index rewrite."""
    if f.alpha == 1:
        return [batch]
    idx = f.bucket_of(batch["key"])
    order = np.argsort(idx, kind="stable")
    boundaries = np.searchsorted(idx[order], np.arange(1, f.alpha))
    return np.split(batch[order], boundaries)


KERNEL_SCHEMAS = [DEFAULT_SCHEMA, RecordSchema(8, "<u2"), RecordSchema(16, "<u8")]


class TestKernelEquivalence:
    """The record kernels against their reference compositions, byte for byte,
    on tied keys whose payloads tell the tied records apart."""

    @settings(max_examples=60, deadline=None)
    @given(
        schema=st.sampled_from(KERNEL_SCHEMAS),
        n=st.sampled_from([0, 1, 7, 300, 700, 5000]),
        n_runs=st.integers(1, 64),
        distinct=st.sampled_from([None, 2, 8]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_merge_is_stable_sort_of_concatenation(self, schema, n, n_runs, distinct, seed):
        whole = stamped(keys_of(schema.key_dtype, n, distinct, seed), schema)
        # repeated cut points and cuts at the ends: empty runs mixed in
        cuts = np.sort(np.random.default_rng(seed).integers(0, n + 1, n_runs - 1))
        runs = [stable_by_key(piece) for piece in np.split(whole, cuts)]
        before = [r.tobytes() for r in runs]
        got = merge_sorted_batches(runs, verify=True)
        assert got.dtype == schema.dtype
        assert got.tobytes() == stable_by_key(np.concatenate(runs)).tobytes()
        assert [r.tobytes() for r in runs] == before  # inputs untouched
        if sum(1 for r in runs if r.shape[0]) > 1:
            assert not any(np.shares_memory(got, r) for r in runs)

    def test_merge_of_plain_key_arrays(self):
        runs = [np.array([1, 4], dtype=np.uint32), np.array([2, 3], dtype=np.uint32)]
        assert merge_sorted_batches(runs).tolist() == [1, 2, 3, 4]

    def test_merge_of_mixed_dtypes_promotes_like_concatenate(self):
        runs = [np.array([1, 4], dtype=np.int64), np.array([2.5])]
        out = merge_sorted_batches(runs)
        assert out.dtype == np.float64 and out.tolist() == [1.0, 2.5, 4.0]

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.sampled_from([1, 2, 4, 256, 257]),
        n=st.sampled_from([0, 1, 5, 1024]),
        distinct=st.sampled_from([None, 2, 8]),
        sampled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_distribute_equals_argsort_split_reference(self, alpha, n, distinct, sampled, seed):
        batch = stamped(keys_of("<u4", n, distinct, seed))
        if sampled and n:  # data-derived splitters: repeated ones, empty buckets
            f = DistributeFunctor(sample_splitters(batch["key"], alpha))
        else:
            f = DistributeFunctor.uniform(alpha)
        before = batch.tobytes()
        got = f.apply(batch)
        ref = distribute_reference(f, batch)
        assert len(got) == alpha
        assert [p.dtype for p in got] == [batch.dtype] * alpha
        assert [p.tobytes() for p in got] == [p.tobytes() for p in ref]
        assert batch.tobytes() == before
        assert f.histogram(batch).tolist() == [p.shape[0] for p in got]

    def test_distribute_beyond_two_byte_bucket_ids(self):
        alpha = (1 << 16) + 2  # bucket ids no longer fit uint16
        f = DistributeFunctor(np.arange(1, alpha, dtype=np.uint64))
        batch = stamped([alpha - 1, 0, 65536, 65535, 0, alpha + 7, 65536])
        got = f.apply(batch)
        assert [p.tobytes() for p in got] == [p.tobytes() for p in distribute_reference(f, batch)]
        assert got[0].shape[0] == 2 and got[65536].shape[0] == 2 and got[alpha - 1].shape[0] == 2


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=300),
    alpha=st.sampled_from([1, 2, 4, 16]),
    beta=st.sampled_from([1, 4, 64]),
)
def test_property_distribute_sort_merge_pipeline(keys, alpha, beta):
    """distribute -> blocksort -> merge == a full sort, for any input."""
    b = batch_of(keys)
    dist = DistributeFunctor.uniform(alpha)
    bs = BlockSortFunctor(beta)
    buckets = dist.apply(b)
    sorted_buckets = []
    for bucket in buckets:
        packets = bs.run_packets(bucket)
        merged = merge_sorted_batches([p.batch for p in packets])
        sorted_buckets.append(merged)
    final = np.concatenate(sorted_buckets) if sorted_buckets else b
    check_sorted_permutation(b, final)
