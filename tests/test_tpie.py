"""Tests for the TPIE layer: k-way merge, external sort, stream ops, PQ."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bte import FileBTE, MemoryBTE
from repro.containers import RecordStream
from repro.functors import DistributeFunctor, MapFunctor
from repro.tpie import (
    ExternalPriorityQueue,
    count_records,
    distribution_sweep,
    external_sort,
    kway_merge_streams,
    scan_apply,
    stream_filter,
)
from repro.util.records import make_records
from repro.util.validation import check_sorted_permutation


def batch_of(keys):
    return make_records(np.asarray(keys, dtype=np.uint32))


def labelled(keys, labels):
    """Records told apart by payload byte 0 = label, whatever their keys."""
    batch = batch_of(keys)
    batch["payload"] = [bytes([v]).ljust(batch.dtype["payload"].itemsize, b"\0") for v in labels]
    return batch


def stable_by_key(batch):
    """The tie order every TPIE sorter keeps: by key, ties in input order."""
    return batch[np.argsort(batch["key"], kind="stable")]


class TestKWayMerge:
    def _merge(self, runs, **kw):
        bte = MemoryBTE()
        handles = []
        for i, run in enumerate(runs):
            h = bte.write_all(f"run{i}", batch_of(sorted(run)))
            handles.append(bte.open(f"run{i}"))
        out = kway_merge_streams(bte, handles, "out", **kw)
        return list(bte.read_all(out)["key"])

    def test_basic_three_way(self):
        got = self._merge([[1, 4, 7], [2, 5, 8], [3, 6, 9]])
        assert got == list(range(1, 10))

    def test_tiny_buffers(self):
        runs = [[1, 10, 20, 30], [2, 11, 21], [5, 5, 5, 40]]
        got = self._merge(runs, buffer_records=2)
        assert got == sorted(x for r in runs for x in r)

    def test_empty_runs_skipped(self):
        assert self._merge([[], [3, 4], []]) == [3, 4]

    def test_all_empty(self):
        assert self._merge([[], []]) == []

    def test_single_run_passthrough(self):
        assert self._merge([[1, 2, 3]]) == [1, 2, 3]

    def test_duplicates(self):
        got = self._merge([[1, 1, 1], [1, 1]])
        assert got == [1, 1, 1, 1, 1]

    def test_bad_buffer_size(self):
        bte = MemoryBTE()
        with pytest.raises(ValueError):
            kway_merge_streams(bte, [], "out", buffer_records=0)

    @pytest.mark.parametrize(
        "runs, buf",
        [
            # ties inside one round: payload bytes must not order them
            ([([7, 7, 7], [5, 4, 3]), ([7, 7, 7], [2, 1, 0])], 1024),
            # run 0 holds more of the horizon key past its first buffer
            ([([7, 7, 7, 7], [9, 8, 7, 6]), ([7, 9], [1, 0])], 2),
        ],
    )
    def test_equal_keys_leave_in_run_order(self, runs, buf):
        bte = MemoryBTE()
        for i, (keys, labels) in enumerate(runs):
            bte.write_all(f"run{i}", labelled(keys, labels))
        handles = [bte.open(f"run{i}") for i in range(len(runs))]
        out = bte.read_all(kway_merge_streams(bte, handles, "out", buffer_records=buf))
        merged = np.concatenate([labelled(*run) for run in runs])
        assert out.tobytes() == stable_by_key(merged).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        runs=st.lists(
            st.lists(st.integers(0, 1000), min_size=0, max_size=50),
            min_size=1,
            max_size=8,
        ),
        buf=st.sampled_from([1, 3, 16]),
    )
    def test_property_merge_equals_heapq(self, runs, buf):
        got = self._merge(runs, buffer_records=buf)
        expect = list(heapq.merge(*[sorted(r) for r in runs]))
        assert got == expect


class TestExternalSort:
    @pytest.mark.parametrize("bte_kind", ["memory", "file"])
    def test_sorts_and_permutes(self, bte_kind, tmp_path):
        bte = MemoryBTE() if bte_kind == "memory" else FileBTE(tmp_path / "b")
        rng = np.random.default_rng(3)
        data = batch_of(rng.integers(0, 2**32 - 1, 5000, dtype=np.uint64))
        inp = bte.write_all("in", data)
        out, stats = external_sort(bte, bte.open("in"), "out", memory_records=256, fan_in=4)
        result = bte.read_all(out)
        check_sorted_permutation(data, result)
        assert stats.n_records == 5000
        assert stats.n_initial_runs == -(-5000 // 256)

    def test_pass_count_matches_formula(self):
        bte = MemoryBTE()
        data = batch_of(np.arange(1000, dtype=np.uint32)[::-1].copy())
        bte.write_all("in", data)
        _out, stats = external_sort(bte, bte.open("in"), "out", memory_records=10, fan_in=4)
        # 100 runs at fan-in 4 -> ceil(log4 100) = 4 passes.
        assert stats.n_merge_passes == stats.expected_merge_passes() == 4

    def test_single_run_no_merge_pass(self):
        bte = MemoryBTE()
        bte.write_all("in", batch_of([3, 1, 2]))
        out, stats = external_sort(bte, bte.open("in"), "out", memory_records=100)
        assert stats.n_merge_passes == 0
        assert list(bte.read_all(out)["key"]) == [1, 2, 3]

    @pytest.mark.parametrize(
        "keys, kw",
        [
            ([7] * 8, {}),  # one run, all keys tied
            ([7, 3] * 12, {"memory_records": 4, "fan_in": 2, "buffer_records": 2}),
        ],
    )
    def test_equal_keys_keep_input_order(self, keys, kw):
        bte = MemoryBTE()
        data = labelled(keys, range(len(keys) - 1, -1, -1))
        bte.write_all("in", data)
        out, _ = external_sort(bte, bte.open("in"), "out", **kw)
        assert bte.read_all(out).tobytes() == stable_by_key(data).tobytes()

    def test_empty_input(self):
        bte = MemoryBTE()
        bte.write_all("in", batch_of([]))
        out, stats = external_sort(bte, bte.open("in"), "out")
        assert bte.read_all(out).shape == (0,)
        assert stats.n_initial_runs == 0

    def test_temporaries_cleaned_up(self):
        bte = MemoryBTE()
        bte.write_all("in", batch_of(np.arange(100, dtype=np.uint32)))
        external_sort(bte, bte.open("in"), "out", memory_records=10, fan_in=2)
        assert bte.list_streams() == ["in", "out"]

    def test_bad_params(self):
        bte = MemoryBTE()
        bte.write_all("in", batch_of([1]))
        with pytest.raises(ValueError):
            external_sort(bte, bte.open("in"), "o1", memory_records=0)
        with pytest.raises(ValueError):
            external_sort(bte, bte.open("in"), "o2", fan_in=1)

    @settings(max_examples=20, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=400),
        mem=st.sampled_from([1, 7, 64]),
        fan=st.sampled_from([2, 3, 8]),
    )
    def test_property_external_sort(self, keys, mem, fan):
        bte = MemoryBTE()
        data = batch_of(keys)
        bte.write_all("in", data)
        out, _ = external_sort(bte, bte.open("in"), "out", memory_records=mem, fan_in=fan)
        check_sorted_permutation(data, bte.read_all(out))


class TestStreamOps:
    def test_scan_apply_map(self):
        bte = MemoryBTE()
        src = RecordStream("src", bte=bte)
        src.append(batch_of([1, 2, 3]))
        dst = RecordStream("dst", bte=bte)
        double = MapFunctor(
            lambda b: make_records((b["key"] * 2).astype(np.uint32)), compares=1
        )
        scan_apply(src, double, dst, block_records=2)
        assert list(dst.read_all()["key"]) == [2, 4, 6]

    def test_scan_apply_rejects_multi_output(self):
        src = RecordStream("src")
        with pytest.raises(ValueError):
            scan_apply(src, DistributeFunctor.uniform(4))

    def test_stream_filter(self):
        bte = MemoryBTE()
        src = RecordStream("src", bte=bte)
        src.append(batch_of([1, 2, 3, 4, 5]))
        dst = RecordStream("dst", bte=bte)
        stream_filter(src, lambda b: b["key"] % 2 == 1, dst, block_records=2)
        assert list(dst.read_all()["key"]) == [1, 3, 5]

    def test_count_records(self):
        src = RecordStream("src")
        src.append(batch_of(range(10)))
        assert count_records(src, block_records=3) == 10

    def test_distribution_sweep_partitions(self):
        bte = MemoryBTE()
        src = RecordStream("src", bte=bte)
        rng = np.random.default_rng(5)
        data = batch_of(rng.integers(0, 2**32 - 1, 1000, dtype=np.uint64))
        src.append(data)
        buckets = distribution_sweep(
            src, DistributeFunctor.uniform(4), bte, "bucket", block_records=128
        )
        assert len(buckets) == 4
        total = np.concatenate([b.read_all() for b in buckets])
        assert sorted(total["key"].tolist()) == sorted(data["key"].tolist())
        # Bucket key ranges must be disjoint and increasing.
        maxes = [b.read_all()["key"].max() for b in buckets if len(b)]
        mins = [b.read_all()["key"].min() for b in buckets if len(b)]
        for hi, lo in zip(maxes, mins[1:]):
            assert hi <= lo


class TestExternalPriorityQueue:
    def test_inmemory_ordering(self):
        pq = ExternalPriorityQueue(memory_entries=100)
        for p in [5, 1, 3, 2, 4]:
            pq.push(p, data=p * 10)
        out = [pq.pop() for _ in range(5)]
        assert out == [(1, 10), (2, 20), (3, 30), (4, 40), (5, 50)]

    def test_spill_and_merge(self):
        pq = ExternalPriorityQueue(memory_entries=8, buffer_entries=4)
        rng = np.random.default_rng(7)
        prios = rng.integers(0, 1000, 200).tolist()
        for p in prios:
            pq.push(p)
        assert pq.n_spilled_runs > 0
        got = [pq.pop()[0] for _ in range(len(prios))]
        assert got == sorted(prios)
        assert len(pq) == 0

    def test_interleaved_push_pop(self):
        pq = ExternalPriorityQueue(memory_entries=4)
        pq.push(10)
        pq.push(1)
        assert pq.pop() == (1, 0)
        pq.push(5)
        pq.push(0)
        pq.push(7)
        pq.push(2)  # may trigger spill
        got = [pq.pop()[0] for _ in range(4)]
        assert got == [0, 2, 5, 7]
        assert pq.pop() == (10, 0)

    def test_stability_fifo_for_equal_priorities(self):
        pq = ExternalPriorityQueue(memory_entries=4, buffer_entries=2)
        for i in range(10):
            pq.push(42, data=i)
        order = [pq.pop()[1] for _ in range(10)]
        assert order == list(range(10))

    def test_stable_order_across_many_spilled_runs(self):
        # Many tiny spilled runs, every entry the same priority: the run-head
        # heap must still pop in exact (key, seq) insertion order.
        pq = ExternalPriorityQueue(memory_entries=2, buffer_entries=2)
        n = 64
        for i in range(n):
            pq.push(7, data=i)
        assert pq.n_spilled_runs >= n // 2 - 1
        assert [pq.pop() for _ in range(n)] == [(7, i) for i in range(n)]
        assert len(pq) == 0

    def test_stable_order_interleaved_priorities_across_runs(self):
        # Duplicated priorities scattered over multiple runs and the
        # insertion heap: global pop order must be (priority, arrival).
        pq = ExternalPriorityQueue(memory_entries=4, buffer_entries=2)
        prios = [3, 1, 2, 1, 3, 2, 1, 2, 3, 1, 2, 3] * 8
        expect = sorted(
            ((p, i) for i, p in enumerate(prios)), key=lambda t: (t[0], t[1])
        )
        for i, p in enumerate(prios):
            pq.push(p, data=i)
        assert pq.n_spilled_runs > 2
        assert [pq.pop() for _ in range(len(prios))] == expect

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            ExternalPriorityQueue().pop()

    def test_peek_does_not_remove(self):
        pq = ExternalPriorityQueue()
        pq.push(3, data=33)
        assert pq.peek() == (3, 33)
        assert len(pq) == 1
        assert ExternalPriorityQueue().peek() is None

    def test_pop_all_at(self):
        pq = ExternalPriorityQueue()
        pq.push(1, 100)
        pq.push(2, 200)
        pq.push(1, 101)
        assert pq.pop_all_at(1) == [100, 101]
        assert pq.pop_all_at(1) == []
        assert pq.peek() == (2, 200)

    def test_bad_memory_bound(self):
        with pytest.raises(ValueError):
            ExternalPriorityQueue(memory_entries=1)

    @settings(max_examples=25, deadline=None)
    @given(
        prios=st.lists(st.integers(0, 10**6), min_size=0, max_size=300),
        mem=st.sampled_from([2, 8, 64]),
    )
    def test_property_matches_sorted(self, prios, mem):
        pq = ExternalPriorityQueue(memory_entries=mem, buffer_entries=4)
        for p in prios:
            pq.push(p)
        got = [pq.pop()[0] for _ in range(len(prios))]
        assert got == sorted(prios)


class TestDistributionSort:
    def _sort(self, keys, **kw):
        from repro.tpie import distribution_sort

        bte = MemoryBTE()
        data = batch_of(keys)
        bte.write_all("in", data)
        out, stats = distribution_sort(bte, bte.open("in"), "out", **kw)
        check_sorted_permutation(data, bte.read_all(out))
        return bte, stats

    def test_sorts_random_input(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 2**32 - 1, 3000, dtype=np.uint64)
        _bte, stats = self._sort(keys, memory_records=128, fan_out=4)
        assert stats.n_leaf_buckets > 1
        assert stats.max_depth >= 1

    def test_in_memory_input_no_recursion(self):
        _bte, stats = self._sort([3, 1, 2], memory_records=100)
        assert stats.max_depth == 0
        assert stats.n_leaf_buckets == 1

    def test_all_equal_keys_terminate(self):
        _bte, stats = self._sort([7] * 500, memory_records=50, fan_out=4)
        assert stats.n_leaf_buckets >= 1

    @pytest.mark.parametrize("memory_records", [100, 4])
    def test_equal_keys_keep_input_order(self, memory_records):
        from repro.tpie import distribution_sort

        bte = MemoryBTE()
        data = labelled([7, 3] * 12, range(23, -1, -1))
        bte.write_all("in", data)
        out, _ = distribution_sort(
            bte, bte.open("in"), "out", memory_records=memory_records, fan_out=2
        )
        assert bte.read_all(out).tobytes() == stable_by_key(data).tobytes()

    def test_two_distinct_keys_terminate(self):
        # Sampled splitter may equal the max key: progress guard must fire.
        _bte, stats = self._sort([1] * 300 + [2] * 300, memory_records=50, fan_out=2)

    def test_skewed_input(self):
        rng = np.random.default_rng(12)
        keys = (np.clip(rng.exponential(0.02, 2000), 0, 1) * (2**32 - 1)).astype(np.uint64)
        self._sort(keys, memory_records=100, fan_out=8)

    def test_temporaries_cleaned(self):
        bte, _stats = self._sort(range(1000), memory_records=64, fan_out=4)
        assert bte.list_streams() == ["in", "out"]

    def test_bad_params(self):
        from repro.tpie import distribution_sort

        bte = MemoryBTE()
        bte.write_all("in", batch_of([1]))
        with pytest.raises(ValueError):
            distribution_sort(bte, bte.open("in"), "o", memory_records=0)
        with pytest.raises(ValueError):
            distribution_sort(bte, bte.open("in"), "o", fan_out=1)

    @settings(max_examples=25, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=400),
        mem=st.sampled_from([1, 16, 100]),
        fan=st.sampled_from([2, 8]),
    )
    def test_property_distribution_sort(self, keys, mem, fan):
        self._sort(keys, memory_records=mem, fan_out=fan)
