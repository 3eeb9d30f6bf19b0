"""The journal seam (repro.dsmsort.journal / repro.recovery.manifest).

*The seam is closed*: after the constructor's one decision the FT engine, both
run-durability layers and the replication manager never ask whether they hold
a manifest, and the null journal answers every call the real one does.  *The
remaining forks are counted*: ROADMAP item 3's fork counts are a table here
that a later PR lowers.  And the check that replaced the hedge digests — a
replay that skips a shipped fragment must have recomputed the same bytes — is
exercised, in plain FT mode.
"""

import dataclasses
import inspect
import re

import pytest

from repro.core.config import DSMConfig
from repro.dsmsort.journal import NO_JOURNAL, NoJournal
from repro.dsmsort.runtime import DsmSortJob
from repro.emulator.params import SystemParams
from repro.faults import FailureDetector, FaultPlan, RandomFaultModel
from repro.recovery import (
    CheckpointError,
    JobSupervisor,
    RecoverableSort,
    RestoredState,
    RunManifest,
    SpeculationPolicy,
)
from repro.replica import ReplicationConfig
from repro.resilience import BreakerBoard, CircuitBreaker, ReliableEndpoint

from .test_transport import SRC, _public_callables

ENGINE_SIDE = [
    "dsmsort/runtime.py", "dsmsort/durability.py",
    *sorted(f"replica/{p.name}" for p in (SRC / "replica").glob("*.py")),
]
JOURNAL_FORKS = re.compile(r"manifest is|\bmani\b|_register_run|_frag_digests")


def _lines_outside_init(rel):
    """(line number, line) of ``rel``, minus ``DsmSortJob.__init__``'s body —
    the one place allowed to look at ``manifest=``."""
    lines = (SRC / rel).read_text().splitlines()
    skip = range(0)
    if rel == "dsmsort/runtime.py":
        body, start = inspect.getsourcelines(DsmSortJob.__init__)
        skip = range(start, start + len(body))
    return [(i, ln) for i, ln in enumerate(lines, 1) if i not in skip]


def _small_job(**kw):
    params = SystemParams(n_hosts=2, n_asus=4, block_records=128)
    return DsmSortJob(
        params, DSMConfig.for_n(1 << 12, alpha=8, gamma=8), policy="sr", seed=3, **kw
    )


class TestSeamRule:
    def test_nothing_past_the_constructor_asks_which_journal_it_holds(self):
        hits = [
            f"{rel}:{i}: {line.strip()}"
            for rel in ENGINE_SIDE
            for i, line in _lines_outside_init(rel)
            if JOURNAL_FORKS.search(line)
        ]
        assert not hits, "\n".join(hits)

    def test_the_null_journal_answers_every_log_point(self):
        null, real = set(_public_callables(NoJournal)), set(_public_callables(RunManifest))
        # Nothing on the null side alone; no log point on the real side alone.
        assert null <= real
        assert {n for n in real if n.startswith("log_")} <= null
        assert null == {
            "bind", "attach_view", "restore_state", "merged_buckets", "new_run",
            "run_length", "log_block", "log_shard_done", "log_run_durable",
            "log_purge_asu", "log_purge_host", "log_pass1_done",
            "log_bucket_merged",
        }

    def test_the_null_journal_is_stateless_and_restores_nothing(self):
        assert NoJournal.__slots__ == () and not hasattr(NO_JOURNAL, "__dict__")
        assert NO_JOURNAL.restore_state() == RestoredState()
        assert NO_JOURNAL.merged_buckets() == {}
        assert NO_JOURNAL.new_run(0, 1, [(0, 0, 1)]) is None
        assert NO_JOURNAL.run_length(700, 512) == 512
        assert RunManifest().run_length(700, 512) == 700

    def test_restore_pass1_without_a_journal_is_a_checkpoint_error(self):
        job = _small_job(faults=FaultPlan())
        assert job._journal is NO_JOURNAL and job.manifest is None
        with pytest.raises(CheckpointError, match="pass-1 completion"):
            job.restore_pass1()
        assert issubclass(CheckpointError, RuntimeError)


#: layer forks left in the FT engine, per file: {pattern: max count}.  A PR
#: that peels a layer lowers its row; none may raise one.
FORK_RATCHET = {
    "dsmsort/runtime.py": {
        r"view is (not )?None": 0, r"self\.speculation is": 1, r"manifest is": 0,
    },
    "dsmsort/durability.py": {r"view is (not )?None": 0, r"manifest is": 0},
    "replica/manager.py": {r"view is (not )?None": 0, r"manifest is": 0},
    "replica/durability.py": {r"view is (not )?None": 0, r"manifest is": 0},
}


class TestForkRatchet:
    @pytest.mark.parametrize("rel", FORK_RATCHET)
    def test_fork_counts_do_not_grow(self, rel):
        lines = [line for _i, line in _lines_outside_init(rel)]
        counts = {
            pat: sum(bool(re.search(pat, line)) for line in lines)
            for pat in FORK_RATCHET[rel]
        }
        assert all(counts[pat] <= cap for pat, cap in FORK_RATCHET[rel].items()), counts


#: parameters each fault-tolerance constructor takes (a dataclass's fields).
#: Compared with ``==``: an option nobody varies is a constant, so adding one
#: — or regrouping options into a config object — means editing this row.
OPTION_RATCHET = {
    FailureDetector: 4, DsmSortJob: 23, RandomFaultModel: 13,
    SpeculationPolicy: 4, ReplicationConfig: 3, RecoverableSort: 9,
    JobSupervisor: 3, CircuitBreaker: 3, BreakerBoard: 2, ReliableEndpoint: 6,
}


def _n_options(cls) -> int:
    if dataclasses.is_dataclass(cls):
        return len(dataclasses.fields(cls))
    return len(inspect.signature(cls).parameters)


class TestOptionRatchet:
    @pytest.mark.parametrize("cls", OPTION_RATCHET, ids=lambda c: c.__name__)
    def test_option_count_is_pinned(self, cls):
        assert _n_options(cls) == OPTION_RATCHET[cls]

    def test_the_stack_takes_seventy_options(self):
        assert sum(map(_n_options, OPTION_RATCHET)) == 70


class TestDivergentReplay:
    """A replay (hedge or takeover) skips fragments whose ship marker is set;
    the marker retains the shipped piece, and the skip compares bytes."""

    def _redrive(self, job, shard, block):
        plat, params = job.platform, job.params
        job._blocks_complete.discard((shard, block))
        plat.spawn(
            job._produce_shard_ft(
                plat, shard, shard, params.block_records, params.schema.record_size
            ),
            name="redrive", node=plat.asus[shard],
        )
        plat.sim.run(until=plat.sim.now + 1.0)

    def test_a_faithful_replay_skips_and_a_divergent_one_raises(self):
        job = _small_job(faults=FaultPlan())
        assert job.run_pass1().completed
        key = shard, block, _bucket = min(job._shipped)
        n_posted = job.platform.network.n_messages
        self._redrive(job, shard, block)
        assert (shard, block) in job._blocks_complete
        assert job.platform.network.n_messages == n_posted  # all skipped
        forged = job._shipped[key].copy()
        forged["key"][0] ^= 1
        job._shipped[key] = forged
        with pytest.raises(RuntimeError, match="different content"):
            self._redrive(job, shard, block)

    def test_journal_restored_coverage_has_no_piece_to_compare(self):
        manifest = RunManifest()
        first = _small_job(manifest=manifest)
        first.run_pass1()
        resumed = _small_job(manifest=manifest)
        assert resumed.run_pass1().completed
        assert resumed._shipped and set(resumed._shipped.values()) == {None}
