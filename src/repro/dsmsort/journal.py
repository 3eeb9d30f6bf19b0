"""The journal seam: what a job records about its progress, and the null side.

``DsmSortJob.__init__`` decides once — ``job._journal`` is the caller's
:class:`~repro.recovery.manifest.RunManifest`, or :data:`NO_JOURNAL` — and the
engine, both run-durability layers and the ``ReplicationManager`` then call
the same log points without asking which they hold:

- ``bind(plat)`` charges journal I/O to a platform; ``attach_view(view)``
  fences appends by membership epoch;
- ``restore_state()`` -> ``RestoredState`` (empty here, so the restore paths
  run unconditionally); ``merged_buckets()`` -> pass 2's merge frontier;
- ``new_run(host, bucket, frag_keys)`` -> the run's journal id, or ``None``:
  an unjournaled run carries no id on the wire, and the data tests on the id
  (``rid is not None``, ``len(payload) > 3``) stay the only ones;
- ``log_block / log_shard_done / log_run_durable / log_purge_asu /
  log_purge_host / log_pass1_done / log_bucket_merged``: the append points;
- ``run_length(buffered, beta)``: where a host cuts a full buffer.  A journal
  records a run's lineage as an exact fragment-key list, so it takes the whole
  buffer (fragments never split across runs); with no lineage to record the
  cut is exactly ``beta``.

The null side lives here, not in :mod:`repro.recovery`, whose package import
reaches back into the runtime.  It is stateless, so one module-level instance
serves every job: no per-job object, no back-reference (DESIGN.md decision 6).
See docs/RECOVERY.md, "The journal seam".
"""

from __future__ import annotations

__all__ = ["NoJournal", "NO_JOURNAL"]


class NoJournal:
    """Records nothing, restores nothing, cuts runs at exactly ``beta``."""

    __slots__ = ()

    def _ignore(self, *_args, **_kwargs) -> None:
        return None

    bind = attach_view = new_run = _ignore
    log_block = log_shard_done = log_run_durable = _ignore
    log_purge_asu = log_purge_host = log_pass1_done = log_bucket_merged = _ignore

    def restore_state(self):
        from ..recovery.manifest import RestoredState  # one source of field names

        return RestoredState()

    def merged_buckets(self) -> dict:
        return {}

    def run_length(self, buffered: int, beta: int) -> int:
        return beta


NO_JOURNAL = NoJournal()
