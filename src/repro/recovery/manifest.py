"""The write-ahead run manifest: durable DSM-Sort progress, charged I/O.

The manifest is the job's recovery journal.  It records, as append-only
entries, everything a resumed attempt needs to avoid redoing work:

* ``block`` — a distribute block finished shipping: shard, block index, and
  the (bucket, record-count) list of every nonempty fragment it produced;
* ``shard`` — a shard's distribute finished (its EOF was broadcast);
* ``run`` — a sorted run became *durable* on an ASU: emitting host, bucket,
  destination ASU, record count, content digest, and the exact fragment keys
  the run covers (its lineage).  Re-replication after an ASU death logs the
  same run id again with the new destination;
* ``purge_asu`` / ``purge_host`` — a fail-stop revoked every live run on /
  from that device (mirrors the in-memory purge at the crash instant);
* ``pass1`` — run formation completed (with its makespan);
* ``bucket`` — a pass-2 bucket was fully merged (the merge frontier), with
  the final payload's digest.

Durability model: entries are durable the moment they are logged (an
idealized journal device — think NVRAM or a synchronous log disk), but the
journal *I/O time is still charged*: a writer process bound to the platform
batches pending entry bytes through an alive ASU's emulated disk
(write-behind), so checkpointing shows up in the simulated makespan.  Run
payloads live in an in-manifest :class:`dict` keyed by run id — the model
for data that is already on surviving platters when the coordinator dies.

The crash model this supports is a *coordinator* crash: all volatile job
state (host buffers, in-flight messages, ship markers) is lost; the manifest
and the payloads it references survive.  :meth:`RunManifest.restore_state`
replays the entries into exactly the bookkeeping a fresh
:class:`~repro.dsmsort.DsmSortJob` needs to resume — with every restored
payload digest-verified first.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..util.canonical import canonical_json

__all__ = ["RunManifest", "RestoredState", "CheckpointError", "digest_records"]

#: the fields every journal entry of each ``op`` carries, with their JSON
#: types, checked on load so a hollow or mistyped entry fails in
#: :meth:`RunManifest.from_json`, not mid-restore (an ``int`` field refuses a
#: ``bool``, a ``float`` one a non-finite value).  A ``run`` entry may also
#: carry the ``epoch`` its view accepted it under.
_ENTRY_FIELDS = {
    "run": {"rid": int, "host": int, "bucket": int, "dest": int, "n": int,
            "digest": str, "frags": list},
    "block": {"shard": int, "block": int, "frags": list},
    "shard": {"shard": int, "n_blocks": int},
    "purge_asu": {"d": int},
    "purge_host": {"h": int},
    "pass1": {"makespan": float},
    "bucket": {"rid": int, "bucket": int, "n": int, "digest": str},
}


class CheckpointError(RuntimeError):
    """A manifest invariant failed (digest mismatch, missing payload, ...)."""


def digest_records(arr: np.ndarray) -> str:
    """Content digest of a record batch (order-sensitive, byte-exact)."""
    return hashlib.sha1(arr.tobytes()).hexdigest()


@dataclass
class RestoredState:
    """What a replayed manifest says about a (possibly interrupted) run."""

    #: live durable runs in durability order: (rid, host, bucket, dest, payload)
    live_runs: list[tuple[int, int, int, int, np.ndarray]] = field(default_factory=list)
    #: fragment keys (shard, block, bucket) covered by live runs
    covered: set = field(default_factory=set)
    #: blocks whose every nonempty fragment is covered (safe to skip reading)
    blocks_complete: set = field(default_factory=set)
    #: per-block fragment layouts seen so far: (shard, block) -> [(bucket, n)]
    block_frags: dict = field(default_factory=dict)
    #: shards whose distribute fully completed (EOF broadcast)
    shards_done: set = field(default_factory=set)
    #: records held by live runs
    n_durable: int = 0
    pass1_done: bool = False
    pass1_makespan: float = 0.0
    #: pass-2 merge frontier: bucket -> final merged payload
    merged: dict = field(default_factory=dict)


class RunManifest:
    """Append-only job journal + durable run payload store.

    One manifest spans every attempt of one logical job: the first attempt
    starts it empty, each crash leaves it holding the durable frontier, and
    each resumed attempt binds it to the new platform and appends more.
    """

    def __init__(self):
        self.entries: list[dict] = []
        self._payloads: dict[int, np.ndarray] = {}
        self._next_rid = 0
        #: in-memory (volatile) metadata for emitted-but-not-yet-durable
        #: runs: rid -> (host, bucket, frag_keys).  Rebuilt per attempt.
        self._runs_meta: dict[int, tuple[int, int, list]] = {}
        self._logged_blocks: set = set()
        self._logged_shards: set = set()
        #: total journal bytes appended (also what gets charged to disk)
        self.bytes_logged = 0
        # -- platform binding (charging) --
        self._plat = None
        self._preferred_asu = 0
        self._pending_bytes = 0
        self._kick = None
        #: membership view fencing journal appends (None = fail-stop trust)
        self._view = None

    def attach_view(self, view) -> None:
        """Fence run-durability appends with a membership view.

        With a view attached, :meth:`log_run_durable` validates the
        destination ASU's epoch before journalling (raising
        :class:`~repro.faults.errors.StaleEpochError` for an expelled
        writer) and stamps each ``run`` entry with the epoch it was
        accepted under, so the journal records *which view* vouched for
        every durable run.  Without a view the journal format is unchanged
        byte-for-byte.
        """
        self._view = view

    # ------------------------------------------------------------- charging
    def bind(self, plat, asu_index: int = 0) -> None:
        """Attach the journal writer to ``plat`` (idempotent per platform).

        Spawns an unbound background process that batches pending entry
        bytes through the first alive ASU's disk (starting the search at
        ``asu_index``), so manifest I/O consumes simulated disk time without
        blocking the append path (group-commit write-behind).
        """
        if self._plat is plat:
            return
        self._plat = plat
        self._preferred_asu = asu_index
        self._pending_bytes = 0
        self._kick = None
        plat.spawn(self._writer(plat), name="manifest.wal")

    def _writer(self, plat):
        from ..sim import Event

        while True:
            if self._pending_bytes <= 0:
                ev = Event(plat.sim)
                self._kick = ev
                yield ev
                self._kick = None
            nbytes, self._pending_bytes = self._pending_bytes, 0
            disk = self._pick_disk(plat)
            if disk is not None and nbytes > 0:
                yield from disk.write(nbytes)

    def _pick_disk(self, plat):
        D = len(plat.asus)
        for step in range(D):
            asu = plat.asus[(self._preferred_asu + step) % D]
            if asu.alive:
                return asu.disk
        return None

    def _append(self, entry: dict) -> None:
        line = canonical_json(entry)
        self.entries.append(entry)
        nbytes = len(line) + 1
        self.bytes_logged += nbytes
        if self._plat is not None:
            self._pending_bytes += nbytes
            if self._kick is not None and not self._kick.triggered:
                self._kick.succeed()

    # ------------------------------------------------------------ log points
    def new_rid(self) -> int:
        rid = self._next_rid
        self._next_rid += 1
        return rid

    def register_run(self, rid: int, host: int, bucket: int, frag_keys: list) -> None:
        """Volatile pre-registration of an emitted run's lineage.

        Called in the host's atomic emit region; becomes durable only when
        :meth:`log_run_durable` fires for the same ``rid``.  A coordinator
        crash in between simply forgets the run — its fragments stay
        uncovered and are re-shipped on resume.
        """
        self._runs_meta[rid] = (int(host), int(bucket), [tuple(k) for k in frag_keys])

    def new_run(self, host: int, bucket: int, frag_keys: list) -> int:
        """Journal id for a run about to be posted, its lineage registered
        (the engine's one call; see :mod:`repro.dsmsort.journal`)."""
        rid = self.new_rid()
        self.register_run(rid, host, bucket, frag_keys)
        return rid

    def run_length(self, buffered: int, beta: int) -> int:
        """Where a host cuts a buffer that reached ``beta`` records: the
        whole buffer.  Fragments never split across runs, so a run's lineage
        is an exact fragment-key list and restore coverage is exact; sizes
        stay within [beta, beta + max fragment)."""
        return buffered

    def log_run_durable(self, rid: int, dest: int, payload: np.ndarray) -> None:
        """A run's disk write completed on ASU ``dest``: journal + store it."""
        meta = self._runs_meta.get(rid)
        if meta is None:
            raise CheckpointError(f"run rid={rid} became durable but was never registered")
        host, bucket, frag_keys = meta
        entry = {
            "op": "run", "rid": rid, "host": host, "bucket": bucket,
            "dest": int(dest), "n": int(payload.shape[0]),
            "digest": digest_records(payload),
            "frags": [list(k) for k in frag_keys],
        }
        if self._view is not None:
            # Fenced append: an expelled dest raises StaleEpochError before
            # anything is journalled; accepted entries record their epoch.
            entry["epoch"] = self._view.validate(
                f"asu{int(dest)}", op="manifest append"
            )
        self._payloads[rid] = payload
        self._append(entry)

    def log_block(self, shard: int, block: int, frags: list) -> None:
        """Distribute block ``(shard, block)`` finished shipping.

        ``frags`` lists every nonempty fragment the block produces as
        (bucket, n) pairs — the full layout, not just what this attempt
        shipped, so restore can decide block completeness exactly.
        """
        key = (int(shard), int(block))
        if key in self._logged_blocks:
            return
        self._logged_blocks.add(key)
        self._append({
            "op": "block", "shard": key[0], "block": key[1],
            "frags": [[int(b), int(n)] for b, n in frags],
        })

    def log_shard_done(self, shard: int, n_blocks: int) -> None:
        shard = int(shard)
        if shard in self._logged_shards:
            return
        self._logged_shards.add(shard)
        self._append({"op": "shard", "shard": shard, "n_blocks": int(n_blocks)})

    def log_purge_asu(self, d: int) -> None:
        self._append({"op": "purge_asu", "d": int(d)})

    def log_purge_host(self, h: int) -> None:
        self._append({"op": "purge_host", "h": int(h)})

    def log_pass1_done(self, makespan: float) -> None:
        if self.pass1_complete():
            return
        self._append({"op": "pass1", "makespan": float(makespan)})

    def log_bucket_merged(self, bucket: int, payload: np.ndarray) -> None:
        rid = self.new_rid()
        self._payloads[rid] = payload
        self._append({
            "op": "bucket", "rid": rid, "bucket": int(bucket),
            "n": int(payload.shape[0]), "digest": digest_records(payload),
        })

    # -------------------------------------------------------------- queries
    def pass1_complete(self) -> bool:
        return any(e["op"] == "pass1" for e in self.entries)

    def merged_buckets(self) -> dict[int, np.ndarray]:
        """Pass-2 merge frontier: bucket -> digest-verified final payload."""
        out: dict[int, np.ndarray] = {}
        for e in self.entries:
            if e["op"] != "bucket":
                continue
            payload = self._require_payload(e)
            out[int(e["bucket"])] = payload
        return out

    def _require_payload(self, e: dict) -> np.ndarray:
        rid = e["rid"]
        payload = self._payloads.get(rid)
        if payload is None:
            raise CheckpointError(f"manifest entry references missing payload rid={rid}")
        if int(payload.shape[0]) != int(e["n"]) or digest_records(payload) != e["digest"]:
            raise CheckpointError(
                f"digest mismatch for rid={rid}: stored payload does not "
                f"match the journaled content digest"
            )
        return payload

    def restore_state(self) -> RestoredState:
        """Replay the journal into resumable job state (digest-verified).

        Also re-registers every live run's lineage in :attr:`_runs_meta`
        so a resumed attempt can re-replicate restored runs if their ASU
        later dies.
        """
        live: dict[int, dict] = {}  # rid -> latest run entry, insertion-ordered
        state = RestoredState()
        for e in self.entries:
            op = e["op"]
            if op == "run":
                # Latest entry wins (re-replication changes dest); move the
                # rid to the end to mirror in-memory durability order.
                live.pop(e["rid"], None)
                live[e["rid"]] = e
            elif op == "purge_asu":
                live = {r: en for r, en in live.items() if en["dest"] != e["d"]}
            elif op == "purge_host":
                live = {r: en for r, en in live.items() if en["host"] != e["h"]}
            elif op == "block":
                state.block_frags[(e["shard"], e["block"])] = [
                    (b, n) for b, n in e["frags"]
                ]
            elif op == "shard":
                state.shards_done.add(e["shard"])
            elif op == "pass1":
                state.pass1_done = True
                state.pass1_makespan = e["makespan"]
            elif op == "bucket":
                state.merged[int(e["bucket"])] = self._require_payload(e)
        for rid, e in live.items():
            payload = self._require_payload(e)
            frag_keys = [tuple(k) for k in e["frags"]]
            state.live_runs.append((rid, e["host"], e["bucket"], e["dest"], payload))
            state.covered.update(frag_keys)
            state.n_durable += int(e["n"])
            self._runs_meta[rid] = (e["host"], e["bucket"], frag_keys)
        for (shard, block), frags in state.block_frags.items():
            if all((shard, block, b) in state.covered for b, _n in frags):
                state.blocks_complete.add((shard, block))
        return state

    def check_no_duplicate_coverage(self) -> int:
        """Assert no fragment key is covered by two live runs; returns the
        number of live fragment keys.  (The duplicate-record sentinel used
        by the speculation and chaos tests.)"""
        state = self.restore_state()
        seen: set = set()
        n = 0
        for rid, _h, _b, _d, _payload in state.live_runs:
            _host, _bucket, frag_keys = self._runs_meta[rid]
            for k in frag_keys:
                if k in seen:
                    raise CheckpointError(
                        f"fragment {k} is covered by more than one live run "
                        f"(duplicate records)"
                    )
                seen.add(k)
                n += 1
        return n

    def report(self) -> dict:
        """Small deterministic summary for CLIs and tests."""
        state = self.restore_state()
        return {
            "n_entries": len(self.entries),
            "bytes_logged": self.bytes_logged,
            "n_live_runs": len(state.live_runs),
            "n_durable_records": state.n_durable,
            "n_blocks_logged": len(state.block_frags),
            "n_blocks_complete": len(state.blocks_complete),
            "n_shards_done": len(state.shards_done),
            "pass1_done": state.pass1_done,
            "n_buckets_merged": len(state.merged),
        }

    # -------------------------------------------------------- serialization
    def to_json(self) -> str:
        """Canonical JSON snapshot: the strict checkpoint-restore format.

        Deterministic for identical manifests, so two runs that reached the
        same frontier serialize byte-identically.
        """
        payloads = {}
        for rid in sorted(self._payloads):
            arr = self._payloads[rid]
            payloads[str(rid)] = {
                "dtype": [[name, spec] for name, spec in arr.dtype.descr],
                "data": base64.b64encode(arr.tobytes()).decode("ascii"),
            }
        return canonical_json({
            "format": "repro.recovery.manifest/1",
            "next_rid": self._next_rid,
            "entries": self.entries,
            "payloads": payloads,
        })

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_json` output.

        Anything else — truncated or non-object JSON, a missing or mistyped
        field, an entry of unknown ``op``, without its op's fields or with
        one of the wrong type, a payload that is not strict base64 or not a
        whole number of records — raises :class:`CheckpointError`, never a
        bare parse error.
        """
        try:
            doc = json.loads(text)
            if doc.get("format") != "repro.recovery.manifest/1":
                raise CheckpointError(
                    f"unrecognized manifest format: {doc.get('format')!r}"
                )
            m = cls()
            m.entries = list(doc["entries"])
            m._next_rid = int(doc["next_rid"])
            for rid_s, spec in doc["payloads"].items():
                dtype = np.dtype([(name, s) for name, s in spec["dtype"]])
                raw = base64.b64decode(spec["data"], validate=True)
                m._payloads[int(rid_s)] = np.frombuffer(raw, dtype=dtype).copy()
            # Rebuild the in-memory dedupe caches from the journal.
            for e in m.entries:
                op = e["op"]
                if op not in _ENTRY_FIELDS:
                    raise CheckpointError(f"malformed manifest: unknown entry op {op!r}")
                fields = _ENTRY_FIELDS[op]
                missing = sorted(fields.keys() - e.keys())
                if missing:
                    raise CheckpointError(
                        f"malformed manifest: {op!r} entry lacks {', '.join(missing)}"
                    )
                mistyped = sorted(
                    f for f, t in fields.items()
                    if type(e[f]) is not t or (t is float and not math.isfinite(e[f]))
                )
                if mistyped:
                    raise CheckpointError(
                        f"malformed manifest: {op!r} entry has mistyped "
                        f"{', '.join(mistyped)}"
                    )
                if op == "block":
                    m._logged_blocks.add((e["shard"], e["block"]))
                elif op == "shard":
                    m._logged_shards.add(e["shard"])
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            # JSONDecodeError and binascii.Error are ValueErrors.
            raise CheckpointError(
                f"malformed manifest: {type(exc).__name__}: {exc}"
            ) from exc
        m.bytes_logged = sum(
            len(canonical_json(e)) + 1
            for e in m.entries
        )
        return m
