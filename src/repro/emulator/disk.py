"""Disk model: aggregate sequential transfer rate with read-ahead and
write-behind.

Per §5: "The disk simulation does not model detailed seek and rotational times
because our current experiments perform all I/O sequentially.  The disk
simulation uses a base aggregate transfer rate to calculate elapsed time under
an I/O load, assuming read-ahead and write caching for sequential I/O: the
disk initiates the next I/O automatically, and writes wait only for the
previous write to complete."

We realise this as a service timeline: the disk serves requests back-to-back
at the transfer rate.  A *read* completes (data available) when its transfer
finishes; thanks to the shared timeline, consecutive reads stream at full
rate with no idle gaps (read-ahead).  A *write* returns to the caller as soon
as the previous write has drained (write-behind), while the transfer itself
still occupies the timeline.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..sim import BusyTracker, Simulator

__all__ = ["Disk", "DiskFault", "DiskStats"]


class DiskFault(IOError):
    """Transient read failure raised inside an injected disk-fault window.

    Retryable: the device recovers once the window closes (see
    :func:`repro.resilience.io.read_resilient`).
    """


class DiskStats:
    """I/O accounting: operation and byte counts per direction."""

    __slots__ = ("n_reads", "n_writes", "bytes_read", "bytes_written", "n_read_errors")

    def __init__(self) -> None:
        self.n_reads = 0
        self.n_writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.n_read_errors = 0

    @property
    def n_ops(self) -> int:
        return self.n_reads + self.n_writes

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written


class Disk:
    """Sequential-I/O disk with a single service timeline."""

    def __init__(self, sim: Simulator, rate: float, name: str = "disk"):
        if rate <= 0:
            raise ValueError("disk rate must be positive")
        self.sim = sim
        self.rate = float(rate)
        self.name = name
        #: when the device finishes its currently queued transfers
        self._free_at = 0.0
        #: when the last *write* transfer completes (write-behind horizon)
        self._last_write_done = 0.0
        self.stats = DiskStats()
        self.busy = BusyTracker(sim, name=name, cat="disk")
        #: CPU track of the owning node, for causal I/O flow edges
        #: ("asu0.disk" -> "asu0.cpu")
        self._cpu_track = (
            name[: -len(".disk")] + ".cpu" if name.endswith(".disk") else name
        )
        #: injected transient-read-error windows: list of (t0, t1)
        self._fault_windows: list[tuple[float, float]] = []
        self._m_read = None
        self._m_write = None
        m = sim.metrics
        if m is not None:
            from ..metrics.registry import derive_owner

            owner = derive_owner(name)
            self._m_read = m.counter(
                "repro_disk_bytes_total", owner=owner, node=name, dir="read"
            )
            self._m_write = m.counter(
                "repro_disk_bytes_total", owner=owner, node=name, dir="write"
            )
            m.gauge(
                "repro_disk_utilization",
                fn=lambda t: min(1.0, self.busy.busy_until(t) / t) if t > 0 else 0.0,
                owner=owner,
                node=name,
            )
            # Backlog of reserved-but-unfinished transfer time: how far the
            # service timeline runs ahead of the clock (queueing pressure).
            m.gauge(
                "repro_disk_queue_seconds",
                fn=lambda t: max(0.0, self._free_at - t),
                owner=owner,
                node=name,
            )

    def transfer_time(self, nbytes: int) -> float:
        return float(nbytes) / self.rate

    def transfer_time_batch(self, nbytes):
        """Vectorized :meth:`transfer_time` over a stripe of transfer sizes.

        Bit-identical per element to the scalar path (one IEEE-754 divide by
        the same rate).
        """
        return np.asarray(nbytes, dtype=np.float64) / self.rate

    def _enqueue(self, nbytes: int, op: str) -> tuple[float, float]:
        """Reserve timeline for a transfer; returns (start, finish)."""
        start = max(self.sim.now, self._free_at)
        finish = start + float(nbytes) / self.rate  # transfer_time(), inline
        self._free_at = finish
        # Record the busy span at enqueue time: timeline starts are monotone
        # (and add_interval tolerates overlap regardless).  The span is
        # labelled with the operation so traces distinguish the read stream
        # from write-behind drains.
        if finish > start:
            self.busy.add_interval(start, finish, label=op)
        return start, finish

    def _trace_bytes(self) -> None:
        """Sample cumulative bytes into the tracer (callers test
        ``sim.tracer`` first, so an untraced run never enters here)."""
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.counter(
                self.sim.now, self.name, "bytes", float(self.stats.total_bytes)
            )

    def set_fault_window(self, t0: float, t1: float) -> None:
        """Make reads started in ``[t0, t1)`` raise :class:`DiskFault`."""
        if t1 <= t0:
            raise ValueError(f"empty disk-fault window [{t0}, {t1})")
        self._fault_windows.append((float(t0), float(t1)))

    def _check_fault(self) -> None:
        if not self._fault_windows:
            return
        now = self.sim.now
        for t0, t1 in self._fault_windows:
            if t0 <= now < t1:
                self.stats.n_read_errors += 1
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.instant(now, self.name, "read-error", cat="fault")
                m = self.sim.metrics
                if m is not None:
                    m.counter("repro_disk_read_errors_total", node=self.name).inc()
                raise DiskFault(
                    f"{self.name}: transient read error at t={now:.6f}"
                )

    def read(self, nbytes: int):
        """Process generator: wait until ``nbytes`` have streamed off the disk.

        Raises :class:`DiskFault` (without consuming timeline) when started
        inside an injected fault window.
        """
        if nbytes < 0:
            raise ValueError("negative read size")
        self._check_fault()
        self.stats.n_reads += 1
        self.stats.bytes_read += int(nbytes)
        tracer = self.sim.tracer
        if tracer is not None:
            self._trace_bytes()
        if self._m_read is not None:
            self._m_read.inc(float(nbytes))
        if tracer is not None:
            # Causal issue edge: the caller's CPU activity gates this
            # transfer's place in the disk timeline.
            tracer.flow(self.sim.now, self._cpu_track, self.sim.now,
                        self.name, "read", cat="queue")
        _start, finish = self._enqueue(nbytes, "read")
        if finish > self.sim.now:
            yield self.sim.timeout(finish - self.sim.now)
        if tracer is not None:
            # Completion edge: whoever consumes these bytes was gated by
            # the transfer — lets the critical path cross into disk time.
            tracer.flow(self.sim.now, self.name, self.sim.now,
                        self._cpu_track, "read-done", cat="queue")
        return int(nbytes)

    def write(self, nbytes: int):
        """Process generator: returns once the *previous* write has drained.

        The transfer itself still occupies the disk timeline (so sustained
        write throughput is bounded by the rate), but the caller only blocks
        for the write-behind horizon, matching the paper's model.
        """
        if nbytes < 0:
            raise ValueError("negative write size")
        self.stats.n_writes += 1
        self.stats.bytes_written += int(nbytes)
        tracer = self.sim.tracer
        if tracer is not None:
            self._trace_bytes()
        if self._m_write is not None:
            self._m_write.inc(float(nbytes))
        if tracer is not None:
            tracer.flow(self.sim.now, self._cpu_track, self.sim.now,
                        self.name, "write", cat="queue")
        wait_until = max(self.sim.now, self._last_write_done)
        _start, finish = self._enqueue(nbytes, "write")
        self._last_write_done = finish
        if wait_until > self.sim.now:
            yield self.sim.timeout(wait_until - self.sim.now)
        if tracer is not None:
            # Write-behind: the caller only stalls for the previous write's
            # drain — the completion edge binds to that earlier transfer.
            tracer.flow(self.sim.now, self.name, self.sim.now,
                        self._cpu_track, "write-done", cat="queue")
        return int(nbytes)

    def drain(self):
        """Process generator: wait for all queued transfers to finish.

        Call at the end of a phase so write-behind data is actually on disk
        before the phase is declared complete.
        """
        if self._free_at > self.sim.now:
            yield self.sim.timeout(self._free_at - self.sim.now)

    def utilization(self, t_end: Optional[float] = None) -> float:
        t_end = self.sim.now if t_end is None else t_end
        if t_end <= 0:
            return 0.0
        return min(1.0, self.busy.intervals.busy_in(0.0, t_end) / t_end)

    def __repr__(self) -> str:
        return f"<Disk {self.name} {self.rate / (1 << 20):.0f}MiB/s>"
