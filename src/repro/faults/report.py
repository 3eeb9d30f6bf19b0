"""Injected vs. detected vs. recovered accounting for a faulted run.

A :class:`FaultReport` joins the injector's fired-fault log, the detector's
declaration times, and the workload's recovery log (when it keeps one, e.g.
:class:`~repro.dsmsort.runtime.DsmSortRun` in fault-tolerant mode) into one
summary: per-crash detection latency and MTTR, plus event counts by kind.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .detector import FailureDetector
from .injector import FAULT_KINDS, Fault, Injector

__all__ = ["FaultReport"]


class FaultReport:
    """Summary of one faulted run."""

    def __init__(
        self,
        injected: list[Fault],
        skipped: list[Fault],
        detected: Mapping[str, float],
        recovered_at: Optional[Mapping[str, float]] = None,
    ):
        self.injected = list(injected)
        self.skipped = list(skipped)
        self.detected = dict(detected)
        self.recovered_at = dict(recovered_at or {})

    @classmethod
    def from_run(
        cls,
        injector: Injector,
        detector: FailureDetector,
        recovered_at: Optional[Mapping[str, float]] = None,
    ) -> "FaultReport":
        return cls(injector.injected, injector.skipped, detector.detected, recovered_at)

    # -- derived ---------------------------------------------------------------
    def crash_rows(self) -> list[list]:
        """One row per injected crash: node, t_fault, t_detect, latency,
        t_recovered, MTTR (detection-to-recovery).  A coordinator crash kills
        no device, so it has no row."""
        rows = []
        for f in self.injected:
            row = FAULT_KINDS[f.kind]
            if not row.crash or row.target == "job":
                continue
            nid = f"{row.target}{f.index}"
            t_det = self.detected.get(nid)
            t_rec = self.recovered_at.get(nid)
            rows.append([
                nid,
                f.t,
                t_det if t_det is not None else "-",
                (t_det - f.t) if t_det is not None else "-",
                t_rec if t_rec is not None else "-",
                (t_rec - t_det) if (t_rec is not None and t_det is not None) else "-",
            ])
        return rows

    def counts(self) -> dict[str, int]:
        return {
            "injected": len(self.injected),
            "skipped": len(self.skipped),
            "crashes": len(self.crash_rows()),
            "detected": len(self.detected),
            "recovered": len(self.recovered_at),
        }

    def mean_detection_latency(self) -> Optional[float]:
        lats = [
            r[3] for r in self.crash_rows() if not isinstance(r[3], str)
        ]
        return sum(lats) / len(lats) if lats else None

    def mean_mttr(self) -> Optional[float]:
        """Mean time from detection to recovery, over recovered crashes."""
        ts = [r[5] for r in self.crash_rows() if not isinstance(r[5], str)]
        return sum(ts) / len(ts) if ts else None

    def render(self) -> str:
        # Imported here: repro.bench pulls in the figure benches, which import
        # the dsmsort runtime, which imports this package.
        from ..bench.report import render_table

        c = self.counts()
        lines = [
            f"faults: {c['injected']} injected ({c['crashes']} crashes), "
            f"{c['skipped']} skipped, {c['detected']} detected, "
            f"{c['recovered']} recovered"
        ]
        rows = self.crash_rows()
        if rows:
            lines.append(
                render_table(
                    ["node", "t_fault", "t_detect", "latency", "t_recover", "mttr"],
                    rows,
                )
            )
        lat = self.mean_detection_latency()
        mttr = self.mean_mttr()
        if lat is not None:
            lines.append(f"mean detection latency {lat:.3f}s")
        if mttr is not None:
            lines.append(f"mean MTTR {mttr:.3f}s")
        return "\n".join(lines)

    def __repr__(self) -> str:
        c = self.counts()
        return (
            f"<FaultReport injected={c['injected']} detected={c['detected']} "
            f"recovered={c['recovered']}>"
        )
