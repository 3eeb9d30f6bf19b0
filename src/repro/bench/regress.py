"""Perf-regression gate: compare fresh ``BENCH_*.json`` against baselines.

The bench harness (see :func:`repro.bench.report.write_bench_json`) emits one
canonical-JSON payload per figure.  The emulation is deterministic, so a
committed snapshot under ``benchmarks/baseline/`` pins every makespan,
speedup, and imbalance the suite produces; this module re-compares a fresh
run against those snapshots and fails CI when any number drifts beyond
tolerance.

Comparison rules:

* ``schema_version`` must match :data:`repro.bench.report.SCHEMA_VERSION`
  exactly on both sides — mismatched layouts are a gate failure, not a diff.
* numbers compare with relative tolerance (``--rtol``, default 2%) plus an
  absolute floor (``--atol``) for values near zero; a non-finite number
  matches only the same infinity, and a NaN never matches (the tolerance
  test alone would pass it, being False whenever either side is NaN);
* files are parsed strictly: :func:`repro.bench.report.canonical_json` never
  writes ``NaN`` or ``Infinity``, so a file holding one is malformed, not a
  diff (``ValueError``; exit status 2 from the CLI);
* strings, booleans and nulls compare exactly;
* lists compare element-wise (length mismatch fails);
* dicts compare key-wise (a key present on only one side fails);
* a baseline file with no fresh counterpart fails (the bench silently
  disappeared); a fresh file with no baseline is reported as *new* and
  passes, so adding a benchmark does not require a two-step dance.

Run as ``python -m repro.bench.regress --candidate <dir>`` (exit status 1 on
any regression, 2 on a missing baseline directory or a malformed file), or
call :func:`compare_payloads` / :func:`compare_dirs` directly from tests.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Iterator, Optional

from .report import SCHEMA_VERSION

__all__ = [
    "Diff",
    "RegressReport",
    "compare_values",
    "compare_payloads",
    "compare_dirs",
    "main",
]

DEFAULT_RTOL = 0.02
DEFAULT_ATOL = 1e-9


@dataclass(frozen=True)
class Diff:
    """One out-of-tolerance difference between baseline and candidate."""

    path: str
    baseline: object
    candidate: object
    note: str = ""

    def render(self) -> str:
        extra = f"  ({self.note})" if self.note else ""
        return f"  {self.path}: baseline={self.baseline!r} candidate={self.candidate!r}{extra}"


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare_values(
    base,
    cand,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    path: str = "$",
) -> Iterator[Diff]:
    """Yield a :class:`Diff` for every out-of-tolerance leaf under ``path``."""
    if _is_number(base) and _is_number(cand):
        if not (math.isfinite(base) and math.isfinite(cand)):
            if base != cand:
                yield Diff(path, base, cand, note="non-finite")
            return
        err = abs(cand - base)
        if err > atol + rtol * abs(base):
            rel = err / abs(base) if base else float("inf")
            yield Diff(path, base, cand, note=f"rel err {rel:.4f} > rtol {rtol}")
        return
    if type(base) is not type(cand):
        yield Diff(path, base, cand, note="type mismatch")
        return
    if isinstance(base, dict):
        for k in sorted(set(base) | set(cand)):
            sub = f"{path}.{k}"
            if k not in cand:
                yield Diff(sub, base[k], None, note="missing from candidate")
            elif k not in base:
                yield Diff(sub, None, cand[k], note="missing from baseline")
            else:
                yield from compare_values(base[k], cand[k], rtol, atol, sub)
        return
    if isinstance(base, list):
        if len(base) != len(cand):
            yield Diff(
                path, f"<{len(base)} items>", f"<{len(cand)} items>",
                note="length mismatch",
            )
            return
        for i, (b, c) in enumerate(zip(base, cand)):
            yield from compare_values(b, c, rtol, atol, f"{path}[{i}]")
        return
    if base != cand:
        yield Diff(path, base, cand)


def compare_payloads(
    base: dict,
    cand: dict,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> list[Diff]:
    """Compare two bench payloads; schema versions are checked first."""
    diffs: list[Diff] = []
    for side, payload in (("baseline", base), ("candidate", cand)):
        v = payload.get("schema_version")
        if v != SCHEMA_VERSION:
            diffs.append(
                Diff(
                    "$.schema_version", SCHEMA_VERSION, v,
                    note=f"{side} schema_version {v!r} != supported {SCHEMA_VERSION}",
                )
            )
    if diffs:
        return diffs
    return list(compare_values(base, cand, rtol, atol))


@dataclass
class RegressReport:
    """Outcome of a directory-level comparison."""

    compared: list[str]
    new: list[str]
    missing: list[str]
    #: bench name -> out-of-tolerance diffs (only names with failures)
    failures: dict[str, list[Diff]]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.missing

    def render(self) -> str:
        lines = []
        for name in self.compared:
            if name in self.failures:
                diffs = self.failures[name]
                lines.append(f"FAIL {name}: {len(diffs)} difference(s)")
                lines += [d.render() for d in diffs[:20]]
                if len(diffs) > 20:
                    lines.append(f"  ... and {len(diffs) - 20} more")
            else:
                lines.append(f"ok   {name}")
        for name in self.new:
            lines.append(f"new  {name}: no baseline (passes; commit one to pin it)")
        for name in self.missing:
            lines.append(f"FAIL {name}: baseline exists but candidate was not produced")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"{verdict}: {len(self.compared)} compared, "
            f"{len(self.failures)} regressed, {len(self.new)} new, "
            f"{len(self.missing)} missing"
        )
        return "\n".join(lines)


def _bench_files(dirname: str) -> dict[str, str]:
    return {
        os.path.basename(p): p
        for p in sorted(glob.glob(os.path.join(dirname, "BENCH_*.json")))
    }


def _load_strict(path: str):
    """Parse one bench file, refusing the non-standard ``NaN``/``Infinity``."""

    def refuse(token):
        raise ValueError(f"{path}: non-finite number {token} in bench JSON")

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


def compare_dirs(
    baseline_dir: str,
    candidate_dir: str,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> RegressReport:
    """Compare every ``BENCH_*.json`` under two directories.

    Raises ``ValueError`` naming the file when either side holds a ``NaN``
    or ``Infinity`` literal.
    """
    base_files = _bench_files(baseline_dir)
    cand_files = _bench_files(candidate_dir)
    report = RegressReport(compared=[], new=[], missing=[], failures={})
    for name, cpath in cand_files.items():
        if name not in base_files:
            report.new.append(name)
            continue
        report.compared.append(name)
        base = _load_strict(base_files[name])
        cand = _load_strict(cpath)
        diffs = compare_payloads(base, cand, rtol, atol)
        if diffs:
            report.failures[name] = diffs
    report.missing = [n for n in base_files if n not in cand_files]
    return report


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.bench.regress",
        description="Compare fresh BENCH_*.json files against committed baselines.",
    )
    ap.add_argument(
        "--baseline", default="benchmarks/baseline",
        help="directory holding the committed baseline snapshots",
    )
    ap.add_argument(
        "--candidate", default=".",
        help="directory holding the freshly emitted BENCH_*.json files",
    )
    ap.add_argument(
        "--rtol", type=float, default=DEFAULT_RTOL,
        help=f"relative tolerance per numeric leaf (default {DEFAULT_RTOL})",
    )
    ap.add_argument(
        "--atol", type=float, default=DEFAULT_ATOL,
        help=f"absolute tolerance floor for near-zero values (default {DEFAULT_ATOL})",
    )
    args = ap.parse_args(argv)
    if not os.path.isdir(args.baseline):
        print(f"regress: baseline directory {args.baseline!r} not found", file=sys.stderr)
        return 2
    try:
        report = compare_dirs(
            args.baseline, args.candidate, rtol=args.rtol, atol=args.atol
        )
    except ValueError as exc:
        print(f"regress: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
