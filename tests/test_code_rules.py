"""Grep rules over ``src/``: one owner for the run-to-end loop, one for
canonical JSON, and one writer of a tracer's recorded rows.

Each rule names the only files allowed to spell a construct; a new hit
anywhere else fails here, pointing at the shared helper to call instead.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: construct -> the files (relative to ``src/repro``) that may spell it
RULES = {
    # Stopping the clock when awaited processes finish is
    # ``ActivePlatform.run(wait_for=..., until=...)``.
    "sim.all_of(": lambda rel: rel.startswith("sim/") or rel == "emulator/platform.py",
    # Canonical JSON is ``repro.util.canonical.canonical_json``.
    "sort_keys=True": lambda rel: rel == "util/canonical.py",
}


@pytest.mark.parametrize("needle", RULES)
def test_construct_appears_only_where_allowed(needle):
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if RULES[needle](rel):
            continue
        hits += [
            f"{rel}:{i}: {line.strip()}"
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if needle in line
        ]
    assert not hits, "\n".join(hits)


def test_rules_are_not_vacuous():
    # Each construct still exists where it is allowed, so a rename of the
    # helper cannot leave a rule guarding nothing.
    assert "sim.all_of(" in (SRC / "emulator/platform.py").read_text()
    assert "sort_keys=True" in (SRC / "util/canonical.py").read_text()


#: a mutating use of a tracer's row views (``Tracer.spans`` and friends are
#: cached views of the flat rows, returned uncopied)
TRACER_VIEW_MUTATION = re.compile(
    r"\.(spans|instants|counters|flows)"
    r"(\.(append|extend|insert|pop|remove|clear|sort|reverse)\("
    r"|\[[^\]]*\]\s*=[^=]|\s*\+=)"
    r"|\bdel\s+[\w.]*\.(spans|instants|counters|flows)\["
)


def test_only_the_tracer_writes_its_rows():
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "trace/tracer.py":
            continue
        hits += [
            f"{rel}:{i}: {line.strip()}"
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if TRACER_VIEW_MUTATION.search(line)
        ]
    assert not hits, "\n".join(hits)


@pytest.mark.parametrize("line, mutates", [
    ("tracer.spans.append(row)", True),
    ("tr.flows.sort(key=f)", True),
    ("self.tracer.counters.clear()", True),
    ("tracer.instants[0] = row", True),
    ("tracer.spans += rows", True),
    ("del tracer.spans[3:]", True),
    ("for s in tracer.spans:", False),
    ("n = len(tracer.counters)", False),
    ("if tracer.spans[0] == row:", False),
    ("**self._net.counters(),", False),
])
def test_the_tracer_row_rule_tells_reads_from_writes(line, mutates):
    assert bool(TRACER_VIEW_MUTATION.search(line)) is mutates
