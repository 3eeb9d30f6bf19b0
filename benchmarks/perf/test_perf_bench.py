"""Smoke test of the benchmark harness (``pytest benchmarks/perf``).

Not collected by tier-1 (``testpaths = ["tests"]``).  Runs ``run.py --smoke``
— tiny sizes, seconds — and checks the harness, not the speed: it emits
exactly what ``BENCHMARK.json`` names, and a wrong simulated result fails.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_py(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_smoke_emits_exactly_the_named_metrics(spec):
    code, ledger = run_py("--smoke")
    assert code == 0
    layers = ledger.pop("layers")
    assert layers["failed"] == 0
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(ledger) == sorted(f"{n}/trace{t}" for n in names for t in (0, 1))
    for key, result in ledger.items():
        assert result["failed"] == 0, key
        trace = key.endswith("1")
        metrics = {**result["metrics"], **(layers["metrics"] if trace else {})}
        named = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        assert sorted(metrics) == sorted(named), key
        for name, (value, unit) in metrics.items():
            assert NAME.fullmatch(name), name
            assert unit and unit == named[name], name
            assert isinstance(value, (int, float)), name


def test_corrupted_pin_is_a_failed_op(tmp_path):
    with open(os.path.join(HERE, "expected_sim.json")) as fh:
        pins = json.load(fh)
    pins["smoke"]["frag_cell"]["makespan"] *= 1.0 + 1e-9
    bad = tmp_path / "expected_sim.json"
    bad.write_text(json.dumps(pins))
    code, line = run_py("--smoke", "--workload", "frag_cell", "--seed", "42",
                        "--seconds", "0.2", "--trace", "0", "--pins", str(bad))
    assert code != 0
    assert line["failed"] > 0 and line["correct"] is False
