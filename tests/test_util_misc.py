"""Tests for formatting helpers, RNG registry, and the run-report renderer."""

import pytest

from repro.emulator import ActivePlatform, SystemParams
from repro.util.rng import RngRegistry, derive_seed
from repro.util.units import (
    GB,
    KB,
    MB,
    fmt_bytes,
    fmt_count,
    fmt_rate,
    fmt_time,
)


class TestFormatting:
    @pytest.mark.parametrize(
        "n,expect",
        [
            (512, "512 B"),
            (2 * KB, "2.0 KiB"),
            (3 * MB, "3.0 MiB"),
            (5 * GB, "5.0 GiB"),
        ],
    )
    def test_fmt_bytes(self, n, expect):
        assert fmt_bytes(n) == expect

    @pytest.mark.parametrize(
        "s,expect",
        [
            (120.0, "2.00 min"),
            (2.5, "2.50 s"),
            (0.004, "4.00 ms"),
            (3e-6, "3.00 us"),
            (5e-9, "5 ns"),
        ],
    )
    def test_fmt_time(self, s, expect):
        assert fmt_time(s) == expect

    def test_fmt_rate(self):
        assert fmt_rate(25 * MB) == "25.0 MiB/s"

    @pytest.mark.parametrize(
        "n,expect",
        [(999, "999"), (1500, "1.5K"), (2.5e6, "2.5M"), (3e9, "3.0G")],
    )
    def test_fmt_count(self, n, expect):
        assert fmt_count(n) == expect


class TestRngRegistry:
    def test_derive_seed_stable(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_reset_restarts_streams(self):
        r = RngRegistry(5)
        a1 = r.get("x").integers(0, 100, 10).tolist()
        r.reset()
        a2 = r.get("x").integers(0, 100, 10).tolist()
        assert a1 == a2

    def test_fork_is_independent_and_deterministic(self):
        child1 = RngRegistry(5).fork("w")
        child2 = RngRegistry(5).fork("w")
        other = RngRegistry(5).fork("v")
        s1 = child1.get("x").integers(0, 1000, 10).tolist()
        s2 = child2.get("x").integers(0, 1000, 10).tolist()
        s3 = other.get("x").integers(0, 1000, 10).tolist()
        assert s1 == s2
        assert s1 != s3

    def test_streams_cached(self):
        r = RngRegistry(0)
        assert r.get("a") is r.get("a")


class TestRunReportRender:
    def test_render_lists_all_nodes(self):
        plat = ActivePlatform(SystemParams(n_hosts=2, n_asus=3))

        def main(_p):
            yield from plat.asus[0].disk_read(1 << 20)

        report = plat.run(wait_for=[plat.spawn(main(plat))])
        text = report.render()
        for node in ("host0", "host1", "asu0", "asu1", "asu2"):
            assert node in text
        assert "makespan" in text
        assert "events" in text
