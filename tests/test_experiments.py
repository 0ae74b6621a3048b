"""Shape tests for every experiment: small-scale runs asserting the
paper's qualitative claims (who wins, direction of trends)."""

import pytest

from repro.core.api import rdx_tx
from repro.exp import fig5
from repro.exp.fig2a import run_fig2a
from repro.exp.fig2b import run_fig2b
from repro.exp.fig2c import run_fig2c
from repro.exp.fig4a import run_fig4a
from repro.exp.fig4b import run_fig4b
from repro.exp.fig5 import run_fig5
from repro.exp.harness import make_testbed
from repro.exp.tab_broadcast import run_tab_broadcast
from repro.exp.tab_mesh import run_tab_mesh
from repro.exp.tab_redis import run_tab_redis
from repro.exp.tab_rollback import run_tab_rollback
from repro.params import RDX_CC_EVENT_US


class TestFig2a:
    def test_ms_level_and_growing(self):
        result = run_fig2a(sizes=(1_300, 11_000), repeats=2)
        small, large = result.points
        assert small.mean_inject_us >= 1_000  # ms-level at 1.3K insns
        assert large.mean_inject_us > 5 * small.mean_inject_us

    def test_verify_jit_dominates(self):
        result = run_fig2a(sizes=(1_300,), repeats=2)
        assert result.points[0].verify_jit_share >= 0.90


class TestFig2b:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig2b(
            apps=(("app1", 4), ("app2", 11)),
            ebpf_insns=2_000,
            wasm_padding=300,
            probe_interval_us=3_000.0,
        )

    def test_window_grows_with_app_size(self, result):
        for family in ("ebpf", "wasm"):
            series = result.series(family)
            assert series[1][1] > series[0][1]

    def test_windows_nonzero(self, result):
        assert all(p.window_us > 0 for p in result.points)

    def test_requests_observe_mixed_logic(self, result):
        wasm_points = [p for p in result.points if p.family == "wasm"]
        assert any(p.mixed_requests > 0 for p in wasm_points)

    def test_dependency_violations_happen(self, result):
        assert any(p.violations > 0 for p in result.points)


class TestFig2c:
    def test_contention_bites_at_saturation_only(self):
        result = run_fig2c(rates=(100, 400), duration_us=400_000)
        low, high = result.points
        assert low.degradation < 0.15
        assert high.degradation > 0.30  # approaching "halved"


class TestFig4a:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4a(sizes=(1_300, 11_000), repeats=2)

    def test_rdx_wins_by_orders_of_magnitude(self, result):
        assert all(p.speedup > 30 for p in result.points)

    def test_speedup_grows_with_size(self, result):
        speedups = result.speedups()
        assert speedups[1] > speedups[0]

    def test_rdx_stays_microseconds(self, result):
        assert all(p.rdx_us < 200 for p in result.points)

    def test_every_deploy_injects_the_whole_image(self):
        """Each deploy averaged is a full injection, like the paper's
        loop, not a zero-chunk delta against its own resident image."""
        bed = make_testbed()
        run_fig4a(sizes=(1_300,), repeats=3, testbed=bed)
        assert [report.mode for report in bed.codeflow.reports] == ["full"] * 4


class TestFig4b:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4b()

    def test_agent_verify_jit_share(self, result):
        assert result.agent_verify_jit_share >= 0.90

    def test_rdx_has_no_compile_phase(self, result):
        assert "verify" not in result.rdx_phases_us
        assert "jit" not in result.rdx_phases_us

    def test_totals_ordered(self, result):
        assert result.rdx_total_us < result.agent_total_us / 10


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5(cpki_levels=(5, 40), trials=21)

    def test_rdx_flat_and_microseconds(self, result):
        for point in result.points:
            assert point.rdx_median_us < 10

    def test_vanilla_decreases_with_cpki(self, result):
        low, high = result.points
        assert low.vanilla_median_us > high.vanilla_median_us

    def test_orders_of_magnitude_gap_at_low_cpki(self, result):
        low = result.points[0]
        assert low.vanilla_median_us > 50 * low.rdx_median_us

    @pytest.mark.parametrize("expect", (False, True))
    def test_rdx_window_is_the_flush_for_either_tx_shape(self, monkeypatch, expect):
        """READ-then-WRITE or a fenced CAS chain: the flip takes its own
        time, and the window measured from its landing is the flush."""
        def tx(handle, obj, obj_addr, qword_addr, new_qword):
            prior = handle.sandbox.host.memory.read(qword_addr, 8)
            return rdx_tx(
                handle, obj, obj_addr, qword_addr, new_qword,
                int.from_bytes(prior, "little") if expect else None,
            )

        monkeypatch.setattr(fig5, "rdx_tx", tx)
        result = run_fig5(cpki_levels=(5, 20, 40), trials=3)
        assert [p.rdx_median_us for p in result.points] == [RDX_CC_EVENT_US] * 3


class TestTables:
    def test_redis_improvement_positive(self):
        result = run_tab_redis(duration_us=150_000)
        assert result.improvement_pct > 5

    def test_mesh_improvement_positive(self):
        result = run_tab_mesh(duration_us=200_000)
        assert result.improvement_pct > 10

    def test_broadcast_buffer_tiny_vs_agent(self):
        result = run_tab_broadcast(group_sizes=(2,))
        row = result.rows[0]
        assert row.bubble_window_us < 1_000
        assert row.bbu_buffer_requests < row.agent_buffer_requests / 100

    def test_rollback_microseconds_under_load(self):
        result = run_tab_rollback()
        assert result.rdx_rollback_us < 100
        assert result.speedup > 100
