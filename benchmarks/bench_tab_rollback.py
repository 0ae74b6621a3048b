"""Regenerates the §4 rollback claim: RDX reverts faulty extensions in
microseconds even under full CPU load, avoiding the agent path's
lockout effect."""

from repro.exp.harness import format_table
from repro.exp.tab_rollback import PAPER, run_tab_rollback


def test_bench_tab_rollback(benchmark):
    result = benchmark.pedantic(run_tab_rollback, rounds=1, iterations=1)
    print()
    print(
        format_table(
            f"Rollback latency at {result.load_level * 100:.0f}% CPU load",
            ["path", "rollback latency (us)"],
            [
                ("agent re-inject", result.agent_rollback_us),
                ("RDX fence+flip+flush", result.rdx_rollback_us),
            ],
            note=(
                f"speedup {result.speedup:,.0f}x; paper: {PAPER['claim']}"
            ),
        )
    )
    assert result.rdx_rollback_us < 100
    assert result.speedup > 500
