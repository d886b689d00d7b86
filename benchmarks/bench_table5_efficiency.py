"""Table 5 reproduction: routing efficiency and resource consumption."""

from __future__ import annotations

from repro.experiments.efficiency import efficiency_table


def test_table5_efficiency(benchmark, spider_context):
    table = benchmark.pedantic(lambda: efficiency_table(spider_context), rounds=1, iterations=1)
    print()
    print(table.render())
    records = {record["method"]: record for record in table.to_records()}
    # Both rows are recorded; their QPS are two wall-clock readings on a shared
    # machine, so which is faster is reported, not gated.
    assert {"bm25", "dbcopilot"} <= set(records)
