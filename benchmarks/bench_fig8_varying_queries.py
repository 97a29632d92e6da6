"""Figure 8: scheme overheads for varying queries (Q1/Q3/Q5/Q1C/Q2C).

TPC-H SF = 100, 10 nodes; MTBF = 1.1x baseline (panel a) and 10x baseline
(panel b), 10 failure traces per setting shared across schemes.

Expected shapes (paper Section 5.2): no-mat (restart) aborts every query
at low MTBF; the cost-based scheme always has the least or comparable
overhead; Q1 (no free operator) ties the fine-grained schemes; the
all-mat scheme pays a clear materialization tax on Q1C/Q2C.
"""

from repro.experiments import fig8_queries


def test_fig8_varying_queries(benchmark, archive):
    result = benchmark.pedantic(fig8_queries.run, rounds=1, iterations=1)
    archive("fig8_varying_queries", fig8_queries.format_table(result))

    low = {(c.label, c.scheme): c for c in result.low_mtbf_cells}
    high = {(c.label, c.scheme): c for c in result.high_mtbf_cells}

    # restart aborts everything under high failure rates
    for query in ("Q1", "Q3", "Q5", "Q1C", "Q2C"):
        assert low[(query, "no-mat (restart)")].all_aborted

    # cost-based is best or tied per query at both rates
    for cells in (low, high):
        for query in ("Q1", "Q3", "Q5", "Q1C", "Q2C"):
            finished = [
                cell.overhead_percent
                for (q, scheme), cell in cells.items()
                if q == query and not cell.all_aborted
                and scheme != "cost-based"
            ]
            assert cells[(query, "cost-based")].overhead_percent <= \
                min(finished) * 1.15 + 8.0

    # Q1C's mid-plan aggregate gives cost-based a clear win over all-mat
    assert high[("Q1C", "all-mat")].overhead_percent > \
        high[("Q1C", "cost-based")].overhead_percent
