"""Figure 10: overhead vs. query runtime (Q5, SF 1 to 3000, MTBF = 1 day).

Expected shapes (paper Exp. 2a): all schemes start near 0 % for
short-running queries except all-mat, whose overhead starts at Q5's
~34 % materialization tax; the no-mat schemes' overhead grows with
runtime (restart fastest); the cost-based scheme is the lower envelope.
"""

from repro.experiments import fig10_runtime


def test_fig10_varying_runtime(benchmark, archive):
    result = benchmark.pedantic(fig10_runtime.run, rounds=1, iterations=1)
    archive("fig10_varying_runtime", fig10_runtime.format_table(result))

    cells = {(c.label, c.scheme): c for c in result.cells}
    shortest = f"Q5@SF{result.scale_factors[0]:g}"
    longest = f"Q5@SF{result.scale_factors[-1]:g}"

    # short queries: no-mat schemes are free, all-mat pays the tax
    assert cells[(shortest, "cost-based")].overhead_percent < 5.0
    assert cells[(shortest, "all-mat")].overhead_percent > 25.0

    # overhead grows with runtime for the no-mat schemes
    lineage = [c for c in result.cells if c.scheme == "no-mat (lineage)"]
    assert lineage[-1].overhead_percent > lineage[0].overhead_percent + 20

    # cost-based stays the lower envelope for the longest query
    finished = [
        cells[(longest, s)].overhead_percent
        for s in ("all-mat", "no-mat (lineage)", "no-mat (restart)")
        if not cells[(longest, s)].all_aborted
    ]
    assert cells[(longest, "cost-based")].overhead_percent <= \
        min(finished) * 1.2 + 5.0

    # for long queries the cost-based scheme materializes something
    assert cells[(longest, "cost-based")].materialized_ids != ()
