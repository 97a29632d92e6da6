"""Figure 11: overhead vs. MTBF (Q5 @ SF 100, ~905 s baseline).

Paper reference values (overhead %):

==================  ========  ========  ========
scheme              1 week    1 day     1 hour
==================  ========  ========  ========
all-mat             34.13     40.93     73.83
no-mat (lineage)    0         29.34     84.66
no-mat (restart)    0         57.74     231.80
cost-based          0         29.30     52.12
==================  ========  ========  ========

Expected shapes: at one week the no-mat schemes and cost-based are free
while all-mat pays exactly the ~34 % tax; overheads grow as the MTBF
drops, restart fastest; cost-based is always lowest.
"""

import pytest

from repro.experiments import fig11_mtbf


def test_fig11_varying_mtbf(benchmark, archive):
    result = benchmark.pedantic(fig11_mtbf.run, rounds=1, iterations=1)
    archive("fig11_varying_mtbf", fig11_mtbf.format_table(result))

    week = {c.scheme: c for c in
            result.by_cluster["Cluster A (10 nodes, MTBF=1 week)"]}
    day = {c.scheme: c for c in
           result.by_cluster["Cluster B (10 nodes, MTBF=1 day)"]}
    hour = {c.scheme: c for c in
            result.by_cluster["Cluster C (10 nodes, MTBF=1 hour)"]}

    # the baseline anchor
    assert result.baseline == pytest.approx(905.33, rel=0.02)

    # paper row 1: all-mat = 34.13 / 40.93 / rising
    assert week["all-mat"].overhead_percent == pytest.approx(34.1, abs=2.0)
    assert day["all-mat"].overhead_percent == pytest.approx(40.9, abs=6.0)
    assert hour["all-mat"].overhead_percent > day["all-mat"].overhead_percent

    # paper rows 2-4 at one week: everything else is free
    for scheme in ("no-mat (lineage)", "no-mat (restart)", "cost-based"):
        assert abs(week[scheme].overhead_percent) < 3.0

    # restart degrades fastest at one hour
    assert hour["no-mat (restart)"].overhead_percent > \
        hour["no-mat (lineage)"].overhead_percent

    # cost-based is lowest (or tied) in every cluster
    for cells in (week, day, hour):
        finished = [c.overhead_percent for s, c in cells.items()
                    if not c.all_aborted and s != "cost-based"]
        assert cells["cost-based"].overhead_percent <= min(finished) + 5.0
