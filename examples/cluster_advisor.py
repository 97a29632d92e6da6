"""Cluster advisor: how the right fault-tolerance depends on the cluster.

Sweeps the four cluster setups of the paper's Figure 1 (MTBF x cluster
size) for one mid-sized query and reports, per setup, the success
probability without fault tolerance, the configuration the cost-based
optimizer picks, and the measured overhead of each scheme.

Run with::

    python examples/cluster_advisor.py
"""

from repro.core import failure
from repro.core.failure import HOUR, WEEK
from repro.core.strategies import CostBased, standard_schemes
from repro.engine import Cluster, compare_schemes
from repro.stats import default_parameters
from repro.tpch import build_query_plan

CLUSTERS = [
    ("Cluster 1: 100 spot nodes, MTBF 1 hour", HOUR, 100),
    ("Cluster 2: 100 nodes, MTBF 1 week", WEEK, 100),
    ("Cluster 3: 10 flaky nodes, MTBF 1 hour", HOUR, 10),
    ("Cluster 4: 10 solid nodes, MTBF 1 week", WEEK, 10),
]


def main() -> None:
    scale_factor = 30.0
    for index, (label, mtbf, nodes) in enumerate(CLUSTERS):
        params = default_parameters(nodes=nodes)
        plan = build_query_plan("Q5", scale_factor, params)
        baseline = sum(op.runtime_cost for op in plan.operators.values())
        cluster = Cluster(nodes=nodes, mttr=1.0)
        stats = cluster.stats(mtbf)

        p_success = failure.success_probability(baseline, mtbf, nodes)
        configured = CostBased().configure(plan, stats)
        chosen = configured.search.materialized_ids

        print(f"=== {label} ===")
        print(f"  TPC-H Q5 @ SF {scale_factor:g}: "
              f"baseline ~{baseline:.0f}s")
        print(f"  P(no failure during one attempt): {100 * p_success:.1f}%")
        print(f"  cost-based checkpoints: "
              f"{list(chosen) or 'none (run it straight through)'}")

        rows = compare_schemes(
            standard_schemes(), plan, "Q5", cluster, mtbf,
            trace_count=5, base_seed=100 * index,
        )
        for row in rows:
            marker = "  <-- recommended" if row.scheme == "cost-based" \
                else ""
            print(f"    {row.scheme:<18s} overhead "
                  f"{row.formatted():>9s}{marker}")
        print()

    print(
        "Reading the sweep: on stable clusters any no-mat scheme is fine\n"
        "and materialization is wasted work; on large or flaky clusters\n"
        "a query barely ever finishes in one attempt and checkpoints are\n"
        "what makes it finish at all.  The cost model encodes exactly\n"
        "this trade-off, so its recommendation tracks the cluster."
    )


if __name__ == "__main__":
    main()
