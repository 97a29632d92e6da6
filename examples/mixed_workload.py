"""Mixed workload: no static fault-tolerance scheme fits every query.

The paper's motivating scenario -- an analytical workload mixing
interactive queries (seconds) with batch queries (hours) on one cluster.
This example generates such a workload over the TPC-H query set, runs
every query under all four schemes in the failure simulator, and shows
that the static schemes each have a sweet spot while the cost-based
scheme adapts per query.

Run with::

    python examples/mixed_workload.py
"""

from collections import defaultdict

from repro.core.failure import HOUR
from repro.core.strategies import standard_schemes
from repro.engine import Cluster, compare_schemes
from repro.workloads import generate_mixed_workload

MTBF = 4 * HOUR
NODES = 10


def main() -> None:
    workload = generate_mixed_workload(count=12, seed=7,
                                       sf_range=(0.5, 800.0))
    workload.sort(key=lambda query: query.baseline_cost)
    cluster = Cluster(nodes=NODES, mttr=1.0)
    schemes = standard_schemes()

    print(f"{len(workload)} queries, MTBF = 4 hours/node, {NODES} nodes\n")
    header = f"{'query':<14s}{'baseline':>10s}"
    for scheme in schemes:
        header += f"{scheme.name:>19s}"
    header += "  near-best"
    print(header)

    wins = defaultdict(int)
    for index, query in enumerate(workload):
        rows = compare_schemes(
            schemes, query.plan, query.label, cluster,
            mtbf=MTBF, trace_count=5, base_seed=9000 + index,
        )
        line = f"{query.label:<14s}{query.baseline_cost:>9.0f}s"
        finished = [row for row in rows if not row.all_aborted]
        best_overhead = min(row.overhead_percent for row in finished)
        for row in rows:
            line += f"{row.formatted():>19s}"
        winners = [row.scheme for row in finished
                   if row.overhead_percent <= best_overhead + 2.0]
        line += ("  " + "/".join(w.split(" ")[0] for w in winners))
        for winner in winners:
            wins[winner] += 1
        print(line)

    print("\ntimes within 2 points of the per-query winner:")
    for scheme in schemes:
        print(f"  {scheme.name:<18s} {wins[scheme.name]:>2d} / "
              f"{len(workload)}")
    print(
        "\nShort queries are best served by not materializing anything;\n"
        "long queries need checkpoints.  No static scheme is near-best\n"
        "for every query -- only the cost-based scheme, which picks the\n"
        "sweet spot per query, stays on the winning frontier throughout."
    )


if __name__ == "__main__":
    main()
