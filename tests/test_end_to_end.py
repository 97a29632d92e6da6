"""End-to-end integration: the whole pipeline in one story.

Generate data -> really execute the workload -> validate cardinalities ->
build the costed plan -> optimize (both enumeration phases) -> serialize
the chosen plan -> simulate all four schemes on shared failure traces ->
verify the paper's headline claim held on this very run.
"""

import pytest

from repro.core.cost_model import ClusterStats
from repro.core.optimizer import FaultTolerantOptimizer, QuerySpec
from repro.core.serialize import plan_from_dict, plan_to_dict
from repro.core.strategies import standard_schemes
from repro.engine.cluster import Cluster
from repro.engine.coordinator import compare_schemes
from repro.joinorder import q5_join_graph
from repro.relational.executor import execute, profile
from repro.stats.calibration import default_parameters
from repro.tpch.datagen import generate
from repro.tpch.queries import QUERIES, build_query_plan


@pytest.fixture(scope="module")
def story():
    """Shared state across the story's stages."""
    return {}


class TestFullPipeline:
    def test_stage1_generate_and_execute(self, story):
        db = generate(0.002, seed=2024)
        answer, profiles = profile(QUERIES["Q5"].physical_tree(db))
        assert answer.num_rows >= 1
        assert all(revenue > 0 for revenue in answer.column("revenue"))
        story["db"] = db
        story["profiles"] = profiles

    def test_stage2_cardinalities_ground_the_estimates(self, story):
        measured = {
            p.description: p.output_rows
            for p in story["profiles"].values()
        }
        predicted = {
            op.name: op.out_rows
            for op in QUERIES["Q5"].logical_ops(0.002)
        }
        assert measured["HashJoin(o_orderkey=l_orderkey)"] == \
            pytest.approx(predicted["Join(RNCO,L)"], rel=0.35)

    def test_stage3_build_and_optimize(self, story):
        params = default_parameters()
        stats = ClusterStats(mtbf=3600.0, mttr=1.0, nodes=10)
        optimizer = FaultTolerantOptimizer(params, top_k=5)
        outcome = optimizer.optimize(
            QuerySpec(q5_join_graph(100.0), name="Q5"), stats
        )
        assert outcome.cost > 0
        assert outcome.materialized_ids  # one hour MTBF wants checkpoints
        story["stats"] = stats
        story["optimized"] = outcome

    def test_stage4_chosen_plan_survives_serialization(self, story):
        plan = story["optimized"].plan
        rebuilt = plan_from_dict(plan_to_dict(plan))
        assert rebuilt.mat_config() == plan.mat_config()
        assert set(rebuilt.edges()) == set(plan.edges())

    def test_stage5_simulation_confirms_the_headline_claim(self, story):
        """The cost-based scheme is best or close on this very setup.

        One 10-trace sample carries noise (the statistical version of
        this claim is what `benchmarks/bench_fig11_varying_mtbf.py`
        asserts); here a 1.25x allowance keeps the smoke check honest.
        """
        params = default_parameters()
        plan = build_query_plan("Q5", 100.0, params)
        rows = compare_schemes(
            standard_schemes(), plan, "Q5",
            Cluster(nodes=10, mttr=1.0), mtbf=3600.0,
            trace_count=10, base_seed=2024,
        )
        by_scheme = {row.scheme: row for row in rows}
        others = [row.overhead_percent for row in rows
                  if not row.all_aborted and row.scheme != "cost-based"]
        assert by_scheme["cost-based"].overhead_percent <= \
            min(others) * 1.25 + 5.0
        # and it always beats the schemes on its own side of the design
        # space: full materialization and full restart
        assert by_scheme["cost-based"].overhead_percent < \
            by_scheme["all-mat"].overhead_percent
        assert by_scheme["cost-based"].overhead_percent < \
            by_scheme["no-mat (restart)"].overhead_percent
        story["rows"] = rows

    def test_stage6_configuration_matches_the_optimizer_family(self, story):
        """The simulated cost-based run materialized the same family of
        intermediates the cost model favours at this MTBF (the cheap
        early joins, never the big LINEITEM join)."""
        cost_row = next(row for row in story["rows"]
                        if row.scheme == "cost-based")
        assert 4 not in cost_row.materialized_ids
        assert cost_row.materialized_ids  # something was checkpointed
