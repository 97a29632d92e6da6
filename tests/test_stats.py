"""Tests for the statistics layer: estimates, calibration, perturbation."""

import pytest

from repro.core.plan import linear_plan
from repro.stats.calibration import (
    DEFAULT_CPU_ROW_COST,
    DEFAULT_MAT_BYTE_COST,
    calibrate_cpu_cost,
    calibrate_mat_cost,
    default_parameters,
)
from repro.stats.estimates import (
    CostParameters,
    LogicalOperator,
    build_plan,
    measured_costs,
)
from repro.stats.perturbation import (
    PAPER_FACTORS,
    PerturbationKind,
    perturb_plan,
    perturb_stats,
)
from repro.core.cost_model import ClusterStats


class TestCostParameters:
    def test_runtime_and_mat_costs_scale_with_nodes(self):
        params = CostParameters(cpu_row_cost=1e-6, mat_byte_cost=1e-7,
                                nodes=10)
        assert params.runtime_cost(1e7) == pytest.approx(1.0)
        assert params.mat_cost(1e8) == pytest.approx(1.0)
        single = params.with_nodes(1)
        assert single.runtime_cost(1e7) == pytest.approx(10.0)

    def test_scaled(self):
        params = CostParameters(cpu_row_cost=1.0, mat_byte_cost=2.0)
        scaled = params.scaled(cpu_factor=0.5, mat_factor=2.0)
        assert scaled.cpu_row_cost == 0.5
        assert scaled.mat_byte_cost == 4.0

    @pytest.mark.parametrize("kwargs", [
        {"cpu_row_cost": 0, "mat_byte_cost": 1},
        {"cpu_row_cost": 1, "mat_byte_cost": -1},
        {"cpu_row_cost": 1, "mat_byte_cost": 1, "nodes": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CostParameters(**kwargs)


class TestLogicalOperator:
    def test_free_and_always_materialize_are_exclusive(self):
        with pytest.raises(ValueError):
            LogicalOperator(
                op_id=1, name="x", inputs=(), work_rows=1, out_rows=1,
                out_bytes=1, free=True, always_materialize=True,
            )


class TestBuildPlan:
    def test_costs_and_flags(self):
        params = CostParameters(cpu_row_cost=1e-6, mat_byte_cost=1e-7,
                                nodes=1)
        ops = [
            LogicalOperator(1, "src", (), 1e6, 1e5, 1e6, free=True,
                            base_inputs=2),
            LogicalOperator(2, "sink", (1,), 1e5, 10, 100,
                            always_materialize=True),
        ]
        plan = build_plan(ops, params)
        assert plan[1].runtime_cost == pytest.approx(1.0)
        assert plan[1].mat_cost == pytest.approx(0.1)
        assert plan[1].free and not plan[1].materialize
        assert plan[1].base_inputs == 2
        assert plan[2].materialize and not plan[2].free
        assert list(plan.edges()) == [(1, 2)]

    def test_measured_costs_roundtrip(self):
        plan = linear_plan([(1.0, 0.5), (2.0, 0.25)])
        costs = measured_costs(plan)
        assert costs == {1: (1.0, 0.5), 2: (2.0, 0.25)}


class TestCalibration:
    def test_default_parameters(self):
        params = default_parameters()
        assert params.cpu_row_cost == DEFAULT_CPU_ROW_COST
        assert params.mat_byte_cost == DEFAULT_MAT_BYTE_COST
        assert params.nodes == 10

    def test_calibrate_cpu_cost_inverts_the_baseline(self):
        cpu = calibrate_cpu_cost(1e9, 905.33, nodes=10)
        params = CostParameters(cpu_row_cost=cpu, mat_byte_cost=1e-9,
                                nodes=10)
        assert params.runtime_cost(1e9) == pytest.approx(905.33)

    def test_calibrate_mat_cost_inverts_the_target(self):
        mat = calibrate_mat_cost(8e9, 309.0, nodes=10)
        params = CostParameters(cpu_row_cost=1e-9, mat_byte_cost=mat,
                                nodes=10)
        assert params.mat_cost(8e9) == pytest.approx(309.0)

    def test_calibration_validation(self):
        with pytest.raises(ValueError):
            calibrate_cpu_cost(0, 1)
        with pytest.raises(ValueError):
            calibrate_cpu_cost(1, 0)
        with pytest.raises(ValueError):
            calibrate_mat_cost(0, 1)
        with pytest.raises(ValueError):
            calibrate_mat_cost(1, -1)


class TestPerturbation:
    def test_paper_factors(self):
        assert PAPER_FACTORS == (0.1, 0.5, 2.0, 10.0)

    def test_mtbf_perturbation_touches_stats_only(self, chain_plan):
        stats = ClusterStats(mtbf=3600)
        perturbed = perturb_stats(stats, PerturbationKind.MTBF, 0.5)
        assert perturbed.mtbf == 1800
        assert perturb_plan(chain_plan, PerturbationKind.MTBF, 0.5) \
            is chain_plan

    def test_io_perturbation_scales_mat_costs_only(self, chain_plan):
        perturbed = perturb_plan(chain_plan, PerturbationKind.IO, 2.0)
        for op_id in chain_plan.operators:
            assert perturbed[op_id].mat_cost == pytest.approx(
                2 * chain_plan[op_id].mat_cost
            )
            assert perturbed[op_id].runtime_cost == \
                chain_plan[op_id].runtime_cost

    def test_compute_and_io_scales_both(self, chain_plan):
        perturbed = perturb_plan(
            chain_plan, PerturbationKind.COMPUTE_AND_IO, 10.0
        )
        assert perturbed[2].runtime_cost == pytest.approx(200.0)
        assert perturbed[2].mat_cost == pytest.approx(40.0)

    def test_io_perturbation_leaves_stats_alone(self):
        stats = ClusterStats(mtbf=3600)
        assert perturb_stats(stats, PerturbationKind.IO, 10.0) is stats

    def test_perturbation_preserves_edges(self, chain_plan):
        perturbed = perturb_plan(chain_plan, PerturbationKind.IO, 0.1)
        assert set(perturbed.edges()) == set(chain_plan.edges())

    def test_invalid_factor(self, chain_plan):
        with pytest.raises(ValueError):
            perturb_plan(chain_plan, PerturbationKind.IO, 0.0)
        with pytest.raises(ValueError):
            perturb_stats(ClusterStats(mtbf=1), PerturbationKind.MTBF, -1)
