"""Property-based tests for the cost model's invariants."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.core import cost_model
from repro.core.cost_model import ClusterStats

costs = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
positive_costs = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)
mtbfs = st.floats(min_value=1e-2, max_value=1e9, allow_nan=False)
percentiles = st.floats(min_value=0.5, max_value=0.999)


class TestWastedRuntime:
    @given(total_cost=costs, mtbf=mtbfs)
    def test_exact_waste_is_bounded_by_half(self, total_cost, mtbf):
        """Failures arrive earlier in expectation than uniform, so the
        exact wasted time never exceeds the t/2 approximation."""
        exact = cost_model.wasted_runtime_exact(total_cost, mtbf)
        assert 0.0 <= exact <= total_cost / 2.0 + 1e-9

    @given(total_cost=positive_costs, mtbf=mtbfs)
    def test_exact_waste_below_operator_cost(self, total_cost, mtbf):
        assert cost_model.wasted_runtime_exact(total_cost, mtbf) \
            <= total_cost

    @given(total_cost=positive_costs)
    def test_exact_converges_to_half_for_large_mtbf(self, total_cost):
        exact = cost_model.wasted_runtime_exact(total_cost, 1e7 * total_cost)
        assert math.isclose(exact, total_cost / 2.0, rel_tol=1e-4)


class TestProbabilities:
    @given(total_cost=costs, mtbf=mtbfs)
    def test_eta_in_unit_interval(self, total_cost, mtbf):
        eta = cost_model.failure_probability(total_cost, mtbf)
        assert 0.0 <= eta < 1.0 or math.isclose(eta, 1.0)

    @given(total_cost=costs, mtbf=mtbfs)
    def test_complementarity(self, total_cost, mtbf):
        eta = cost_model.failure_probability(total_cost, mtbf)
        gamma = cost_model.success_probability(total_cost, mtbf)
        assert math.isclose(eta + gamma, 1.0, rel_tol=1e-12)

    @given(a=positive_costs, b=positive_costs, mtbf=mtbfs)
    def test_eta_monotone_in_cost(self, a, b, mtbf):
        low, high = sorted((a, b))
        assert cost_model.failure_probability(low, mtbf) <= \
            cost_model.failure_probability(high, mtbf)


class TestAttempts:
    @given(total_cost=costs, mtbf=mtbfs, percentile=percentiles)
    def test_attempts_nonnegative(self, total_cost, mtbf, percentile):
        assert cost_model.attempts(total_cost, mtbf, percentile) >= 0.0

    @given(total_cost=positive_costs, mtbf=mtbfs, percentile=percentiles)
    def test_attempts_achieve_the_percentile(self, total_cost, mtbf,
                                             percentile):
        extra = cost_model.attempts(total_cost, mtbf, percentile)
        if not math.isfinite(extra):
            # eta rounds to 1.0 in floating point: unreachable percentile
            return
        achieved = cost_model.cumulative_success(total_cost, mtbf, extra)
        assert achieved >= percentile - 1e-9

    @given(a=positive_costs, b=positive_costs, mtbf=mtbfs)
    def test_attempts_monotone_in_cost(self, a, b, mtbf):
        low, high = sorted((a, b))
        assert cost_model.attempts(low, mtbf) <= \
            cost_model.attempts(high, mtbf) + 1e-12

    @given(total_cost=positive_costs, m1=mtbfs, m2=mtbfs)
    def test_attempts_antitone_in_mtbf(self, total_cost, m1, m2):
        low, high = sorted((m1, m2))
        assert cost_model.attempts(total_cost, high) <= \
            cost_model.attempts(total_cost, low) + 1e-12


class TestOperatorRuntime:
    @given(total_cost=costs, mtbf=mtbfs)
    def test_runtime_at_least_failure_free(self, total_cost, mtbf):
        stats = ClusterStats(mtbf=mtbf, mttr=1.0)
        assert cost_model.operator_runtime(total_cost, stats) >= total_cost

    @given(total_cost=positive_costs, m1=mtbfs, m2=mtbfs)
    def test_runtime_antitone_in_mtbf(self, total_cost, m1, m2):
        low, high = sorted((m1, m2))
        better = cost_model.operator_runtime(
            total_cost, ClusterStats(mtbf=high)
        )
        worse = cost_model.operator_runtime(
            total_cost, ClusterStats(mtbf=low)
        )
        assert better <= worse + 1e-9

    @given(
        path=st.lists(positive_costs, min_size=1, max_size=8),
        mtbf=mtbfs,
    )
    def test_path_cost_additivity(self, path, mtbf):
        stats = ClusterStats(mtbf=mtbf, mttr=0.5)
        total = cost_model.path_cost(path, stats)
        summed = sum(cost_model.operator_runtime(c, stats) for c in path)
        assert math.isclose(total, summed, rel_tol=1e-12)


class TestEquation9Rationale:
    """The monotonicity Rule 3's dominance test relies on: if every
    sorted component of path A is >= path B's, then T_A >= T_B."""

    @given(
        base=st.lists(positive_costs, min_size=1, max_size=6),
        bumps=st.lists(
            st.floats(min_value=0.0, max_value=1e5), min_size=6, max_size=6
        ),
        mtbf=mtbfs,
    )
    def test_componentwise_dominance_implies_cost_dominance(
            self, base, bumps, mtbf):
        stats = ClusterStats(mtbf=mtbf, mttr=1.0)
        dominated = sorted(base, reverse=True)
        dominating = [value + bump for value, bump
                      in zip(dominated, bumps)]
        assert cost_model.path_cost(dominating, stats) >= \
            cost_model.path_cost(dominated, stats) - 1e-9
