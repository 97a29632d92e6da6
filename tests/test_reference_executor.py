"""Cross-validation: analytic engine vs quantized reference executor.

Two independent implementations of the same recovery semantics must
agree up to the reference's quantization error.  Random plans, clusters
and traces are the adversary.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import Operator, Plan
from repro.core.strategies import AllMat, NoMatLineage
from repro.engine.cluster import Cluster
from repro.engine.executor import SimulatedEngine
from repro.engine.reference import ReferenceEngine
from repro.engine.traces import generate_trace

STEP = 0.05

cost_values = st.floats(min_value=0.5, max_value=30.0)


@st.composite
def small_plans(draw):
    length = draw(st.integers(min_value=1, max_value=4))
    plan = Plan()
    for op_id in range(1, length + 1):
        plan.add_operator(Operator(
            op_id=op_id, name=f"op{op_id}",
            runtime_cost=draw(cost_values),
            mat_cost=draw(cost_values),
            materialize=op_id == length,
            free=op_id != length,
        ))
        if op_id > 1:
            plan.add_edge(op_id - 1, op_id)
    return plan


def _tolerance(result, trace):
    """Quantization error: a few steps per failure and per group event."""
    events = 20 + 4 * sum(len(f) for f in trace.node_failures)
    return events * STEP


class TestCrossValidation:
    @given(plan=small_plans(),
           scheme=st.sampled_from([AllMat(), NoMatLineage()]),
           nodes=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_agreement_under_failures(self, plan, scheme, nodes, seed):
        cluster = Cluster(nodes=nodes, mttr=1.0)
        configured = scheme.configure(plan, cluster.stats(50.0))
        trace = generate_trace(nodes, mtbf=40.0, horizon=1e6, seed=seed)
        analytic = SimulatedEngine(cluster).execute(configured, trace)
        reference = ReferenceEngine(cluster, step=STEP).execute(
            configured, trace
        )
        assert reference == pytest.approx(
            analytic.runtime, abs=_tolerance(analytic, trace)
        )

    @given(plan=small_plans(),
           nodes=st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_agreement_without_failures(self, plan, nodes):
        cluster = Cluster(nodes=nodes, mttr=1.0)
        configured = AllMat().configure(plan, cluster.stats(1e9))
        analytic = SimulatedEngine(cluster).execute(configured)
        reference = ReferenceEngine(cluster, step=STEP).execute(configured)
        assert reference == pytest.approx(analytic.runtime, abs=2.0)

    @given(plan=small_plans(), seed=st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_agreement_with_skew(self, plan, seed):
        cluster = Cluster(nodes=2, mttr=1.0, node_skew=(1.0, 1.7))
        configured = NoMatLineage().configure(plan, cluster.stats(60.0))
        trace = generate_trace(2, mtbf=60.0, horizon=1e6, seed=seed)
        analytic = SimulatedEngine(cluster).execute(configured, trace)
        reference = ReferenceEngine(cluster, step=STEP).execute(
            configured, trace
        )
        assert reference == pytest.approx(
            analytic.runtime, abs=_tolerance(analytic, trace)
        )


class TestReferenceGuards:
    def test_rejects_coarse_recovery(self, chain_plan):
        from repro.core.strategies import NoMatRestart

        cluster = Cluster(nodes=1, mttr=1.0)
        configured = NoMatRestart().configure(chain_plan,
                                              cluster.stats(100.0))
        with pytest.raises(ValueError):
            ReferenceEngine(cluster).execute(configured)

    def test_rejects_invalid_step(self):
        with pytest.raises(ValueError):
            ReferenceEngine(Cluster(nodes=1), step=0.0)

    def test_deterministic(self, chain_plan):
        cluster = Cluster(nodes=2, mttr=1.0)
        configured = AllMat().configure(chain_plan, cluster.stats(40.0))
        trace = generate_trace(2, mtbf=40.0, horizon=1e6, seed=3)
        engine = ReferenceEngine(cluster, step=STEP)
        assert engine.execute(configured, trace) == \
            engine.execute(configured, trace)
