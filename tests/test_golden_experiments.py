"""Golden regression tests: pin small-grid experiment outputs exactly.

Each test runs a shrunken version of a paper experiment and compares its
JSON serialization byte-for-byte against a file committed under
``tests/golden/``.  The simulations are deterministic (seeded traces,
ordered campaigns), so any drift -- a cost-model tweak, a scheduler
change, a refactor that silently reorders floating-point operations --
fails these tests with a readable diff instead of shipping unnoticed.

After an *intentional* behavior change, regenerate the pins:

    PYTHONPATH=src python -m pytest tests/test_golden_experiments.py \
        --regen-golden

and review the diff of ``tests/golden/`` like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.strategies import standard_schemes
from repro.engine.cluster import Cluster
from repro.engine.coordinator import compare_schemes
from repro.experiments import (
    fig8_queries,
    fig11_mtbf,
    fig13_pruning,
    tab3_robustness,
)
from repro.stats.calibration import default_parameters
from repro.tpch.queries import build_query_plan

GOLDEN_DIR = Path(__file__).parent / "golden"


def _check(request, name: str, payload: dict) -> None:
    """Compare ``payload`` against the committed pin (or rewrite it)."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path = GOLDEN_DIR / f"{name}.json"
    if request.config.getoption("--regen-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden file {path}; run pytest with --regen-golden"
    )
    expected = json.loads(path.read_text(encoding="utf-8"))
    assert payload == expected, (
        f"{name} drifted from its golden pin; if the change is "
        f"intentional, rerun with --regen-golden and review the diff"
    )


def _cell_dict(cell) -> dict:
    return {
        "query": cell.label,
        "scheme": cell.scheme,
        "mtbf": cell.mtbf,
        "baseline": cell.baseline,
        "overhead_percent": (
            cell.overhead_percent if not cell.all_aborted else "aborted"
        ),
        "aborted": cell.all_aborted,
        "materialized_ids": list(cell.materialized_ids),
    }


@pytest.fixture(scope="module")
def fig8_small():
    """Figure 8's small grid, shared by its row pin and its table pin."""
    return fig8_queries.run(
        scale_factor=10.0, queries=("Q3", "Q5"), trace_count=3,
    )


def _rows_payload(rows) -> dict:
    """``compare_schemes`` rows in the ``compare_schemes_small`` shape."""
    return {
        "rows": [
            {
                "query": row.label,
                "scheme": row.scheme,
                "overhead_percent": (
                    row.overhead_percent if not row.all_aborted
                    else "aborted"
                ),
                "aborted": row.all_aborted,
                "materialized_ids": list(row.materialized_ids),
            }
            for row in rows
        ],
    }


def _table_payload(text: str) -> dict:
    """A rendered table as one pinned string per line."""
    return {"lines": text.split("\n")}


class TestGoldenExperiments:
    def test_fig8_small_grid(self, request, fig8_small):
        result = fig8_small
        payload = {
            "low_mtbf": [_cell_dict(c) for c in result.low_mtbf_cells],
            "high_mtbf": [_cell_dict(c) for c in result.high_mtbf_cells],
            "baselines": result.baselines,
        }
        _check(request, "fig8_small", payload)

    def test_fig8_small_table(self, request, fig8_small):
        """The rendered Figure 8 text, byte for byte."""
        _check(request, "fig8_table",
               _table_payload(fig8_queries.format_table(fig8_small)))

    def test_fig11_small_table(self, request):
        """The rendered Figure 11 text, byte for byte."""
        result = fig11_mtbf.run(scale_factor=10.0, trace_count=3)
        _check(request, "fig11_table",
               _table_payload(fig11_mtbf.format_table(result)))

    def test_fig13_small(self, request):
        result = fig13_pruning.run(max_join_orders=60)
        payload = {
            "join_orders": result.join_orders,
            "effects": [
                {
                    "label": effect.label,
                    "mtbf": effect.mtbf,
                    "total_ft_plans": effect.total_ft_plans,
                    "rule1_percent": effect.rule1_percent,
                    "rule2_percent": effect.rule2_percent,
                    "rule3_percent": effect.rule3_percent,
                    "all_rules_percent": effect.all_rules_percent,
                }
                for effect in result.effects
            ],
        }
        _check(request, "fig13_small", payload)

    def test_tab3_small_grid(self, request):
        result = tab3_robustness.run(
            scale_factor=10.0, factors=(0.5, 2.0),
        )
        payload = {
            "baseline_costs": list(result.baseline_costs),
            "rows": [
                {
                    "kind": row.kind.value,
                    "factor": row.factor,
                    "top5_baseline_positions": list(
                        row.top5_baseline_positions
                    ),
                    "regret": result.regret(row),
                }
                for row in result.rows
            ],
        }
        _check(request, "tab3_small", payload)

    def test_compare_schemes_small(self, request):
        params = default_parameters(nodes=10)
        plan = build_query_plan("Q3", 10.0, params)
        cluster = Cluster(nodes=10, mttr=1.0)
        rows = compare_schemes(
            standard_schemes(preflight_lint=False),
            plan, "Q3", cluster,
            mtbf=900.0, trace_count=3, base_seed=17,
        )
        payload = _rows_payload(rows)
        _check(request, "compare_schemes_small", payload)

    def test_zero_rate_chaos_reproduces_compare_schemes_pin(
        self, request
    ):
        """A null fault policy must reproduce the clean pin *exactly*.

        Same protocol as ``test_compare_schemes_small``, checked against
        the same golden file: the chaos layer at rate zero is asserted
        to be invisible down to the serialized output.
        """
        from repro.chaos import (
            CorrelatedFailures,
            FaultPolicy,
            FlakyWrites,
            Stragglers,
            WorkerCrashes,
        )

        null_policy = FaultPolicy(
            seed=23,
            correlated=CorrelatedFailures(burst_mtbf=100.0,
                                          intensity=0.0),
            flaky_writes=FlakyWrites(rate=0.0),
            stragglers=Stragglers(rate=0.0),
            worker_crashes=WorkerCrashes(rate=0.0),
        )
        params = default_parameters(nodes=10)
        plan = build_query_plan("Q3", 10.0, params)
        cluster = Cluster(nodes=10, mttr=1.0)
        rows = compare_schemes(
            standard_schemes(preflight_lint=False),
            plan, "Q3", cluster,
            mtbf=900.0, trace_count=3, base_seed=17,
            chaos=null_policy,
        )
        payload = _rows_payload(rows)
        _check(request, "compare_schemes_small", payload)

    def test_robustness_small_grid(self, request):
        from repro.experiments import robustness

        result = robustness.run(
            query="Q3", scale_factor=10.0, trace_count=2,
        )
        payload = {
            "query": result.query,
            "mtbf": result.mtbf,
            "baseline": result.baseline,
            "config_labels": list(result.config_labels),
            "rows": [
                {
                    "regime": row.regime,
                    "effective_mtbf": row.effective_mtbf,
                    "chosen_config": row.chosen_config,
                    "oracle_config": row.oracle_config,
                    "chosen_mean": row.chosen_mean,
                    "oracle_mean": row.oracle_mean,
                    "regret": row.regret,
                }
                for row in result.rows
            ],
        }
        _check(request, "robustness_small", payload)

    def test_adaptive_drift_small_grid(self, request):
        from repro.experiments import adaptive_drift

        result = adaptive_drift.run(
            query="Q5", scale_factor=100.0, trace_count=2,
        )
        # sanity invariants first, so a drifted pin fails with a
        # readable cause
        zero = result.rows[0]
        assert zero.replans == 0
        assert zero.identical_to_static
        payload = {
            "query": result.query,
            "mtbf": result.mtbf,
            "baseline": result.baseline,
            "envelope": {
                "mtbf_ratio": result.envelope.mtbf_ratio,
                "runtime_ratio": result.envelope.runtime_ratio,
                "min_failures": result.envelope.min_failures,
                "confidence": result.envelope.confidence,
                "use_ci": result.envelope.use_ci,
            },
            "config_labels": list(result.config_labels),
            "rows": [
                {
                    "regime": row.regime,
                    "effective_mtbf": row.effective_mtbf,
                    "chosen_config": row.chosen_config,
                    "oracle_config": row.oracle_config,
                    "static_mean": row.static_mean,
                    "adaptive_mean": row.adaptive_mean,
                    "oracle_mean": row.oracle_mean,
                    "replans": row.replans,
                    "identical_to_static": row.identical_to_static,
                }
                for row in result.rows
            ],
        }
        _check(request, "adaptive_drift_small", payload)

    def test_multitenant_small_grid(self, request):
        from repro.experiments import multitenant

        result = multitenant.run(
            queries=60, trace_count=2, templates_per_class=2,
        )
        # sanity invariants first, so a drifted pin fails with a
        # readable cause instead of a wall of JSON
        assert result.error_rows == 0
        assert result.advice.hit_rate >= 0.5
        assert all(group.regret >= 1.0 - 1e-12
                   for group in result.groups)
        _check(request, "multitenant_small", result.to_payload())
