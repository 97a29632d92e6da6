"""Tests for the static-analysis subsystem (``repro.analysis``).

One deliberately-broken fixture per lint rule -- a bad plan, a bad
configuration, a bad collapsed plan, or a bad code snippet -- asserting
the stable rule id and severity, plus clean-path tests and a clean-repo
smoke test of ``python -m repro lint``.
"""

import json
import math
import os
import textwrap

import pytest

from repro.analysis import (
    RULES,
    LintError,
    Severity,
    default_stats_grid,
    format_json,
    format_text,
    has_errors,
    lint_collapsed,
    lint_invariants,
    lint_mat_config,
    lint_plan,
    lint_source,
    preflight_check,
)
from repro.cli import main
from repro.core.collapse import CollapsedOperator, CollapsedPlan, collapse_plan
from repro.core.cost_model import ClusterStats
from repro.core.enumeration import find_best_ft_plan
from repro.core.plan import Operator, Plan, linear_plan

STATS = ClusterStats(mtbf=3600.0, mttr=1.0, nodes=10)
GRID = [STATS]


def rule_ids(diagnostics):
    return {d.rule_id for d in diagnostics}


def findings(diagnostics, rule_id):
    return [d for d in diagnostics if d.rule_id == rule_id]


# ----------------------------------------------------------------------
# plan linter: structural rules
# ----------------------------------------------------------------------
class TestPlanStructuralRules:
    def test_clean_plan_has_no_findings(self):
        plan = linear_plan([(10.0, 1.0), (20.0, 2.0), (5.0, 0.5)])
        assert lint_plan(plan, stats_grid=GRID) == []

    def test_p001_empty_plan(self):
        diags = lint_plan(Plan(), stats_grid=GRID)
        assert rule_ids(diags) == {"P001"}
        assert diags[0].severity == Severity.ERROR

    def test_p002_cycle(self):
        plan = linear_plan([(1.0, 1.0), (1.0, 1.0)])
        # Plan.add_edge refuses cycles, so corrupt the adjacency directly
        plan._consumers[2].append(1)
        plan._producers[1].append(2)
        diags = lint_plan(plan, stats_grid=GRID)
        assert "P002" in rule_ids(diags)
        assert findings(diags, "P002")[0].severity == Severity.ERROR

    def test_p003_edge_to_missing_operator(self):
        plan = linear_plan([(1.0, 1.0), (1.0, 1.0)])
        plan._consumers[1].append(99)
        diags = lint_plan(plan, stats_grid=GRID)
        assert "P003" in rule_ids(diags)

    def test_p003_asymmetric_adjacency(self):
        plan = Plan()
        plan.add_operator(Operator(1, "a", 1.0, 1.0))
        plan.add_operator(Operator(2, "b", 1.0, 1.0))
        plan._consumers[1].append(2)  # no matching reverse entry
        diags = lint_plan(plan, stats_grid=GRID)
        assert "P003" in rule_ids(diags)
        assert "reverse adjacency" in findings(diags, "P003")[0].message

    def test_p004_nan_cost(self):
        plan = linear_plan([(float("nan"), 1.0), (1.0, 1.0)])
        diags = lint_plan(plan, stats_grid=GRID)
        assert "P004" in rule_ids(diags)
        assert "runtime_cost" in findings(diags, "P004")[0].message

    def test_p004_infinite_mat_cost(self):
        plan = linear_plan([(1.0, float("inf"))])
        assert "P004" in rule_ids(lint_plan(plan, stats_grid=GRID))

    def test_p004_negative_cost_forced_past_validation(self):
        plan = linear_plan([(1.0, 1.0)])
        object.__setattr__(plan[1], "runtime_cost", -3.0)
        assert "P004" in rule_ids(lint_plan(plan, stats_grid=GRID))


# ----------------------------------------------------------------------
# plan linter: configuration rules
# ----------------------------------------------------------------------
class TestConfigRules:
    def test_clean_config(self):
        plan = linear_plan([(1.0, 1.0), (2.0, 2.0)])
        assert lint_mat_config(plan, {1: True, 2: False}.items()) == []

    def test_p005_flipping_a_bound_operator(self):
        plan = Plan()
        plan.add_operator(Operator(1, "scan", 1.0, 1.0).as_bound(True))
        diags = lint_mat_config(plan, {1: False}.items())
        assert rule_ids(diags) == {"P005"}
        assert diags[0].severity == Severity.ERROR

    def test_p005_not_fired_when_flag_matches(self):
        plan = Plan()
        plan.add_operator(Operator(1, "scan", 1.0, 1.0).as_bound(True))
        assert lint_mat_config(plan, {1: True}.items()) == []

    def test_p006_unknown_operator(self):
        plan = linear_plan([(1.0, 1.0)])
        diags = lint_mat_config(plan, {7: True}.items())
        assert rule_ids(diags) == {"P006"}


# ----------------------------------------------------------------------
# plan linter: collapsed-plan rules
# ----------------------------------------------------------------------
def _two_op_plan():
    """``1 -> 2`` with no materialization; 2 is the sink."""
    return linear_plan([(2.0, 1.0), (3.0, 1.0)])


def _group(anchor, members, runtime, mat=0.0, path=None):
    return CollapsedOperator(
        anchor_id=anchor, members=frozenset(members),
        runtime_cost=runtime, mat_cost=mat,
        dominant_path=tuple(path if path is not None else [anchor]),
    )


class TestCollapsedRules:
    def test_clean_collapse_of_real_plan(self):
        plan = _two_op_plan().with_mat_config({1: True})
        collapsed = collapse_plan(plan)
        assert lint_collapsed(plan, collapsed, stats_grid=GRID) == []

    def test_p007_anchor_without_boundary(self):
        plan = _two_op_plan()
        collapsed = CollapsedPlan()
        collapsed.add_group(_group(1, {1}, 2.0))  # m(1)=0 and 1 has consumers
        collapsed.add_group(_group(2, {2}, 3.0))
        diags = lint_collapsed(plan, collapsed, stats_grid=GRID)
        assert "P007" in rule_ids(diags)
        assert findings(diags, "P007")[0].severity == Severity.ERROR

    def test_p008_uncovered_operator(self):
        plan = _two_op_plan()
        collapsed = CollapsedPlan()
        collapsed.add_group(_group(2, {2}, 3.0))  # operator 1 not covered
        diags = lint_collapsed(plan, collapsed, stats_grid=GRID)
        assert "P008" in rule_ids(diags)
        assert "[1]" in findings(diags, "P008")[0].message

    def test_p009_runtime_mismatch(self):
        plan = _two_op_plan()
        collapsed = CollapsedPlan()
        collapsed.add_group(_group(2, {1, 2}, 999.0, path=[1, 2]))
        diags = lint_collapsed(plan, collapsed, stats_grid=GRID)
        assert "P009" in rule_ids(diags)

    def test_p009_path_outside_members(self):
        plan = _two_op_plan()
        collapsed = CollapsedPlan()
        collapsed.add_group(_group(2, {2}, 3.0, path=[1, 2]))
        collapsed.add_group(_group(1, {1}, 2.0, mat=1.0))
        # force a legal-looking anchor so only the path rule fires for 2
        diags = lint_collapsed(
            plan.with_mat_config({1: True}), collapsed, stats_grid=GRID
        )
        assert "P009" in rule_ids(diags)

    def test_p004_on_collapsed_group_cost(self):
        plan = _two_op_plan()
        collapsed = CollapsedPlan()
        collapsed.add_group(_group(2, {1, 2}, float("nan"), path=[1, 2]))
        diags = lint_collapsed(plan, collapsed, stats_grid=GRID)
        assert "P004" in rule_ids(diags)

    def test_p010_free_materialized_sink_is_a_warning(self):
        plan = Plan.from_edges(
            [Operator(1, "a", 1.0, 1.0),
             Operator(2, "b", 1.0, 1.0, materialize=True, free=True)],
            edges=[(1, 2)],
        )
        diags = lint_plan(plan, stats_grid=GRID)
        assert rule_ids(diags) == {"P010"}
        assert diags[0].severity == Severity.WARNING
        assert not has_errors(diags)

    def test_p010_not_fired_for_bound_sinks(self):
        plan = Plan.from_edges(
            [Operator(1, "a", 1.0, 1.0),
             Operator(2, "b", 1.0, 1.0).as_bound(True)],
            edges=[(1, 2)],
        )
        assert lint_plan(plan, stats_grid=GRID) == []


# ----------------------------------------------------------------------
# cost-model invariant rules (M001-M004)
# ----------------------------------------------------------------------
class TestInvariantRules:
    def test_clean_over_default_grid(self):
        for cost in (0.0, 1e-9, 4.0, 1e6):
            assert lint_invariants(cost) == []

    def test_m001_eta_out_of_bounds(self):
        diags = lint_invariants(4.0, GRID, eta_fn=lambda t, m: 1.5)
        assert rule_ids(diags) == {"M001"}
        assert diags[0].severity == Severity.ERROR

    def test_m002_waste_above_half(self):
        diags = lint_invariants(4.0, GRID, waste_fn=lambda t, m: t)
        assert rule_ids(diags) == {"M002"}

    def test_m003_negative_attempts(self):
        diags = lint_invariants(4.0, GRID,
                                attempts_fn=lambda t, m, s: -0.5)
        assert rule_ids(diags) == {"M003"}

    def test_m004_runtime_below_failure_free(self):
        diags = lint_invariants(4.0, GRID,
                                runtime_fn=lambda t, stats: t * 0.5)
        assert rule_ids(diags) == {"M004"}

    def test_nan_cost_violates_every_invariant(self):
        diags = lint_invariants(float("nan"), GRID)
        assert rule_ids(diags) == {"M001", "M002", "M003", "M004"}

    def test_default_grid_spans_decades(self):
        grid = default_stats_grid()
        assert len(grid) >= 4
        assert min(s.mtbf for s in grid) < max(s.mtbf for s in grid)


# ----------------------------------------------------------------------
# code linter (C000-C006)
# ----------------------------------------------------------------------
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "repro")


def lint_snippet(code, filename="src/repro/engine/fake.py"):
    return lint_source(textwrap.dedent(code), filename=filename)


class TestCodeRules:
    def test_clean_snippet(self):
        diags = lint_snippet("""
            import numpy as np

            def draw(seed):
                rng = np.random.default_rng(seed)
                return rng.random()
        """)
        assert diags == []

    def test_c000_syntax_error(self):
        diags = lint_snippet("def broken(:\n")
        assert rule_ids(diags) == {"C000"}

    def test_c001_unseeded_random_constructor(self):
        diags = lint_snippet("""
            import random
            rng = random.Random()
        """)
        assert rule_ids(diags) == {"C001"}
        assert diags[0].severity == Severity.ERROR

    def test_c001_global_random_draw(self):
        diags = lint_snippet("""
            import random
            x = random.random()
        """)
        assert rule_ids(diags) == {"C001"}

    def test_c001_seeded_random_is_clean(self):
        assert lint_snippet("""
            import random
            rng = random.Random(42)
        """) == []

    def test_c002_default_rng_without_seed(self):
        diags = lint_snippet("""
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert rule_ids(diags) == {"C002"}

    def test_c002_default_rng_with_none_seed(self):
        diags = lint_snippet("""
            import numpy as np
            rng = np.random.default_rng(None)
        """)
        assert rule_ids(diags) == {"C002"}

    def test_c002_legacy_global_draw(self):
        diags = lint_snippet("""
            import numpy as np
            x = np.random.rand(3)
        """)
        assert rule_ids(diags) == {"C002"}

    @pytest.mark.parametrize("call", [
        "np.random.PCG64()", "np.random.SeedSequence()",
        "np.random.MT19937(None)", "np.random.Generator(np.random.PCG64())",
    ])
    def test_c002_unseeded_bit_generator(self, call):
        diags = lint_snippet(f"""
            import numpy as np
            rng = {call}
        """)
        assert [d.rule_id for d in diags] == ["C002"]

    def test_c002_seeded_bit_generators_are_clean(self):
        assert lint_snippet("""
            import numpy as np
            from numpy.random import PCG64, SeedSequence

            def build(key, words):
                a = np.random.Generator(np.random.PCG64(words))
                b = np.random.Generator(PCG64(SeedSequence(key)))
                c = SeedSequence(entropy=key)
                return a, b, c
        """) == []

    def test_c002_trace_stream_seeding_is_clean(self):
        for name in ("seeding.py", "traces.py"):
            path = os.path.join(SRC_DIR, "engine", name)
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            assert lint_source(source, filename=path) == [], name

    def test_c003_wall_clock_in_simulator(self):
        diags = lint_snippet("""
            import time
            now = time.time()
        """)
        assert rule_ids(diags) == {"C003"}

    def test_c003_not_fired_outside_deterministic_modules(self):
        diags = lint_snippet("""
            import time
            now = time.time()
        """, filename="src/repro/stats/profiling.py")
        assert diags == []

    def test_c004_float_literal_equality(self):
        diags = lint_snippet("""
            def f(x):
                return x == 0.5
        """)
        assert rule_ids(diags) == {"C004"}

    def test_c004_cost_name_equality(self):
        diags = lint_snippet("""
            def f(total_cost, other_cost):
                return total_cost != other_cost
        """)
        assert rule_ids(diags) == {"C004"}

    def test_c004_ordered_comparison_is_clean(self):
        assert lint_snippet("""
            def f(total_cost):
                return total_cost <= 0
        """) == []

    def test_c004_none_comparison_is_clean(self):
        assert lint_snippet("""
            def f(mat_cost):
                return mat_cost == None
        """) == []

    def test_c005_mutable_default(self):
        diags = lint_snippet("""
            def f(items=[]):
                return items
        """)
        assert rule_ids(diags) == {"C005"}

    def test_c005_mutable_default_kwonly_dict_call(self):
        diags = lint_snippet("""
            def f(*, cache=dict()):
                return cache
        """)
        assert rule_ids(diags) == {"C005"}

    def test_c006_bare_except(self):
        diags = lint_snippet("""
            try:
                work()
            except:
                handle()
        """)
        assert rule_ids(diags) == {"C006"}

    def test_c006_silent_handler(self):
        diags = lint_snippet("""
            try:
                work()
            except ValueError:
                pass
        """)
        assert rule_ids(diags) == {"C006"}

    def test_c006_handled_exception_is_clean(self):
        assert lint_snippet("""
            try:
                work()
            except ValueError as error:
                log(error)
        """) == []


# ----------------------------------------------------------------------
# acceptance: >= 10 distinct rules demonstrably fire
# ----------------------------------------------------------------------
class TestRuleCatalog:
    def test_catalog_has_stable_ids_for_both_passes(self):
        plan_rules = {r for r in RULES if r.startswith(("P", "M"))}
        code_rules = {r for r in RULES if r.startswith("C")}
        assert len(plan_rules) >= 10
        assert len(code_rules) >= 6

    def test_at_least_ten_distinct_rules_fire_on_fixtures(self):
        fired = set()
        fired |= rule_ids(lint_plan(Plan(), stats_grid=GRID))
        cyclic = linear_plan([(1.0, 1.0), (1.0, 1.0)])
        cyclic._consumers[2].append(1)
        cyclic._producers[1].append(2)
        fired |= rule_ids(lint_plan(cyclic, stats_grid=GRID))
        dangling = linear_plan([(1.0, 1.0)])
        dangling._consumers[1].append(99)
        fired |= rule_ids(lint_plan(dangling, stats_grid=GRID))
        fired |= rule_ids(
            lint_plan(linear_plan([(float("nan"), 1.0)]), stats_grid=GRID)
        )
        bound = Plan()
        bound.add_operator(Operator(1, "s", 1.0, 1.0).as_bound(True))
        fired |= rule_ids(lint_mat_config(bound, {1: False, 9: True}.items()))
        broken = CollapsedPlan()
        broken.add_group(_group(1, {1}, 99.0, path=[1]))
        fired |= rule_ids(
            lint_collapsed(_two_op_plan(), broken, stats_grid=GRID)
        )
        fired |= rule_ids(lint_invariants(float("nan"), GRID))
        fired |= rule_ids(lint_snippet("""
            import random, time, numpy as np
            r = random.Random()
            g = np.random.default_rng()
            t = time.time()
            def f(cost, xs=[]):
                try:
                    return cost == 1.5
                except:
                    pass
        """))
        assert len(fired) >= 10
        plan_level = {r for r in fired if r.startswith(("P", "M"))}
        ast_level = {r for r in fired if r.startswith("C")}
        assert len(plan_level) >= 6
        assert len(ast_level) >= 4
        assert fired <= set(RULES)


# ----------------------------------------------------------------------
# pre-flight integration
# ----------------------------------------------------------------------
class TestPreflight:
    def test_preflight_clean_plan_passes(self):
        preflight_check(linear_plan([(10.0, 1.0), (20.0, 2.0)]), STATS)

    def test_preflight_raises_on_broken_plan(self):
        with pytest.raises(LintError) as excinfo:
            preflight_check(linear_plan([(float("nan"), 1.0)]), STATS)
        assert any(d.rule_id == "P004" for d in excinfo.value.diagnostics)

    def test_find_best_ft_plan_rejects_broken_plan(self):
        with pytest.raises(LintError):
            find_best_ft_plan(
                [linear_plan([(float("nan"), 1.0), (1.0, 1.0)])], STATS
            )

    def test_find_best_ft_plan_opt_out(self):
        result = find_best_ft_plan(
            [linear_plan([(float("nan"), 1.0), (1.0, 1.0)])], STATS,
            preflight_lint=False,
        )
        assert result is not None  # the search ran (on garbage costs)

    def test_find_best_ft_plan_clean_unchanged(self):
        plan = linear_plan([(100.0, 5.0), (200.0, 10.0), (50.0, 1.0)])
        with_lint = find_best_ft_plan([plan], STATS)
        without = find_best_ft_plan([plan], STATS, preflight_lint=False)
        assert with_lint.cost == pytest.approx(without.cost)
        assert with_lint.mat_config == without.mat_config

    def test_compare_schemes_rejects_broken_plan(self):
        from repro.core.strategies import standard_schemes
        from repro.engine.cluster import Cluster
        from repro.engine.coordinator import compare_schemes

        with pytest.raises(LintError):
            compare_schemes(
                standard_schemes(),
                linear_plan([(float("inf"), 1.0)]),
                "broken", Cluster(nodes=2, mttr=1.0), mtbf=3600.0,
                trace_count=1,
            )


# ----------------------------------------------------------------------
# diagnostics formatting + CLI
# ----------------------------------------------------------------------
class TestFormattingAndCli:
    def test_format_text_mentions_rule_and_summary(self):
        diags = lint_plan(Plan(), stats_grid=GRID)
        text = format_text(diags)
        assert "P001" in text and "1 error(s)" in text

    def test_format_json_round_trips(self):
        diags = lint_plan(linear_plan([(float("nan"), 1.0)]),
                          stats_grid=GRID)
        payload = json.loads(format_json(diags))
        assert payload["errors"] >= 1
        assert payload["findings"][0]["rule_id"].startswith("P")

    def test_cli_lint_clean_repo_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out or "clean" in out

    def test_cli_lint_json_format(self, capsys):
        assert main(["lint", "--plans", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0

    def test_cli_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("P001", "M001", "C001"):
            assert rule_id in out

    def test_cli_lint_flags_seeded_defect_file(self, tmp_path, capsys):
        bad = tmp_path / "engine" / "bad.py"
        os.makedirs(bad.parent)
        bad.write_text("import random\nx = random.random()\n")
        assert main(["lint", "--path", str(bad)]) == 1
        assert "C001" in capsys.readouterr().out

    def test_cli_lint_plan_file(self, tmp_path, capsys):
        from repro.core.serialize import dump_plan

        target = tmp_path / "plan.json"
        dump_plan(linear_plan([(10.0, 1.0), (20.0, 2.0)]), str(target))
        assert main(["lint", "--plan-file", str(target)]) == 0

    def test_cli_lint_missing_plan_file(self, capsys):
        assert main(["lint", "--plan-file", "/nonexistent/plan.json"]) == 2

    def test_cli_lint_missing_code_path(self, capsys):
        # a typo'd --path must not masquerade as a clean run
        assert main(["lint", "--code", "--path", "/nonexistent/dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_wasted_runtime_zero_cost_still_exact(self):
        # the float-equality fix in cost_model must keep w(0) == 0 exactly
        from repro.core.cost_model import wasted_runtime_exact

        assert wasted_runtime_exact(0.0, 3600.0) == 0.0
        assert wasted_runtime_exact(1e-12, 3600.0) == pytest.approx(
            5e-13, rel=1e-6
        )

    def test_lint_invariants_abs_zero_edge(self):
        assert lint_invariants(0.0, GRID) == []
        assert not math.isnan(
            default_stats_grid()[0].mtbf_cost
        )


# ----------------------------------------------------------------------
# C003 extension: monotonic/perf_counter, aliases, obs allowlist
# ----------------------------------------------------------------------
class TestC003Extension:
    def test_monotonic_dotted(self):
        diags = lint_snippet("""
            import time
            start = time.monotonic()
        """)
        assert rule_ids(diags) == {"C003"}

    def test_perf_counter_bare_from_import(self):
        diags = lint_snippet("""
            from time import perf_counter

            def measure():
                return perf_counter()
        """)
        assert rule_ids(diags) == {"C003"}

    def test_module_alias(self):
        diags = lint_snippet("""
            import time as t
            start = t.perf_counter()
        """)
        assert rule_ids(diags) == {"C003"}

    def test_bare_from_import_alias(self):
        diags = lint_snippet("""
            from time import monotonic as now
            start = now()
        """)
        assert rule_ids(diags) == {"C003"}

    def test_obs_package_is_deterministic(self):
        diags = lint_snippet("""
            import time
            stamp = time.monotonic()
        """, filename="src/repro/obs/export.py")
        assert rule_ids(diags) == {"C003"}

    def test_obs_recorder_is_allowlisted(self):
        diags = lint_snippet("""
            import time
            stamp = time.monotonic()
        """, filename="src/repro/obs/recorder.py")
        assert diags == []

    def test_local_name_shadowing_is_clean(self):
        # a user-defined monotonic() is not the wall clock
        assert lint_snippet("""
            def monotonic():
                return 0.0

            def measure():
                return monotonic()
        """) == []


# ----------------------------------------------------------------------
# JSON export schema + rule catalog covers D/S/O
# ----------------------------------------------------------------------
class TestDiagnosticsExport:
    def test_json_schema_pinned(self):
        from repro.analysis.diagnostics import JSON_SCHEMA

        payload = json.loads(format_json([]))
        assert payload["schema"] == JSON_SCHEMA == "repro-lint/1"

    def test_json_findings_sorted_and_stable(self):
        diags = lint_snippet("""
            import time, random
            t = time.time()
            r = random.Random()
        """)
        payload = json.loads(format_json(diags))
        keys = [
            (f["location"].get("file", ""),
             f["location"].get("line", 0),
             f["rule_id"])
            for f in payload["findings"]
        ]
        assert keys == sorted(keys)
        # emission order must not leak into the export
        assert format_json(diags) == format_json(list(reversed(diags)))
        for finding in payload["findings"]:
            assert set(finding) >= {
                "rule_id", "severity", "message", "location",
            }

    def test_catalog_includes_flow_families(self):
        for rule_id in ("D001", "D002", "D003", "D004",
                        "S001", "S002", "S003", "O001", "O002"):
            assert rule_id in RULES
            assert RULES[rule_id].severity == Severity.ERROR

    def test_cli_list_rules_covers_flow_families(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("D001", "D002", "D003", "D004",
                        "S001", "S002", "S003", "O001", "O002"):
            assert rule_id in out


# ----------------------------------------------------------------------
# baseline files: record known findings, fail only on new ones
# ----------------------------------------------------------------------
class TestBaseline:
    @staticmethod
    def _bad_file(tmp_path, extra=""):
        bad = tmp_path / "engine" / "bad.py"
        os.makedirs(bad.parent, exist_ok=True)
        bad.write_text("import random\nx = random.random()\n" + extra)
        return bad

    def test_baseline_key_ignores_position(self):
        from repro.analysis.diagnostics import baseline_key

        diags_a = lint_snippet("import random\nx = random.random()\n")
        diags_b = lint_snippet("\n\nimport random\nx = random.random()\n")
        assert [d.location.line for d in diags_a] != [
            d.location.line for d in diags_b
        ]
        assert [baseline_key(d) for d in diags_a] == [
            baseline_key(d) for d in diags_b
        ]

    def test_write_load_apply_round_trip(self, tmp_path):
        from repro.analysis.diagnostics import (
            apply_baseline,
            load_baseline,
            write_baseline,
        )

        diags = lint_snippet("import random\nx = random.random()\n")
        assert diags
        target = tmp_path / "known.json"
        count = write_baseline(str(target), diags)
        assert count == len({d.rule_id for d in diags})
        recorded = load_baseline(str(target))
        assert apply_baseline(diags, recorded) == []
        assert apply_baseline(diags, set()) == diags

    def test_load_rejects_wrong_schema(self, tmp_path):
        target = tmp_path / "stale.json"
        target.write_text(json.dumps({"schema": "other/9", "keys": []}))
        with pytest.raises(ValueError):
            from repro.analysis.diagnostics import load_baseline

            load_baseline(str(target))

    def test_cli_round_trip_suppresses_known(self, tmp_path, capsys):
        bad = self._bad_file(tmp_path)
        recorded = tmp_path / "known.json"
        assert main(["lint", "--path", str(bad),
                     "--write-baseline", str(recorded)]) == 0
        assert "baseline written" in capsys.readouterr().out
        assert main(["lint", "--path", str(bad),
                     "--baseline", str(recorded)]) == 0
        out = capsys.readouterr().out
        assert "suppressed" in out
        assert "clean" in out

    def test_cli_new_finding_still_fails(self, tmp_path, capsys):
        bad = self._bad_file(tmp_path)
        recorded = tmp_path / "known.json"
        assert main(["lint", "--path", str(bad),
                     "--write-baseline", str(recorded)]) == 0
        capsys.readouterr()
        self._bad_file(tmp_path, extra="import time\nt = time.time()\n")
        assert main(["lint", "--path", str(bad),
                     "--baseline", str(recorded)]) == 1
        out = capsys.readouterr().out
        assert "C003" in out
        assert "C001" not in out  # the recorded finding stays suppressed

    def test_cli_bad_baseline_file_exits_two(self, tmp_path, capsys):
        bad = self._bad_file(tmp_path)
        assert main(["lint", "--path", str(bad),
                     "--baseline", "/nonexistent/base.json"]) == 2
        assert "cannot load baseline" in capsys.readouterr().err
