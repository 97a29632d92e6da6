"""Tests for the whole-program flow analysis (D/S/O rule families).

Covers the call-graph program model, each rule family on targeted
snippets, the seeded fixture corpus under ``tests/fixtures/flow/``
(every known-bad file flagged by exactly its intended rule, every
known-good file clean), the zero-false-positive guarantee on the real
``src/repro`` tree, and regression tests for the genuine findings the
pass surfaced (S003 in the campaign engine, O001 float roll-ups).
"""

import os
import re
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.flow import Program, lint_flow, lint_flow_sources
from repro.analysis.flow.callgraph import module_name_for
from repro.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE_DIR = os.path.join(HERE, "fixtures", "flow")
SRC_ROOT = os.path.join(os.path.dirname(HERE), "src", "repro")

FLOW_FAMILIES = ("D", "S", "O")


def flow_ids(diagnostics):
    return {d.rule_id for d in diagnostics
            if d.rule_id.startswith(FLOW_FAMILIES)}


def analyze(*sources):
    """Build a program from dedented snippets named mod0.py, mod1.py..."""
    return Program.from_sources([
        (textwrap.dedent(source), f"mod{index}.py")
        for index, source in enumerate(sources)
    ])


def lint_snippets(*sources):
    return lint_flow_sources([
        (textwrap.dedent(source), f"mod{index}.py")
        for index, source in enumerate(sources)
    ])


# ----------------------------------------------------------------------
# program model / call graph
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_module_name_walks_init_chain(self, tmp_path):
        package = tmp_path / "outer" / "inner"
        os.makedirs(package)
        (tmp_path / "outer" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "leaf.py").write_text("")
        assert module_name_for(str(package / "leaf.py")) == "outer.inner.leaf"
        assert module_name_for(str(package / "__init__.py")) == "outer.inner"

    def test_module_name_outside_packages_is_stem(self, tmp_path):
        target = tmp_path / "loose.py"
        target.write_text("")
        assert module_name_for(str(target)) == "loose"

    def test_same_module_call_resolution(self):
        program = analyze("""
            def helper():
                return 1

            def entry():
                return helper()
        """)
        assert "mod0:helper" in program.callees("mod0:entry")
        assert program.callers("mod0:helper") == {"mod0:entry"}

    def test_method_self_call_resolution(self):
        program = analyze("""
            class Engine:
                def _step(self):
                    return 1

                def run(self):
                    return self._step()
        """)
        assert "mod0:Engine._step" in program.callees("mod0:Engine.run")

    def test_cross_module_from_import_resolution(self):
        program = analyze(
            """
            from mod1 import helper

            def entry():
                return helper()
            """,
            """
            def helper():
                return 1
            """,
        )
        assert "mod1:helper" in program.callees("mod0:entry")

    def test_cross_module_alias_resolution(self):
        program = analyze(
            """
            import mod1

            def entry():
                return mod1.helper()
            """,
            """
            def helper():
                return 1
            """,
        )
        assert "mod1:helper" in program.callees("mod0:entry")

    def test_transitive_reachability_and_callers(self):
        program = analyze("""
            def c():
                return 1

            def b():
                return c()

            def a():
                return b()
        """)
        assert program.reachable_from("mod0:a") == {"mod0:b", "mod0:c"}
        assert program.transitive_callers("mod0:c") == {"mod0:a", "mod0:b"}

    def test_unresolved_external_calls_are_not_edges(self):
        program = analyze("""
            import math

            def entry():
                return math.sqrt(2.0)
        """)
        assert program.callees("mod0:entry") == set()

    def test_syntax_error_file_is_skipped(self):
        program = Program.from_sources([
            ("def broken(:\n", "broken.py"),
            ("def fine():\n    return 1\n", "fine.py"),
        ])
        assert "fine:fine" in program.functions
        assert "broken" not in program.modules


# ----------------------------------------------------------------------
# rule families on targeted snippets
# ----------------------------------------------------------------------
class TestSeedFlowRules:
    def test_d002_conditional_overwrite_not_flagged(self):
        diags = lint_snippets("""
            import random

            def run(seed, replay):
                stream = seed * 31
                if replay:
                    stream = 7
                return random.Random(stream).random()
        """)
        assert "D002" not in flow_ids(diags)

    def test_d003_other_name_seed_argument_is_allowed(self):
        diags = lint_snippets("""
            import random

            STATE = 3

            def run():
                return random.Random(STATE).random()
        """)
        assert flow_ids(diags) == set()

    def test_d001_not_fired_when_no_rng_in_reach(self):
        diags = lint_snippets("""
            def passthrough(seed):
                return 42
        """)
        assert "D001" not in flow_ids(diags)


class TestPoolSafetyRules:
    def test_s001_campaign_map_lambda_payload(self):
        diags = lint_snippets("""
            from repro.engine.campaign import campaign_map

            def sweep(cells, cluster):
                return campaign_map(lambda cell: cell, cells, cluster)
        """)
        assert "S001" in flow_ids(diags)

    def test_s002_reached_through_runner_init(self):
        diags = lint_snippets("""
            from repro.core.pool import resilient_map

            _SEEN = []

            def _init(x):
                _SEEN.append(x)
                return {}

            def _work(x):
                return x

            def fan_out(items):
                return resilient_map(_work, items, 2, fallback=list,
                                     namespace="n", track="t",
                                     init=_init, initargs=(1,))
        """)
        assert "S002" in flow_ids(diags)

    def test_s001_open_handle_in_initargs(self):
        diags = lint_snippets("""
            from concurrent.futures import ProcessPoolExecutor

            def _init(handle):
                pass

            def fan_out(items, path):
                log = open(path)
                with ProcessPoolExecutor(initializer=_init,
                                         initargs=(log,)) as pool:
                    return list(pool.map(str, items))
        """)
        assert "S001" in flow_ids(diags)

    def test_s002_global_statement_rebinding(self):
        diags = lint_snippets("""
            from concurrent.futures import ProcessPoolExecutor

            _TOTAL = 0

            def _work(x):
                global _TOTAL
                _TOTAL = _TOTAL + x
                return x

            def fan_out(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(_work, items))
        """)
        assert "S002" in flow_ids(diags)

    def test_s002_not_fired_outside_worker_reachable_set(self):
        diags = lint_snippets("""
            _CACHE_SETTINGS = {}

            def configure(key, value):
                _CACHE_SETTINGS[key] = value
        """)
        assert "S002" not in flow_ids(diags)

    def test_s003_allowed_inside_chaos_package(self):
        diags = lint_flow_sources([(
            "import os\n\ndef kill():\n    os._exit(17)\n",
            "src/repro/chaos/inject.py",
        )])
        assert "S003" not in flow_ids(diags)


class TestMergeOrderRules:
    def test_o001_dict_of_set_items_unpacking(self):
        # the executor _ancestor_costs shape: Dict[int, Set[int]] items
        diags = lint_snippets("""
            from typing import Dict, Set

            def roll_up(costs):
                ancestors: Dict[int, Set[int]] = {}
                return {
                    k: sum(costs[a] for a in group)
                    for k, group in ancestors.items()
                }
        """)
        assert "O001" in flow_ids(diags)

    def test_o001_sorted_wrap_is_clean(self):
        diags = lint_snippets("""
            from typing import Dict, Set

            def roll_up(costs):
                ancestors: Dict[int, Set[int]] = {}
                return {
                    k: sum(costs[a] for a in sorted(group))
                    for k, group in ancestors.items()
                }
        """)
        assert flow_ids(diags) == set()

    def test_o001_min_max_len_over_set_are_clean(self):
        diags = lint_snippets("""
            def extremes(values):
                pending = set(values)
                return min(v for v in pending), len(pending)
        """)
        assert flow_ids(diags) == set()

    def test_o002_scandir_flagged_glob_clean_when_sorted(self):
        diags = lint_snippets("""
            import glob
            import os

            def walk(directory, pattern):
                first = [e for e in os.scandir(directory)]
                second = sorted(glob.glob(pattern))
                return first, second
        """)
        ids = [d for d in diags if d.rule_id == "O002"]
        assert len(ids) == 1
        assert "scandir" in ids[0].message


# ----------------------------------------------------------------------
# the seeded fixture corpus
# ----------------------------------------------------------------------
def fixture_files():
    return sorted(
        name for name in os.listdir(FIXTURE_DIR) if name.endswith(".py")
    )


def expected_rule(path):
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
    match = re.search(r"# expect: (\S+)", first)
    assert match, f"{path}: missing '# expect:' header"
    return match.group(1)


def test_fixture_corpus_is_balanced():
    names = fixture_files()
    bad = [n for n in names if n.startswith("bad_")]
    good = [n for n in names if n.startswith("good_")]
    assert len(bad) >= 10 and len(good) >= 10
    assert len(bad) + len(good) == len(names)


@pytest.mark.parametrize("name", fixture_files())
def test_fixture(name):
    path = os.path.join(FIXTURE_DIR, name)
    expected = expected_rule(path)
    ids = flow_ids(lint_flow([path]))
    if expected == "clean":
        assert ids == set(), f"{name}: unexpected findings {ids}"
    else:
        assert ids == {expected}, (
            f"{name}: expected exactly {{{expected}}}, got {ids}"
        )


def test_fixture_corpus_covers_every_family_rule():
    expected = {
        expected_rule(os.path.join(FIXTURE_DIR, name))
        for name in fixture_files()
    }
    assert {"D001", "D002", "D003", "D004",
            "S001", "S002", "S003", "O001", "O002"} <= expected


# ----------------------------------------------------------------------
# zero false positives on the real tree + regression for real findings
# ----------------------------------------------------------------------
class TestCleanTree:
    def test_src_tree_has_zero_flow_findings(self):
        diagnostics = lint_flow([SRC_ROOT])
        assert flow_ids(diagnostics) == set(), [
            d.format() for d in diagnostics
        ]

    def test_cli_lint_flow_clean(self, capsys):
        assert main(["lint", "--flow", "--path", SRC_ROOT]) == 0
        assert "clean" in capsys.readouterr().out

    def test_runner_tasks_are_worker_entry_points(self):
        # tasks and inits handed to resilient_map never reach an
        # executor.submit / initializer= site themselves; S002 must
        # still walk from them
        from repro.analysis.code_lint import iter_python_files
        from repro.analysis.flow.poolsafety import _worker_entry_points

        program = Program.build(iter_python_files([SRC_ROOT]))
        assert {
            "repro.core.shard:_scan_shard_task",
            "repro.core.shard:_shard_init",
            "repro.engine.campaign:_campaign_chunk",
            "repro.engine.campaign:_campaign_init",
        } <= _worker_entry_points(program)


class TestRealFindingRegressions:
    def test_campaign_no_longer_hard_exits_directly(self):
        # the S003 finding: os._exit lived in engine/campaign.py; crash
        # injection now lives in the shared pool runner
        def read(*parts):
            with open(os.path.join(SRC_ROOT, *parts),
                      encoding="utf-8") as handle:
                return handle.read()

        assert "os._exit" not in read("engine", "campaign.py")
        assert "os._exit" not in read("core", "pool.py")
        assert "crash_worker_process" in read("core", "pool.py")

    def test_crash_worker_process_hard_exits(self):
        code = ("from repro.chaos.inject import crash_worker_process; "
                "crash_worker_process(17)")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(HERE), "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.returncode == 17

    def test_set_cardinality_uses_sorted_order(self):
        # the O001 finding: float product in set iteration order
        from functools import reduce

        from repro.joinorder.graph import JoinGraph

        graph = JoinGraph()
        rows = {"a": 0.1, "b": 0.3, "c": 7.0, "d": 1e7, "e": 3.33}
        for name, count in rows.items():
            graph.add_relation(name, count, width=8.0)
        names = set(rows)
        expected = reduce(
            lambda acc, n: acc * rows[n], sorted(names), 1.0
        )
        assert graph.set_cardinality(names) == expected

    def test_set_width_uses_sorted_order(self):
        from repro.joinorder.graph import JoinGraph

        graph = JoinGraph()
        widths = {"x": 0.1, "y": 0.2, "z": 0.3}
        for name, width in widths.items():
            graph.add_relation(name, 10.0, width=width)
        expected = widths["x"] + widths["y"] + widths["z"]
        assert graph.set_width(set(widths)) == expected

    def test_ancestor_costs_order_stable(self):
        # the O001 finding in executor._ancestor_costs: the lineage
        # roll-up must equal the sorted-order float sum bit-exactly
        from repro.core.collapse import collapse_plan
        from repro.core.plan import linear_plan
        from repro.engine.cluster import Cluster
        from repro.engine.executor import SimulatedEngine

        plan = linear_plan(
            [(0.1, 1.0), (0.3, 1.0), (7.0, 1.0), (3.33, 1.0)]
        )
        plan = plan.with_mat_config(
            {op_id: True for op_id in plan.free_operators}
        )
        collapsed = collapse_plan(plan)
        engine = SimulatedEngine(Cluster(nodes=4, mttr=1.0))
        costs = engine._ancestor_costs(collapsed)
        ancestors = {}
        for anchor in collapsed.topological_order():
            merged = set()
            for producer in collapsed.producers(anchor):
                merged.add(producer)
                merged |= ancestors[producer]
            ancestors[anchor] = merged
        assert any(len(group) >= 2 for group in ancestors.values())
        for anchor, group in ancestors.items():
            expected = sum(
                collapsed[a].total_cost for a in sorted(group)
            )
            assert costs[anchor] == expected
