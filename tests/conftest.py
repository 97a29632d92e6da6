"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.cost_model import ClusterStats
from repro.core.plan import Operator, Plan
from repro.stats.calibration import default_parameters
from repro.tpch.datagen import generate


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden", action="store_true", default=False,
        help="rewrite tests/golden/*.json from the current outputs "
             "instead of comparing against them",
    )


@pytest.fixture
def paper_plan() -> Plan:
    """The Figure 2/3 plan: two scans, a join, a repartition, a map UDF,
    and two reduce UDF sinks, with the paper's materialization flags."""
    operators = [
        Operator(1, "Scan R", 1.0, 1.0),
        Operator(2, "Scan S", 2.0, 1.0),
        Operator(3, "HashJoin", 2.0, 1.0, materialize=True),
        Operator(4, "Repartition", 1.0, 1.0),
        Operator(5, "MapUDF", 2.0, 1.0, materialize=True),
        Operator(6, "ReduceUDF", 1.0, 0.0, materialize=True, free=False),
        Operator(7, "ReduceUDF", 2.0, 0.0, materialize=True, free=False),
    ]
    edges = [(1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7)]
    return Plan.from_edges(operators, edges)


@pytest.fixture
def chain_plan() -> Plan:
    """A simple 4-operator pipeline with a bound sink."""
    operators = [
        Operator(1, "a", 10.0, 2.0),
        Operator(2, "b", 20.0, 4.0),
        Operator(3, "c", 5.0, 1.0),
        Operator(4, "sink", 1.0, 0.5, materialize=True, free=False),
    ]
    edges = [(1, 2), (2, 3), (3, 4)]
    return Plan.from_edges(operators, edges)


@pytest.fixture
def stats_hour() -> ClusterStats:
    return ClusterStats(mtbf=3600.0, mttr=1.0, nodes=10)


@pytest.fixture
def stats_table2() -> ClusterStats:
    """The Table 2 worked example's statistics."""
    return ClusterStats(mtbf=60.0, mttr=0.0, nodes=1)


@pytest.fixture(scope="session")
def tiny_tpch():
    """A small TPC-H database shared by the workload tests."""
    return generate(0.002, seed=42)


@pytest.fixture(scope="session")
def default_params():
    return default_parameters()


@pytest.fixture
def spawn_pool():
    """Start every pool worker with ``spawn``: a worker then inherits
    nothing from the test process (no warm caches, no monkeypatches),
    as under the forkserver default of Python 3.14 or on macOS.  Sets
    the process-wide default method and restores it afterwards."""
    import multiprocessing

    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    yield
    multiprocessing.set_start_method(previous, force=True)
