"""The one left-to-right float sum (repro.core.summation.left_sum).

CPython 3.12's ``sum()`` of floats is compensated, so a pinned result
that adds with ``sum()`` changes its last bits with the Python version.
These cases pin the plain fold: ``1e16 + 1.0`` rounds back to ``1e16``
(half an ulp, ties to even), so adding two ones one at a time leaves
``1e16``, where a compensated sum gives ``1e16 + 2``.
"""

from repro.core.cost_model import path_cost_failure_free
from repro.core.summation import left_sum
from repro.engine.campaign import CellResult

SKEWED = (1e16, 1.0, 1.0)


def _row(runtimes):
    return CellResult(
        cell_index=0, label="x", scheme="all-mat", mtbf=100.0,
        const_pipe=1.0, baseline=1.0, runtimes=tuple(runtimes),
        aborted_runs=0, materialized_ids=(),
    )


def test_left_sum_is_a_plain_fold():
    assert left_sum(SKEWED) == 1e16
    assert left_sum(iter(SKEWED)) == 1e16
    assert left_sum([0.1, 0.2, 0.3]) == (0.1 + 0.2) + 0.3


def test_left_sum_of_nothing_is_the_int_zero():
    assert left_sum([]) == 0 and type(left_sum([])) is int


def test_mean_runtime_pins_the_fold():
    assert _row(SKEWED).mean_runtime == 1e16 / 3


def test_failure_free_path_cost_pins_the_fold():
    assert path_cost_failure_free(SKEWED) == 1e16
