"""Unit tests for failure-trace generation (Section 5.1's protocol)."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.chaos.policy import CorrelatedFailures, MtbfDrift
from repro.engine import traces as traces_module
from repro.engine.traces import (
    MAX_TRACE_EXTENSIONS,
    FailureTrace,
    TraceExhausted,
    empirical_mtbf,
    extend_trace,
    generate_trace,
    generate_trace_set,
    reset_trace_cache,
    retry_with_extension,
)


class TestGeneration:
    def test_deterministic_for_same_seed(self):
        a = generate_trace(4, 100.0, 10_000.0, seed=7)
        b = generate_trace(4, 100.0, 10_000.0, seed=7)
        assert a.node_failures == b.node_failures

    def test_different_seeds_differ(self):
        a = generate_trace(4, 100.0, 10_000.0, seed=1)
        b = generate_trace(4, 100.0, 10_000.0, seed=2)
        assert a.node_failures != b.node_failures

    def test_failures_are_strictly_increasing(self):
        trace = generate_trace(3, 50.0, 5_000.0, seed=0)
        for failures in trace.node_failures:
            assert list(failures) == sorted(failures)
            assert len(set(failures)) == len(failures)

    def test_failures_respect_horizon(self):
        trace = generate_trace(3, 50.0, 1_000.0, seed=0)
        for failures in trace.node_failures:
            assert all(f <= 1_000.0 for f in failures)

    def test_empirical_mtbf_close_to_nominal(self):
        trace = generate_trace(10, 100.0, 100_000.0, seed=3)
        observed = empirical_mtbf(trace)
        assert observed == pytest.approx(100.0, rel=0.1)

    def test_empirical_mtbf_none_without_failures(self):
        assert empirical_mtbf(FailureTrace.empty(3)) is None

    @pytest.mark.parametrize("kwargs", [
        {"nodes": 0, "mtbf": 1, "horizon": 1},
        {"nodes": 1, "mtbf": 0, "horizon": 1},
        {"nodes": 1, "mtbf": 1, "horizon": 0},
    ])
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ValueError):
            generate_trace(seed=0, **kwargs)


class TestExtension:
    def test_extension_preserves_prefix(self):
        short = generate_trace(5, 100.0, 1_000.0, seed=11)
        long = extend_trace(short, 10_000.0)
        for node in range(5):
            prefix = [f for f in long.failures_of(node) if f <= 1_000.0]
            assert tuple(prefix) == short.failures_of(node)

    def test_extension_is_noop_for_smaller_horizon(self):
        trace = generate_trace(2, 100.0, 5_000.0, seed=1)
        assert extend_trace(trace, 1_000.0) is trace

    def test_extension_requires_seed(self):
        with pytest.raises(ValueError):
            extend_trace(FailureTrace.empty(2), 100.0)


class TestRetryWithExtension:
    @staticmethod
    def _exhausted_until(finish_horizon, horizons):
        """A stub run that records each trace's horizon and raises
        ``TraceExhausted`` until the horizon reaches ``finish_horizon``."""
        def run(trace):
            horizons.append(trace.horizon)
            if trace.horizon < finish_horizon:
                raise TraceExhausted("stub run outlived its trace")
            return "done"
        return run

    def test_always_exhausted_run_is_tried_max_times(self, monkeypatch):
        # regenerating up to 10 * 4**19 s of failures would take
        # gigabytes: stretch the horizon alone
        monkeypatch.setattr(
            traces_module, "extend_trace",
            lambda trace, horizon: dataclasses.replace(
                trace, horizon=horizon
            ),
        )
        horizons = []
        trace = generate_trace(2, 100.0, 10.0, seed=3)
        with pytest.raises(TraceExhausted, match="20 trace extensions"):
            retry_with_extension(
                self._exhausted_until(float("inf"), horizons), trace
            )
        assert MAX_TRACE_EXTENSIONS == 20
        assert horizons == [10.0 * 4 ** step for step in range(20)]

    def test_returns_result_and_extended_trace(self):
        horizons = []
        trace = generate_trace(2, 100.0, 10.0, seed=3)
        result, extended = retry_with_extension(
            self._exhausted_until(640.0, horizons), trace
        )
        assert result == "done"
        assert horizons == [10.0, 40.0, 160.0, 640.0]
        assert extended == extend_trace(trace, 640.0)

    def test_seedless_trace_reraises_the_runs_error(self):
        error = TraceExhausted("stub run outlived its trace")
        calls = []

        def run(trace):
            calls.append(trace)
            raise error

        with pytest.raises(TraceExhausted) as raised:
            retry_with_extension(run, FailureTrace.empty(2))
        assert raised.value is error
        assert len(calls) == 1


class TestQueries:
    def test_next_failure(self):
        trace = FailureTrace(
            node_failures=((10.0, 20.0, 30.0), (5.0,)), mtbf=1.0
        )
        assert trace.next_failure(0, 0.0) == 10.0
        assert trace.next_failure(0, 10.0) == 20.0   # strictly after
        assert trace.next_failure(0, 35.0) is None
        assert trace.next_failure(1, 5.0) is None

    def test_first_failure_across_nodes(self):
        trace = FailureTrace(
            node_failures=((10.0, 20.0), (5.0, 40.0)), mtbf=1.0
        )
        assert trace.first_failure(0.0, 100.0) == (5.0, 1)
        assert trace.first_failure(5.0, 100.0) == (10.0, 0)
        assert trace.first_failure(40.0, 100.0) is None

    def test_count_in(self):
        trace = FailureTrace(
            node_failures=((10.0, 20.0), (5.0, 40.0)), mtbf=1.0
        )
        assert trace.count_in(0.0, 100.0) == 4
        assert trace.count_in(10.0, 40.0) == 2  # (10, 40]: 20 and 40

    def test_empty_trace(self):
        trace = FailureTrace.empty(3)
        assert trace.nodes == 3
        assert trace.next_failure(0, 0.0) is None
        assert trace.first_failure(0.0, 1e12) is None
        assert trace.horizon == float("inf")


class TestTraceSet:
    def test_count_and_distinct_seeds(self):
        traces = generate_trace_set(3, 100.0, 10_000.0, count=10,
                                    base_seed=100)
        assert len(traces) == 10
        assert len({t.seed for t in traces}) == 10

    def test_reproducible(self):
        a = generate_trace_set(2, 100.0, 1_000.0, count=3, base_seed=5)
        b = generate_trace_set(2, 100.0, 1_000.0, count=3, base_seed=5)
        assert [t.node_failures for t in a] == [t.node_failures for t in b]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            generate_trace_set(2, 100.0, 1_000.0, count=0)


def weibull(shape: float = 0.7) -> CorrelatedFailures:
    """The Weibull base process of ``shape`` with no bursts."""
    return CorrelatedFailures(burst_mtbf=math.inf, intensity=0.0,
                              base_shape=shape)


class TestWeibullTraces:
    def test_mean_interarrival_matches_mtbf(self):
        trace = generate_trace(10, mtbf=100.0, horizon=100_000.0, seed=4,
                               correlated=weibull())
        observed = empirical_mtbf(trace)
        assert observed == pytest.approx(100.0, rel=0.1)

    def test_shape_one_behaves_like_exponential(self):
        trace = generate_trace(5, mtbf=50.0, horizon=50_000.0, seed=1,
                               correlated=weibull(1.0))
        assert empirical_mtbf(trace) == pytest.approx(50.0, rel=0.15)

    def test_bursty_shape_clusters_failures(self):
        """shape < 1 means a decreasing hazard: the variance of the
        inter-arrival times exceeds the exponential's."""
        import numpy as np

        def gap_cv(trace):
            gaps = []
            for failures in trace.node_failures:
                gaps.extend(b - a for a, b in zip(failures, failures[1:]))
            return float(np.std(gaps) / np.mean(gaps))

        bursty = generate_trace(4, 100.0, 400_000.0, seed=2,
                                correlated=weibull(0.5))
        memoryless = generate_trace(4, 100.0, 400_000.0, seed=2,
                                    correlated=weibull(1.0))
        assert gap_cv(bursty) > gap_cv(memoryless) * 1.3

    def test_sorted_and_bounded(self):
        trace = generate_trace(3, 20.0, 5_000.0, seed=7,
                               correlated=weibull())
        for failures in trace.node_failures:
            assert list(failures) == sorted(failures)
            assert all(0 < f <= 5_000.0 for f in failures)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_trace(0, 1.0, 1.0, seed=0, correlated=weibull())
        with pytest.raises(ValueError):
            weibull(0.0)
        with pytest.raises(ValueError, match="Weibull base_shape"):
            generate_trace(1, 1.0, 1.0, seed=0, correlated=weibull(),
                           drift=MtbfDrift(scale=2.0))


# ----------------------------------------------------------------------
# pinned failure streams
# ----------------------------------------------------------------------
#: exact-float digests of every trace generator; regenerate with
#: ``pytest tests/test_traces.py --regen-golden`` only after an
#: intentional change to the failure streams
STREAM_GOLDEN = Path(__file__).parent / "golden" / "trace_streams.json"
GOLDEN_NODES = 6
GOLDEN_SEEDS = (0, 17, 40_961)
GOLDEN_MTBF = 250.0
GOLDEN_HORIZON = 25_000.0
#: (name, generator(mtbf, horizon, seed) -> FailureTrace)
GOLDEN_CASES = (
    ("exponential", lambda mtbf, horizon, seed: generate_trace(
        GOLDEN_NODES, mtbf, horizon, seed)),
    *(
        (f"weibull-{shape}",
         lambda mtbf, horizon, seed, shape=shape: generate_trace(
             GOLDEN_NODES, mtbf, horizon, seed, correlated=weibull(shape)))
        for shape in (0.5, 0.7, 1.0)
    ),
    ("correlated-jitter0", lambda mtbf, horizon, seed: generate_trace(
        GOLDEN_NODES, mtbf, horizon, seed,
        correlated=CorrelatedFailures(burst_mtbf=900.0, intensity=0.6,
                                      rack_size=3, jitter=0.0),
        chaos_seed=5)),
    ("correlated-jitter", lambda mtbf, horizon, seed: generate_trace(
        GOLDEN_NODES, mtbf, horizon, seed,
        correlated=CorrelatedFailures(burst_mtbf=900.0, intensity=0.6,
                                      rack_size=3, jitter=4.0,
                                      base_shape=0.7),
        chaos_seed=5)),
    ("drifting", lambda mtbf, horizon, seed: generate_trace(
        GOLDEN_NODES, mtbf, horizon, seed,
        drift=MtbfDrift(scale=0.5, amplitude=0.4, period=3_000.0,
                        phase=0.3),
        chaos_seed=3)),
    ("extended", lambda mtbf, horizon, seed: extend_trace(
        extend_trace(generate_trace(GOLDEN_NODES, mtbf, horizon / 16,
                                    seed), horizon / 4), horizon)),
)


def _stream_digest(trace: FailureTrace) -> str:
    """sha256 over every failure time's exact float64 bits."""
    text = "|".join(",".join(time.hex() for time in failures)
                    for failures in trace.node_failures)
    text += f"#{trace.horizon.hex()}#{trace.injected}"
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _stream_pins() -> dict:
    """Each case's digest in three cache states: cold, after the same
    seed was drawn at another MTBF, and after a shorter horizon."""
    pins = {}
    for name, make in GOLDEN_CASES:
        for seed in GOLDEN_SEEDS:
            states = {}
            reset_trace_cache()
            states["cold"] = make(GOLDEN_MTBF, GOLDEN_HORIZON, seed)
            reset_trace_cache()
            make(GOLDEN_MTBF * 3.0, GOLDEN_HORIZON / 2, seed)
            states["warm"] = make(GOLDEN_MTBF, GOLDEN_HORIZON, seed)
            reset_trace_cache()
            make(GOLDEN_MTBF, GOLDEN_HORIZON / 8, seed)
            states["extended"] = make(GOLDEN_MTBF, GOLDEN_HORIZON, seed)
            pins[f"{name}/seed{seed}"] = {
                state: [_stream_digest(trace),
                        sum(map(len, trace.node_failures))]
                for state, trace in states.items()
            }
    reset_trace_cache()
    return pins


class TestStreamGolden:
    """Every generator's failure times are pinned bit-for-bit, whatever
    the per-process stream cache held when the trace was drawn."""

    def test_streams_match_golden(self, request):
        pins = _stream_pins()
        if request.config.getoption("--regen-golden"):
            lines = [f"  {json.dumps(key)}: {json.dumps(value)}"
                     for key, value in pins.items()]
            STREAM_GOLDEN.write_text(
                "{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
            pytest.skip(f"regenerated {STREAM_GOLDEN.name}")
        expected = json.loads(STREAM_GOLDEN.read_text(encoding="utf-8"))
        assert list(pins) == list(expected)
        for key, states in pins.items():
            assert states == expected[key], key
