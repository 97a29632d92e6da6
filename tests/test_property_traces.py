"""Property-based tests for failure traces and checkpoint chunking."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.chaos.policy import CorrelatedFailures, MtbfDrift
from repro.core.checkpointing import CheckpointSpec, checkpointed_runtime
from repro.core.cost_model import ClusterStats, operator_runtime
from repro.engine.seeding import generators, seed_states
from repro.engine.traces import (
    TraceExhausted,
    _unit_gaps,
    cached_trace_set,
    extend_trace,
    generate_trace,
    reset_trace_cache,
    retry_with_extension,
)

seeds = st.integers(min_value=0, max_value=200)
mtbfs = st.floats(min_value=1.0, max_value=1e5)
nodes = st.integers(min_value=1, max_value=6)


def _weibull(shape):
    """The Weibull base process of ``shape`` without bursts."""
    return CorrelatedFailures(burst_mtbf=math.inf, intensity=0.0,
                              base_shape=shape)


def _process(name, mtbf):
    """``generate_trace`` keywords of each failure process a trace can
    record, scaled to ``mtbf``."""
    bursts = CorrelatedFailures(burst_mtbf=2.0 * mtbf, rack_size=2,
                                jitter=0.1 * mtbf)
    drift = MtbfDrift(scale=2.0, amplitude=0.5, period=3.0 * mtbf,
                      phase=0.2)
    return {
        "exponential": {},
        "weibull": {"correlated": _weibull(0.7)},
        "bursts": {"correlated": bursts, "chaos_seed": 4},
        "drift": {"drift": drift, "chaos_seed": 4},
        "drift+bursts": {"drift": drift, "correlated": bursts,
                         "chaos_seed": 4},
    }[name]


processes = st.sampled_from(
    ("exponential", "weibull", "bursts", "drift", "drift+bursts"))


class TestTraceProperties:
    @given(seed=seeds, mtbf=mtbfs, node_count=nodes)
    @settings(max_examples=40, deadline=None)
    def test_failures_sorted_and_within_horizon(self, seed, mtbf,
                                                node_count):
        trace = generate_trace(node_count, mtbf, horizon=mtbf * 20,
                               seed=seed)
        for failures in trace.node_failures:
            assert list(failures) == sorted(failures)
            assert all(0 < f <= trace.horizon for f in failures)

    @given(seed=seeds, mtbf=mtbfs, node_count=nodes, process=processes)
    @example(seed=3, mtbf=100.0, node_count=2, process="weibull")
    @settings(max_examples=60, deadline=None)
    def test_extension_preserves_prefix(self, seed, mtbf, node_count,
                                        process):
        """Every failure process extends to exactly the trace drawn at
        the larger horizon, so the old failures stay as they were."""
        kwargs = _process(process, mtbf)
        short = generate_trace(node_count, mtbf, horizon=mtbf * 5,
                               seed=seed, **kwargs)
        long = extend_trace(short, mtbf * 15)
        assert long == generate_trace(node_count, mtbf, mtbf * 15,
                                      seed=seed, **kwargs)
        for node in range(node_count):
            prefix = tuple(
                f for f in long.failures_of(node) if f <= short.horizon
            )
            assert prefix == short.failures_of(node)

        def run(trace):
            if trace.horizon < mtbf * 40:
                raise TraceExhausted
            return trace.horizon

        result, final = retry_with_extension(run, short)
        assert result == final.horizon == short.horizon * 16
        assert final == generate_trace(node_count, mtbf, final.horizon,
                                       seed=seed, **kwargs)

    @given(seed=seeds,
           offset_a=st.floats(min_value=0.0, max_value=100.0),
           offset_b=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_shift_composes(self, seed, offset_a, offset_b):
        """shift(a) then shift(b) equals shift(a + b)."""
        trace = generate_trace(3, 20.0, horizon=1_000.0, seed=seed)
        twice = trace.shifted(offset_a).shifted(offset_b)
        once = trace.shifted(offset_a + offset_b)
        for a, b in zip(twice.node_failures, once.node_failures):
            assert len(a) == len(b)
            assert all(math.isclose(x, y, abs_tol=1e-9)
                       for x, y in zip(a, b))

    @given(seed=seeds, offset=st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=40, deadline=None)
    def test_shift_preserves_future_failure_count(self, seed, offset):
        trace = generate_trace(2, 50.0, horizon=1_000.0, seed=seed)
        shifted = trace.shifted(offset)
        expected = sum(
            1 for failures in trace.node_failures
            for f in failures if f > offset
        )
        assert sum(len(f) for f in shifted.node_failures) == expected


def _draw(mtbf, horizon, seed, shape):
    correlated = None if shape is None else _weibull(shape)
    return generate_trace(3, mtbf, horizon, seed, correlated=correlated)


class TestSharedStreams:
    """Cells sharing a seed share one cached unit-scale gap array; the
    cache must never change a trace."""

    @given(seed=seeds,
           mtbfs=st.tuples(mtbfs, mtbfs),
           spans=st.tuples(st.floats(min_value=0.5, max_value=80.0),
                           st.floats(min_value=0.5, max_value=80.0)),
           shapes=st.tuples(*[st.sampled_from((None, 0.5, 0.7, 1.0, 2.5))]
                            * 2))
    @settings(max_examples=40, deadline=None)
    def test_order_independent(self, seed, mtbfs, spans, shapes):
        """A-then-B == B-then-A == each drawn alone from a cold cache."""
        a, b = ((mtbf, mtbf * span, seed, shape)
                for mtbf, span, shape in zip(mtbfs, spans, shapes))
        reset_trace_cache()
        alone_a = _draw(*a)
        reset_trace_cache()
        alone_b = _draw(*b)
        reset_trace_cache()
        a_first = (_draw(*a), _draw(*b))
        reset_trace_cache()
        b_first = (_draw(*b), _draw(*a))
        reset_trace_cache()
        assert a_first[0].node_failures == alone_a.node_failures
        assert a_first[1].node_failures == alone_b.node_failures
        assert b_first[1].node_failures == alone_a.node_failures
        assert b_first[0].node_failures == alone_b.node_failures

    @given(seed=seeds,
           scale=st.floats(min_value=1e-3, max_value=1e7),
           size=st.integers(min_value=1, max_value=300),
           split=st.integers(min_value=0, max_value=300),
           shape=st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_numpy_scaling_identities(self, seed, scale, size, split,
                                      shape):
        """The NumPy behaviour the shared streams rely on: exponential(m)
        is m * standard_exponential(), Weibull scales the same way, and
        a batched draw equals its chunks drawn in sequence."""
        def rng():
            return np.random.default_rng([seed, 3])

        unit = rng().standard_exponential(size)
        assert np.array_equal(rng().exponential(scale, size), scale * unit)
        buffer = np.empty((2, size))
        rng().standard_exponential(out=buffer[1])
        assert np.array_equal(buffer[1], unit)
        assert np.array_equal(rng().standard_exponential((1, size))[0],
                              unit)
        split = min(split, size)
        for draw in (lambda g, n: g.standard_exponential(n),
                     lambda g, n: scale * g.weibull(shape, n)):
            whole = draw(rng(), size)
            stream = rng()
            pieces = np.concatenate((draw(stream, split),
                                     draw(stream, size - split)))
            assert np.array_equal(whole, pieces)
            assert np.array_equal(draw(rng(), split), whole[:split])

    @given(seed=seeds, scale=st.floats(min_value=1e-3, max_value=1e7))
    @settings(max_examples=40, deadline=None)
    def test_rowwise_cumsum_is_sequential(self, seed, scale):
        gaps = scale * np.random.default_rng(seed).standard_exponential(
            (4, 97))
        running = []
        for row in gaps.tolist():
            total, sums = 0.0, []
            for gap in row:
                total += gap
                sums.append(total)
            running.append(sums)
        assert np.cumsum(gaps, axis=1).tolist() == running

    def test_weibull_shapes_never_share_a_stream(self):
        """Regression: the cache key carries the shape, so a Weibull
        trace never reuses gaps drawn for another shape (or for the
        exponential, whose RNG keys differ)."""
        cold = {}
        for shape in (None, 0.5, 0.7, 1.0):
            reset_trace_cache()
            cold[shape] = _draw(40.0, 2_000.0, 9, shape).node_failures
        reset_trace_cache()
        for shape in (None, 0.5, 0.7, 1.0, 0.7, None):
            assert _draw(40.0, 2_000.0, 9, shape).node_failures \
                == cold[shape], shape
        reset_trace_cache()
        assert len(set(cold.values())) == len(cold)


class TestStreamCounters:
    def test_figure8_grid_draws_each_seed_once(self):
        """Ten cells, base seeds alternating b and b + 1, 150 traces per
        cell: 151 distinct seeds, so one unit-stream draw per seed (and
        per shape); every other trace is a cache hit."""
        base = 2_015
        baselines = (310.0, 95.0, 1_250.0, 42.0, 580.0)
        cells = [(baseline * factor, base + offset)
                 for baseline in baselines
                 for offset, factor in ((0, 1.1), (1, 10.0))]
        reset_trace_cache()
        with obs.recording() as recorder:
            for shape in (None, 0.7):
                correlated = (None if shape is None else CorrelatedFailures(
                    burst_mtbf=1.0, intensity=0.0, base_shape=shape))
                for mtbf, base_seed in cells:
                    cached_trace_set(10, mtbf, mtbf * 20.0, count=150,
                                     base_seed=base_seed,
                                     correlated=correlated)
        reset_trace_cache()
        assert recorder.counters["cache.trace_stream.miss"] == 2 * 151
        assert recorder.counters["cache.trace_stream.hit"] \
            == 2 * (10 * 150 - 151)


#: key integers around every 32-bit word boundary the entropy split
#: crosses, plus arbitrary ones up to three words
key_ints = st.one_of(
    st.sampled_from((0, 1, 7, 9_004, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 7,
                     2 ** 64 - 1, 2 ** 64, 2 ** 64 + 5, 2 ** 95)),
    st.integers(min_value=0, max_value=2 ** 96),
)
#: batches mixing short, Weibull-shaped ``[seed, node, 7]`` and
#: longer-than-the-pool keys
key_batches = st.lists(
    st.one_of(
        st.lists(key_ints, min_size=0, max_size=7),
        st.tuples(key_ints, st.integers(0, 63), st.just(7)).map(list),
    ),
    min_size=1, max_size=12,
)


class TestBatchedSeeding:
    """The batched seeding mirrors ``SeedSequence`` word for word, so
    every stream equals ``default_rng(key)``."""

    @given(keys=key_batches)
    @example(keys=[[0, 0], [2 ** 32 - 1, 9], [2 ** 32, 3], [2 ** 64 + 5, 1, 7],
                   [5, 3, 7], [1, 2, 3, 4, 5, 6], [2 ** 40, 9_004, 5, 9_005],
                   [0], []])
    @settings(max_examples=80, deadline=None)
    def test_state_words_equal_seed_sequence(self, keys):
        states = seed_states(keys)
        for key, words in zip(keys, states):
            assert np.array_equal(
                words, np.random.SeedSequence(key).generate_state(
                    4, np.uint64)), key

    @given(keys=key_batches, size=st.integers(min_value=1, max_value=40))
    @example(keys=[[0, 0], [2 ** 32 - 1, 0, 7], [2 ** 64 + 1, 2],
                   [3, 1, 4, 1, 5, 9, 2, 6]], size=5)
    @settings(max_examples=40, deadline=None)
    def test_generators_draw_like_default_rng(self, keys, size):
        for key, rng in zip(keys, generators(keys)):
            reference = np.random.default_rng(key)
            assert np.array_equal(rng.standard_exponential(size),
                                  reference.standard_exponential(size))
            assert np.array_equal(rng.weibull(0.7, size),
                                  reference.weibull(0.7, size))
            assert rng.random() == reference.random()
            assert rng.integers(0, 10) == reference.integers(0, 10)

    @given(key=st.lists(key_ints, min_size=0, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_zero_padding_to_the_pool_is_invisible(self, key):
        """The NumPy property one padded pass relies on: SeedSequence
        hashes an absent pool word as a zero word."""
        words = np.array([word for value in key
                          for word in _words(value)], dtype=np.uint32)
        if len(words) > 4:
            return
        padded = np.zeros(4, dtype=np.uint32)
        padded[:len(words)] = words
        assert np.array_equal(
            np.random.SeedSequence(key).generate_state(4, np.uint64),
            np.random.SeedSequence(padded).generate_state(4, np.uint64))

    def test_negative_key_is_rejected_like_default_rng(self):
        with pytest.raises(ValueError):
            np.random.default_rng([3, -1])
        with pytest.raises(ValueError):
            generators([[3, -1]])

    @given(seeds=st.lists(key_ints, min_size=1, max_size=4, unique=True),
           node_count=st.integers(min_value=1, max_value=4),
           shape=st.sampled_from((None, 0.5, 0.7, 2.5)),
           width=st.integers(min_value=1, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_unit_gap_rows_equal_default_rng_draws(self, seeds, node_count,
                                                   shape, width):
        reset_trace_cache()
        rows = _unit_gaps(seeds, node_count, shape, width)
        reset_trace_cache()
        for seed, gaps in zip(seeds, rows):
            for node in range(node_count):
                if shape is None:
                    expected = np.random.default_rng(
                        [seed, node]).standard_exponential(width)
                else:
                    expected = np.random.default_rng(
                        [seed, node, 7]).weibull(shape, width)
                assert np.array_equal(gaps[node, :width], expected)


def _words(value):
    """SeedSequence's 32-bit words of one non-negative integer."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


class TestChunkingProperties:
    @given(
        total=st.floats(min_value=0.0, max_value=1e4),
        interval=st.floats(min_value=0.1, max_value=1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunks_partition_the_work(self, total, interval):
        spec = CheckpointSpec(interval=interval, snapshot_cost=1.0,
                              estimated_runtime=0.0)
        chunks = spec.chunks_for(total)
        assert sum(chunks) == pytest.approx(total, abs=1e-6)
        assert all(0 <= chunk <= interval + 1e-9 for chunk in chunks)

    @given(
        total=st.floats(min_value=1.0, max_value=1e4),
        snapshot=st.floats(min_value=0.1, max_value=50.0),
        mtbf=st.floats(min_value=10.0, max_value=1e5),
    )
    @settings(max_examples=60, deadline=None)
    def test_checkpointed_runtime_at_least_the_work(self, total, snapshot,
                                                    mtbf):
        stats = ClusterStats(mtbf=mtbf, mttr=1.0)
        runtime, _ = checkpointed_runtime(total, snapshot, stats)
        assert runtime >= total - 1e-9

    @given(
        total=st.floats(min_value=500.0, max_value=5e3),
        snapshot=st.floats(min_value=0.5, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_checkpointing_helps_when_mtbf_below_operator(self, total,
                                                          snapshot):
        """When the operator is several MTBFs long, chunking always
        beats the plain model (which explodes exponentially)."""
        stats = ClusterStats(mtbf=total / 4.0, mttr=1.0)
        plain = operator_runtime(total, stats)
        chunked, _ = checkpointed_runtime(total, snapshot, stats)
        assert chunked < plain
