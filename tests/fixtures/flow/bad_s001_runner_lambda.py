# expect: S001
"""Lambda shipped as the resilient runner's per-worker init."""
from repro.core.pool import resilient_map


def _square(x):
    return x * x


def fan_out(items):
    return resilient_map(
        _square, items, 2,
        fallback=lambda batch: [_square(x) for x in batch],
        namespace="demo", track="demo-worker",
        init=lambda: {},
    )
