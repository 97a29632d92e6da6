"""The one resilient process pool behind every ``jobs=N`` fan-out.

The sharded search, simulation campaigns and ``campaign_map`` all map a
module-level task over a list of items through :func:`resilient_map`,
which applies the paper's fine-grained recovery to its own workers: a
dead worker costs only the items it lost.

* Each round submits the unfinished items to a fresh
  :class:`~concurrent.futures.ProcessPoolExecutor`; an item whose worker
  died stays pending.  Before retry round ``r`` the runner sleeps
  ``RETRY_BACKOFF * 2**(r - 1)`` seconds and counts
  ``<namespace>.retries`` per pending item, for at most
  :data:`MAX_RETRIES` rounds.  What is still pending then runs
  in-process through the caller's ``fallback``
  (``<namespace>.serial_fallbacks``), which never crashes.
* With a recorder installed, every item ships its worker recording back
  and the snapshots merge in item order on tracks ``<track>-<index>``.
* Tasks call :func:`maybe_crash` where an injected
  :class:`~repro.chaos.WorkerCrashes` policy may kill their worker;
  decisions are keyed by ``(round, key)``, fresh dice every retry.

A task that *raises* is not a dead worker: its exception propagates.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from .. import obs
from ..chaos.policy import FaultPolicy

_T = TypeVar("_T")
_R = TypeVar("_R")

#: retry rounds after the first before the in-process fallback
MAX_RETRIES = 3

#: seconds slept before the first retry round (doubling every round)
RETRY_BACKOFF = 0.05

#: per-worker-process state: the runner's ``chaos`` / ``round_no`` keys
#: plus whatever the caller's ``init`` returned (empty outside workers)
_WORKER_STATE: Dict[str, Any] = {}


def worker_state() -> Dict[str, Any]:
    """This worker's state (the caller's ``init`` result plus ``chaos``)."""
    return _WORKER_STATE


def _pool_init(
    init: Optional[Callable[..., Dict[str, Any]]],
    initargs: Tuple[Any, ...],
    chaos: Optional[FaultPolicy],
    round_no: int,
    observe: bool,
) -> None:
    _WORKER_STATE.clear()
    _WORKER_STATE.update(chaos=chaos, round_no=round_no)
    if observe:
        obs.enable()
    if init is not None:
        _WORKER_STATE.update(init(*initargs))


def maybe_crash(key: int) -> None:
    """Hard-exit this pool worker when the chaos policy says so (a no-op
    outside pool workers).  The kill is
    :func:`~repro.chaos.inject.crash_worker_process`, the only sanctioned
    hard exit in the tree (lint rule S003)."""
    chaos: Optional[FaultPolicy] = _WORKER_STATE.get("chaos")
    if chaos is None or not chaos.pool_active():
        return
    from ..chaos.inject import crash_worker_process, worker_crash_decision

    assert chaos.worker_crashes is not None
    if worker_crash_decision(
        chaos.seed, chaos.worker_crashes.rate,
        _WORKER_STATE["round_no"], key,
    ):
        crash_worker_process(17)


def _pool_task(
    task: Callable[[_T], _R], item: _T,
) -> Tuple[_R, Optional[obs.RecorderSnapshot]]:
    """Worker-side wrapper: run one item, ship its recording back."""
    result = task(item)
    recorder = obs.get_recorder()
    if recorder is None:
        return result, None
    snapshot = recorder.snapshot()
    obs.enable()  # fresh recorder: never re-ship what was delivered
    return result, snapshot


def resilient_map(
    task: Callable[[_T], _R],
    items: Sequence[_T],
    workers: int,
    fallback: Callable[[Sequence[_T]], Sequence[_R]],
    namespace: str,
    track: str,
    init: Optional[Callable[..., Dict[str, Any]]] = None,
    initargs: Tuple[Any, ...] = (),
    chaos: Optional[FaultPolicy] = None,
) -> List[_R]:
    """``[task(item) for item in items]`` over ``workers`` processes.

    ``task`` and ``init`` must be module-level (picklable).  ``init``
    runs once per worker with ``initargs``; the dict it returns joins
    :func:`worker_state`.  ``fallback`` maps a batch of items
    in-process and must agree with ``task``.  Results come back in item
    order whichever round (or process) produced them.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    recorder = obs.get_recorder()
    outcomes: List[Any] = [None] * len(items)
    pending = list(range(len(items)))
    for round_no in range(MAX_RETRIES + 1):
        if not pending:
            break
        if round_no > 0:
            if recorder is not None:
                recorder.add(f"{namespace}.retries", len(pending))
            time.sleep(RETRY_BACKOFF * (2.0 ** (round_no - 1)))
        executor = ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            initializer=_pool_init,
            initargs=(init, initargs, chaos, round_no,
                      recorder is not None),
        )
        futures = {}
        still_pending: List[int] = []
        try:
            for index in pending:
                try:
                    futures[index] = executor.submit(
                        _pool_task, task, items[index]
                    )
                except BrokenProcessPool:
                    break  # a worker died mid-submission
            for index in pending:
                future = futures.get(index)
                if future is None:  # never submitted
                    still_pending.append(index)
                    continue
                try:
                    outcomes[index] = future.result()
                except BrokenProcessPool:
                    # its worker died (breaking the pool): retry the
                    # item on a fresh pool
                    still_pending.append(index)
        finally:
            executor.shutdown(wait=True, cancel_futures=True)
        pending = still_pending
    if pending:
        if recorder is not None:
            recorder.add(f"{namespace}.serial_fallbacks", len(pending))
        batch = fallback([items[index] for index in pending])
        for index, result in zip(pending, batch):
            outcomes[index] = (result, None)
    results: List[_R] = []
    for index, (result, snapshot) in enumerate(outcomes):
        if recorder is not None and snapshot is not None:
            recorder.merge(snapshot, track=f"{track}-{index}")
        results.append(result)
    return results
