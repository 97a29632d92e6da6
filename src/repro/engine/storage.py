"""Storage media for materialized intermediates (Section 2.2).

The paper's cost model assumes intermediates are *not* lost by mid-query
failures -- true when they are written to a separate fault-tolerant medium
(Hadoop's HDFS, the paper's external iSCSI array).  When intermediates are
kept in node-local memory instead, a node failure destroys that node's
partition of every intermediate it holds, and the model becomes optimistic.

We expose both as strategy objects consumed by the simulated executor:

* :class:`FaultTolerantStorage` -- materialized outputs always survive;
  recovering a failed share re-reads its inputs for free.
* :class:`LocalStorage` -- a node failure invalidates that node's partition
  of all locally stored intermediates; before retrying its current share
  the node must first *recompute* its partition of every ancestor group
  (lineage-style), which the executor charges as an extra recovery cost.

This is the paper's "future avenue of work"; we include it so the accuracy
experiment can quantify exactly how optimistic the cost model becomes
(see ``benchmarks/bench_ablation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass


class StorageMedium:
    """Interface: how expensive is recovering a failed group share?"""

    #: human-readable name used in reports
    name: str = "abstract"

    def recovery_extra_cost(self, ancestor_cost: float) -> float:
        """Extra per-attempt cost to restore a failed node's inputs.

        ``ancestor_cost`` is the summed per-node duration of all ancestor
        groups of the failed share in the collapsed plan.
        """
        raise NotImplementedError

    def refetch_cost_after_failed_write(self, ancestor_cost: float) -> float:
        """Cost to restore a share's inputs before re-attempting a
        *failed materialization write* (chaos-layer injection).

        The node itself survived -- only its checkpoint write did not --
        so the question is where its inputs live: ancestors materialized
        on a fault-tolerant medium are re-read for free, while
        node-local inputs must be recomputed from lineage, exactly as in
        post-failure recovery.  Media with asymmetric read/recovery
        costs can override this.
        """
        return self.recovery_extra_cost(ancestor_cost)


@dataclass(frozen=True)
class FaultTolerantStorage(StorageMedium):
    """External replicated storage: intermediates always survive."""

    name: str = "fault-tolerant"

    def recovery_extra_cost(self, ancestor_cost: float) -> float:
        return 0.0


@dataclass(frozen=True)
class LocalStorage(StorageMedium):
    """Node-local storage: a failure loses the node's intermediates.

    Re-running an ancestor from lineage costs exactly its original
    duration.
    """

    name: str = "local"

    def recovery_extra_cost(self, ancestor_cost: float) -> float:
        return ancestor_cost
