"""Spatially sharded multi-server deployment (docs/SHARDING.md).

The grid's cells are partitioned across N shards by a deterministic
rendezvous-hash map (:mod:`repro.sharding.shardmap`); a stateless
router (:mod:`repro.sharding.router`) sends each location update to its
cell's owner and fans queries out to every shard their quarantine area
overlaps; the coordinator (:mod:`repro.sharding.coordinator`) merges
per-shard partial results — range by union, kNN by a
``ties.top_k_rows`` re-rank — behind the single-server API.

Shards run in-process (``n_workers=0``, result-equivalent to the
single-server baseline) or as one ``multiprocessing`` worker each.

The shard set is *elastic*: ``ShardedServer.add_shard`` /
``remove_shard`` resize a live cluster (rendezvous moves only the
joining shard's wins or the retiree's cells), and
:class:`~repro.sharding.rebalance.RebalancePolicy` drives those moves
from the per-shard occupancy census.  ``refresh_probes=True`` restores
exact cross-shard kNN merges by probing stale boundary candidates.
"""

from repro.sharding.backend import ShardBackend, query_from_spec, query_spec
from repro.sharding.coordinator import InProcessShard, ShardedServer
from repro.sharding.rebalance import RebalancePolicy
from repro.sharding.router import ShardRouter
from repro.sharding.shardmap import ShardMap
from repro.sharding.snapshot import restore_shards, snapshot_shards
from repro.sharding.worker import WorkerShard

__all__ = [
    "InProcessShard",
    "RebalancePolicy",
    "ShardBackend",
    "ShardMap",
    "ShardRouter",
    "ShardedServer",
    "WorkerShard",
    "query_from_spec",
    "query_spec",
    "restore_shards",
    "snapshot_shards",
]
