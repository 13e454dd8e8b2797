"""Cross-host evaluation: wave dispatch over TCP + a persistent memo.

This package takes the one choke point every search goes through —
``run_search`` → ``Evaluator.evaluate_batch`` — across machine
boundaries, without moving a single result by one bit:

* :mod:`repro.distributed.wire` — length-prefixed pickled frames with a
  version/fingerprint handshake; the transport under everything else.
* :mod:`repro.distributed.worker` — the agent behind
  ``python -m repro.cli serve``: registers capacity, installs a pickled
  objective once per connection and evaluates candidate batches (with
  its own local process pool when ``--capacity > 1``).
* :mod:`repro.distributed.client` — coordinator-side connections and
  guided-grab dispatch (each grab an equal share of what is left) with
  straggler re-dispatch and worker-loss retry.
* :mod:`repro.distributed.evaluator` — :class:`DistributedEvaluator`,
  a drop-in :class:`repro.evaluation.Evaluator` (``backend=cluster``
  in ``search_tiling``/the CLI).
* :mod:`repro.distributed.memo` — :class:`MemoStore`, the append-only
  on-disk memo keyed by objective fingerprint that makes solved work
  durable across runs, restarts and portfolio slots.
* :mod:`repro.distributed.cluster` — :class:`LoopbackCluster`, real
  worker processes on one machine, so all of the above is CI-testable.

Determinism contract (the abelian-network argument, one level up):
objectives are pure and results are assembled in candidate order, so
any (workers, hosts, capacity, arrival-order) configuration produces
the bit-identical search trajectory as ``workers=1`` local — pinned by
``tests/distributed/`` against the same golden traces as the local
paths.
"""

from repro.distributed.client import (
    ClusterClient,
    ClusterUnavailable,
    HostConnection,
)
from repro.distributed.cluster import LoopbackCluster, SmokeObjective
from repro.distributed.evaluator import DistributedEvaluator
from repro.distributed.memo import MemoStore
from repro.distributed.wire import (
    WIRE_VERSION,
    WireError,
    fingerprint_key,
    parse_hosts,
)
from repro.distributed.worker import WorkerServer, serve

__all__ = [
    "WIRE_VERSION",
    "ClusterClient",
    "ClusterUnavailable",
    "DistributedEvaluator",
    "HostConnection",
    "LoopbackCluster",
    "MemoStore",
    "SmokeObjective",
    "WireError",
    "WorkerServer",
    "fingerprint_key",
    "parse_hosts",
    "serve",
]
