"""Online model serving: registry, micro-batched prediction, live updates.

The deployment layer the paper's methodology points at (§3.2's "models can
be boot-strapped ... and updated as new software arrives"): trained
:class:`~repro.core.model.InferredModel` objects are published to a
versioned on-disk registry, served over TCP with micro-batched vectorized
prediction, and kept current by one streaming respecifier — coefficient
refreshes as profiles arrive, a background genetic re-specification once
they drift (§3.3) — with atomic old-or-new model swaps.

Public API:

* registry: :class:`ModelRegistry`, :class:`ModelKey`,
  :class:`PublishedModel`, :class:`RegistryError`
* batching: :class:`MicroBatcher`, :class:`BatchConfig`,
  :class:`ModelSlot`, :class:`QueueFullError`, :class:`RequestTimeout`
* server: :class:`PredictionServer`, :class:`ServerThread`
* updates: :class:`ServingManager`
* clients: :class:`ServeClient`, :class:`AsyncServeClient`,
  :class:`LoadGenerator`, :func:`wait_for_server` (retries per
  :class:`repro.faults.RetryPolicy`, re-exported here)
* assembly: :func:`build_service`, :func:`demo_dataset`,
  :func:`outlier_profiles`
* sharding: :class:`ShardSupervisor`, :class:`ShardServer`,
  :func:`build_sharded_service`, :func:`supports_reuse_port` — N worker
  processes behind one SO_REUSEPORT port with fleet-atomic model swaps
"""

from repro.faults import NO_RETRY, RetryPolicy
from repro.serve.batching import (
    BatchConfig,
    BatchStats,
    MicroBatcher,
    ModelSlot,
    QueueFullError,
    RequestTimeout,
)
from repro.serve.bootstrap import build_service, demo_dataset, outlier_profiles
from repro.serve.client import (
    AsyncServeClient,
    LoadGenerator,
    LoadReport,
    ServeClient,
    ServeError,
    wait_for_server,
)
from repro.serve.manager import ServingManager
from repro.serve.registry import (
    ModelKey,
    ModelRegistry,
    PublishedModel,
    RegistryError,
)
from repro.serve.server import FrameTooLarge, PredictionServer
from repro.serve.shard import (
    ShardServer,
    ShardSupervisor,
    build_sharded_service,
    supports_reuse_port,
)
from repro.serve.testing import ServerThread

__all__ = [
    "NO_RETRY",
    "RetryPolicy",
    "FrameTooLarge",
    "BatchConfig",
    "BatchStats",
    "MicroBatcher",
    "ModelSlot",
    "QueueFullError",
    "RequestTimeout",
    "build_service",
    "demo_dataset",
    "outlier_profiles",
    "AsyncServeClient",
    "LoadGenerator",
    "LoadReport",
    "ServeClient",
    "ServeError",
    "wait_for_server",
    "ServingManager",
    "ModelKey",
    "ModelRegistry",
    "PublishedModel",
    "RegistryError",
    "PredictionServer",
    "ServerThread",
    "ShardServer",
    "ShardSupervisor",
    "build_sharded_service",
    "supports_reuse_port",
]
