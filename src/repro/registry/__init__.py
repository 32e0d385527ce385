"""Versioned model registry: immutable store, lifecycle, deploy decisions.

The serving stack changes models without dropping traffic by routing
every deploy through this package:

* :mod:`repro.registry.store` — :class:`ModelRegistry`: checksummed
  immutable ``versions/<vN>/`` directories plus an atomically replaced
  ``registry.json`` holding the production pointer, version statuses
  and the append-only audit log (``repro models
  list/register/promote/rollback/gc`` CLI);
* :mod:`repro.registry.guard` — :class:`RollbackGuard` /
  :class:`GuardConfig`, the pure decision logic behind the daemon's
  drift-triggered automatic rollback, and :func:`gate_verdict`, the
  pure check behind ``repro models promote vN --gate DATASET``.

The daemon side (version watcher, hot swap, automatic rollback) lives
in :mod:`repro.serve.daemon`, which depends on this package — never the
other way around.
"""

from .guard import (
    DIVERGENCE_BUDGET,
    GATE_MIN_SAMPLES,
    GuardConfig,
    RollbackGuard,
    gate_verdict,
)
from .store import (
    REGISTRY_FILE,
    STATUS_PRODUCTION,
    STATUS_REGISTERED,
    STATUS_RETIRED,
    STATUS_ROLLED_BACK,
    VERSIONS_DIR,
    ModelRegistry,
    RegistryError,
)

__all__ = [
    "ModelRegistry",
    "RegistryError",
    "GuardConfig",
    "RollbackGuard",
    "DIVERGENCE_BUDGET",
    "GATE_MIN_SAMPLES",
    "gate_verdict",
    "REGISTRY_FILE",
    "VERSIONS_DIR",
    "STATUS_REGISTERED",
    "STATUS_PRODUCTION",
    "STATUS_RETIRED",
    "STATUS_ROLLED_BACK",
]
