"""repro.jobs — the durable, resumable corpus job layer.

The paper's workload is a long-running observatory: corpora of millions
of recordings processed continuously, where a crash must cost bounded
rework, never a restart from zero.  This package layers that durability
over :mod:`repro.pipeline`:

* :class:`Ledger` — a file-backed record of every corpus item's state
  (``open`` / ``busy`` / ``done`` / ``failed`` / ``quarantined``),
  journaled on each transition, with leases, exponential
  retry backoff and poison-item quarantine;
* :func:`run_corpus` — the ledgered runner behind
  ``BuiltPipeline.run_corpus(ledger=...)``: claims rows, marks ``done``
  only after collect-and-persist, recovers completed results from the
  store on resume;
* :class:`LedgerService` / :class:`JobWorker` — a stdlib-HTTP control
  plane and pull-based worker so many machines can drain one corpus
  (``python -m repro.jobs serve`` / ``work``);
* ``python -m repro.jobs status <ledger>`` — scripted health checks
  (exits non-zero when anything is quarantined).
"""

from .executor import coerce_ledger, run_corpus
from .ledger import (
    BUSY,
    DONE,
    FAILED,
    OPEN,
    QUARANTINED,
    STATES,
    Ledger,
    LedgerConfig,
    LedgerError,
    LedgerRow,
)
from .service import LedgerService
from .worker import ControlPlaneConflict, JobWorker, WorkerError

__all__ = [
    "Ledger",
    "LedgerConfig",
    "LedgerError",
    "LedgerRow",
    "LedgerService",
    "JobWorker",
    "WorkerError",
    "ControlPlaneConflict",
    "run_corpus",
    "coerce_ledger",
    "STATES",
    "OPEN",
    "BUSY",
    "DONE",
    "FAILED",
    "QUARANTINED",
]
