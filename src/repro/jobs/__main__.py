"""Command-line entry points for the durable corpus job layer.

Usage::

    # One row per WAV file; directories expand to their sorted *.wav files.
    python -m repro.jobs init survey.ledger recordings/ [--max-attempts 3]

    # Health check: counts per state; exits 1 if anything is quarantined
    # (scriptable: `python -m repro.jobs status survey.ledger || alert`).
    python -m repro.jobs status survey.ledger

    # Control plane: hand work units to pull-based workers over HTTP.
    python -m repro.jobs serve survey.ledger --port 8750

    # A worker (run one per core, on as many machines as can reach the
    # WAV paths and the control plane):
    python -m repro.jobs work --url http://observatory:8750 --store worker-a.store
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .ledger import Ledger, LedgerConfig


def _expand_sources(paths: list[str]) -> list[str]:
    sources: list[str] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            wavs = sorted(str(p) for p in path.glob("*.wav"))
            if not wavs:
                raise SystemExit(f"error: no *.wav files in directory {path}")
            sources.extend(wavs)
        else:
            sources.append(str(path))
    return sources


def _cmd_init(args) -> int:
    sources = _expand_sources(args.sources)
    config = LedgerConfig(
        max_attempts=args.max_attempts,
        backoff_base=args.backoff_base,
        backoff_cap=args.backoff_cap,
        lease=args.lease,
    )
    ledger = Ledger.create(args.ledger, sources, config=config)
    print(f"created {ledger.path} with {len(ledger.rows)} open items")
    return 0


def _cmd_status(args) -> int:
    ledger = Ledger.open(args.ledger)
    counts = ledger.counts()
    total = len(ledger.rows)
    print(f"ledger:  {ledger.path}  ({total} items)")
    for state, count in counts.items():
        print(f"  {state:<12} {count}")
    quarantined = ledger.quarantined()
    for row in quarantined:
        print(f"  !! item {row.index} ({row.source}): {row.error}")
    if ledger.all_settled() and not quarantined:
        print("all items done")
    # Non-zero on quarantine so cron/CI health checks can alert on it.
    return 1 if quarantined else 0


def _cmd_serve(args) -> int:  # pragma: no cover - blocking CLI loop
    from .service import LedgerService

    service = LedgerService(args.ledger, host=args.host, port=args.port)
    print(f"serving {args.ledger} at {service.url}  (ctrl-c to stop)")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_work(args) -> int:
    from ..config import FAST_EXTRACTION
    from ..pipeline.builder import AcousticPipeline
    from .worker import JobWorker, WorkerError

    pipeline = AcousticPipeline().extract(
        FAST_EXTRACTION, hop=args.hop, normalization="global", keep_traces=False
    )
    if args.features:
        pipeline = pipeline.features(use_paa=True)
    worker = JobWorker(
        args.url,
        pipeline,
        store=args.store,
        worker_id=args.worker_id,
        poll=args.poll,
    )
    try:
        completed = worker.run(max_items=args.max_items)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"worker {worker.worker_id}: {completed} completed, {worker.failed} failed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.jobs",
        description="durable corpus job ledger: init, status, serve, work",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="create a ledger over WAV files/directories")
    p_init.add_argument("ledger")
    p_init.add_argument("sources", nargs="+")
    policy = LedgerConfig()
    p_init.add_argument("--max-attempts", type=int, default=policy.max_attempts)
    p_init.add_argument("--backoff-base", type=float, default=policy.backoff_base)
    p_init.add_argument("--backoff-cap", type=float, default=policy.backoff_cap)
    p_init.add_argument("--lease", type=float, default=policy.lease)
    p_init.set_defaults(func=_cmd_init)

    p_status = sub.add_parser(
        "status", help="print per-state counts; exit 1 if anything is quarantined"
    )
    p_status.add_argument("ledger")
    p_status.set_defaults(func=_cmd_status)

    p_serve = sub.add_parser("serve", help="HTTP control plane over one ledger")
    p_serve.add_argument("ledger")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8750)
    p_serve.set_defaults(func=_cmd_serve)

    p_work = sub.add_parser("work", help="pull-based worker against a control plane")
    p_work.add_argument("--url", required=True)
    p_work.add_argument("--store", default=None, help="per-worker feature store path")
    p_work.add_argument("--worker-id", default=None)
    p_work.add_argument("--hop", type=int, default=16)
    p_work.add_argument(
        "--features", action="store_true", help="also compute PAA feature patterns"
    )
    p_work.add_argument("--poll", type=float, default=1.0)
    p_work.add_argument("--max-items", type=int, default=None)
    p_work.set_defaults(func=_cmd_work)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(sys.argv[1:]))
