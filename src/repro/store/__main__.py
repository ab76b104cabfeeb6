"""Command-line inspection of a persistent feature store.

Usage::

    python -m repro.store ls <path>       # recordings: rows, completeness
    python -m repro.store info <path>     # schema, backend, shard/row counts
    python -m repro.store verify <path>   # recompute per-shard checksums, check keys

``verify`` exits non-zero when any shard fails its checksum, the row
counts disagree with the manifest or an ensemble key is stored twice
(a recording written twice by a version before 5.0); interrupted (incomplete) writes are
reported but are not an integrity failure — they are exactly what the
store promises to surface.
"""

from __future__ import annotations

import argparse
import sys

from .reader import StoreReader


def _cmd_ls(reader: StoreReader) -> int:
    names = reader.recordings()
    if not names:
        print("store is empty (no recordings)")
        return 0
    width = max(len(name) for name in names)
    print(f"{'RECORDING':<{width}}  {'STATION':<16} {'RATE':>6} {'SAMPLES':>10} {'ENS':>5}  STATE")
    for name in names:
        info = reader.recording_info(name)
        state = "complete" if info.complete else "INCOMPLETE"
        print(
            f"{name:<{width}}  {info.station:<16} {info.sample_rate:>6} "
            f"{info.total_samples:>10} {info.ensembles:>5}  {state}"
        )
    return 0


def _cmd_info(reader: StoreReader) -> int:
    counts = reader.counts()
    shards = reader.manifest.get("shards", [])
    print(f"path:           {reader.path}")
    print(f"schema version: {reader.schema_version}")
    print(f"backend:        {reader.backend.name}")
    print(f"shards:         {len(shards)}")
    for kind, rows in sorted(counts.items()):
        print(f"  {kind:<10} {rows} rows")
    print(f"recordings:     {len(reader.recordings())}")
    classifiers = reader.classifiers()
    if classifiers:
        print(f"classifiers:    {', '.join(classifiers)}")
    incomplete = reader.incomplete()
    if incomplete["recordings"]:
        print(f"incomplete recordings: {', '.join(incomplete['recordings'])}")
    if incomplete["ensembles"]:
        keys = ", ".join(f"{rec}#{ordinal}" for rec, ordinal in incomplete["ensembles"])
        print(f"interrupted ensembles: {keys}")
    return 0


def _cmd_verify(reader: StoreReader) -> int:
    problems = reader.verify()
    incomplete = reader.incomplete()
    shard_count = len(reader.manifest.get("shards", []))
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    print(f"OK: {shard_count} shard(s) verified against their checksums")
    if incomplete["ensembles"] or incomplete["recordings"]:
        print(
            "note: store holds interrupted writes — "
            f"{len(incomplete['ensembles'])} open ensemble(s), "
            f"{len(incomplete['recordings'])} unfinished recording(s)"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Inspect a persistent ensemble/feature store.",
    )
    parser.add_argument("command", choices=("ls", "info", "verify"))
    parser.add_argument("path", help="store directory (holds manifest.json)")
    args = parser.parse_args(argv)
    reader = StoreReader(args.path)
    return {"ls": _cmd_ls, "info": _cmd_info, "verify": _cmd_verify}[args.command](reader)


if __name__ == "__main__":
    sys.exit(main())
