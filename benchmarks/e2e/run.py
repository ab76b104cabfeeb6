#!/usr/bin/env python3
"""The repo's end-to-end benchmark: real-time factor on five execution paths.

One run of one workload (what the driver invokes)::

    python3 benchmarks/e2e/run.py --workload stream_chunks --seed 3 --seconds 10 --trace 0

generates the seeded load, sets up, repeats the fixed-size pass until
``--seconds`` are up (in fresh processes, so peak RSS and every cache are
per run), checks every pass's outputs bit for bit against the in-process
reference and prints, as the last line of stdout, ``{"correct", "attempted",
"failed", "metrics"}`` with every end-to-end metric of ``BENCHMARK.json``
(``--trace 0``) or every per-layer metric (``--trace 1``).  The line before
it carries the sample counts, quartiles, ``inputs_sha256`` and the
environment.

Without ``--workload`` it runs all five workloads (``RUNS`` untraced runs
and one traced run each, every one in its own subprocess) and prints the
whole table; ``--selfcheck`` runs two such sets (of ``--workload``, or of all
five) back to back and exits non-zero when any end-to-end median moved by more
than its declared bound.  See README.md for what each workload and metric
means.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Untraced runs of a workload in one set of the whole table.
RUNS = 3
#: Fresh processes per untraced run.  Interpreter speed differs by a few
#: per cent from one process to the next (address-space layout, allocator
#: state), so a run splits its ``--seconds`` over this many processes, each
#: with its own set-up, and reports medians over all of them.
PROCESSES = 3
#: Fewest timed passes of a kind in a process, however short its share of the
#: time.
MIN_PASSES = 2


def repeats(args, count: int) -> int:
    """``--quick`` shrinks the sizes and does everything once; the code path,
    process split included, is the full run's."""
    return 1 if args.quick else count


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    )
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


# -- one run of one workload ---------------------------------------------------


def measure(args) -> dict:
    """In this process: set up once, run passes for ``args.seconds``; returns
    the samples of every metric plus what was run, on what."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy
    import workloads as wl

    workdir = Path(tempfile.mkdtemp(prefix=f".work-{args.workload}-", dir=args.workdir))
    try:
        start = time.perf_counter()
        workload = wl.WORKLOADS[args.workload](args.seed, wl.QUICK if args.quick else wl.FULL, workdir)
        # A set-up that raises fails the run the way a raising pass does.
        warm_up = _guarded(wl, workload.setup)
        setup_s = time.perf_counter() - start
        # Warm-up pass, not timed: the first fork, lazy imports and cold page
        # cache are paid once per process, not once per pass.
        warm_up = warm_up or _guarded(wl, lambda: wl.run_pass(workload))
        # Whatever failed the warm-up would fail every pass: none is run.
        minimum = repeats(args, MIN_PASSES) if warm_up.ok else 0
        seconds = args.seconds if warm_up.ok else 0.0
        table = ""
        if args.trace:
            values, passes, table = _traced_passes(args, wl, workload, seconds, minimum)
        else:
            passes = _timed_passes(wl, lambda: wl.run_pass(workload), seconds, minimum)
            usage = [resource.getrusage(who).ru_maxrss
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
            values = {
                "setup_s": [setup_s],
                # A failed pass fails all its operations and counts as rate 0.
                "audio_s_per_s": [workload.audio_s / p.wall_s if p.ok else 0.0 for p in passes],
                "peak_rss_mib": [sum(usage) / 1024.0],
            }
        passes.insert(0, warm_up)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "quick": args.quick,
        "unit_of_work": workload.unit,
        "passes": len(passes),
        "failed_passes": sum(not p.ok for p in passes),
        # At least one, also when set-up failed before it could count them.
        "ops_per_pass": max(1, workload.ops),
        "audio_s_per_pass": workload.audio_s,
        "values": values,
        "inputs_sha256": workload.inputs_sha256,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "start_method": multiprocessing.get_start_method(),
        },
        "tracer_loaded": "tracer" in sys.modules,
        "layer_table": table,
    }


def measure_split(args) -> dict:
    """An untraced run: ``PROCESSES`` fresh processes one after the other,
    each measuring its share of ``args.seconds``; their samples pooled."""
    processes = repeats(args, PROCESSES)
    share = argparse.Namespace(
        **{**vars(args), "seconds": args.seconds / processes, "in_process": True}
    )
    parts = [run_process(share, lines=1)[0] for _ in range(processes)]
    if len({part["inputs_sha256"] for part in parts}) != 1:
        raise SystemExit("the same seed generated different inputs in two processes")
    merged = dict(parts[0])
    for key in ("passes", "failed_passes"):
        merged[key] = sum(part[key] for part in parts)
    merged["values"] = {
        name: [value for part in parts for value in part["values"][name]]
        for name in parts[0]["values"]
    }
    return merged


def summarise(details: dict, contract) -> dict:
    """The driver's result line: the median of every metric's samples."""
    kind = "per_layer" if details["trace"] else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in contract[kind]}
    values = details.pop("values")
    if details["failed_passes"]:
        # A failed run has no speed: what it could not measure reads 0.
        values = {name: values.get(name) or [0.0] for name in units}
    if set(values) != set(units):
        raise SystemExit(
            f"BENCHMARK.json {kind} and the runner disagree on: "
            f"{sorted(set(values) ^ set(units))}"
        )
    details["samples"] = {name: quartiles(values[name]) for name in values}
    return {
        "correct": details["failed_passes"] == 0,
        "attempted": details["ops_per_pass"] * details["passes"],
        "failed": details["ops_per_pass"] * details["failed_passes"],
        "metrics": {
            name: {"value": details["samples"][name]["median"], "unit": units[name]}
            for name in units
        },
    }


def _guarded(wl, call):
    """``call()``; an exception, whatever it is (a stall, a ``PlacementError``,
    a quarantined row), is a failed pass and is reported as one."""
    try:
        return call()
    except Exception:  # noqa: BLE001
        traceback.print_exc()
        return wl.PassResult(0.0, False)


def _timed_passes(wl, one_pass, seconds: float, minimum: int) -> list:
    """``one_pass()`` again and again until ``seconds`` are up."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < minimum or time.perf_counter() < deadline:
        passes.append(_guarded(wl, one_pass))
        if not passes[-1].ok:
            break  # the next pass would fail the same way
    return passes


def _traced_passes(args, wl, workload, seconds: float, minimum: int) -> tuple[dict, list, str]:
    """Untraced passes for a third of the time (the overhead base and the
    chunk latencies), traced passes for the rest; per-layer values per pass."""
    import numpy
    import tracer as tr

    tracer = tr.Tracer()
    runs = itertools.count()

    def traced_pass():
        run = next(runs)
        if not workload.forks_hosts:
            return wl.run_pass(workload, tracer.traced_pass(run))
        # Wrappers stay out of the deployment (spans recorded in its forked
        # hosts would die with them); each river layer is replayed on the
        # same records instead.
        result = wl.run_pass(workload)
        with tracer.traced_pass(run):
            tr.replay_river_layers(tracer, workload)
        return result

    untraced = _timed_passes(wl, lambda: wl.run_pass(workload), seconds / 3, minimum)
    traced = _timed_passes(wl, traced_pass, seconds * 2 / 3, minimum)
    if not all(p.ok for p in untraced + traced) or not traced:
        return {}, untraced + traced, ""  # no layer numbers from a failed run
    layers = tracer.layer_times()
    values = {
        name: [value] for name, value in tr.per_layer_metrics(tracer, layers, traced).items()
    }
    # Speeds come from the untraced passes, never from a traced one.
    values["ensembles_per_s"] = [statistics.median(p.ensembles / p.wall_s for p in untraced)]
    chunk_ms = [ms for result in untraced for ms in result.chunk_ms]
    for name, percent in (("chunk_p50_ms", 50), ("chunk_p99_ms", 99)):
        values[name] = [float(numpy.percentile(chunk_ms, percent)) if chunk_ms else 0.0]
    values["meso.spheres"] = [float(workload.meso.sphere_count)]
    values["trace.overhead_ratio"] = [
        statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in untraced)
    ]
    values["trace.unattributed_share"] = [tr.unattributed_share(layers)]
    if args.trace_file:
        tracer.write_chrome_trace(args.trace_file)
    return values, untraced + traced, tr.format_layer_table(layers)


# -- all workloads, each run in its own subprocess -----------------------------


def run_process(args, lines: int) -> list[dict]:
    """This file again in a fresh process; its last ``lines`` JSON lines."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(args.workdir),
    ]  # fmt: skip
    for flag, value in (("--quick", args.quick), ("--in-process", args.in_process)):
        if value:
            command.append(flag)
    if args.trace and args.trace_file:
        target = Path(args.trace_file)
        command += ["--trace-file", str(target.with_suffix(f".{args.workload}{target.suffix}"))]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()[-lines:]]


def run_set(args, contract, traced: bool = True) -> dict:
    """``RUNS`` untraced runs (and one traced run) of ``args.workload``, or of
    every workload."""
    table = {}
    for workload in [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]:
        one = argparse.Namespace(**{**vars(args), "workload": workload, "trace": 0})
        runs = [run_process(one, lines=2) for _ in range(repeats(args, RUNS))]
        entry = {
            "ops_attempted": sum(result["attempted"] for _, result in runs),
            "ops_failed": sum(result["failed"] for _, result in runs),
            "correct": all(result["correct"] for _, result in runs),
            "inputs_sha256": runs[0][0]["inputs_sha256"],
            "environment": runs[0][0]["environment"],
            "end_to_end": {
                metric["name"]: {
                    **quartiles([r["metrics"][metric["name"]]["value"] for _, r in runs]),
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                }
                for metric in contract["end_to_end"]
            },
        }
        if traced:
            one.trace = 1
            details, result = run_process(one, lines=2)
            entry["correct"] = entry["correct"] and result["correct"]
            entry["per_layer"] = result["metrics"]
            entry["layer_table"] = details["layer_table"]
        table[workload] = entry
        print_entry(workload, entry)
    return table


def print_entry(workload: str, entry: dict) -> None:
    print(f"== {workload}: ops_attempted={entry['ops_attempted']} "
          f"ops_failed={entry['ops_failed']} correct={entry['correct']}")
    for name, row in entry["end_to_end"].items():
        print(f"   {name:<18}{row['median']:>12.4f} {row['unit']:<6} "
              f"q1={row['q1']:.4f} q3={row['q3']:.4f} n={row['n']} bound={row['bound']}")
    for name, row in entry.get("per_layer", {}).items():
        print(f"   {name:<36}{row['value']:>16.6f} {row['unit']}")
    if entry.get("layer_table"):
        print(entry["layer_table"])
    sys.stdout.flush()


def selfcheck(args, contract) -> int:
    """Two full sets of the same code; every end-to-end median must agree
    within the bound BENCHMARK.json declares for it."""
    first = run_set(args, contract, traced=False)
    second = run_set(args, contract, traced=False)
    disagreements = 0
    print(f"{'workload':<16}{'metric':<18}{'first':>12}{'second':>12}{'change':>9}{'bound':>7}")
    for workload in first:
        for name, a in first[workload]["end_to_end"].items():
            b = second[workload]["end_to_end"][name]
            change = abs(b["median"] - a["median"]) / a["median"] if a["median"] else float("inf")
            verdict = "" if change <= a["bound"] else "  DISAGREE"
            disagreements += bool(verdict)
            print(f"{workload:<16}{name:<18}{a['median']:>12.4f}{b['median']:>12.4f}"
                  f"{change:>9.1%}{a['bound']:>7}{verdict}")
            print(f"{'':<34}[{a['q1']:.4f}, {a['q3']:.4f}] [{b['q1']:.4f}, {b['q3']:.4f}]")
    failed = sum(s[w]["ops_failed"] for s in (first, second) for w in s)
    print(json.dumps({"selfcheck": {"first": first, "second": second,
                                    "disagreements": disagreements, "ops_failed": failed}}))
    return 1 if disagreements or failed else 0


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one run of this workload (default: the table of all of them)")
    parser.add_argument("--seed", type=int, default=1, help="the only source of randomness")
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end ones")
    parser.add_argument("--trace-file", help="also write the spans as Chrome-trace JSON")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes, one run of one process of one pass")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two sets back to back; exit 1 if a median moves beyond its bound")
    parser.add_argument("--in-process", action="store_true",
                        help="(internal) one process's share of a run: print its raw samples")
    parser.add_argument("--workdir", default=str(HERE),
                        help="temp stores and ledgers live (and die) in .work-* under here")
    args = parser.parse_args()

    if args.in_process:
        print(json.dumps(measure(args)))
        return 0
    if args.selfcheck:
        return selfcheck(args, contract)
    if args.workload:
        details = measure(args) if args.trace else measure_split(args)
        result = summarise(details, contract)
        if details["layer_table"]:
            print(details["layer_table"])
        print(json.dumps(details))
        print(json.dumps(result))
        return 0
    table = run_set(args, contract)
    print(json.dumps({"seed": args.seed, "seconds": args.seconds, "workloads": table}))
    return 0 if all(entry["correct"] for entry in table.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
