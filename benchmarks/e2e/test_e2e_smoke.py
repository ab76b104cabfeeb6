"""Smoke test of the end-to-end benchmark: every workload at ``--quick``
scale, untraced and traced, through the same ``run.py`` the driver invokes.

``--quick`` shrinks the sizes and does everything once, nothing else: the
table below is built by ``run.py`` starting itself per workload with the
driver's own ``--workload W --seed N --seconds S --trace 0|1``, and an untraced
run still forwards its flags to an ``--in-process`` child and pools what comes
back.

Nothing here asserts a speed.  It asserts the instrument still works: every
metric ``BENCHMARK.json`` declares comes out with its unit, every output
check passes, no operation fails, the untraced run never loads the tracer,
and a pass that raises is reported as failed operations rather than a crash.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def run_quick(workdir, *flags: str, check: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "7", "--seconds", "0.2",
         "--quick", "--workdir", str(workdir), *flags],
        stdout=subprocess.PIPE, text=True, check=check, timeout=300,
    )  # fmt: skip


@pytest.fixture(scope="module")
def table(tmp_path_factory) -> dict:
    """All five workloads, one untraced and one traced run each."""
    workdir = tmp_path_factory.mktemp("table")
    done = run_quick(workdir)
    assert list(workdir.iterdir()) == [], "the runs left temp stores or ledgers behind"
    return json.loads(done.stdout.splitlines()[-1])["workloads"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_declared_metric(table, workload):
    entry = table[workload]
    assert entry["correct"] is True, f"{workload}: an output digest check failed"
    assert entry["ops_failed"] == 0 and entry["ops_attempted"] >= 1
    for metric in CONTRACT["end_to_end"]:
        row = entry["end_to_end"][metric["name"]]
        assert (row["unit"], row["bound"]) == (metric["unit"], metric["bound"])
        assert row["n"] == 1 and row["median"] > 0
    declared = {metric["name"]: metric["unit"] for metric in CONTRACT["per_layer"]}
    assert {name: row["unit"] for name, row in entry["per_layer"].items()} == declared
    assert all(isinstance(row["value"], (int, float)) for row in entry["per_layer"].values())
    assert "bench.pass" in entry["layer_table"]
    # Load-generator hygiene: what was run, on what, is recorded beside it.
    assert len(entry["inputs_sha256"]) == 64
    assert set(entry["environment"]) == {"nproc", "python", "numpy", "start_method"}


def test_driver_spelling_same_seed_same_inputs(table, tmp_path):
    done = run_quick(tmp_path, "--workload", "batch_clips", "--trace", "0")
    details, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {metric["name"] for metric in CONTRACT["end_to_end"]}
    assert details["tracer_loaded"] is False
    assert details["inputs_sha256"] == table["batch_clips"]["inputs_sha256"]


def test_selfcheck_compares_two_sets(tmp_path):
    # One pass per set repeats too loosely to demand agreement (exit 0) here.
    done = run_quick(tmp_path, "--selfcheck", "--workload", "batch_clips", check=False)
    assert done.returncode in (0, 1)
    report = json.loads(done.stdout.splitlines()[-1])["selfcheck"]
    assert report["ops_failed"] == 0
    assert list(report["first"]) == list(report["second"]) == ["batch_clips"]
    assert (done.returncode == 1) == (report["disagreements"] > 0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("broken", ["setup", "call"])
def test_a_raising_pass_fails_its_operations(tmp_path, monkeypatch, capsys, trace, broken):
    import workloads

    def stall(self):
        raise RuntimeError("host 'host-0' stalled")

    monkeypatch.setattr(workloads.BatchClips, broken, stall)
    args = argparse.Namespace(workload="batch_clips", seed=7, seconds=0.1, trace=trace,
                              trace_file=None, quick=True, workdir=str(tmp_path))  # fmt: skip
    result = run.summarise(run.measure(args), CONTRACT)
    assert "stalled" in capsys.readouterr().err
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {metric["name"] for metric in CONTRACT[kind]}
    assert result["metrics"]["ensembles_per_s" if trace else "audio_s_per_s"]["value"] == 0
    assert list(tmp_path.iterdir()) == []


def test_contract_names_the_five_workloads():
    assert WORKLOADS == [
        "batch_clips", "stream_chunks", "river_ingest", "store_sweep", "durable_corpus",
    ]  # fmt: skip
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in {metric["name"] for metric in CONTRACT["end_to_end"]}
    assert all(0 < metric["bound"] <= 0.25 for metric in CONTRACT["end_to_end"])
