"""Entry points take their defaults from one place and name what is wrong.

``python -m repro.jobs init`` writes the retry policy ``LedgerConfig()``
defines when no flag overrides it, and ``deploy`` refuses a host list that
names no host before it builds a fabric.
"""

from __future__ import annotations

import pytest

from repro.config import FAST_EXTRACTION
from repro.jobs import Ledger, LedgerConfig
from repro.jobs.__main__ import main as jobs_cli
from repro.pipeline import AcousticPipeline
from repro.synth.dataset import CorpusSpec, build_corpus


def test_jobs_init_without_flags_writes_the_default_policy(tmp_path):
    wav = tmp_path / "a.wav"
    assert jobs_cli(["init", str(tmp_path / "l.json"), str(wav)]) == 0
    assert Ledger.open(tmp_path / "l.json").config == LedgerConfig()


@pytest.mark.parametrize("hosts", [[], {}], ids=["list", "mapping"])
def test_deploy_refuses_an_empty_host_list(hosts):
    clips = build_corpus(
        CorpusSpec(species=("NOCA",), clips_per_species=1, songs_per_clip=1, clip_duration=1.0)
    ).clips
    spec = AcousticPipeline().extract(FAST_EXTRACTION)
    with pytest.raises(ValueError, match="hosts must name at least one host"):
        spec.deploy(clips, backend="simulated", hosts=hosts)
