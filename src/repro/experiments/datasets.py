"""Construction of the four experimental data sets.

The paper evaluates MESO on four data sets derived from the same extracted
ensembles: *Pattern* and *Ensemble* (1050 features) and their PAA-reduced
counterparts (105 features).  This module builds the synthetic equivalents:
it generates a clip corpus, runs ensemble extraction, attaches ground-truth
labels (standing in for the paper's human validation step) and converts the
ensembles into :class:`repro.classify.EvaluationItem` lists for the
cross-validation harness.

Scales
------
Three preset scales keep runtimes sensible:

* ``TEST_SCALE`` — a couple of clips per species, used by the unit tests.
* ``BENCH_SCALE`` — the default for the benchmark harness; large enough for
  the paper's qualitative results to be visible, small enough to run in a
  few minutes.
* ``PAPER_SCALE`` — approaches the paper's data volume (hundreds of
  ensembles, thousands of patterns); expect long runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..classify.crossval import EvaluationItem
from ..classify.features import PatternExtractor
from ..config import FAST_EXTRACTION, ExtractionConfig
from ..core.cutter import Ensemble
from ..pipeline import AcousticPipeline
from ..synth.dataset import ClipCorpus, CorpusSpec, build_corpus

__all__ = [
    "ExperimentScale",
    "TEST_SCALE",
    "BENCH_SCALE",
    "PAPER_SCALE",
    "ExperimentData",
    "build_experiment_data",
]


@dataclass(frozen=True)
class ExperimentScale:
    """How much data and how many repetitions an experiment run uses."""

    name: str
    corpus: CorpusSpec
    #: Repeats of the leave-one-out experiment (paper: 20).
    loo_repeats: int = 2
    #: Repeats of the resubstitution experiment (paper: 100).
    resub_repeats: int = 5
    #: Keep at most this many pattern items for the single-pattern data sets
    #: (None = keep all); leave-one-out over thousands of patterns retrains
    #: MESO millions of times, which the paper did in C++ overnight.
    max_pattern_items: int | None = None
    #: Keep at most this many ensemble items (None = keep all).
    max_ensemble_items: int | None = None


TEST_SCALE = ExperimentScale(
    name="test",
    corpus=CorpusSpec(clips_per_species=1, songs_per_clip=2, clip_duration=12.0, sample_rate=16000, seed=2007),
    loo_repeats=1,
    resub_repeats=1,
    max_pattern_items=200,
)

BENCH_SCALE = ExperimentScale(
    name="bench",
    corpus=CorpusSpec(clips_per_species=2, songs_per_clip=2, clip_duration=15.0, sample_rate=16000, seed=2007),
    loo_repeats=2,
    resub_repeats=5,
    max_pattern_items=400,
)

PAPER_SCALE = ExperimentScale(
    name="paper",
    corpus=CorpusSpec(clips_per_species=6, songs_per_clip=3, clip_duration=30.0, sample_rate=16000, seed=2007),
    loo_repeats=20,
    resub_repeats=100,
    max_pattern_items=None,
)


@dataclass
class ExperimentData:
    """Everything the table experiments need, built once and reused.

    ``corpus`` is None when the data was replayed from a feature store
    (``build_experiment_data(from_store=...)``): the raw clips were never
    regenerated because nothing downstream of extraction needs them.
    """

    scale: ExperimentScale
    config: ExtractionConfig
    corpus: ClipCorpus | None
    ensembles: list[Ensemble]
    #: The four data sets keyed as in Table 2.
    pattern_items: list[EvaluationItem] = field(default_factory=list)
    ensemble_items: list[EvaluationItem] = field(default_factory=list)
    paa_pattern_items: list[EvaluationItem] = field(default_factory=list)
    paa_ensemble_items: list[EvaluationItem] = field(default_factory=list)
    #: Data-reduction bookkeeping for the Section 4 claim.
    total_samples: int = 0
    retained_samples: int = 0
    #: Labelled ensembles too short to yield a single pattern (and therefore
    #: absent from every data set above).  Reported so the tables can show
    #: how many validated ensembles the feature pipeline dropped.
    short_ensembles: int = 0

    @property
    def reduction_percent(self) -> float:
        """Percentage of raw samples removed by ensemble extraction."""
        if self.total_samples == 0:
            return 0.0
        return 100.0 * (1.0 - self.retained_samples / self.total_samples)

    def dataset(self, name: str) -> list[EvaluationItem]:
        """Look up one of the four data sets by its Table 2 name."""
        mapping = {
            "Pattern": self.pattern_items,
            "Ensemble": self.ensemble_items,
            "PAA Pattern": self.paa_pattern_items,
            "PAA Ensemble": self.paa_ensemble_items,
        }
        if name not in mapping:
            raise KeyError(f"unknown data set {name!r}; choose from {sorted(mapping)}")
        return mapping[name]

    def species_counts(self) -> dict[str, dict[str, int]]:
        """Per-species ensemble and pattern counts (the content of Table 1)."""
        counts: dict[str, dict[str, int]] = {}
        for item in self.ensemble_items:
            entry = counts.setdefault(item.label, {"ensembles": 0, "patterns": 0})
            entry["ensembles"] += 1
            entry["patterns"] += len(item.patterns)
        return counts


def _subsample(items: list[EvaluationItem], limit: int | None, seed: int) -> list[EvaluationItem]:
    if limit is None or len(items) <= limit:
        return items
    rng = np.random.default_rng(seed)
    keep = rng.choice(len(items), size=limit, replace=False)
    return [items[i] for i in sorted(keep)]


def build_experiment_data(
    scale: ExperimentScale = BENCH_SCALE,
    config: ExtractionConfig = FAST_EXTRACTION,
    hop: int = 16,
    backend: str = "serial",
    workers: int | None = None,
    store=None,
    from_store=None,
    ledger=None,
) -> ExperimentData:
    """Generate the corpus, extract ensembles and build all four data sets.

    ``backend`` / ``workers`` select how the per-clip extraction runs (see
    :meth:`~repro.pipeline.BuiltPipeline.run_corpus`); every backend yields
    bit-identical ensembles, so the tables do not depend on the choice.

    ``store`` persists the validated (labelled) ensembles and the sample
    accounting to a feature store as extraction completes, clip ``i`` as
    recording ``recording_name(i)`` (a store that already holds it raises);
    ``from_store`` skips corpus generation and extraction entirely,
    replaying a store written that way — the resulting data sets are
    bit-identical to the extract-from-raw path.

    ``ledger`` makes the extraction durable and resumable (see
    :func:`repro.jobs.run_corpus`): an interrupted table build picks up
    where it stopped instead of re-extracting the whole corpus.  Clips
    the ledger quarantined (failed ``max_attempts`` times) are excluded
    from the data sets — the run degrades instead of aborting.
    """
    if scale.corpus.sample_rate != config.sample_rate:
        config = replace(config, sample_rate=scale.corpus.sample_rate)
    if from_store is not None:
        from ..store.reader import coerce_reader

        reader = coerce_reader(from_store)
        corpus = None
        ensembles = []
        total = 0
        retained = 0
        for name in reader.recordings():
            info = reader.recording_info(name)
            total += info.total_samples
            stored_rows = list(reader.iter_ensembles(recording=name))
            meta = info.meta or {}
            fallback = sum(row.ensemble.samples.size for row in stored_rows)
            retained += int(meta.get("retained_samples", fallback))
            ensembles.extend(row.ensemble for row in stored_rows)
    else:
        corpus = build_corpus(scale.corpus)
        # Global normalisation reproduces the legacy whole-clip batch semantics
        # exactly, keeping the table values identical across API generations.
        # keep_traces=False: only the ensembles and the sample accounting are
        # used here, so per-sample score/trigger traces would be dead weight
        # held for the whole corpus (and pickled back from process workers).
        pipeline = (
            AcousticPipeline()
            .extract(config, hop=hop, normalization="global", keep_traces=False)
            .build()
        )
        results = pipeline.run_corpus(
            corpus.clips, backend=backend, workers=workers, ledger=ledger
        )
        from ..store.schema import recording_name
        from ..store.writer import open_writer

        ensembles = []
        total = 0
        retained = 0
        with open_writer(store) as writer:
            for index, (clip, result) in enumerate(zip(corpus.clips, results)):
                if result is None:  # quarantined by the ledger: excluded
                    continue
                total += result.total_samples
                retained += result.retained_samples
                labelled = result.labelled(clip)
                ensembles.extend(labelled)
                if writer is not None:
                    writer.write_ensembles(
                        recording_name(index),
                        labelled,
                        sample_rate=clip.sample_rate,
                        total_samples=result.total_samples,
                        station=clip.station_id,
                        meta={"retained_samples": int(result.retained_samples)},
                    )

    data = ExperimentData(
        scale=scale,
        config=config,
        corpus=corpus,
        ensembles=ensembles,
        total_samples=total,
        retained_samples=retained,
    )

    for use_paa in (False, True):
        extractor_cfg = PatternExtractor(
            config=config.features, sample_rate=config.sample_rate, use_paa=use_paa
        )
        patterns, groups = extractor_cfg.labelled_patterns(ensembles)
        if not use_paa:
            # Ensembles shorter than one pattern group produce no entry in
            # ``groups``; count them so the tables can report the drop
            # (PAA changes bins per record, never the record grouping).
            data.short_ensembles = len(ensembles) - len(groups)
        ensemble_items = [
            EvaluationItem(
                label=patterns[group[0]].label,
                patterns=tuple(patterns[i].features for i in group),
            )
            for group in groups
        ]
        pattern_items = [
            EvaluationItem(label=p.label, patterns=(p.features,)) for p in patterns
        ]
        ensemble_items = _subsample(ensemble_items, scale.max_ensemble_items, scale.corpus.seed)
        pattern_items = _subsample(pattern_items, scale.max_pattern_items, scale.corpus.seed)
        if use_paa:
            data.paa_ensemble_items = ensemble_items
            data.paa_pattern_items = pattern_items
        else:
            data.ensemble_items = ensemble_items
            data.pattern_items = pattern_items
    return data
