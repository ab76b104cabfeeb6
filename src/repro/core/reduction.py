"""Data-reduction accounting.

Section 4 of the paper reports that extracting ensembles from acoustic clips
reduced the amount of data requiring further processing by 80.6 %.  This
module measures the same quantity over a clip corpus: total samples in, total
ensemble samples out, and the resulting reduction percentage.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..synth.dataset import ClipCorpus

__all__ = ["ReductionReport", "measure_reduction"]


@dataclass(frozen=True)
class ReductionReport:
    """Aggregate data-reduction statistics over a set of clips."""

    clips: int
    total_samples: int
    retained_samples: int
    ensembles: int

    @property
    def reduction(self) -> float:
        """Fraction of samples removed by extraction (paper: ~0.806)."""
        if self.total_samples == 0:
            return 0.0
        return 1.0 - self.retained_samples / self.total_samples

    @property
    def reduction_percent(self) -> float:
        """Reduction expressed as a percentage."""
        return 100.0 * self.reduction

    def as_row(self) -> dict:
        """Render as a flat dict suitable for table printing."""
        return {
            "clips": self.clips,
            "total_samples": self.total_samples,
            "retained_samples": self.retained_samples,
            "ensembles": self.ensembles,
            "reduction_percent": round(self.reduction_percent, 1),
        }


def measure_reduction(
    corpus: ClipCorpus,
    pipeline,
    backend: str = "serial",
    workers: int | None = None,
    store=None,
) -> tuple[ReductionReport, list]:
    """Extract every clip in ``corpus`` and report the aggregate reduction.

    ``pipeline`` is a built :class:`~repro.pipeline.AcousticPipeline`; the
    corpus runs through its
    :meth:`~repro.pipeline.BuiltPipeline.run_corpus` (``backend`` /
    ``workers`` parallelise it, ``store`` persists each result to a feature
    store as it completes).
    """
    results = pipeline.run_corpus(
        corpus.clips, backend=backend, workers=workers, store=store
    )
    total = 0
    retained = 0
    count = 0
    for result in results:
        total += result.total_samples
        retained += result.retained_samples
        count += len(result.ensembles)
    report = ReductionReport(
        clips=len(corpus.clips),
        total_samples=total,
        retained_samples=retained,
        ensembles=count,
    )
    return report, results
