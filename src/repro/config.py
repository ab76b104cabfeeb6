"""Shared configuration dataclasses.

The paper fixes a number of pipeline parameters for its environmental
acoustics experiments (Section 3): a SAX anomaly window of 100 samples, an
alphabet of 8 symbols, a moving-average window of 2250 samples, a trigger
threshold of 5 standard deviations, a [1.2 kHz, 9.6 kHz] cut-out band,
patterns of 3 merged frequency records covering 0.125 s, and an optional
PAA reduction factor of 10.  These dataclasses collect those parameters so
that every operator, experiment and benchmark draws them from one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "AnomalyConfig",
    "TriggerConfig",
    "FeatureConfig",
    "ExtractionConfig",
    "PAPER_EXTRACTION",
    "FAST_EXTRACTION",
]


@dataclass(frozen=True)
class AnomalyConfig:
    """Parameters of the SAX-bitmap anomaly scorer (``saxanomaly``)."""

    #: Samples per lead bitmap window (the paper uses 100).
    window: int = 100
    #: SAX alphabet size (the paper uses 8).
    alphabet: int = 8
    #: Bitmap n-gram level (Kumar et al. use 1-3 symbols; default 2).
    level: int = 2
    #: Moving-average window applied to the raw anomaly score (paper: 2250).
    smooth_window: int = 2250
    #: Length of the lag (background) window as a multiple of ``window``.
    #: The paper compares two equal windows (factor 1); the synthetic-corpus
    #: experiments use a longer background window (factor 20), which keeps the
    #: anomaly score elevated for the whole duration of a vocalisation instead
    #: of only at its onset and offset.  See DESIGN.md ("Substitutions") and
    #: the lag-factor ablation benchmark.
    lag_factor: int = 1

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError(f"anomaly window must be >= 2, got {self.window}")
        if self.alphabet < 2:
            raise ValueError(f"alphabet must be >= 2, got {self.alphabet}")
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        if self.smooth_window < 1:
            raise ValueError(f"smooth_window must be >= 1, got {self.smooth_window}")
        if self.lag_factor < 1:
            raise ValueError(f"lag_factor must be >= 1, got {self.lag_factor}")

    @property
    def lag_window(self) -> int:
        """Length of the lag (background) window in samples."""
        return self.window * self.lag_factor


@dataclass(frozen=True)
class TriggerConfig:
    """Parameters of the adaptive trigger operator."""

    #: Number of baseline standard deviations above which the trigger fires
    #: (the paper uses 5).
    threshold_sigmas: float = 5.0
    #: Minimum number of low-trigger samples observed before the trigger is
    #: allowed to fire (lets the baseline estimate settle).
    warmup: int = 200
    #: Optional exponential forgetting factor for the baseline statistics;
    #: ``None`` keeps exact running statistics.
    forgetting: float | None = None
    #: Minimum trigger-high run length, in samples, for an ensemble to be
    #: kept (suppresses one-sample glitches).
    min_duration: int = 32
    #: Number of samples the trigger stays high after the score drops back
    #: below threshold (hangover), bridging brief gaps inside a vocalisation.
    hangover: int = 0
    #: Number of initial score samples ignored entirely (neither baseline
    #: updates nor firing).  The smoothed anomaly score ramps up from zero
    #: while the SAX windows and the moving average fill; including that ramp
    #: in the baseline would bias the estimate of mu0 toward zero.  When 0,
    #: :attr:`repro.pipeline.ExtractStage.settle` derives a settle period
    #: from the anomaly configuration automatically.
    settle: int = 0
    #: Optional baseline gate, in standard deviations.  Scores above
    #: ``mu0 + baseline_gate_sigmas * sigma0`` are excluded from the baseline
    #: update even when they do not fire the trigger, so a vocalisation that
    #: narrowly misses the firing threshold cannot inflate the baseline and
    #: mask later vocalisations.  ``None`` reproduces the paper's behaviour
    #: exactly (every trigger-low sample updates the baseline).
    baseline_gate_sigmas: float | None = 3.0

    def __post_init__(self) -> None:
        if self.threshold_sigmas <= 0:
            raise ValueError(f"threshold_sigmas must be positive, got {self.threshold_sigmas}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.forgetting is not None and not (0.0 < self.forgetting <= 1.0):
            raise ValueError(f"forgetting must be in (0, 1], got {self.forgetting}")
        if self.min_duration < 1:
            raise ValueError(f"min_duration must be >= 1, got {self.min_duration}")
        if self.hangover < 0:
            raise ValueError(f"hangover must be >= 0, got {self.hangover}")
        if self.settle < 0:
            raise ValueError(f"settle must be >= 0, got {self.settle}")
        if self.baseline_gate_sigmas is not None and self.baseline_gate_sigmas <= 0:
            raise ValueError(
                f"baseline_gate_sigmas must be positive or None, got {self.baseline_gate_sigmas}"
            )


@dataclass(frozen=True)
class FeatureConfig:
    """Parameters of the spectro-temporal feature pipeline."""

    #: Samples per pipeline record fed to the DFT.
    record_size: int = 512
    #: Lower edge of the cut-out band in Hz (paper: ~1.2 kHz).
    low_hz: float = 1200.0
    #: Upper edge of the cut-out band in Hz (paper: ~9.6 kHz).
    high_hz: float = 9600.0
    #: Number of consecutive frequency records merged into one pattern
    #: (paper: 3 records = 0.125 s).
    records_per_pattern: int = 3
    #: PAA reduction factor applied per record when PAA is enabled (paper: 10).
    paa_factor: int = 10
    #: Tapering window applied to each resliced record.
    window: str = "welch"

    def __post_init__(self) -> None:
        if self.record_size < 8:
            raise ValueError(f"record_size must be >= 8, got {self.record_size}")
        if self.low_hz < 0 or self.high_hz <= self.low_hz:
            raise ValueError("require 0 <= low_hz < high_hz")
        if self.records_per_pattern < 1:
            raise ValueError(f"records_per_pattern must be >= 1, got {self.records_per_pattern}")
        if self.paa_factor < 1:
            raise ValueError(f"paa_factor must be >= 1, got {self.paa_factor}")


@dataclass(frozen=True)
class ExtractionConfig:
    """Complete ensemble-extraction configuration."""

    anomaly: AnomalyConfig = field(default_factory=AnomalyConfig)
    trigger: TriggerConfig = field(default_factory=TriggerConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    #: Sample rate the pipeline assumes, in Hz.
    sample_rate: int = 22050

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")


#: The parameters reported in the paper (Section 3) at the paper's clip rate:
#: anomaly window 100 samples, alphabet 8, moving-average window 2250, a 5
#: standard-deviation trigger and the [1.2 kHz, 9.6 kHz] cut-out band.  The
#: lag factor of 20 is this reproduction's adaptation for the synthetic
#: corpus (see :class:`AnomalyConfig.lag_factor`).
PAPER_EXTRACTION = ExtractionConfig(
    anomaly=AnomalyConfig(window=100, alphabet=8, level=2, smooth_window=2250, lag_factor=20),
    trigger=TriggerConfig(
        threshold_sigmas=5.0, warmup=4000, min_duration=1024, hangover=1024
    ),
    features=FeatureConfig(
        record_size=512,
        low_hz=1200.0,
        high_hz=9600.0,
        records_per_pattern=3,
        paa_factor=10,
    ),
    sample_rate=22050,
)

#: A faster configuration for tests and laptop-scale benchmarks: lower sample
#: rate and a narrower analysis band, preserving the relative proportions of
#: the paper's settings.
FAST_EXTRACTION = ExtractionConfig(
    anomaly=AnomalyConfig(window=100, alphabet=8, level=2, smooth_window=2048, lag_factor=20),
    trigger=TriggerConfig(
        threshold_sigmas=5.0, warmup=1536, min_duration=400, hangover=512
    ),
    features=FeatureConfig(
        record_size=256,
        low_hz=1200.0,
        high_hz=6400.0,
        records_per_pattern=3,
        paa_factor=10,
    ),
    sample_rate=16000,
)
