"""The whole-clip extraction primitives — SAX-bitmap scoring, adaptive trigger, cutter.

:class:`repro.pipeline.ExtractStage` is the one place a clip becomes
ensembles; with ``normalization="global"`` it chains these three in order.
"""

from .anomaly import sax_anomaly_scores
from .cutter import Ensemble, cut_ensembles
from .reduction import ReductionReport, measure_reduction
from .trigger import AdaptiveTrigger

__all__ = [
    "AdaptiveTrigger",
    "Ensemble",
    "ReductionReport",
    "cut_ensembles",
    "measure_reduction",
    "sax_anomaly_scores",
]
