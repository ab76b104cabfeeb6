"""MESO perceptual memory: sensitivity spheres, sphere tree and classifier."""

from .classifier import MesoClassifier, MesoConfig, TrainingStats
from .distance import METRICS
from .sphere import SensitivitySphere
from .tree import SphereTree, SphereTreeNode

__all__ = [
    "METRICS",
    "MesoClassifier",
    "MesoConfig",
    "SensitivitySphere",
    "SphereTree",
    "SphereTreeNode",
    "TrainingStats",
]
