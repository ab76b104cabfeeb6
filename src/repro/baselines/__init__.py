"""Baseline from related work: energy-threshold segmentation."""

from .threshold import EnergySegmenter

__all__ = ["EnergySegmenter"]
