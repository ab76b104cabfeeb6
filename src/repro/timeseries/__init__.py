"""Time-series representations: Z-normalisation, PAA, SAX, bitmaps, baselines."""

from .bitmap import bitmap_distance, sax_bitmap, windowed_code_counts
from .discord import Discord, brute_force_discord, find_discord
from .distance import euclidean, manhattan, normalized_euclidean
from .motif import Motif, find_motifs
from .normalize import znormalize
from .paa import paa, paa_by_factor, paa_matrix, paa_records
from .sax import gaussian_breakpoints, sax_transform, symbolize
from .windows import RunningStats, moving_average

__all__ = [
    "Discord",
    "Motif",
    "RunningStats",
    "bitmap_distance",
    "brute_force_discord",
    "euclidean",
    "find_discord",
    "find_motifs",
    "gaussian_breakpoints",
    "manhattan",
    "moving_average",
    "normalized_euclidean",
    "paa",
    "paa_by_factor",
    "paa_matrix",
    "paa_records",
    "sax_bitmap",
    "sax_transform",
    "symbolize",
    "windowed_code_counts",
    "znormalize",
]
