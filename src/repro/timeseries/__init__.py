"""Time-series representations: Z-normalisation, PAA, SAX, bitmaps, baselines."""

from .bitmap import bitmap_distance, sax_bitmap, windowed_code_counts
from .discord import Discord, brute_force_discord, find_discord
from .distance import (
    distances_to_point,
    euclidean,
    manhattan,
    normalized_euclidean,
    pairwise_euclidean,
    squared_euclidean,
)
from .motif import Motif, find_motifs
from .normalize import running_mean_std, znormalize, znormalize_safe
from .paa import inverse_paa, paa, paa_by_factor, paa_matrix, paa_records
from .sax import (
    SaxEncoder,
    gaussian_breakpoints,
    sax_distance,
    sax_transform,
    symbolize,
)
from .windows import (
    RunningStats,
    moving_average,
    sliding_windows,
)

__all__ = [
    "Discord",
    "Motif",
    "RunningStats",
    "SaxEncoder",
    "bitmap_distance",
    "brute_force_discord",
    "distances_to_point",
    "euclidean",
    "find_discord",
    "find_motifs",
    "gaussian_breakpoints",
    "inverse_paa",
    "manhattan",
    "moving_average",
    "normalized_euclidean",
    "paa",
    "paa_by_factor",
    "paa_matrix",
    "paa_records",
    "pairwise_euclidean",
    "running_mean_std",
    "sax_bitmap",
    "sax_distance",
    "sax_transform",
    "sliding_windows",
    "squared_euclidean",
    "symbolize",
    "windowed_code_counts",
    "znormalize",
    "znormalize_safe",
]
