"""The MESO classifier.

MESO (Kasten & McKinley, IEEE TKDE 2007) is a perceptual memory system
supporting online, incremental learning.  It is based on the leader-follower
algorithm: each incoming training pattern either joins the nearest
sensitivity sphere (if it lies within the sphere sensitivity ``delta``) or
founds a new sphere.  ``delta`` adapts as data arrives so spheres remain
small agglomerative clusters.  Trained memory is queried with an unlabelled
pattern; MESO returns the label(s) associated with the most similar sphere.

This reimplementation keeps the behaviour the DEPSA paper relies on:

* online, incremental training (``partial_fit``) and batch training (``fit``),
* labelled nearest-sphere queries (``predict`` / ``predict_proba``),
* a hierarchical sphere tree to accelerate queries on large memories,
* training / testing time accounting, reported in Table 2 of the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .sphere import SensitivitySphere
from .tree import SphereTree

__all__ = ["MesoClassifier", "MesoConfig", "TrainingStats"]

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class MesoConfig:
    """Tunable parameters of the MESO memory."""

    #: Initial sphere sensitivity; 0 means "learn from the data" (the first
    #: inter-pattern distance seen initialises delta).
    initial_delta: float = 0.0
    #: Fraction of the first nearest-sphere distance used to initialise delta
    #: when ``initial_delta`` is 0.
    init_fraction: float = 0.3
    #: Rate at which delta grows toward a new pattern's nearest-sphere
    #: distance when that pattern founds a new sphere.
    grow_rate: float = 0.05
    #: Multiplicative shrink applied to delta when a pattern joins an
    #: existing sphere (keeps spheres small as dense regions fill in).
    shrink_rate: float = 0.10
    #: Number of spheres above which queries go through the sphere tree.
    #: Training keeps the memory changing constantly, so the vectorised
    #: linear scan is usually faster; the tree pays off for query-heavy use
    #: of a static memory (set a lower threshold for that workload).
    tree_threshold: int = 100_000
    #: Leaf size of the sphere tree.
    tree_leaf_size: int = 8
    #: Use exact (backtracking) tree search; greedy search is faster but may
    #: return a slightly farther sphere.
    exact_search: bool = True

    def __post_init__(self) -> None:
        if self.initial_delta < 0:
            raise ValueError(f"initial_delta must be >= 0, got {self.initial_delta}")
        if not (0.0 < self.init_fraction <= 1.0):
            raise ValueError(f"init_fraction must be in (0, 1], got {self.init_fraction}")
        if not (0.0 <= self.grow_rate <= 1.0):
            raise ValueError(f"grow_rate must be in [0, 1], got {self.grow_rate}")
        if not (0.0 <= self.shrink_rate < 1.0):
            raise ValueError(f"shrink_rate must be in [0, 1), got {self.shrink_rate}")
        if self.tree_threshold < 1:
            raise ValueError(f"tree_threshold must be >= 1, got {self.tree_threshold}")


@dataclass
class TrainingStats:
    """Cumulative training / testing statistics (Table 2 reports these times)."""

    patterns_trained: int = 0
    patterns_tested: int = 0
    training_seconds: float = 0.0
    testing_seconds: float = 0.0


class MesoClassifier:
    """Online, incremental classifier built on sensitivity spheres."""

    def __init__(self, config: MesoConfig | None = None) -> None:
        self.config = config or MesoConfig()
        self.spheres: list[SensitivitySphere] = []
        self.delta: float = self.config.initial_delta
        self.stats = TrainingStats()
        self._tree: SphereTree | None = None
        self._tree_size: int = 0
        # Pre-allocated (capacity, d) matrix of sphere centres; row i mirrors
        # self.spheres[i].center so nearest-sphere search is one matrix op.
        self._centers: np.ndarray | None = None
        # The batch screen's operands, kept in step with that matrix so
        # queries never re-derive them: squared centre norms, and the
        # (d, capacity) matrix whose column i is −2·centre i (contiguous
        # per feature, the layout a small BLAS product runs fastest on).
        self._norms: np.ndarray | None = None
        self._screen_weights: np.ndarray | None = None
        self._dimension: int | None = None

    # -- bookkeeping -------------------------------------------------------

    @property
    def sphere_count(self) -> int:
        """Number of sensitivity spheres currently in the memory."""
        return len(self.spheres)

    @property
    def pattern_count(self) -> int:
        """Total number of training patterns stored across all spheres."""
        return sum(sphere.count for sphere in self.spheres)

    def labels(self) -> set[Hashable]:
        """The set of labels seen during training."""
        seen: set[Hashable] = set()
        for sphere in self.spheres:
            seen.update(sphere.label_counts)
        return seen

    def _check_dimension(self, vector: np.ndarray) -> np.ndarray:
        arr = np.asarray(vector, dtype=float).ravel()
        if arr.size == 0:
            raise ValueError("patterns must have at least one feature")
        if self._dimension is None:
            self._dimension = arr.size
        elif arr.size != self._dimension:
            raise ValueError(
                f"pattern has {arr.size} features but the memory was trained with {self._dimension}"
            )
        return arr

    def _ensure_capacity(self, extra: int = 1) -> None:
        """Grow the centre matrix geometrically so appends are amortised O(d)."""
        needed = len(self.spheres) + extra
        if self._centers is not None and self._centers.shape[0] >= needed:
            return
        fresh = self._centers is None
        capacity = max(64, needed) if fresh else max(needed, self._centers.shape[0] * 2)
        dimension = (self._dimension or 1) if fresh else self._centers.shape[1]
        old = (self._centers, self._norms, self._screen_weights)
        self._centers = np.zeros((capacity, dimension))
        self._norms = np.zeros(capacity)
        self._screen_weights = np.zeros((dimension, capacity))
        if fresh:
            for i, sphere in enumerate(self.spheres):
                self._write_center(i, sphere.center)
        else:
            count = len(self.spheres)
            self._centers[:count] = old[0][:count]
            self._norms[:count] = old[1][:count]
            self._screen_weights[:, :count] = old[2][:, :count]

    def _write_center(self, index: int, center: np.ndarray) -> None:
        self._centers[index] = center
        self._norms[index] = self._centers[index] @ self._centers[index]
        self._screen_weights[:, index] = -2.0 * self._centers[index]

    def _set_center(self, index: int, center: np.ndarray) -> None:
        self._ensure_capacity()
        self._write_center(index, center)

    def _center_matrix(self) -> np.ndarray:
        self._ensure_capacity(extra=0)
        return self._centers[: len(self.spheres)]

    def _nearest_sphere(self, vector: np.ndarray) -> tuple[int, float]:
        """Index and distance of the sphere whose centre is nearest to ``vector``."""
        if not self.spheres:
            raise ValueError("memory is empty")
        if len(self.spheres) >= self.config.tree_threshold:
            if self._tree is None or self._tree_size != len(self.spheres):
                self._tree = SphereTree(list(self.spheres), leaf_size=self.config.tree_leaf_size)
                self._tree_size = len(self.spheres)
            return self._tree.nearest(vector, exact=self.config.exact_search)
        centers = self._center_matrix()
        diff = centers - vector[None, :]
        dists = np.einsum("ij,ij->i", diff, diff)
        index = int(np.argmin(dists))
        return index, float(np.sqrt(dists[index]))

    #: Upper bound on queries per block of the vectorised batch path.
    _BATCH_BLOCK = 256
    #: Element budget for one block's worst-case rescoring gather, a
    #: (block × spheres, dimension) difference matrix (~128 MB of float64);
    #: the block shrinks as the memory grows so large sub-tree-threshold
    #: memories cannot blow up RAM.  Blocking never changes per-row results.
    _BATCH_ELEMENT_BUDGET = 16_777_216
    #: Screening scales at or above this could overflow the exact rescoring
    #: (a squared distance is at most twice the scale); such rows are
    #: rescored against every sphere instead.
    _SCREEN_SCALE_LIMIT = float(np.finfo(float).max) / 8
    #: Multiply-adds per screening product.  OpenBLAS runs a product this
    #: small on the calling thread; larger ones wake its thread pool, whose
    #: spinning workers stalled a 2-core, CPU-quota'd container for 15–40 ms
    #: on about one call in five.
    _GEMM_TILE = 1 << 18

    def _nearest_sphere_indices(self, matrix: np.ndarray) -> np.ndarray:
        """Nearest-sphere index for every row of ``matrix``, vectorised.

        Row ``b`` gets exactly the index :meth:`_nearest_sphere` returns for
        ``matrix[b]``.  A GEMM screen ``‖c‖² − 2·x·cᵀ + ‖x‖²`` ranks every
        sphere, but inexactly, so each row keeps every sphere whose screened
        distance lies within twice a rigorous error bound of the row
        minimum.  A row that keeps one sphere has its answer; a row that
        keeps several is rescored on just those with the scalar path's
        difference arithmetic and first-minimum tie-break; a row whose
        scale is non-finite (or could overflow) is rescored against every
        sphere.  ``tests/test_meso_kernel.py`` pins the equivalence on
        adversarial memories.
        """
        if not self.spheres:
            raise ValueError("memory is empty")
        if len(self.spheres) >= self.config.tree_threshold:
            # Large memories query through the sphere tree; reuse the
            # scalar path per row so results stay identical.
            return np.array(
                [self._nearest_sphere(row)[0] for row in matrix], dtype=np.intp
            )
        centers = self._center_matrix()
        count, dimension = centers.shape
        norms = self._norms[:count]
        weights = self._screen_weights[:, :count]
        # Forward-error bound, with u = eps/2 the unit roundoff, γ_n = n·u /
        # (1 − n·u) and S = ‖c‖² + ‖x‖² (any summation order, FMA or not):
        #   * the two norms err by ≤ γ_d·S together, the doubled dot product
        #     by ≤ 2·γ_d·Σ|x_k·c_k| ≤ γ_d·S, and the two additions forming
        #     the screen s by ≤ 5·u·S;
        #   * the scalar path's D̂ = Σ fl(c_k − x_k)² errs from the true
        #     D = ‖c − x‖² ≤ 2·S by ≤ γ_{d+2}·D ≤ 2·γ_{d+2}·S.
        # Hence |s − D̂| ≤ (2·γ_d + 2·γ_{d+2} + 5·u)·S ≈ (2·d + 4.5)·eps·S.
        # `factor` = 4·(d + 4)·eps, about twice that, which also covers the
        # roundings of S and of the row threshold.  S is taken at the
        # largest centre norm, plus `tiny` so that underflowed (subnormal)
        # products, each off by at most 2⁻¹⁰⁷⁵, stay covered.  With every
        # |s − D̂| ≤ bound, the exact winner j* has s_j* ≤ D̂_j* + bound ≤
        # D̂_k + bound ≤ s_k + 2·bound for every k, so it is always kept.
        factor = 4.0 * (dimension + 4) * _EPS
        offset = np.maximum.reduce(norms) + _TINY
        span = max(1, self._GEMM_TILE // dimension)
        tile = max(1, self._GEMM_TILE // (min(span, count) * dimension))
        rows = max(1, min(self._BATCH_BLOCK, self._BATCH_ELEMENT_BUDGET // max(1, centers.size)))
        indices = np.empty(matrix.shape[0], dtype=np.intp)
        for start in range(0, matrix.shape[0], rows):
            block = matrix[start : start + rows]
            with np.errstate(invalid="ignore", over="ignore"):
                if block.shape[0] <= tile and count <= span:
                    screen = block @ weights
                else:
                    screen = np.empty((block.shape[0], count))
                    for lo in range(0, block.shape[0], tile):
                        for col in range(0, count, span):
                            np.matmul(
                                block[lo : lo + tile],
                                weights[:, col : col + span],
                                out=screen[lo : lo + tile, col : col + span],
                            )
                block_norms = np.einsum("ij,ij->i", block, block)
                screen += norms
                screen += block_norms[:, None]
                scale = block_norms + offset
                threshold = np.minimum.reduce(screen, axis=1) + 2.0 * factor * scale
                keep = screen <= threshold[:, None]
            chosen = screen.argmin(axis=1)
            # A safe row always keeps its own minimum, so when every row is
            # safe, one kept sphere per row means none needs rescoring.  NaN
            # compares False, so a non-finite row is never safe.
            if not (
                np.maximum.reduce(scale) < self._SCREEN_SCALE_LIMIT
                and np.count_nonzero(keep) == block.shape[0]
            ):
                safe = scale < self._SCREEN_SCALE_LIMIT
                for row in np.flatnonzero(~safe):
                    diff = centers - block[row][None, :]
                    chosen[row] = np.argmin(np.einsum("ij,ij->i", diff, diff))
                ties = np.flatnonzero(safe & (keep.sum(axis=1) > 1))
                if ties.size:
                    chosen[ties] = self._rescore(centers, block[ties], keep[ties])
            indices[start : start + rows] = chosen
        return indices

    @staticmethod
    def _rescore(centers: np.ndarray, queries: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """First exact minimum over each row's kept spheres.

        ``keep`` is a (queries, spheres) mask; the distances are the scalar
        path's own difference arithmetic, and kept spheres are visited in
        ascending index order, so the first minimum is the one ``argmin``
        over all spheres would pick.
        """
        row_of, sphere_of = np.nonzero(keep)
        diff = centers[sphere_of] - queries[row_of]
        dists = np.einsum("ij,ij->i", diff, diff)
        starts = np.flatnonzero(np.r_[True, row_of[1:] != row_of[:-1]])
        lowest = np.minimum.reduceat(dists, starts)
        counts = np.diff(np.r_[starts, dists.size])
        position = np.where(
            dists == np.repeat(lowest, counts), np.arange(dists.size), dists.size
        )
        return sphere_of[np.minimum.reduceat(position, starts)]

    def _check_matrix(self, patterns) -> np.ndarray:
        """Validate a batch of query patterns into a (n, dimension) matrix."""
        matrix = np.atleast_2d(np.asarray(patterns, dtype=float))
        if matrix.ndim != 2:
            raise ValueError(
                f"batch queries need a (n, features) matrix, got shape {matrix.shape}"
            )
        if matrix.shape[1] == 0:
            raise ValueError("patterns must have at least one feature")
        if self._dimension is not None and matrix.shape[1] != self._dimension:
            raise ValueError(
                f"pattern has {matrix.shape[1]} features but the memory was "
                f"trained with {self._dimension}"
            )
        return matrix

    # -- training ----------------------------------------------------------

    def partial_fit(self, pattern: np.ndarray, label: Hashable) -> int:
        """Incrementally train on one labelled pattern.

        Returns the index of the sphere the pattern was placed in.
        """
        start = time.perf_counter()
        vector = self._check_dimension(pattern)
        if not self.spheres:
            sphere = SensitivitySphere(center=vector.copy())
            sphere.add(vector, label)
            self.spheres.append(sphere)
            placed = 0
        else:
            index, distance = self._nearest_sphere(vector)
            if self.delta <= 0.0 and distance > 0.0:
                # First meaningful inter-pattern distance initialises delta.
                self.delta = self.config.init_fraction * distance
            if distance <= self.delta:
                self.spheres[index].add(vector, label)
                self.delta *= 1.0 - self.config.shrink_rate
                placed = index
            else:
                sphere = SensitivitySphere(center=vector.copy())
                sphere.add(vector, label)
                self.spheres.append(sphere)
                self.delta += self.config.grow_rate * (distance - self.delta)
                placed = len(self.spheres) - 1
        self._set_center(placed, self.spheres[placed].center)
        self._tree = None  # rebuilt lazily on the next large query
        self.stats.patterns_trained += 1
        self.stats.training_seconds += time.perf_counter() - start
        return placed

    def fit(self, patterns: Sequence[np.ndarray] | np.ndarray, labels: Sequence[Hashable]) -> "MesoClassifier":
        """Train on a batch of labelled patterns (order matters: MESO is online)."""
        matrix = np.atleast_2d(np.asarray(patterns, dtype=float))
        if matrix.shape[0] != len(labels):
            raise ValueError(
                f"got {matrix.shape[0]} patterns but {len(labels)} labels"
            )
        for row, label in zip(matrix, labels):
            self.partial_fit(row, label)
        return self

    def reset(self) -> None:
        """Forget everything (empty memory, delta back to its initial value)."""
        self.spheres.clear()
        self.delta = self.config.initial_delta
        self._tree = None
        self._centers = None
        self._norms = None
        self._screen_weights = None
        self._dimension = None
        self.stats = TrainingStats()

    # -- queries -----------------------------------------------------------

    def query(self, pattern: np.ndarray) -> SensitivitySphere:
        """Return the sensitivity sphere most similar to ``pattern``."""
        start = time.perf_counter()
        vector = self._check_dimension(pattern)
        index, _ = self._nearest_sphere(vector)
        self.stats.patterns_tested += 1
        self.stats.testing_seconds += time.perf_counter() - start
        return self.spheres[index]

    def predict(self, pattern: np.ndarray) -> Hashable:
        """Predict the label of one pattern (majority label of the nearest sphere)."""
        return self.query(pattern).majority_label()

    def query_batch(
        self, patterns: Sequence[np.ndarray] | np.ndarray
    ) -> list[SensitivitySphere]:
        """Nearest sensitivity sphere for every pattern of a batch.

        One vectorised distance computation against the centre matrix
        replaces a Python-level loop of scalar queries; the returned
        spheres are exactly those per-pattern :meth:`query` calls would
        return, in input order.
        """
        if len(patterns) == 0:
            return []
        start = time.perf_counter()
        matrix = self._check_matrix(patterns)
        indices = self._nearest_sphere_indices(matrix)
        self.stats.patterns_tested += matrix.shape[0]
        self.stats.testing_seconds += time.perf_counter() - start
        return [self.spheres[index] for index in indices]

    def predict_batch(self, patterns: Sequence[np.ndarray] | np.ndarray) -> list[Hashable]:
        """Predict labels for a batch of patterns (vectorised).

        Equivalent to ``[self.predict(p) for p in patterns]`` — the
        equivalence is covered by tests — but the nearest-sphere search
        runs as a single NumPy computation over all query patterns.
        """
        spheres = self.query_batch(patterns)
        # One majority count per distinct sphere, not per query.
        distinct = {id(sphere): sphere for sphere in spheres}
        labels = {key: sphere.majority_label() for key, sphere in distinct.items()}
        return [labels[id(sphere)] for sphere in spheres]

    def predict_proba(self, pattern: np.ndarray) -> dict[Hashable, float]:
        """Label distribution of the nearest sphere (not calibrated probabilities)."""
        return self.query(pattern).label_distribution()

    # -- persistence -------------------------------------------------------

    def save(self, path, backend: str = "auto"):
        """Persist this memory to ``path`` through the feature-store backends.

        The saved form replays bit-identically on load (centres are
        verified against the stored matrix); see
        :func:`repro.store.save_meso`.  Labels must be strings.
        """
        from ..store.meso_io import save_meso

        return save_meso(self, path, backend=backend)

    @classmethod
    def load(cls, path) -> "MesoClassifier":
        """Load a memory saved by :meth:`save`, verifying integrity."""
        from ..store.meso_io import load_meso

        return load_meso(path)

    # -- introspection -----------------------------------------------------

    def describe(self) -> dict:
        """Summary of the memory: sphere count, pattern count, delta, timings."""
        return {
            "spheres": self.sphere_count,
            "patterns": self.pattern_count,
            "delta": self.delta,
            "labels": sorted(str(label) for label in self.labels()),
            "training_seconds": self.stats.training_seconds,
            "testing_seconds": self.stats.testing_seconds,
        }
