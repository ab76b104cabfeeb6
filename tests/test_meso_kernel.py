"""The GEMM-screened MESO batch query against the scalar nearest sphere.

``MesoClassifier._nearest_sphere_indices`` ranks spheres with the inexact
screen ``‖c‖² − 2·x·cᵀ + ‖x‖²`` and rescores only the rows a forward-error
bound leaves ambiguous.  Its promise is exact, not approximate: every row
gets the index the scalar ``_nearest_sphere`` returns, first-minimum
tie-break included.  The memories here are built to break a screen that
trusted its own arithmetic — duplicated centres (exact ties), queries
equidistant from two centres, 1-ulp near-ties, a large common offset that
cancels away every significant digit of the screen, zero vectors and
non-finite query rows — and the results are compared with the scalar path
row by row, and with the difference-tensor kernel the screen replaced
(``tests/_seed_anchors.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.meso import MesoClassifier
from repro.meso.sphere import SensitivitySphere

from _seed_anchors import seed_nearest_sphere_indices

SETTINGS = dict(max_examples=60, deadline=None)

OFFSETS = [0.0, 1e6, -1e6, 1e6 + 0.5, 3e-160]


def memory(centers: np.ndarray) -> MesoClassifier:
    """A memory holding exactly ``centers`` (one sphere per row), laid out
    the way a loaded store memory is."""
    meso = MesoClassifier()
    for index, center in enumerate(centers):
        sphere = SensitivitySphere(center=center.copy())
        sphere.add(center, f"s{index % 3}")
        meso.spheres.append(sphere)
    meso._dimension = centers.shape[1]
    return meso


def scalar_indices(meso: MesoClassifier, queries: np.ndarray) -> list[int]:
    with np.errstate(invalid="ignore", over="ignore"):
        return [meso._nearest_sphere(row)[0] for row in queries]


@st.composite
def adversarial_case(draw):
    """(centres, queries): few distinct grid points, many duplicates, a
    shared offset, and queries placed on, between and 1 ulp beside them."""
    dimension = draw(st.integers(1, 9))
    pool = draw(st.integers(1, 6))
    grid = np.array(
        draw(st.lists(st.integers(-4, 4), min_size=pool * dimension, max_size=pool * dimension)),
        dtype=float,
    ).reshape(pool, dimension) / 4.0
    picks = draw(st.lists(st.integers(0, pool - 1), min_size=1, max_size=24))
    offset = draw(st.sampled_from(OFFSETS))
    centers = grid[picks] + offset
    queries = []
    for kind in draw(st.lists(st.sampled_from(["on", "mid", "ulp", "zero", "grid", "bad"]), min_size=1, max_size=12)):
        a, b = (centers[draw(st.integers(0, len(picks) - 1))] for _ in range(2))
        if kind == "on":
            queries.append(a.copy())
        elif kind == "mid":
            queries.append((a + b) / 2.0)
        elif kind == "ulp":
            toward = draw(st.sampled_from([np.inf, -np.inf]))
            queries.append(np.nextafter((a + b) / 2.0, toward))
        elif kind == "zero":
            queries.append(np.zeros(dimension))
        elif kind == "grid":
            queries.append(np.array(draw(st.lists(st.integers(-6, 6), min_size=dimension, max_size=dimension)), dtype=float) / 8.0 + offset)
        else:
            row = a.copy()
            row[draw(st.integers(0, dimension - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            queries.append(row)
    return centers, np.array(queries)


class TestScreenedKernel:
    @settings(**SETTINGS)
    @given(adversarial_case())
    def test_equals_scalar_nearest_sphere(self, case):
        centers, queries = case
        meso = memory(centers)
        assert meso._nearest_sphere_indices(queries).tolist() == scalar_indices(meso, queries)

    @settings(**SETTINGS)
    @given(adversarial_case())
    def test_equals_the_difference_tensor_kernel(self, case):
        centers, queries = case
        meso = memory(centers)
        with np.errstate(invalid="ignore", over="ignore"):
            seed = seed_nearest_sphere_indices(meso._center_matrix(), queries)
        np.testing.assert_array_equal(meso._nearest_sphere_indices(queries), seed)

    @settings(**SETTINGS)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 70),
        st.integers(0, 6),
        st.integers(-12, -1),
    )
    def test_clustered_near_ties_equal_scalar(self, seed, dimension, magnitude, spread):
        # Centres and queries scattered 1e-12…1e-1 around a point of norm up
        # to ~1e7: the screen's rounding exceeds many of the true gaps, so
        # a bound even 1·eps·S too small picks wrong spheres here.
        rng = np.random.default_rng(seed)
        base = rng.normal(size=dimension) * 10.0**magnitude
        centers = base + rng.normal(size=(int(rng.integers(2, 30)), dimension)) * 10.0**spread
        queries = base + rng.normal(size=(20, dimension)) * 10.0**spread
        meso = memory(centers)
        assert meso._nearest_sphere_indices(queries).tolist() == scalar_indices(meso, queries)

    @settings(**SETTINGS)
    @given(adversarial_case(), st.integers(1, 40))
    def test_tiled_products_change_nothing(self, case, tile):
        # A tiny product budget splits the screen over rows and spheres.
        centers, queries = case
        meso = memory(centers)
        expected = meso._nearest_sphere_indices(queries)
        meso._GEMM_TILE = tile
        np.testing.assert_array_equal(meso._nearest_sphere_indices(queries), expected)

    def test_duplicated_centres_pick_the_first(self):
        centers = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
        meso = memory(centers)
        queries = np.array([[1.0, 2.0], [0.0, 0.0], [0.5, 1.0], [0.1, 0.1]])
        assert meso._nearest_sphere_indices(queries).tolist() == scalar_indices(meso, queries)
        assert meso._nearest_sphere_indices(queries).tolist()[:2] == [0, 1]

    def test_cancellation_under_a_large_offset(self):
        # With |c| ≈ 1e6 the screen's terms are ~1e12 and its rounding
        # (~1e-4) dwarfs the 1-ulp gaps between these distances.
        rng = np.random.default_rng(7)
        centers = 1e6 + rng.integers(-3, 4, size=(40, 5)) / 64.0
        queries = 1e6 + rng.integers(-3, 4, size=(200, 5)) / 128.0
        meso = memory(centers)
        assert meso._nearest_sphere_indices(queries).tolist() == scalar_indices(meso, queries)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_match_scalar(self, bad):
        centers = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        meso = memory(centers)
        queries = np.array([[0.9, 0.9], [bad, 0.0], [0.0, bad], [1.9, 2.1]])
        assert meso._nearest_sphere_indices(queries).tolist() == scalar_indices(meso, queries)

    def test_near_overflow_scale_matches_scalar(self):
        centers = np.array([[1e153, 0.0], [-1e153, 0.0], [0.0, 0.0]])
        meso = memory(centers)
        queries = np.array([[1e154, 0.0], [0.0, 1.0], [-2e153, 1e153]])
        assert meso._nearest_sphere_indices(queries).tolist() == scalar_indices(meso, queries)


class TestNormCache:
    def test_norms_follow_training(self):
        # Every partial_fit moves or adds a centre; the cached norms and
        # screen weights must follow, or the screen ranks stale spheres.
        rng = np.random.default_rng(3)
        meso = MesoClassifier()
        queries = rng.normal(size=(30, 4))
        for step in range(300):
            meso.partial_fit(rng.normal(size=4) * (1 + step % 5), f"l{step % 4}")
            if step % 25 == 0:
                assert meso._nearest_sphere_indices(queries).tolist() == [
                    meso._nearest_sphere(q)[0] for q in queries
                ]
        count = meso.sphere_count
        centers = meso._center_matrix()
        np.testing.assert_array_equal(meso._norms[:count], [c @ c for c in centers])
        np.testing.assert_array_equal(meso._screen_weights[:, :count], -2.0 * centers.T)

    def test_loaded_memory_builds_its_norms(self, tmp_path):
        rng = np.random.default_rng(5)
        meso = MesoClassifier()
        meso.fit(rng.normal(size=(120, 6)), [f"l{i % 3}" for i in range(120)])
        meso.save(tmp_path / "memory")
        loaded = MesoClassifier.load(tmp_path / "memory")
        queries = rng.normal(size=(50, 6))
        assert loaded.predict_batch(queries) == [meso.predict(q) for q in queries]


class TestPredictBatch:
    def test_majority_label_counted_once_per_distinct_sphere(self, monkeypatch):
        centers = np.array([[0.0], [10.0], [20.0]])
        meso = memory(centers)
        calls = []
        original = SensitivitySphere.majority_label

        def counting(sphere):
            calls.append(id(sphere))
            return original(sphere)

        monkeypatch.setattr(SensitivitySphere, "majority_label", counting)
        queries = np.array([[0.1], [9.0], [0.2], [11.0], [19.0], [-1.0]])
        labels = meso.predict_batch(queries)
        assert len(calls) == len(set(calls)) == 3
        monkeypatch.undo()
        assert labels == [meso.predict(q) for q in queries]
