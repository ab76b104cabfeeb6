"""Unit tests for the MESO perceptual memory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.meso import (
    METRICS,
    MesoClassifier,
    MesoConfig,
    SensitivitySphere,
    SphereTree,
)


def gaussian_blobs(rng, centers, points_per_blob=30, scale=0.15):
    """Labelled points drawn around the given centres."""
    patterns, labels = [], []
    for label, center in enumerate(centers):
        for _ in range(points_per_blob):
            patterns.append(np.asarray(center) + scale * rng.standard_normal(len(center)))
            labels.append(f"class-{label}")
    order = rng.permutation(len(patterns))
    return [patterns[i] for i in order], [labels[i] for i in order]


class TestSensitivitySphere:
    def test_center_is_mean_of_members(self, rng):
        sphere = SensitivitySphere(center=np.zeros(3))
        points = rng.normal(size=(10, 3))
        for point in points:
            sphere.add(point, "a")
        np.testing.assert_allclose(sphere.center, points.mean(axis=0))
        assert sphere.count == 10

    def test_label_bookkeeping(self):
        sphere = SensitivitySphere(center=np.zeros(2))
        sphere.add(np.zeros(2), "x")
        sphere.add(np.ones(2), "x")
        sphere.add(np.ones(2) * 2, "y")
        assert sphere.label_counts == {"x": 2, "y": 1}
        assert sphere.majority_label() == "x"
        distribution = sphere.label_distribution()
        assert distribution["x"] == pytest.approx(2 / 3)

    def test_radius_covers_members(self, rng):
        sphere = SensitivitySphere(center=np.zeros(4))
        points = rng.normal(size=(20, 4))
        for point in points:
            sphere.add(point, "a")
        radius = sphere.radius()
        distances = np.linalg.norm(points - sphere.center, axis=1)
        assert radius == pytest.approx(distances.max())

    def test_merge_combines_members(self):
        a = SensitivitySphere(center=np.zeros(2))
        a.add(np.array([0.0, 0.0]), "x")
        b = SensitivitySphere(center=np.zeros(2))
        b.add(np.array([2.0, 2.0]), "y")
        a.merge(b)
        assert a.count == 2
        np.testing.assert_allclose(a.center, [1.0, 1.0])
        assert a.label_counts == {"x": 1, "y": 1}

    def test_dimension_mismatch_rejected(self):
        sphere = SensitivitySphere(center=np.zeros(3))
        with pytest.raises(ValueError):
            sphere.add(np.zeros(4), "a")

    def test_majority_label_requires_members(self):
        with pytest.raises(ValueError):
            SensitivitySphere(center=np.zeros(2)).majority_label()


class TestSphereTree:
    def _spheres(self, rng, count=50, dim=6):
        spheres = []
        for _ in range(count):
            sphere = SensitivitySphere(center=np.zeros(dim))
            sphere.add(rng.normal(size=dim), "a")
            spheres.append(sphere)
        return spheres

    def test_exact_search_matches_brute_force(self, rng):
        spheres = self._spheres(rng)
        tree = SphereTree(spheres, leaf_size=4)
        for _ in range(25):
            query = rng.normal(size=6)
            tree_index, tree_distance = tree.nearest(query, exact=True)
            brute_index, brute_distance = tree.brute_force_nearest(query)
            assert tree_index == brute_index
            assert tree_distance == pytest.approx(brute_distance)

    def test_greedy_search_returns_valid_sphere(self, rng):
        spheres = self._spheres(rng, count=40)
        tree = SphereTree(spheres, leaf_size=4)
        index, distance = tree.nearest(rng.normal(size=6), exact=False)
        assert 0 <= index < len(spheres)
        assert distance >= 0

    def test_depth_greater_than_one_for_many_spheres(self, rng):
        tree = SphereTree(self._spheres(rng, count=64), leaf_size=4)
        assert tree.depth() > 1
        assert len(tree) == 64

    def test_empty_tree_rejects_queries(self):
        tree = SphereTree([])
        with pytest.raises(ValueError):
            tree.nearest(np.zeros(3))


class TestMesoClassifier:
    def test_learns_separable_blobs(self, rng):
        patterns, labels = gaussian_blobs(rng, [(0, 0), (5, 5), (-5, 5)])
        meso = MesoClassifier()
        meso.fit(patterns, labels)
        correct = sum(meso.predict(p) == l for p, l in zip(patterns, labels))
        assert correct / len(patterns) > 0.95

    def test_generalises_to_unseen_points(self, rng):
        patterns, labels = gaussian_blobs(rng, [(0, 0, 0), (4, 4, 4)])
        meso = MesoClassifier()
        meso.fit(patterns, labels)
        assert meso.predict(np.array([0.2, -0.1, 0.1])) == "class-0"
        assert meso.predict(np.array([4.2, 3.9, 4.1])) == "class-1"

    def test_incremental_training_updates_memory(self, rng):
        meso = MesoClassifier()
        meso.partial_fit(np.array([0.0, 0.0]), "a")
        assert meso.sphere_count == 1
        meso.partial_fit(np.array([10.0, 10.0]), "b")
        assert meso.sphere_count == 2
        assert meso.predict(np.array([9.5, 10.2])) == "b"

    def test_sphere_count_bounded_by_pattern_count(self, rng):
        patterns, labels = gaussian_blobs(rng, [(0, 0), (3, 3)], points_per_blob=40)
        meso = MesoClassifier()
        meso.fit(patterns, labels)
        assert meso.sphere_count <= len(patterns)
        assert meso.pattern_count == len(patterns)

    def test_similar_patterns_share_spheres(self, rng):
        meso = MesoClassifier(MesoConfig(initial_delta=1.0))
        for _ in range(30):
            meso.partial_fit(np.array([1.0, 1.0]) + 0.01 * rng.standard_normal(2), "a")
        assert meso.sphere_count < 5

    def test_predict_proba_distribution(self, rng):
        meso = MesoClassifier(MesoConfig(initial_delta=10.0))
        meso.partial_fit(np.array([0.0, 0.0]), "a")
        meso.partial_fit(np.array([0.1, 0.1]), "a")
        meso.partial_fit(np.array([0.2, 0.0]), "b")
        proba = meso.predict_proba(np.array([0.05, 0.05]))
        assert proba["a"] == pytest.approx(2 / 3)
        assert sum(proba.values()) == pytest.approx(1.0)

    def test_query_returns_sphere(self, rng):
        meso = MesoClassifier()
        meso.partial_fit(np.array([1.0, 2.0]), "a")
        sphere = meso.query(np.array([1.0, 2.0]))
        assert isinstance(sphere, SensitivitySphere)
        assert sphere.majority_label() == "a"

    def test_dimension_mismatch_raises(self):
        meso = MesoClassifier()
        meso.partial_fit(np.zeros(4), "a")
        with pytest.raises(ValueError):
            meso.predict(np.zeros(5))

    def test_empty_memory_rejects_queries(self):
        with pytest.raises(ValueError):
            MesoClassifier().predict(np.zeros(3))

    def test_reset_clears_memory(self, rng):
        meso = MesoClassifier()
        meso.partial_fit(np.zeros(2), "a")
        meso.reset()
        assert meso.sphere_count == 0
        assert meso.stats.patterns_trained == 0
        meso.partial_fit(np.zeros(3), "b")  # dimensionality can change after reset
        assert meso.predict(np.zeros(3)) == "b"

    def test_timing_statistics_accumulate(self, rng):
        meso = MesoClassifier()
        patterns, labels = gaussian_blobs(rng, [(0, 0), (2, 2)], points_per_blob=10)
        meso.fit(patterns, labels)
        meso.predict_batch(patterns[:5])
        assert meso.stats.patterns_trained == len(patterns)
        assert meso.stats.patterns_tested == 5
        assert meso.stats.training_seconds > 0
        assert meso.stats.testing_seconds > 0

    def test_tree_and_linear_search_agree(self, rng):
        patterns, labels = gaussian_blobs(rng, [(0, 0), (5, 5), (0, 5), (5, 0)], points_per_blob=30)
        linear = MesoClassifier(MesoConfig(tree_threshold=10_000))
        tree = MesoClassifier(MesoConfig(tree_threshold=1))
        linear.fit(patterns, labels)
        tree.fit(patterns, labels)
        queries = [rng.normal(size=2) * 3 for _ in range(20)]
        for query in queries:
            assert linear.predict(query) == tree.predict(query)

    def test_describe_contents(self, rng):
        meso = MesoClassifier()
        meso.partial_fit(np.zeros(2), "a")
        summary = meso.describe()
        assert summary["spheres"] == 1
        assert summary["patterns"] == 1
        assert summary["labels"] == ["a"]

    def test_fit_label_length_mismatch(self):
        with pytest.raises(ValueError):
            MesoClassifier().fit(np.zeros((3, 2)), ["a", "b"])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MesoConfig(grow_rate=1.5)
        with pytest.raises(ValueError):
            MesoConfig(shrink_rate=1.0)
        with pytest.raises(ValueError):
            MesoConfig(init_fraction=0.0)

    def test_order_dependence_is_bounded(self, rng):
        """MESO is order dependent, but accuracy on clean blobs should not collapse."""
        patterns, labels = gaussian_blobs(rng, [(0, 0), (6, 6)], points_per_blob=25)
        accuracies = []
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(patterns))
            meso = MesoClassifier()
            meso.fit([patterns[i] for i in order], [labels[i] for i in order])
            accuracies.append(
                np.mean([meso.predict(p) == l for p, l in zip(patterns, labels)])
            )
        assert min(accuracies) > 0.9


class TestVectorisedBatchQueries:
    """predict_batch's vectorised path must match scalar predict exactly."""

    def test_predict_batch_equals_scalar_predict_on_random_corpora(self):
        # Seeded-random property loop over corpora of varying dimension,
        # label count and size: the equivalence is exact, not approximate.
        for seed in range(6):
            rng = np.random.default_rng(seed)
            dimension = int(rng.integers(2, 40))
            n_labels = int(rng.integers(2, 6))
            centers = rng.normal(scale=5.0, size=(n_labels, dimension))
            patterns, labels = gaussian_blobs(rng, centers, points_per_blob=20)
            meso = MesoClassifier()
            meso.fit(patterns, labels)
            queries = rng.normal(scale=4.0, size=(int(rng.integers(1, 300)), dimension))
            assert meso.predict_batch(queries) == [meso.predict(q) for q in queries]

    def test_query_batch_returns_the_scalar_query_spheres(self, rng):
        patterns, labels = gaussian_blobs(rng, [(0, 0), (4, 4), (-4, 4)])
        meso = MesoClassifier()
        meso.fit(patterns, labels)
        queries = rng.normal(scale=3.0, size=(40, 2))
        batch = meso.query_batch(queries)
        assert all(a is b for a, b in zip(batch, [meso.query(q) for q in queries]))

    def test_batch_crosses_the_block_boundary(self, rng):
        # More queries than _BATCH_BLOCK: blocking must not change results.
        patterns, labels = gaussian_blobs(rng, [(0, 0), (5, 5)])
        meso = MesoClassifier()
        meso.fit(patterns, labels)
        queries = rng.normal(scale=4.0, size=(MesoClassifier._BATCH_BLOCK + 37, 2))
        assert meso.predict_batch(queries) == [meso.predict(q) for q in queries]

    def test_batch_equals_scalar_through_the_sphere_tree(self, rng):
        patterns, labels = gaussian_blobs(rng, [(0, 0), (5, 5), (0, 5)], points_per_blob=25)
        meso = MesoClassifier(MesoConfig(tree_threshold=1))
        meso.fit(patterns, labels)
        queries = rng.normal(scale=3.0, size=(30, 2))
        assert meso.predict_batch(queries) == [meso.predict(q) for q in queries]

    def test_batch_list_of_vectors_accepted(self, rng):
        patterns, labels = gaussian_blobs(rng, [(0, 0), (3, 3)])
        meso = MesoClassifier()
        meso.fit(patterns, labels)
        queries = [rng.normal(size=2) for _ in range(7)]
        assert meso.predict_batch(queries) == [meso.predict(q) for q in queries]

    def test_empty_batch_returns_empty(self, rng):
        meso = MesoClassifier()
        meso.partial_fit(np.zeros(2), "a")
        assert meso.predict_batch([]) == []
        assert meso.query_batch([]) == []
        assert meso.stats.patterns_tested == 0

    def test_batch_dimension_mismatch_raises(self):
        meso = MesoClassifier()
        meso.partial_fit(np.zeros(4), "a")
        with pytest.raises(ValueError, match="features"):
            meso.predict_batch(np.zeros((3, 5)))

    def test_batch_on_empty_memory_raises(self):
        with pytest.raises(ValueError, match="empty"):
            MesoClassifier().predict_batch(np.zeros((2, 3)))

    def test_batch_counts_every_query_in_stats(self, rng):
        patterns, labels = gaussian_blobs(rng, [(0, 0), (2, 2)], points_per_blob=10)
        meso = MesoClassifier()
        meso.fit(patterns, labels)
        meso.predict_batch(rng.normal(size=(9, 2)))
        assert meso.stats.patterns_tested == 9


class TestMetricRegistry:
    def test_known_metrics(self):
        assert METRICS["euclidean"](np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(5.0)
        assert METRICS["manhattan"](np.zeros(2), np.array([1.0, 2.0])) == pytest.approx(3.0)
