import itertools
import json
import math

import numpy as np
import pytest

from sonocad import svm


class TestNormalizer:
    def test_two_point_column(self):
        norm = svm.MinMaxNormalizer().fit(np.array([[2.0], [4.0]]))
        out = norm.transform(np.array([[2.0], [4.0]]))
        assert out.ravel().tolist() == [0.0, 1.0]

    def test_constant_column_maps_to_zero(self):
        norm = svm.MinMaxNormalizer().fit(np.array([[5.0, 1.0], [5.0, 2.0]]))
        out = norm.transform(np.array([[5.0, 1.5]]))
        assert out[0, 0] == 0.0

    def test_fit_transform_spans_unit_interval(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 4)) * [1, 10, 100, 1000]
        out = svm.MinMaxNormalizer().fit(x).transform(x)
        assert np.allclose(out.min(axis=0), 0.0)
        assert np.allclose(out.max(axis=0), 1.0)

    def test_out_of_range_clamped(self):
        norm = svm.MinMaxNormalizer().fit(np.array([[0.0], [1.0]]))
        out = norm.transform(np.array([[-5.0], [7.0]]))
        assert out.ravel().tolist() == [0.0, 1.0]


class TestKernels:
    def test_rbf_self_similarity(self):
        spec = svm.KernelSpec("rbf", gamma=0.7)
        x = np.array([1.0, 2.0, 3.0])
        assert svm.kernel_matrix(spec, x, x)[0, 0] == pytest.approx(1.0)

    def test_rbf_at_reported_width(self):
        # gamma = 0.43528, unit squared distance
        spec = svm.KernelSpec("rbf", gamma=0.43528)
        assert svm.kernel_matrix(spec, np.array([0.0]), np.array([1.0]))[0, 0] == pytest.approx(
            math.exp(-0.43528), rel=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            svm.kernel_matrix(svm.KernelSpec("rbf"), np.array([1.0]), np.array([1.0, 2.0]))

    def test_rbf_gram_positive_semidefinite(self):
        rng = np.random.default_rng(1)
        for gamma in (0.1, 1.0, 5.0):
            pts = rng.normal(size=(8, 3))
            k = svm.kernel_matrix(svm.KernelSpec("rbf", gamma=gamma), pts, pts)
            eigs = np.linalg.eigvalsh(k)
            assert eigs.min() >= -1e-8


def brute_force_dual(k_mat, y, c, grid=21):
    """Exhaustive search over the dual on 3-point problems: two free alphas
    on a grid, the third pinned by the equality constraint."""
    best = -np.inf
    best_alpha = None
    axis = np.linspace(0, c, grid)
    for a0, a1 in itertools.product(axis, repeat=2):
        a2 = -(a0 * y[0] + a1 * y[1]) * y[2]
        if not (0 <= a2 <= c):
            continue
        alpha = np.array([a0, a1, a2])
        val = svm.dual_objective(k_mat, y, alpha)
        if val > best:
            best = val
            best_alpha = alpha
    return best, best_alpha


class TestSmo:
    def test_symmetric_pair_linear(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([-1, 1])
        clf = svm.SmoSVC(c=10.0, kernel="linear", normalize=False).fit(x, y)
        assert len(clf.support_vectors_) == 2
        assert clf.decision_function(np.array([[0.0]]))[0] == pytest.approx(0.0, abs=1e-6)
        assert (clf.predict(x) == y).all()
        # tie at exactly zero predicts the negative class
        assert clf.predict(np.array([[0.0]]))[0] == -1

    def test_xor_with_rbf(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([-1, -1, 1, 1])
        clf = svm.SmoSVC(c=10.0, kernel="rbf", gamma=1.0, normalize=False).fit(x, y)
        assert (clf.predict(x) == y).all()

    def test_dual_feasibility(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 4))
        y = np.where(x[:, 0] + 0.3 * rng.normal(size=30) > 0, 1, -1)
        c = 5.0
        clf = svm.SmoSVC(c=c, gamma=0.5, normalize=False).fit(x, y)
        alphas = clf.dual_coef_ * np.where(clf.dual_coef_ > 0, 1, -1)  # |alpha_i|
        assert (alphas > 0).all() and (alphas <= c + 1e-9).all()
        assert abs(clf.dual_coef_.sum()) <= 1e-6

    def test_matches_exhaustive_dual_on_tiny_problems(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.normal(size=(3, 2))
            y = np.array([1, -1, rng.choice([-1, 1])])
            if len(set(y)) < 2:
                y[2] = -y[0]
            c = 2.0
            k_mat = svm.kernel_matrix(svm.KernelSpec("rbf", gamma=1.0), x, x)
            alpha, b = svm.smo_solve(k_mat, y.astype(float), c)
            got = svm.dual_objective(k_mat, y, alpha)
            best, _ = brute_force_dual(k_mat, y, c, grid=81)
            assert got >= best - 1e-3
            assert svm.kkt_violation(k_mat, y.astype(float), alpha, b, c) <= 1e-3

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            svm.SmoSVC().fit(np.zeros((4, 2)), np.ones(4))

    def test_non_finite_rejected(self):
        x = np.array([[np.nan, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            svm.SmoSVC().fit(x, np.array([1, -1]))

    def test_decision_continuity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 3))
        y = np.where(x[:, 0] > 0, 1, -1)
        clf = svm.SmoSVC(c=1.0, gamma=2.0, normalize=False).fit(x, y)
        v = rng.normal(size=(1, 3))
        f0 = clf.decision_function(v)[0]
        f1 = clf.decision_function(v + 1e-6)[0]
        assert abs(f1 - f0) < 1e-4

    def test_scale_consistency_with_normalization(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(24, 3))
        y = np.where(x[:, 1] > 0, 1, -1)
        test = rng.normal(size=(6, 3))
        clf = svm.SmoSVC(c=2.0, gamma=1.0).fit(x, y)
        scale = np.array([3.0, 0.5, 10.0])
        shift = np.array([1.0, -2.0, 7.0])
        clf2 = svm.SmoSVC(c=2.0, gamma=1.0).fit(x * scale + shift, y)
        # normalization cancels the affine map up to rounding; the solver is
        # iterative with tol=1e-3 so allow differences at that scale
        assert np.allclose(
            clf.decision_function(test),
            clf2.decision_function(test * scale + shift),
            atol=1e-2,
        )


class TestKfold:
    def _ids(self, n):
        return [f"case{i:03d}" for i in range(n)]

    def test_clinical_scale_counts(self):
        # 88 positive + 62 negative, five folds of 30 with 17-18 positives
        y = np.array([1] * 88 + [-1] * 62)
        folds = svm.kfold_split(self._ids(150), y, 5, seed=0)
        for f in folds:
            assert len(f) == 30
            assert 17 <= np.sum(y[f] == 1) <= 18

    def test_partition(self):
        y = np.array([1] * 10 + [-1] * 15)
        folds = svm.kfold_split(self._ids(25), y, 5, seed=1)
        joined = np.concatenate(folds)
        assert sorted(joined.tolist()) == list(range(25))

    def test_deterministic(self):
        y = np.array([1, -1] * 10)
        a = svm.kfold_split(self._ids(20), y, 4, seed=7)
        b = svm.kfold_split(self._ids(20), y, 4, seed=7)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    def test_class_smaller_than_k(self):
        y = np.array([1, 1, 1, -1, -1, -1, -1, -1])
        with pytest.raises(ValueError):
            svm.kfold_split(self._ids(8), y, 4, seed=0)

    def test_row_order_invariant_by_id(self):
        rng = np.random.default_rng(8)
        y = np.array([1] * 8 + [-1] * 8)
        ids = self._ids(16)
        folds = svm.kfold_split(ids, y, 4, seed=3)
        as_sets = [frozenset(ids[i] for i in f) for f in folds]
        perm = rng.permutation(16)
        folds2 = svm.kfold_split([ids[i] for i in perm], y[perm], 4, seed=3)
        as_sets2 = [frozenset([ids[i] for i in perm][j] for j in f) for f in folds2]
        assert as_sets == as_sets2


def _toy_problem(n=24, seed=9):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = np.where(x[:, 0] + x[:, 1] > 0, 1, -1)
    if len(set(y)) < 2:  # pathological draw
        y[0] = -y[0]
    ids = [f"t{i:02d}" for i in range(n)]
    return x, y, ids


class TestGridSearch:
    def test_default_lattice_contains_reported_optimum(self):
        axis = svm.exponent_lattice(*svm.DEFAULT_EXPONENTS)
        cs = 2.0**axis
        assert np.min(np.abs(cs - 6.9644) / 6.9644) < 1e-3
        assert np.min(np.abs(cs - 0.43528) / 0.43528) < 1e-3

    def test_single_point_lattice(self):
        x, y, ids = _toy_problem()
        res = svm.grid_search(x, y, ids, k=3, seed=0,
                              c_exponents=(1.0, 1.0, 1.0), g_exponents=(0.0, 0.0, 1.0))
        assert res.best_c == 2.0
        assert res.best_gamma == 1.0
        assert len(res.surface) == 1
        assert res.surface[0][2] == res.best_accuracy

    @pytest.mark.parametrize("exponents", [(2.0, 0.0, 1.0), (0.0, 1.0, 0.0), (0.0, 1.0, -1.0)])
    def test_empty_or_endless_lattice_rejected(self, exponents):
        # a stop below the start once left the lattice empty and grid_search
        # failed with a TypeError on its missing best cell
        x, y, ids = _toy_problem()
        with pytest.raises(ValueError, match="exponents"):
            svm.grid_search(x, y, ids, k=3, c_exponents=exponents, g_exponents=(0.0, 0.0, 1.0))

    def test_best_is_argmax(self):
        x, y, ids = _toy_problem()
        res = svm.grid_search(x, y, ids, k=3, seed=0,
                              c_exponents=(-1.0, 2.0, 1.0), g_exponents=(-1.0, 1.0, 1.0))
        assert res.best_accuracy == max(acc for _, _, acc in res.surface)

    def test_argmax_invariant_under_row_permutation(self):
        x, y, ids = _toy_problem()
        res = svm.grid_search(x, y, ids, k=3, seed=0,
                              c_exponents=(-1.0, 1.0, 1.0), g_exponents=(-1.0, 1.0, 1.0))
        rng = np.random.default_rng(10)
        perm = rng.permutation(len(y))
        res2 = svm.grid_search(x[perm], y[perm], [ids[i] for i in perm], k=3, seed=0,
                               c_exponents=(-1.0, 1.0, 1.0), g_exponents=(-1.0, 1.0, 1.0))
        assert res.best_c == res2.best_c
        assert res.best_gamma == res2.best_gamma

    def test_separable_toy_reaches_full_accuracy(self):
        x = np.vstack([np.full((6, 2), -2.0), np.full((6, 2), 2.0)])
        x += np.random.default_rng(11).normal(scale=0.05, size=x.shape)
        y = np.array([-1] * 6 + [1] * 6)
        ids = [f"s{i}" for i in range(12)]
        res = svm.grid_search(x, y, ids, k=3, seed=0,
                              c_exponents=(2.0, 2.0, 1.0), g_exponents=(0.0, 0.0, 1.0))
        assert res.best_accuracy == 1.0

    def test_surface_csv_shape(self):
        x, y, ids = _toy_problem()
        res = svm.grid_search(x, y, ids, k=3, seed=0,
                              c_exponents=(0.0, 1.0, 1.0), g_exponents=(0.0, 1.0, 1.0))
        lines = res.surface_csv().strip().split("\n")
        assert lines[0] == "log2c,log2g,cv_accuracy"
        assert len(lines) == 1 + 4


class TestPersistence:
    def test_round_trip_predictions(self):
        x, y, ids = _toy_problem()
        clf = svm.SmoSVC(c=4.0, gamma=0.8).fit(x, y)
        clone = svm.model_from_json(svm.model_to_json(clf))
        probe = np.random.default_rng(12).normal(size=(10, 2))
        assert np.allclose(clf.decision_function(probe), clone.decision_function(probe))

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError):
            svm.model_from_json('{"version": 99}')

    @pytest.mark.parametrize("mutate, match", [
        (lambda m: [1, 2], "JSON object"),
        (lambda m: {"version": 1}, "lacks field"),
        (lambda m: {k: v for k, v in m.items() if k != "alphas"}, "lacks field 'alphas'"),
        (lambda m: {**m, "kernel": {"gamma": 1.0}}, "lacks field 'kind'"),
        (lambda m: {**m, "kernel": {"kind": "sigmoid", "gamma": 1.0}}, "unknown kernel"),
        (lambda m: {**m, "kernel": 3}, "malformed"),
    ], ids=["array", "version-only", "no-alphas", "no-kind", "sigmoid", "kernel-not-object"])
    def test_rejects_malformed_model(self, mutate, match):
        x, y, ids = _toy_problem()
        model = json.loads(svm.model_to_json(svm.SmoSVC(c=4.0, gamma=0.8).fit(x, y)))
        with pytest.raises(ValueError, match=match):
            svm.model_from_json(json.dumps(mutate(model)))

    def test_loads_model_with_coef0(self):
        # files written before the sigmoid kernel was removed carry coef0
        x, y, ids = _toy_problem()
        clf = svm.SmoSVC(c=4.0, gamma=0.8).fit(x, y)
        model = json.loads(svm.model_to_json(clf))
        assert "coef0" not in model["kernel"]
        model["kernel"]["coef0"] = 0.0
        clone = svm.model_from_json(json.dumps(model))
        probe = np.random.default_rng(12).normal(size=(10, 2))
        assert np.array_equal(clf.decision_function(probe), clone.decision_function(probe))

    def test_serialization_deterministic(self):
        x, y, ids = _toy_problem()
        clf = svm.SmoSVC(c=4.0, gamma=0.8).fit(x, y)
        assert svm.model_to_json(clf) == svm.model_to_json(clf)
