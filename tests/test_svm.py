import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonocad import metrics, pipeline, svm
from sonocad.config import PipelineConfig


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


def _overlapping_problem(seed):
    """120 x 9 min-max normalized features of two overlapping Gaussian
    classes (48:72), with the RBF Gram matrix and C of a ridge grid cell."""
    rng = np.random.default_rng(seed)
    y = np.array([-1.0] * 48 + [1.0] * 72)
    x = rng.standard_normal((120, 9)) + 0.41 * y[:, None]
    x = svm.MinMaxNormalizer().fit(x).transform(x)
    return svm.kernel_matrix(svm.KernelSpec("rbf", gamma=2.0**-4.8), x, x), y, 2.0**5.6


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
        rbf, linear = svm.KernelSpec("rbf", gamma=1.0), svm.KernelSpec("linear")
        # a duplicated point gives the pair (0, 2) the curvature a = 0
        for spec, duplicate in [(rbf, False)] * 25 + [(rbf, True), (linear, False),
                                                      (linear, True)] * 10:
            x = rng.normal(size=(3, 2))
            if duplicate:
                x[2] = x[0]
            y = np.array([1, -1, rng.choice([-1, 1])])
            if len(set(y)) < 2:
                y[2] = -y[0]
            c = 2.0
            k_mat = svm.kernel_matrix(spec, x, x)
            alpha, b = svm.smo_solve(k_mat, y.astype(float), c)
            got = svm.dual_objective(k_mat, y, alpha)
            best, _ = brute_force_dual(k_mat, y, c, grid=81)
            assert got >= best - 1e-3
            assert svm.kkt_violation(k_mat, y.astype(float), alpha, b, c) <= 1e-3

    @pytest.mark.parametrize("seed", range(6))
    def test_meets_tol_inside_exact_box(self, seed):
        # near the best cells of the grid search; Platt's SMO stopped at a
        # KKT residual of 2.4e-3 and 9.4e-3 on seeds 4 and 5
        k_mat, y, c = _overlapping_problem(seed)
        alpha, b = svm.smo_solve(k_mat, y, c, tol=1e-3)
        assert svm.kkt_violation(k_mat, y, alpha, b, c) <= 1e-3
        assert alpha.min() >= 0.0 and alpha.max() <= c
        assert abs(alpha @ y) <= 1e-9

    def test_alpha_that_reaches_a_bound_is_set_to_it(self):
        # alpha + (C - alpha) can round past C; without the exact set, four of
        # these 150 problems ended with an alpha of C + 8.9e-16 or more
        for seed in range(150):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(40, 3))
            y = np.where(x[:, 0] + rng.normal(size=40) > 0, 1.0, -1.0)
            c, gamma = 2.0 ** rng.uniform(0, 4), 2.0 ** rng.uniform(-4, 1)
            alpha, _ = svm.smo_solve(svm.kernel_matrix(svm.KernelSpec("rbf", gamma), x, x), y, c)
            assert alpha.min() >= 0.0 and alpha.max() <= c

    def test_step_cap_warns(self, monkeypatch):
        monkeypatch.setattr(svm, "MAX_STEPS", 1)
        k_mat, y, c = _overlapping_problem(0)
        with pytest.warns(RuntimeWarning, match=r"gap .* > tol 0\.001 after 1 steps"):
            svm.smo_solve(k_mat, y, c)

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


# The one-problem SMO loop that ``_smo_batch`` replaced, kept verbatim (with
# the module's constants qualified) as the oracle of the batched loop.
def _oracle_smo_solve(
    k_mat: np.ndarray, y: np.ndarray, c: float, tol: float = 1e-3
) -> tuple[np.ndarray, float]:
    y = np.asarray(y, dtype=np.float64)
    pos = y > 0
    diag = np.diag(k_mat)
    alpha = np.zeros(len(y))
    grad = -np.ones(len(y))
    for steps in range(svm.MAX_STEPS + 1):
        v = -y * grad
        up = np.where(pos, alpha < c, alpha > 0)
        low = np.where(pos, alpha > 0, alpha < c)
        v_up = np.where(up, v, -np.inf)
        i = int(np.argmax(v_up))
        m = v_up[i]
        gap = m - np.where(low, v, np.inf).min()
        if gap <= tol:
            break
        if steps == svm.MAX_STEPS:
            warnings.warn(f"SMO gap {gap:.3g} > tol {tol:g} after {steps} steps", RuntimeWarning)
            break
        k_i = k_mat[i]
        b = m - v
        a = diag[i] + diag - 2.0 * k_i
        a[a <= 0] = svm._TAU
        j = int(np.argmin(np.where(low & (b > 0), -b * b / a, np.inf)))
        room_i = c - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else c - alpha[j]
        t = min(b[j] / a[j], room_i, room_j)
        # a variable that hits its limit is set to it: a + (c - a) can round past c
        alpha[i] = alpha[i] + y[i] * t if t < room_i else (c if pos[i] else 0.0)
        alpha[j] = alpha[j] - y[j] * t if t < room_j else (0.0 if pos[j] else c)
        grad += t * y * (k_i - k_mat[j])

    # The bias from the final alphas. With every alpha at a bound the KKT
    # conditions leave an interval of valid biases, so take its midpoint.
    g = k_mat @ (alpha * y)
    free = (alpha > svm._CHANGE_EPS) & (alpha < c - svm._CHANGE_EPS)
    if free.any():
        b = float(np.mean(y[free] - g[free]))
    else:
        v = y - g
        at_zero = alpha <= svm._CHANGE_EPS
        lower = v[(at_zero & (y > 0)) | (~at_zero & (y < 0))]
        upper = v[(at_zero & (y < 0)) | (~at_zero & (y > 0))]
        ends = ([lower.max()] if len(lower) else []) + ([upper.min()] if len(upper) else [])
        if ends:  # the interval's midpoint, or its one bounded end
            b = float(np.mean(ends))
    return alpha, b


def _padded_stack(seed, kernel, sizes):
    """Overlapping two-class problems of the given sizes, each with a repeated
    point, their Gram matrices zero-padded to the largest and their labels
    padded with 0."""
    rng = np.random.default_rng(seed)
    size = max(sizes)
    grams, labels = np.zeros((len(sizes), size, size)), np.zeros((len(sizes), size))
    problems = []
    for p, n in enumerate(sizes):
        y = rng.permutation([1.0, -1.0] * (n // 2) + [1.0] * (n % 2))
        x = rng.normal(size=(n, 3)) + 0.5 * y[:, None]
        x[1] = x[0]  # a pair of curvature a = 0
        x = svm.MinMaxNormalizer().fit(x).transform(x)
        k_mat = svm.kernel_matrix(svm.KernelSpec(kernel, 2.0 ** rng.uniform(-2, 2)), x, x)
        grams[p, :n, :n], labels[p, :n] = k_mat, y
        problems.append((k_mat, y))
    return grams, labels, problems


class TestBatchMatchesOracle:
    @pytest.mark.parametrize("kernel", svm.KERNELS)
    @pytest.mark.parametrize("seed", range(4))
    def test_alphas_bit_identical(self, seed, kernel):
        sizes = np.random.default_rng(seed).integers(6, 40, size=9).tolist()
        grams, labels, problems = _padded_stack(seed, kernel, sizes)
        c = 2.0  # low enough that alphas reach the box
        got = svm._smo_batch(grams, labels, c, 1e-3)
        at_box = 0
        for p, (k_mat, y) in enumerate(problems):
            want_alpha, want_b = _oracle_smo_solve(k_mat, y, c)
            n = len(y)
            assert np.array_equal(got[p, :n], want_alpha)
            assert not got[p, n:].any()
            alpha, b = svm.smo_solve(k_mat, y, c)
            assert np.array_equal(alpha, want_alpha) and b == want_b
            at_box += int((want_alpha == c).any())
        assert len(set(sizes)) > 1 and at_box > 0

    def test_only_capped_problems_warn(self, monkeypatch):
        monkeypatch.setattr(svm, "MAX_STEPS", 12)
        sizes = [4, 30, 6, 25, 5, 35, 8]
        grams, labels, problems = _padded_stack(7, "rbf", sizes)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            oracle = [_oracle_smo_solve(k_mat, y, 1.0)[0] for k_mat, y in problems]
            want = [str(w.message) for w in caught]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = svm._smo_batch(grams, labels, 1.0, 1e-3)
        assert [str(w.message) for w in caught] == want
        assert all(w.category is RuntimeWarning for w in caught)
        assert 0 < len(want) < len(sizes)  # some problems are capped, some are not
        for p, alpha in enumerate(oracle):
            assert np.array_equal(got[p, : len(alpha)], alpha)


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

    @pytest.mark.parametrize("exponents", [
        (2.0, 0.0, 1.0), (0.0, 1.0, 0.0), (0.0, 1.0, -1.0),
        # 10^12 points, a stop no float holds, C = 2^2000 = inf and C = 2^-1100 = 0
        (0.0, 1.0, 1e-12), (0, 10**400, 1), (0, 2000, 1000), (-1100, 0, 1100),
    ])
    def test_empty_or_endless_lattice_rejected(self, exponents):
        # a stop below the start once left the lattice empty and grid_search
        # failed with a TypeError on its missing best cell
        x, y, ids = _toy_problem()
        with pytest.raises(ValueError, match="exponents"):
            svm.grid_search(x, y, ids, k=3, c_exponents=exponents, g_exponents=(0.0, 0.0, 1.0))

    def test_points_per_axis_capped(self):
        assert len(svm.exponent_lattice(0, svm.MAX_LATTICE_POINTS - 1, 1)) == svm.MAX_LATTICE_POINTS
        with pytest.raises(ValueError, match="points"):
            svm.exponent_lattice(0, svm.MAX_LATTICE_POINTS, 1)

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


# The cross-validation that ``cv_decisions`` replaced, kept verbatim as the
# oracle: one normalizer, Gram matrix and SmoSVC per (C, gamma, fold).
@dataclass
class FoldResult:
    test_idx: np.ndarray
    predictions: np.ndarray
    decisions: np.ndarray


def _oracle_cross_validate(
    x: np.ndarray, y: np.ndarray, ids: list[str], k: int, seed: int, **svc_params
) -> list[FoldResult]:
    """Train on k-1 folds, score the held-out fold, for every fold."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y)
    results = []
    for test_idx in svm.kfold_split(ids, y, k, seed):
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[test_idx] = False
        clf = svm.SmoSVC(**svc_params).fit(x[train_mask], y[train_mask])
        dec = clf.decision_function(x[test_idx])
        results.append(FoldResult(test_idx, np.where(dec > 0, 1, -1).astype(int), dec))
    return results


def _oracle_grid_search(x, y, ids, k, seed, c_exponents, g_exponents, kernel):
    c_axis = svm.exponent_lattice(*c_exponents)
    g_axis = svm.exponent_lattice(*g_exponents)
    best = None
    surface = []
    for a in c_axis:
        for g in g_axis:
            folds = _oracle_cross_validate(
                x, y, ids, k, seed, c=float(2.0**a), kernel=kernel, gamma=float(2.0**g)
            )
            correct = sum(int(np.sum(f.predictions == np.asarray(y)[f.test_idx])) for f in folds)
            acc = correct / len(y)
            surface.append((float(a), float(g), acc))
            if best is None or acc > best[0]:
                best = (acc, float(2.0**a), float(2.0**g))
    return svm.GridSearchResult(
        best_c=best[1], best_gamma=best[2], best_accuracy=best[0], surface=surface
    )


def _oracle_evaluate_cv(x, y, ids, cfg):
    folds = _oracle_cross_validate(
        x, y, ids, cfg.folds, cfg.seed, c=cfg.svm_c, kernel=cfg.kernel, gamma=cfg.svm_gamma
    )
    per_fold = [metrics.accumulate(f.predictions, y[f.test_idx]) for f in folds]
    decisions = np.empty(len(y))
    for f in folds:
        decisions[f.test_idx] = f.decisions
    return per_fold, metrics.roc(decisions, y)


def _count_batches(monkeypatch) -> list[int]:
    """The size of every ``_smo_batch`` call from here on, in call order."""
    sizes = []
    batch = svm._smo_batch
    monkeypatch.setattr(svm, "_smo_batch",
                        lambda grams, *args: sizes.append(len(grams)) or batch(grams, *args))
    return sizes


class TestFoldLoopMatchesOracle:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_problems(self, data):
        k = data.draw(st.integers(2, 5), label="k")
        n_pos = data.draw(st.integers(k, 20), label="n_pos")  # unbalanced classes
        n_neg = data.draw(st.integers(k, 20), label="n_neg")
        dim = data.draw(st.integers(1, 4), label="dim")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
        y = rng.permutation([1] * n_pos + [-1] * n_neg)
        x = rng.normal(size=(len(y), dim)) + data.draw(st.floats(0, 2), label="shift") * y[:, None]
        # repeated rows, some under both labels; coarse values tie more cells
        repeats = data.draw(st.integers(0, len(y) // 2), label="repeats")
        x[rng.integers(0, len(y), repeats)] = x[rng.integers(0, len(y), repeats)]
        x = np.round(x, data.draw(st.sampled_from([0, 1, 6]), label="decimals"))
        ids = [f"r{i:03d}" for i in rng.permutation(len(y))]
        kernel = data.draw(st.sampled_from(svm.KERNELS), label="kernel")

        def axis(label):
            start = data.draw(st.integers(-4, 3), label=f"{label} start")
            step = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label=f"{label} step")
            return (float(start), start + step * data.draw(st.integers(0, 3)), step)

        c_exp, g_exp = axis("c"), axis("g")
        seed = data.draw(st.integers(0, 3), label="fold seed")
        got = svm.grid_search(x, y, ids, k, seed, c_exp, g_exp, kernel)
        want = _oracle_grid_search(x, y, ids, k, seed, c_exp, g_exp, kernel)
        assert got.surface == want.surface
        assert (got.best_c, got.best_gamma, got.best_accuracy) == (
            want.best_c, want.best_gamma, want.best_accuracy)

        # the held-out decisions themselves are bit-identical
        c, gamma = got.best_c, got.best_gamma
        _, dec = svm.cv_decisions(x, y, ids, k, seed, [c], [gamma], kernel)
        for f in _oracle_cross_validate(x, y, ids, k, seed, c=c, kernel=kernel, gamma=gamma):
            assert np.array_equal(dec[0, 0, f.test_idx], f.decisions)

        cfg = PipelineConfig(kernel=kernel, svm_c=c, svm_gamma=gamma, folds=k, seed=seed)
        per_fold, curve = pipeline.evaluate_cv(x, y, ids, cfg)
        want_fold, want_curve = _oracle_evaluate_cv(x, y, ids, cfg)
        assert per_fold == want_fold
        assert curve == want_curve

    def test_one_gram_per_fold_and_gamma(self, monkeypatch):
        # the cell-by-cell search split once per cell, 6 times, and fitted a
        # normalizer and built a training Gram per (cell, fold), 18 of each
        calls = {"split": 0, "normalize": 0, "gram": 0}

        def counted(key, fn, test=lambda *a: True):
            def wrapper(*args, **kwargs):
                calls[key] += test(*args)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(svm, "kfold_split", counted("split", svm.kfold_split))
        monkeypatch.setattr(svm.MinMaxNormalizer, "fit",
                            counted("normalize", svm.MinMaxNormalizer.fit))
        monkeypatch.setattr(svm, "kernel_matrix",
                            counted("gram", svm.kernel_matrix, lambda spec, a, b: a is b))
        batches = _count_batches(monkeypatch)
        x, y, ids = _toy_problem()
        res = svm.grid_search(x, y, ids, k=3, c_exponents=(-1.0, 0.0, 1.0),
                              g_exponents=(-1.0, 1.0, 1.0))
        assert len(res.surface) == 6
        assert calls == {"split": 1, "normalize": 3, "gram": 3 * 3}
        # one batched solve per C, each of every (fold, gamma) problem
        assert batches == [3 * 3] * 2

    def test_stack_cut_at_byte_cap(self, monkeypatch):
        x, y, ids = _toy_problem()
        cs, gammas = [0.5, 4.0], [0.5, 1.0, 2.0]
        _, whole = svm.cv_decisions(x, y, ids, 3, 0, cs, gammas, "rbf")
        batches = _count_batches(monkeypatch)
        monkeypatch.setattr(svm, "_STACK_BYTES", 4 * 8 * 16 * 16)  # four 16-row training Grams
        _, cut = svm.cv_decisions(x, y, ids, 3, 0, cs, gammas, "rbf")
        assert np.array_equal(cut, whole)
        assert batches == [4, 4, 4, 4, 1, 1]  # per stack of (fold, gamma) problems, per C

