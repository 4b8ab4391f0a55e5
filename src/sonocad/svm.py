"""Soft-margin SVM trained by sequential minimal optimization.

Kernels: RBF, K(a, b) = exp(-gamma * ||a - b||^2), and linear. Includes
min-max feature normalization, stratified k-fold splitting keyed on case ids,
exponent-lattice grid search over (C, gamma) and JSON model persistence.

There is one SMO step loop, ``_smo_batch``, which runs the second-order
working-set step on a stack of problems at once; ``smo_solve`` is its batch of
one. The grid search and the CV report run one loop, ``cv_decisions``: one
split, one normalizer per fold and one training Gram per (fold, gamma), then C
as the outer loop with one batched solve of every (fold, gamma) problem per C.
Every fit uses the same tolerance, and a fit that does not meet it within
``MAX_STEPS`` steps raises a RuntimeWarning.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

_CHANGE_EPS = 1e-5  # alphas this close to a bound do not set the bias
_TAU = 1e-12  # stands in for a non-positive curvature a = K_ii + K_jj - 2 K_ij
_SV_EPS = 1e-9  # alphas above this are support vectors
_TOL = 1e-3  # the KKT tolerance of every fit
_STACK_BYTES = 64 << 20  # the most Gram bytes one batched solve holds
MAX_STEPS = 100_000  # step cap: ~100x the most steps (1,046) of a 120x9 fit on a 21x21 lattice
KERNELS = ("rbf", "linear")


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "rbf"
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNELS:
            raise ValueError(f"unknown kernel {self.kind!r}")
        if self.kind == "rbf" and self.gamma <= 0:
            raise ValueError("rbf gamma must be > 0")


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram matrix K[i, j] = K(a_i, b_j)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch {a.shape[1]} vs {b.shape[1]}")
    if spec.kind == "linear":
        return a @ b.T
    sq = (a**2).sum(axis=1)[:, None] + (b**2).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.exp(-spec.gamma * np.maximum(sq, 0.0))


def smo_solve(
    k_mat: np.ndarray, y: np.ndarray, c: float, tol: float = _TOL
) -> tuple[np.ndarray, float]:
    """One SMO problem on a precomputed Gram matrix: ``_smo_batch`` with a
    batch of one. Warns (RuntimeWarning) if ``MAX_STEPS`` steps do not meet
    ``tol``. Returns (alpha, bias) with 0 <= alpha_i <= C and
    sum(alpha * y) = 0.
    """
    y = np.asarray(y, dtype=np.float64)
    alpha = _smo_batch(k_mat[None], y[None], c, tol)[0]
    return alpha, _bias(k_mat, y, alpha, c)


def _smo_batch(grams: np.ndarray, y: np.ndarray, c: float, tol: float) -> np.ndarray:
    """SMO with LIBSVM's second-order working-set selection (Fan, Chen & Lin,
    JMLR 2005) on B problems at once, problem p on the ``(n, n)`` Gram matrix
    ``grams[p]`` with labels ``y[p]``. A problem with fewer rows is padded
    with label 0: a padded row is in neither I_up nor I_low, so it never
    enters a working set. Returns the ``(B, n)`` alphas, 0 on padded rows.

    Keeps the gradient G = Q alpha - 1 with Q = (y y') * K. Each step pairs i,
    the maximal violator of -y G over I_up, with the j of I_low that promises
    the largest decrease, b^2 / a, and moves both to the optimum along their
    direction, inside the box. A problem leaves the batch once the gap m - M
    between its largest violations is at most ``tol`` (Keerthi et al., Neural
    Computation 2001), which bounds every KKT residual by ``tol``, and warns
    (RuntimeWarning) if ``MAX_STEPS`` steps do not get there. Each problem
    takes the same steps, with the same arithmetic, as it would alone.
    """
    out = np.zeros(y.shape)
    rows = idx = np.arange(len(y))  # idx: the problem in each row of the state below
    pos, neg = y > 0, y < 0
    diag = np.diagonal(grams, axis1=1, axis2=2)
    alpha = np.zeros(y.shape)
    grad = -np.ones(y.shape)
    for steps in range(MAX_STEPS + 1):
        v = -y * grad
        above, below = alpha > 0, alpha < c
        # bitwise: np.where on booleans branches on every element
        up = pos & below | neg & above
        low = pos & above | neg & below
        v_up = np.where(up, v, -np.inf)
        i = v_up.argmax(axis=1)
        m = v_up[rows, i]
        gap = m - np.where(low, v, np.inf).min(axis=1)
        done = gap <= tol
        if steps == MAX_STEPS:
            for g in gap[~done]:
                warnings.warn(f"SMO gap {g:.3g} > tol {tol:g} after {steps} steps", RuntimeWarning)
            done[:] = True
        if done.any():
            out[idx[done]] = alpha[done]
            if done.all():
                break
            go = ~done
            idx, pos, neg, diag, alpha, grad, y, v, low, i, m = (
                s[go] for s in (idx, pos, neg, diag, alpha, grad, y, v, low, i, m))
            rows = np.arange(len(idx))
        k_i = grams[idx, i]  # row gathers: grams[idx] would copy every matrix
        b = m[:, None] - v
        a = diag[rows, i][:, None] + diag - 2.0 * k_i
        a[a <= 0] = _TAU
        j = np.where(low & (b > 0), -b * b / a, np.inf).argmin(axis=1)
        pos_i, pos_j = pos[rows, i], pos[rows, j]
        alpha_i, alpha_j = alpha[rows, i], alpha[rows, j]
        room_i = np.where(pos_i, c - alpha_i, alpha_i)
        room_j = np.where(pos_j, alpha_j, c - alpha_j)
        t = np.minimum(np.minimum(b[rows, j] / a[rows, j], room_i), room_j)
        # a variable that hits its limit is set to it: a + (c - a) can round past c
        alpha[rows, i] = np.where(t < room_i, alpha_i + y[rows, i] * t, np.where(pos_i, c, 0.0))
        alpha[rows, j] = np.where(t < room_j, alpha_j - y[rows, j] * t, np.where(pos_j, 0.0, c))
        grad += t[:, None] * y * (k_i - grams[idx, j])
    return out


def _bias(k_mat: np.ndarray, y: np.ndarray, alpha: np.ndarray, c: float) -> float:
    """The bias of a solution: the mean over its free alphas. With every
    alpha at a bound the KKT conditions leave an interval of valid biases, so
    take its midpoint, or its one bounded end."""
    g = k_mat @ (alpha * y)
    free = (alpha > _CHANGE_EPS) & (alpha < c - _CHANGE_EPS)
    if free.any():
        return float(np.mean(y[free] - g[free]))
    v = y - g
    at_zero = alpha <= _CHANGE_EPS
    lower = v[(at_zero & (y > 0)) | (~at_zero & (y < 0))]
    upper = v[(at_zero & (y < 0)) | (~at_zero & (y > 0))]
    ends = ([lower.max()] if len(lower) else []) + ([upper.min()] if len(upper) else [])
    return float(np.mean(ends))


def dual_objective(k_mat: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    """W(alpha) = sum(alpha) - 1/2 * (alpha*y)' K (alpha*y)."""
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ k_mat @ ay)


def kkt_violation(
    k_mat: np.ndarray, y: np.ndarray, alpha: np.ndarray, b: float, c: float
) -> float:
    """Largest per-point KKT residual of a candidate dual solution."""
    f = k_mat @ (alpha * y) + b
    r = y * f
    v = np.zeros_like(r)
    free = (alpha > 1e-9) & (alpha < c - 1e-9)
    v[alpha <= 1e-9] = np.maximum(0.0, 1.0 - r[alpha <= 1e-9])
    v[alpha >= c - 1e-9] = np.maximum(0.0, r[alpha >= c - 1e-9] - 1.0)
    v[free] = np.abs(r[free] - 1.0)
    return float(v.max()) if len(v) else 0.0


class MinMaxNormalizer:
    """Per-feature min-max scaling to [0, 1]; constant columns map to 0 and
    out-of-range values are clamped at transform time."""

    def __init__(self):
        self.min_ = None
        self.max_ = None

    def fit(self, x: np.ndarray) -> "MinMaxNormalizer":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if len(x) < 2:
            raise ValueError("need at least 2 rows to fit normalization")
        self.min_ = x.min(axis=0)
        self.max_ = x.max(axis=0)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.min_ is None:
            raise ValueError("normalizer is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        span = self.max_ - self.min_
        out = np.zeros_like(x)
        ok = span > 0
        out[:, ok] = (x[:, ok] - self.min_[ok]) / span[ok]
        return np.clip(out, 0.0, 1.0)


def _check_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) as floats; ValueError unless x is finite and y is +1 and -1."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("non-finite features")
    if set(np.unique(y)) != {-1.0, 1.0}:
        raise ValueError("need both classes, labels in {+1, -1}")
    return x, y


class SmoSVC:
    """Binary SVM classifier (labels +1 / -1) in the fit/predict style.

    Feature normalization stats are learned during ``fit`` and applied
    automatically to anything passed to ``decision_function`` / ``predict``.
    Ties at a decision value of exactly 0 predict -1.
    """

    def __init__(
        self, c: float = 1.0, kernel: str = "rbf", gamma: float = 1.0, normalize: bool = True
    ):
        if c <= 0:
            raise ValueError("c must be > 0")
        self.c = c
        self.kernel_spec = KernelSpec(kind=kernel, gamma=gamma)
        self.normalize = normalize
        self.support_vectors_ = None
        self.dual_coef_ = None  # alpha_i * y_i per stored vector
        self.intercept_ = 0.0
        self.normalizer_ = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "SmoSVC":
        x, y = _check_xy(x, y)
        if self.normalize:
            self.normalizer_ = MinMaxNormalizer().fit(x)
            x = self.normalizer_.transform(x)
        else:
            self.normalizer_ = None
        alpha, b = smo_solve(kernel_matrix(self.kernel_spec, x, x), y, self.c)
        sv = alpha > _SV_EPS
        self.support_vectors_, self.dual_coef_, self.intercept_ = x[sv], (alpha * y)[sv], b
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        if self.support_vectors_ is None:
            raise ValueError("model is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.support_vectors_.shape[1]:
            raise ValueError("dimension mismatch")
        if self.normalizer_ is not None:
            x = self.normalizer_.transform(x)
        k = kernel_matrix(self.kernel_spec, x, self.support_vectors_)
        return k @ self.dual_coef_ + self.intercept_

    def predict(self, x: np.ndarray) -> np.ndarray:
        f = self.decision_function(x)
        return np.where(f > 0, 1, -1).astype(int)


def kfold_split(ids: list[str], y: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Stratified k-fold split keyed on case ids.

    Rows are put in canonical id order before shuffling, so the folds do not
    depend on row order. Classes are dealt largest-first and each class's
    remainder goes to the currently smallest folds, keeping fold sizes and
    class ratios as even as possible.
    """
    y = np.asarray(y)
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(set(ids)) != len(ids):
        raise ValueError("case ids must be unique")
    rng = np.random.default_rng(seed)
    canonical = np.array(sorted(range(len(ids)), key=lambda i: ids[i]))
    folds: list[list[int]] = [[] for _ in range(k)]
    classes = sorted(np.unique(y), key=lambda lab: (-np.sum(y == lab), lab))
    for lab in classes:
        members = canonical[y[canonical] == lab]
        if len(members) < k:
            raise ValueError(f"class {lab} has fewer than k={k} members")
        members = members[rng.permutation(len(members))]
        base, rem = divmod(len(members), k)
        quota = [base] * k
        by_load = sorted(range(k), key=lambda f: (len(folds[f]), f))
        for f in by_load[:rem]:
            quota[f] += 1
        pos = 0
        for f in range(k):
            folds[f].extend(int(i) for i in members[pos : pos + quota[f]])
            pos += quota[f]
    return [np.array(sorted(f), dtype=int) for f in folds]


def cv_decisions(
    x: np.ndarray, y: np.ndarray, ids: list[str], k: int, seed: int,
    cs: list[float], gammas: list[float], kernel: str,
) -> tuple[list[np.ndarray], np.ndarray]:
    """The folds of ``kfold_split`` and a ``(len(cs), len(gammas), n)`` array
    whose entry [i, j, r] is row r's held-out decision under C = cs[i] and
    gamma = gammas[j]. Each fold is normalized on its training rows alone.

    The training Gram of every (fold, gamma) is built once and padded to the
    largest training fold; per C, one ``_smo_batch`` call solves them all.
    Stacks are cut at ``_STACK_BYTES``, so memory does not grow with k or
    the number of gammas."""
    x, y = _check_xy(x, y)
    folds = kfold_split(ids, y, k, seed)
    sets = []  # per fold: normalized training rows, their labels, normalized test rows
    for test in folds:
        train = np.ones(len(y), dtype=bool)
        train[test] = False
        norm = MinMaxNormalizer().fit(x[train])
        sets.append((norm.transform(x[train]), y[train], norm.transform(x[test])))
    specs = [KernelSpec(kernel, gamma) for gamma in gammas]
    cells = [(f, j) for f in range(len(folds)) for j in range(len(gammas))]
    size = max(len(y_train) for _, y_train, _ in sets)
    per_stack = max(1, _STACK_BYTES // (8 * size * size))
    out = np.empty((len(cs), len(gammas), len(y)))
    for first in range(0, len(cells), per_stack):
        stack = cells[first : first + per_stack]
        grams = np.zeros((len(stack), size, size))
        labels = np.zeros((len(stack), size))
        for p, (f, j) in enumerate(stack):
            x_train, y_train, _ = sets[f]
            n = len(y_train)
            grams[p, :n, :n] = kernel_matrix(specs[j], x_train, x_train)
            labels[p, :n] = y_train
        for i, c in enumerate(cs):
            alphas = _smo_batch(grams, labels, c, _TOL)
            for p, (f, j) in enumerate(stack):
                x_train, y_train, x_test = sets[f]
                n = len(y_train)
                alpha = alphas[p, :n]
                # a contiguous copy: its product sums as the unpadded Gram's does
                b = _bias(np.ascontiguousarray(grams[p, :n, :n]), y_train, alpha, c)
                sv = alpha > _SV_EPS
                out[i, j, folds[f]] = (
                    kernel_matrix(specs[j], x_test, x_train[sv]) @ (alpha * y_train)[sv] + b)
    return folds, out


DEFAULT_EXPONENTS = (-8.0, 8.0, 0.4)  # start, stop (inclusive), step
MAX_LATTICE_POINTS = 1_000  # per axis; the default lattice has 41


def exponent_lattice(start: float, stop: float, step: float) -> np.ndarray:
    """start, start + step, ... up to stop, checked before it is allocated."""
    try:  # 2**e grows with e, so the two ends decide
        n = round((stop - start) / step) if step > 0 and stop >= start else -1
        ok = (0 <= n < MAX_LATTICE_POINTS and 0.0 < 2.0 ** float(start)
              and 2.0 ** float(start + step * n) < math.inf)
    except OverflowError:  # an int that no float holds, or a float past the range
        ok = False
    if not ok:
        raise ValueError(f"exponents {(start, stop, step)}: need stop >= start, step > 0, "
                         f"at most {MAX_LATTICE_POINTS} points and a finite positive 2**e")
    return start + step * np.arange(n + 1)


@dataclass
class GridSearchResult:
    best_c: float
    best_gamma: float
    best_accuracy: float
    surface: list[tuple[float, float, float]]  # (log2c, log2g, acc)

    def surface_csv(self) -> str:
        lines = ["log2c,log2g,cv_accuracy"]
        lines += [f"{a:.6g},{g:.6g},{acc:.10g}" for a, g, acc in self.surface]
        return "\n".join(lines) + "\n"


def grid_search(
    x: np.ndarray,
    y: np.ndarray,
    ids: list[str],
    k: int = 5,
    seed: int = 0,
    c_exponents: tuple[float, float, float] = DEFAULT_EXPONENTS,
    g_exponents: tuple[float, float, float] = DEFAULT_EXPONENTS,
    kernel: str = "rbf",
) -> GridSearchResult:
    """Exhaustive CV accuracy over the (2^a, 2^b) lattice.

    Ties go to the smaller C, then the smaller gamma.
    """
    c_axis = exponent_lattice(*c_exponents)
    g_axis = exponent_lattice(*g_exponents)
    cs, gammas = [float(2.0**a) for a in c_axis], [float(2.0**g) for g in g_axis]
    _, dec = cv_decisions(x, y, ids, k, seed, cs, gammas, kernel)
    acc = np.sum(np.where(dec > 0, 1, -1) == np.asarray(y), axis=2) / len(y)
    i, j = np.unravel_index(np.argmax(acc), acc.shape)  # the first maximum in C-major order
    surface = [(float(a), float(g), float(acc[m, n]))
               for m, a in enumerate(c_axis) for n, g in enumerate(g_axis)]
    return GridSearchResult(cs[i], gammas[j], float(acc[i, j]), surface)


def model_to_json(clf: SmoSVC) -> str:
    """Fixed-field-order JSON persistence of a fitted model."""
    if clf.support_vectors_ is None:
        raise ValueError("model is not fitted")
    norm = clf.normalizer_
    payload = {
        "version": 1,
        "kernel": {"kind": clf.kernel_spec.kind, "gamma": clf.kernel_spec.gamma},
        "c": clf.c,
        "norm_min": None if norm is None else norm.min_.tolist(),
        "norm_max": None if norm is None else norm.max_.tolist(),
        "support_vectors": clf.support_vectors_.tolist(),
        "alphas": clf.dual_coef_.tolist(),
        "bias": clf.intercept_,
    }
    return json.dumps(payload, indent=2) + "\n"


def model_from_json(text: str) -> SmoSVC:
    """Inverse of ``model_to_json``. A document that is not such a model (not
    an object, a missing field, an unknown kernel) raises ``ValueError``; keys
    it does not use, such as an older file's ``coef0``, are ignored."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("model must be a JSON object")
    if payload.get("version") != 1:
        raise ValueError(f"unsupported model version {payload.get('version')!r}")
    try:
        clf = SmoSVC(
            c=payload["c"], kernel=payload["kernel"]["kind"], gamma=payload["kernel"]["gamma"]
        )
        clf.support_vectors_ = np.array(payload["support_vectors"], dtype=np.float64)
        clf.dual_coef_ = np.array(payload["alphas"], dtype=np.float64)
        clf.intercept_ = float(payload["bias"])
        if payload["norm_min"] is not None:
            norm = MinMaxNormalizer()
            norm.min_ = np.array(payload["norm_min"], dtype=np.float64)
            norm.max_ = np.array(payload["norm_max"], dtype=np.float64)
            clf.normalizer_ = norm
        else:
            clf.normalize = False
    except KeyError as exc:
        raise ValueError(f"model lacks field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed model: {exc}") from None
    return clf
