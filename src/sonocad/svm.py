"""Soft-margin SVM trained by sequential minimal optimization.

Kernels: RBF, K(a, b) = exp(-gamma * ||a - b||^2), and linear. Includes
min-max feature normalization, stratified k-fold splitting keyed on case ids,
exponent-lattice grid search over (C, gamma) and JSON model persistence. The
solver's tolerance and sweep budget are ``smo_solve``'s defaults everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

_CHANGE_EPS = 1e-5  # minimum meaningful alpha step inside SMO
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
    k_mat: np.ndarray,
    y: np.ndarray,
    c: float,
    tol: float = 1e-3,
    max_passes: int = 200,
) -> tuple[np.ndarray, float]:
    """Platt-style SMO on a precomputed Gram matrix.

    First index: KKT violators, scanned over non-bound points then over all
    points. Second index: maximize |E1 - E2|, falling back to linear scans.
    Returns (alpha, bias) with 0 <= alpha_i <= C and sum(alpha * y) = 0.
    """
    n = len(y)
    y = np.asarray(y, dtype=np.float64)
    alpha = np.zeros(n)
    b = 0.0
    errors = -y.copy()  # f(i) - y(i) with all-zero alpha, f = b = 0

    def take_step(i1: int, i2: int) -> bool:
        nonlocal b
        if i1 == i2:
            return False
        a1, a2 = alpha[i1], alpha[i2]
        y1, y2 = y[i1], y[i2]
        e1, e2 = errors[i1], errors[i2]
        s = y1 * y2
        if s > 0:
            lo, hi = max(0.0, a1 + a2 - c), min(c, a1 + a2)
        else:
            lo, hi = max(0.0, a2 - a1), min(c, c + a2 - a1)
        if lo >= hi:
            return False
        k11, k12, k22 = k_mat[i1, i1], k_mat[i1, i2], k_mat[i2, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > 0:
            a2_new = a2 + y2 * (e1 - e2) / eta
            a2_new = min(hi, max(lo, a2_new))
        else:
            # flat/concave direction: evaluate the objective at both ends
            f1 = y1 * (e1 + b) - a1 * k11 - s * a2 * k12
            f2 = y2 * (e2 + b) - s * a1 * k12 - a2 * k22
            l1 = a1 + s * (a2 - lo)
            h1 = a1 + s * (a2 - hi)
            obj_lo = l1 * f1 + lo * f2 + 0.5 * l1**2 * k11 + 0.5 * lo**2 * k22 + s * lo * l1 * k12
            obj_hi = h1 * f1 + hi * f2 + 0.5 * h1**2 * k11 + 0.5 * hi**2 * k22 + s * hi * h1 * k12
            if obj_lo < obj_hi - _CHANGE_EPS:
                a2_new = lo
            elif obj_lo > obj_hi + _CHANGE_EPS:
                a2_new = hi
            else:
                a2_new = a2
        if abs(a2_new - a2) < _CHANGE_EPS * (a2_new + a2 + _CHANGE_EPS):
            return False
        a1_new = a1 + s * (a2 - a2_new)

        b1 = b - e1 - y1 * (a1_new - a1) * k11 - y2 * (a2_new - a2) * k12
        b2 = b - e2 - y1 * (a1_new - a1) * k12 - y2 * (a2_new - a2) * k22
        if 0 < a1_new < c:
            b_new = b1
        elif 0 < a2_new < c:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)

        errors[:] += (
            y1 * (a1_new - a1) * k_mat[i1, :]
            + y2 * (a2_new - a2) * k_mat[i2, :]
            + (b_new - b)
        )
        alpha[i1], alpha[i2] = a1_new, a2_new
        b = b_new
        return True

    def examine(i2: int) -> bool:
        y2, a2, e2 = y[i2], alpha[i2], errors[i2]
        r2 = e2 * y2
        if not ((r2 < -tol and a2 < c) or (r2 > tol and a2 > 0)):
            return False
        non_bound = np.nonzero((alpha > 0) & (alpha < c))[0]
        if len(non_bound) > 1:
            i1 = int(non_bound[np.argmax(np.abs(errors[non_bound] - e2))])
            if take_step(i1, i2):
                return True
        for i1 in non_bound:
            if take_step(int(i1), i2):
                return True
        for i1 in range(n):
            if take_step(i1, i2):
                return True
        return False

    examine_all = True
    sweeps = 0
    while sweeps < max_passes:
        sweeps += 1
        if examine_all:
            changed = sum(examine(i) for i in range(n))
        else:
            idx = np.nonzero((alpha > 0) & (alpha < c))[0]
            changed = sum(examine(int(i)) for i in idx)
        if examine_all:
            if changed == 0:
                break  # a full sweep moved nothing: KKT holds within tol
            examine_all = False
        elif changed == 0:
            examine_all = True

    # Recompute the bias from the final alphas. The incremental value is
    # only pinned down when the last step involved a free vector; with every
    # alpha at a bound the KKT conditions leave an interval of valid biases,
    # so take its midpoint.
    g = k_mat @ (alpha * y)
    free = (alpha > _CHANGE_EPS) & (alpha < c - _CHANGE_EPS)
    if free.any():
        b = float(np.mean(y[free] - g[free]))
    else:
        v = y - g
        at_zero = alpha <= _CHANGE_EPS
        lower = v[(at_zero & (y > 0)) | (~at_zero & (y < 0))]
        upper = v[(at_zero & (y < 0)) | (~at_zero & (y > 0))]
        ends = ([lower.max()] if len(lower) else []) + ([upper.min()] if len(upper) else [])
        if ends:  # the interval's midpoint, or its one bounded end
            b = float(np.mean(ends))
    return alpha, b


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
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        if not np.isfinite(x).all():
            raise ValueError("non-finite features")
        if set(np.unique(y)) != {-1.0, 1.0}:
            raise ValueError("need both classes, labels in {+1, -1}")
        if self.normalize:
            self.normalizer_ = MinMaxNormalizer().fit(x)
            x = self.normalizer_.transform(x)
        else:
            self.normalizer_ = None
        k_mat = kernel_matrix(self.kernel_spec, x, x)
        alpha, b = smo_solve(k_mat, y, self.c)
        sv = alpha > 1e-9
        self.support_vectors_ = x[sv]
        self.dual_coef_ = (alpha * y)[sv]
        self.intercept_ = b
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


@dataclass
class FoldResult:
    test_idx: np.ndarray
    predictions: np.ndarray
    decisions: np.ndarray


def cross_validate(
    x: np.ndarray, y: np.ndarray, ids: list[str], k: int, seed: int, **svc_params
) -> list[FoldResult]:
    """Train on k-1 folds, score the held-out fold, for every fold."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y)
    results = []
    for test_idx in kfold_split(ids, y, k, seed):
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[test_idx] = False
        clf = SmoSVC(**svc_params).fit(x[train_mask], y[train_mask])
        dec = clf.decision_function(x[test_idx])
        results.append(FoldResult(test_idx, np.where(dec > 0, 1, -1).astype(int), dec))
    return results


DEFAULT_EXPONENTS = (-8.0, 8.0, 0.4)  # start, stop (inclusive), step


def exponent_lattice(start: float, stop: float, step: float) -> np.ndarray:
    if step <= 0 or stop < start:
        raise ValueError(f"exponents {(start, stop, step)}: need stop >= start and step > 0")
    n = int(round((stop - start) / step))
    return start + step * np.arange(n + 1)


@dataclass
class GridSearchResult:
    best_c: float
    best_gamma: float
    best_accuracy: float
    surface: list[tuple[float, float, float]] = field(default_factory=list)  # (log2c, log2g, acc)

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
    best = None
    surface = []
    for a in c_axis:
        for g in g_axis:
            folds = cross_validate(
                x, y, ids, k, seed, c=float(2.0**a), kernel=kernel, gamma=float(2.0**g)
            )
            correct = sum(int(np.sum(f.predictions == np.asarray(y)[f.test_idx])) for f in folds)
            acc = correct / len(y)
            surface.append((float(a), float(g), acc))
            if best is None or acc > best[0]:
                best = (acc, float(2.0**a), float(2.0**g))
    return GridSearchResult(
        best_c=best[1], best_gamma=best[2], best_accuracy=best[0], surface=surface
    )


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
