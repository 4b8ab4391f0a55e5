"""Soft-margin SVM trained by sequential minimal optimization.

The kernel is RBF, K(a, b) = exp(-gamma * ||a - b||^2). Includes
min-max feature normalization, stratified k-fold splitting keyed on case ids,
exponent-lattice grid search over (C, gamma) and JSON model persistence.

There is one SMO step loop, ``_smo_batch``, which runs the second-order
working-set step on a stack of problems at once; ``smo_solve`` is its batch of
one. It keeps y * alpha inside per-row bounds and -y * G, so that a step
takes few numpy calls. The grid search and the CV report run one loop,
``cv_decisions``: one split, one min-max range per fold and one training Gram
per (fold, gamma). Beside each stack of Grams it builds, once, the stack of
their second-order curvatures a = K_ii + K_jj - 2 K_ij, which every C reuses.
The two stacks together hold at most ``_STACK_BYTES``, and C is the inner
loop of each stack, with one batched solve of the stack's problems per C; C
is the outer loop only when one stack holds them all.
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
_STACK_BYTES = 64 << 20  # the most bytes of Gram and curvature stacks one batched solve holds
MAX_STEPS = 100_000  # step cap: ~100x the most steps (1,046) of a 120x9 fit on a 21x21 lattice


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "rbf"  # the one kernel; model.json names it
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind != "rbf":
            raise ValueError(f"unknown kernel {self.kind!r}")
        if not (finite_number(self.gamma) and self.gamma > 0):
            raise ValueError(f"rbf gamma must be a finite number > 0, not {self.gamma!r}")


def finite_number(value) -> bool:
    """Whether ``value`` is a finite int or float (not a bool) that a float holds."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int that no float holds
        return False


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram matrix K[i, j] = K(a_i, b_j)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch {a.shape[1]} vs {b.shape[1]}")
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
    grams = k_mat[None]
    alpha = _smo_batch(grams, _curvatures(grams), y[None], c, tol)[0]
    return alpha, _bias(k_mat, y, alpha, c)


def _curvatures(grams: np.ndarray) -> np.ndarray:
    """The ``(B, n, n)`` curvatures of a stack of Gram matrices: entry
    [p, r, s] is a = (K_rr + K_ss) - 2 K_rs of ``grams[p]``, and ``_TAU``
    where that is not positive. Built in place, one problem at a time, so no
    temporary is larger than one Gram matrix."""
    curvs = np.empty(grams.shape)
    for k_mat, a in zip(grams, curvs):
        diag = np.diagonal(k_mat)
        np.add(diag[:, None], diag, out=a)
        a -= 2.0 * k_mat
        np.putmask(a, a <= 0, _TAU)
    return curvs


def _smo_batch(
    grams: np.ndarray, curvs: np.ndarray, y: np.ndarray, c: float, tol: float
) -> np.ndarray:
    """SMO with LIBSVM's second-order working-set selection (Fan, Chen & Lin,
    JMLR 2005) on B problems at once, problem p on the ``(n, n)`` Gram matrix
    ``grams[p]``, whose ``_curvatures`` are ``curvs[p]``, with labels
    ``y[p]``. A problem with fewer rows is padded with label 0: a padded row
    is in neither I_up nor I_low, so it never enters a working set. Returns
    the ``(B, n)`` alphas, 0 on padded rows.

    With the gradient G = Q alpha - 1 and Q = (y y') * K, the state is
    ``ya`` = y * alpha and ``v`` = -y * G. The box 0 <= alpha <= C becomes
    ``lo <= ya <= hi``: [0, C] where y = +1 and [-C, 0] where y = -1, while a
    padded row gets the empty [+inf, -inf]. So I_up is ``ya < hi`` and I_low
    is ``ya > lo``. Each step pairs i, the maximal violator of v over I_up,
    with the j of I_low that promises the largest decrease, b^2 / a, and
    moves both to the optimum along their direction, inside the box: ``ya_i``
    rises and ``ya_j`` falls by t, and ``v -= t * (K_i - K_j)``. The a of
    the step are row i of ``curvs[p]``, which depends on neither C nor the
    step, so a caller builds it once per stack for every C. As y = +-1, this
    is the same arithmetic as updating alpha and G. A problem leaves the
    batch once the gap m - M between its largest violations is at most
    ``tol`` (Keerthi et al., Neural Computation 2001), which bounds every KKT
    residual by ``tol``, and warns (RuntimeWarning) if ``MAX_STEPS`` steps do
    not get there. Each problem takes the same steps, with the same
    arithmetic, as it would alone.
    """
    n = y.shape[1]
    out = np.zeros(y.shape)
    flat = grams.reshape(-1, n)  # Gram rows, problem p's row r at p * n + r
    flat_a = curvs.reshape(-1, n)  # curvature rows, in the same order
    idx = np.arange(len(y))  # the problem in each row of the state below
    # flat offsets of each state row: in the (rows, n) state, and of its Gram in flat
    base = gi = idx * n
    hi = np.where(y > 0, c, np.where(y < 0, 0.0, -np.inf))
    lo = np.where(y > 0, 0.0, np.where(y < 0, -c, np.inf))
    ya = np.zeros(y.shape)
    v = y.astype(np.float64)  # -y G at alpha = 0
    for steps in range(MAX_STEPS + 1):
        v_up = np.where(ya < hi, v, -np.inf)
        w = np.where(ya > lo, v, np.inf)  # v over I_low
        i = v_up.argmax(axis=1)
        fi = base + i
        m = v_up.take(fi)
        gap = m - np.minimum.reduce(w, axis=1)
        done = gap <= tol
        if steps == MAX_STEPS:
            for g in gap[~done]:
                warnings.warn(f"SMO gap {g:.3g} > tol {tol:g} after {steps} steps", RuntimeWarning)
            done[:] = True
        if done.any():
            out[idx[done]] = np.abs(ya[done])  # |y alpha| = alpha, and never -0.0
            if done.all():
                break
            go = ~done
            idx, hi, lo, ya, v, w, i, m = (s[go] for s in (idx, hi, lo, ya, v, w, i, m))
            base, gi = np.arange(len(idx)) * n, idx * n
            fi = base + i
        ri = gi + i
        k_i, a = flat.take(ri, axis=0), flat_a.take(ri, axis=0)
        b = np.subtract(m[:, None], w, out=w)  # -inf outside I_low
        # the j of I_low with v_j < m that maximizes b^2 / a: every other j
        # scores 0, below the j of the gap, whose b exceeds tol
        q = np.maximum(b, 0.0)
        q *= q
        q /= a
        j = q.argmax(axis=1)
        fj = base + j
        ya_i, ya_j = ya.take(fi), ya.take(fj)
        hi_i, lo_j = hi.take(fi), lo.take(fj)
        room_i, room_j = hi_i - ya_i, ya_j - lo_j
        t = np.minimum(np.minimum(b.take(fj) / a.take(fj), room_i), room_j)
        # a variable that hits its limit is set to it: ya + (hi - ya) can round past hi
        ya.put(fi, np.where(t < room_i, ya_i + t, hi_i))
        ya.put(fj, np.where(t < room_j, ya_j - t, lo_j))
        dk = flat.take(gi + j, axis=0)
        np.subtract(k_i, dk, out=dk)
        dk *= t[:, None]
        v -= dk  # v -= t (K_i - K_j)
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


def _minmax(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-feature (min, max) of the rows of ``x``."""
    if len(x) < 2:
        raise ValueError("need at least 2 rows to fit normalization")
    return x.min(axis=0), x.max(axis=0)


def _normalize(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Min-max scaling of the rows of ``x`` to [0, 1]; constant columns map to
    0 and out-of-range values are clamped."""
    span = hi - lo
    out = np.zeros_like(x)
    ok = span > 0
    out[:, ok] = (x[:, ok] - lo[ok]) / span[ok]
    return np.clip(out, 0.0, 1.0)


def _check_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) as floats; ValueError unless x has one finite row per label and
    y is +1 and -1."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y):
        raise ValueError(f"{len(x)} feature rows for {len(y)} labels")
    if not np.isfinite(x).all():
        raise ValueError("non-finite features")
    if set(np.unique(y)) != {-1.0, 1.0}:
        raise ValueError("need both classes, labels in {+1, -1}")
    return x, y


class SmoSVC:
    """Binary SVM classifier (labels +1 / -1) in the fit/predict style.

    ``fit`` learns the per-feature (min, max), ``norm_``, and
    ``decision_function`` / ``predict`` scale their input with it.
    Ties at a decision value of exactly 0 predict -1.
    """

    def __init__(
        self, c: float = 1.0, kernel: str = "rbf", gamma: float = 1.0, normalize: bool = True
    ):
        if not (finite_number(c) and c > 0):
            raise ValueError(f"c must be a finite number > 0, not {c!r}")
        self.c = c
        self.kernel_spec = KernelSpec(kind=kernel, gamma=gamma)
        self.normalize = normalize
        self.support_vectors_ = None
        self.dual_coef_ = None  # alpha_i * y_i per stored vector
        self.intercept_ = 0.0
        self.norm_ = None  # (min, max) per feature; None when normalize is False

    def fit(self, x: np.ndarray, y: np.ndarray) -> "SmoSVC":
        x, y = _check_xy(x, y)
        self.norm_ = _minmax(x) if self.normalize else None
        if self.norm_ is not None:
            x = _normalize(x, *self.norm_)
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
        if self.norm_ is not None:
            x = _normalize(x, *self.norm_)
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
    if len(ids) != len(y):
        raise ValueError(f"{len(ids)} case ids for {len(y)} labels")
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
    cs: list[float], gammas: list[float],
) -> tuple[list[np.ndarray], np.ndarray]:
    """The folds of ``kfold_split`` and a ``(len(cs), len(gammas), n)`` array
    whose entry [i, j, r] is row r's held-out decision under C = cs[i] and
    gamma = gammas[j]. Each fold is normalized on its training rows alone.

    The training Gram of every (fold, gamma) is built once and padded to the
    largest training fold, and beside each stack of Grams its curvature stack;
    per C, one ``_smo_batch`` call solves them all. Stacks are cut so that
    both together hold at most ``_STACK_BYTES``, so memory does not grow with
    k or the number of gammas."""
    x, y = _check_xy(x, y)
    folds = kfold_split(ids, y, k, seed)
    sets = []  # per fold: normalized training rows, their labels, normalized test rows
    for test in folds:
        train = np.ones(len(y), dtype=bool)
        train[test] = False
        lo, hi = _minmax(x[train])
        sets.append((_normalize(x[train], lo, hi), y[train], _normalize(x[test], lo, hi)))
    specs = [KernelSpec(gamma=gamma) for gamma in gammas]
    cells = [(f, j) for f in range(len(folds)) for j in range(len(gammas))]
    size = max(len(y_train) for _, y_train, _ in sets)
    per_stack = max(1, _STACK_BYTES // (2 * 8 * size * size))  # a Gram and its curvatures
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
        curvs = _curvatures(grams)
        for i, c in enumerate(cs):
            alphas = _smo_batch(grams, curvs, labels, c, _TOL)
            for p, (f, j) in enumerate(stack):
                x_train, y_train, x_test = sets[f]
                n = len(y_train)
                alpha = alphas[p, :n]
                b = _bias(grams[p, :n, :n], y_train, alpha, c)
                sv = alpha > _SV_EPS
                out[i, j, folds[f]] = (
                    kernel_matrix(specs[j], x_test, x_train[sv]) @ (alpha * y_train)[sv] + b)
    return folds, out


DEFAULT_EXPONENTS = (-8.0, 8.0, 0.4)  # start, stop (inclusive), step
MAX_LATTICE_POINTS = 1_000  # per axis; the default lattice has 41


def exponent_lattice(start: float, stop: float, step: float) -> np.ndarray:
    """start, start + step, ... up to stop, checked before it is allocated."""
    try:  # 2**e grows with e, so the two ends decide
        n = math.floor((stop - start) / step + 1e-9) if step > 0 and stop >= start else -1
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
) -> GridSearchResult:
    """Exhaustive CV accuracy over the (2^a, 2^b) lattice and its best cell.
    Ties go to the smaller C, then gamma.
    """
    c_axis = exponent_lattice(*c_exponents)
    g_axis = exponent_lattice(*g_exponents)
    cs, gammas = [float(2.0**a) for a in c_axis], [float(2.0**g) for g in g_axis]
    _, dec = cv_decisions(x, y, ids, k, seed, cs, gammas)
    acc = np.sum(np.where(dec > 0, 1, -1) == np.asarray(y), axis=2) / len(y)
    i, j = np.unravel_index(np.argmax(acc), acc.shape)  # the first maximum in C-major order
    surface = [(float(a), float(g), float(acc[m, n]))
               for m, a in enumerate(c_axis) for n, g in enumerate(g_axis)]
    return GridSearchResult(cs[i], gammas[j], float(acc[i, j]), surface)


def read_document(text: str, what: str) -> dict:
    """The JSON object of a versioned ``what`` document (a config or a model),
    without its version; ValueError unless it is an object of the int version
    1, or if it is nested too deeply to parse."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    version = data.pop("version", None)
    if type(version) is not int or version != 1:  # not a bool, not 1.0
        raise ValueError(f"unsupported {what} version {version!r}")
    return data


def model_to_json(clf: SmoSVC) -> str:
    """Fixed-field-order JSON persistence of a fitted, min-max normalized model."""
    if clf.support_vectors_ is None:
        raise ValueError("model is not fitted")
    if clf.norm_ is None:
        raise ValueError("a model fitted without normalization cannot be saved")
    payload = {
        "version": 1,
        "kernel": {"kind": clf.kernel_spec.kind, "gamma": clf.kernel_spec.gamma},
        "c": clf.c,
        "norm_min": clf.norm_[0].tolist(),
        "norm_max": clf.norm_[1].tolist(),
        "support_vectors": clf.support_vectors_.tolist(),
        "alphas": clf.dual_coef_.tolist(),
        "bias": clf.intercept_,
    }
    return json.dumps(payload, indent=2) + "\n"


def _field(payload: dict, key: str, ndim: int) -> np.ndarray:
    """``payload[key]`` as a float array of ``ndim`` dimensions; ValueError
    naming the field if it is not one (ragged rows, null, a string, a bool) or
    if it holds NaN or an infinity."""
    try:
        arr = np.array(payload[key], dtype=np.float64)
        # np.float64 also takes a bool, a numeric string and (as NaN) a null
        typed = all(type(v) in (int, float) for v in np.array(payload[key], dtype=object).flat)
    except (TypeError, ValueError, OverflowError):  # ragged rows, an int that no float holds
        arr, typed = None, False
    if not typed or arr.ndim != ndim:
        raise ValueError(f"{key} must be " + (
            "a number", "a list of numbers", "a list of equal-length rows")[ndim])
    if not np.isfinite(arr).all():
        raise ValueError(f"{key} holds a non-finite number")
    return arr


def model_from_json(text: str) -> SmoSVC:
    """Inverse of ``model_to_json``. A document that is not such a model (not
    an object, a version other than the int 1, a missing field, an unknown
    kernel, a bool or non-finite number, ragged support vectors, an alpha
    count or norm vector that does not fit them) raises ``ValueError``; keys
    it does not use are ignored."""
    payload = read_document(text, "model")
    try:
        kernel = payload["kernel"]
        clf = SmoSVC(c=payload["c"], kernel=kernel["kind"], gamma=kernel["gamma"])
        sv = clf.support_vectors_ = _field(payload, "support_vectors", 2)
        alphas = clf.dual_coef_ = _field(payload, "alphas", 1)
        if len(alphas) != len(sv):
            raise ValueError(f"alphas has {len(alphas)} entries for {len(sv)} support vectors")
        clf.intercept_ = float(_field(payload, "bias", 0))
        clf.norm_ = tuple(_field(payload, key, 1) for key in ("norm_min", "norm_max"))
        for key, norm in zip(("norm_min", "norm_max"), clf.norm_):
            if len(norm) != sv.shape[1]:
                raise ValueError(f"{key} has {len(norm)} values for {sv.shape[1]} features")
    except KeyError as exc:
        raise ValueError(f"model lacks field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed model: {exc}") from None
    return clf
