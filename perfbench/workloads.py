"""The benchmark's four workloads: inputs built from a seed, the timed call
into sonocad, and the checks on what each call returned.

A workload object serves one run. ``build`` makes the inputs and
``warm_up`` makes one untimed call on them; the two are timed together as
set-up. ``call(i)`` is the i-th timed call into the program and
``check(i, out)`` validates its output outside the timed region, returning
an error message or ``None``. ``finish`` runs the checks that need every
output of the run or one more, untimed call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile

import numpy as np
from scipy import ndimage

from sonocad import cli, image, phantom, pipeline, roi, svm
from sonocad.config import PipelineConfig
from sonocad.features import FeatureVector, read_feature_csv, write_feature_csv

N_BENIGN, N_MALIGNANT = 62, 88  # the paper's class mix
# generate_dataset derives case i from seed + i; scaling the run seed by more
# than any case count keeps datasets of different run seeds disjoint
SEED_STRIDE = 1000
SPECKLE_SIGMA = 0.03
CLEAN_DICE_MIN = 0.85  # per case, noiseless phantoms (acceptance gate)
SPECKLE_MEAN_DICE_MIN = 0.80  # mean over cases, speckled phantoms (acceptance gate)
FOUR_CONNECTED = ndimage.generate_binary_structure(2, 1)
KKT_FACTOR = 10.0  # a fit whose KKT residual exceeds this x tol did not converge

# gridsearch: a 150x9 matrix of two Gaussian classes, 62:88, whose means are
# this Mahalanobis distance apart, which puts the Bayes accuracy at 0.88
CLASS_DISTANCE = 2.3238
# 1 x 2 cells of the default 0.4 log2 step on the ridge of best cells, where
# SMO often stops at max_passes without meeting tol
GRID_C = (5.6, 5.6, 0.4)
GRID_G = (-4.8, -4.4, 0.4)
# one matrix per search: SMO cost varies several-fold from cell to cell and
# matrix to matrix, so a run samples as many matrices as it has time for
GRID_MATRICES = 64
GRID_JUDGED = 8  # matrices every run searches; best_cv_accuracy is their mean

# study: speckled phantoms on disk and a coarse lattice in the config file
STUDY_BENIGN, STUDY_MALIGNANT = 7, 9
STUDY_C = (-2.0, 8.0, 2.0)
STUDY_G = (-8.0, 2.0, 2.0)
STUDY_ARTIFACTS = ("features.csv", "model.json", "report.csv", "roc.csv", "surface.csv")


def data_seed(seed: int) -> int:
    return seed * SEED_STRIDE


def interleave(cases):
    """Order (name, case) pairs so that every prefix keeps the class mix."""
    ranked = []
    for label in (-1, 1):
        members = [c for c in cases if c[1].label == label]
        ranked += [((k + 0.5) / len(members), label, c) for k, c in enumerate(members)]
    return [c for _, _, c in sorted(ranked, key=lambda r: (r[0], r[1]))]


def feature_matrix(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """150 x 9 features of two Gaussian classes, 62 benign and 88 malignant.

    Columns follow FEATURE_NAMES. Column cp is rd / (16 pi^2), as compactness
    is roundness / (16 pi^2) for every shape; the other eight are independent.
    """
    rng = np.random.default_rng(seed)
    y = np.array([-1] * N_BENIGN + [1] * N_MALIGNANT)
    z = rng.standard_normal((len(y), 8)) + y[:, None] * (CLASS_DISTANCE / 2 / np.sqrt(8))
    x = np.empty((len(y), 9))
    x[:, [0, 1, 3, 4, 5, 6, 7, 8]] = z
    x[:, 2] = x[:, 1] / (16 * np.pi**2)
    return x, y


def raw_fragments(labels: np.ndarray) -> int:
    """4-connected components beyond one per label."""
    components = 0
    for lab in np.unique(labels):
        _, n = ndimage.label(labels == lab, structure=FOUR_CONNECTED)
        components += n
    return components - len(np.unique(labels))


class Workload:
    """Defaults for the hooks a workload does not need."""

    # (owner, attribute) of functions a call makes many calls of; the
    # yardstick is timed before each, for calls too long to gauge from their ends
    sample_inside: tuple = ()

    def __init__(self, name: str):
        self.name = name

    def items(self, i: int) -> int:
        return 1

    def finish(self) -> str | None:
        return None

    def extra(self) -> dict:
        return {}

    def close(self):
        pass


class Extract(Workload):
    """``pipeline.process_case`` over phantoms, one case after another.

    Every run processes at least the first ``judged`` cases, and the mean
    Dice is taken over exactly those, so it does not depend on speed.
    """

    unit = "case"
    call_name = "case"
    entry = "pipeline.process_case"
    quality_name = "mean_dice"

    def __init__(self, name: str, speckle_sigma: float, judged: int):
        super().__init__(name)
        self.speckle_sigma = speckle_sigma
        self.min_calls = judged
        self.cfg = PipelineConfig()

    def build(self, seed: int, work_dir: str):
        self.cases = interleave(phantom.generate_dataset(
            N_BENIGN, N_MALIGNANT, seed=data_seed(seed), speckle_sigma=self.speckle_sigma,
        ))
        self.dice: dict[int, float] = {}
        self.features: dict[int, np.ndarray] = {}

    def warm_up(self):
        # the first timed call repeats this case, and must give the same features
        name, case = self.cases[0]
        out = pipeline.process_case(case.image, case.seed_x, case.seed_y, self.cfg, name=name)
        self.features[0] = out.features.to_array()

    def call(self, i: int):
        name, case = self.cases[i % len(self.cases)]
        return pipeline.process_case(case.image, case.seed_x, case.seed_y, self.cfg, name=name)

    def check(self, i: int, out) -> str | None:
        k = i % len(self.cases)
        name, case = self.cases[k]
        if not out.roi_mask.mask.any():
            return f"{name}: empty mask"
        d = float(roi.dice(out.roi_mask.mask, case.truth_mask))
        fv = out.features.to_array()
        if k in self.features and not np.array_equal(fv, self.features[k]):
            return f"{name}: features differ from an earlier pass"
        self.dice[k], self.features[k] = d, fv
        if self.speckle_sigma == 0 and d < CLEAN_DICE_MIN:
            return f"{name}: dice {d:.4f} < {CLEAN_DICE_MIN}"
        return None

    def finish(self) -> str | None:
        mean_dice, _ = self.quality()
        if self.speckle_sigma > 0 and mean_dice < SPECKLE_MEAN_DICE_MIN:
            return f"mean dice {mean_dice:.4f} < {SPECKLE_MEAN_DICE_MIN}"
        return None

    def quality(self) -> tuple[float, int]:
        """Mean Dice against the truth masks over the judged cases."""
        judged = [self.dice[k] for k in range(self.min_calls) if k in self.dice]
        return float(np.mean(judged)) if judged else 0.0, len(judged)


class GridSearch(Workload):
    """``svm.grid_search`` over the whole window per call, each call on the
    next feature matrix drawn from the seed.

    Search cost depends on the sample, so a run spreads its calls over as
    many matrices as it reaches rather than a few.
    """

    unit = "cell"
    call_name = "search"
    entry = "svm.grid_search"
    quality_name = "best_cv_accuracy"
    min_calls = GRID_JUDGED

    def __init__(self, name: str):
        super().__init__(name)
        self.cells = len(svm.exponent_lattice(*GRID_C)) * len(svm.exponent_lattice(*GRID_G))

    def build(self, seed: int, work_dir: str):
        # each matrix goes through feature CSV text, as it reaches
        # `sonocad gridsearch features.csv`
        self.matrices = []
        for j in range(GRID_MATRICES):
            x, y = feature_matrix(data_seed(seed) + j)
            rows = [(f"row_{i:04d}", FeatureVector(*r), "malignant" if lab > 0 else "benign")
                    for i, (r, lab) in enumerate(zip(x, y))]
            x, y, self.ids = pipeline.rows_to_matrix(read_feature_csv(write_feature_csv(rows)))
            self.matrices.append((x, y))
        self.surfaces: dict[int, list] = {}

    def warm_up(self):
        # a fit on every tenth row: SMO cost on the whole sample varies
        # several-fold from seed to seed and would swamp set-up time
        x, y = self.matrices[0]
        svm.SmoSVC(c=1.0, gamma=2.0 ** GRID_G[0]).fit(x[::10], y[::10])

    def items(self, i: int) -> int:
        return self.cells

    def search(self, j: int):
        x, y = self.matrices[j]
        return svm.grid_search(x, y, self.ids, k=5, seed=0,
                               c_exponents=GRID_C, g_exponents=GRID_G)

    def call(self, i: int):
        return self.search(i % GRID_MATRICES)

    def check(self, i: int, out) -> str | None:
        j = i % GRID_MATRICES
        if len(out.surface) != self.cells:
            return f"matrix {j}: {len(out.surface)} surface rows for {self.cells} cells"
        accs = [acc for _, _, acc in out.surface]
        a, g, acc = out.surface[int(np.argmax(accs))]
        if (out.best_accuracy, out.best_c, out.best_gamma) != (acc, 2.0**a, 2.0**g):
            return f"matrix {j}: best cell is not the surface argmax"
        if j in self.surfaces and out.surface != self.surfaces[j]:
            return f"matrix {j}: surface differs from the first search"
        self.surfaces[j] = out.surface
        return None

    def finish(self) -> str | None:
        """Search the first matrix again, untimed: the surface must repeat."""
        if 0 not in self.surfaces:  # its first search already failed a check
            return None
        if self.search(0).surface != self.surfaces[0]:
            return "matrix 0: surface differs from the first search"
        return None

    def quality(self) -> tuple[float, int]:
        """Best CV accuracy of the window, averaged over the judged matrices."""
        best = [max(acc for _, _, acc in self.surfaces[j])
                for j in range(GRID_JUDGED) if j in self.surfaces]
        return float(np.mean(best)) if best else 0.0, len(best)


class Study(Workload):
    """``sonocad pipeline`` through ``cli.main`` on phantoms written to disk."""

    unit = "case"
    call_name = "study"
    entry = "cli.main pipeline"
    quality_name = "auc"
    min_calls = 2  # repeated studies must write byte-identical artifacts
    # a study takes seconds; the host's speed is gauged between its cases
    sample_inside = ((pipeline, "process_case"),)

    def __init__(self, name: str):
        super().__init__(name)
        self.n_cases = STUDY_BENIGN + STUDY_MALIGNANT
        self.dir = None

    def build(self, seed: int, work_dir: str):
        self.dir = tempfile.mkdtemp(prefix="study-", dir=work_dir)
        cases = phantom.generate_dataset(
            STUDY_BENIGN, STUDY_MALIGNANT, seed=data_seed(seed), speckle_sigma=SPECKLE_SIGMA,
        )
        self.annotations = phantom.write_dataset(cases, os.path.join(self.dir, "data"))
        self.config = os.path.join(self.dir, "config.json")
        with open(self.config, "w") as fh:
            fh.write(PipelineConfig(c_exponents=STUDY_C, g_exponents=STUDY_G).to_json())
        self.first: dict[str, bytes] | None = None
        self.summary: dict = {}

    def warm_up(self):
        # one case through extraction; a whole study would cost a timed one
        with open(self.annotations) as fh:
            rec = roi.read_annotations(fh.read())[0]
        with open(os.path.join(os.path.dirname(self.annotations), rec["image"]), "rb") as fh:
            img = image.read_pgm(fh.read())
        pipeline.process_case(img, rec["seed_x"], rec["seed_y"], PipelineConfig())

    def items(self, i: int) -> int:
        return self.n_cases

    def call(self, i: int):
        out_dir = os.path.join(self.dir, f"run_{i}")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["pipeline", "--annotations", self.annotations,
                             "--config", self.config, "--out-dir", out_dir])
        return code, out_dir, printed.getvalue()

    def check(self, i: int, out) -> str | None:
        code, out_dir, printed = out
        try:
            if code != 0:
                return f"study {i}: exit code {code}"
            names = tuple(sorted(os.listdir(out_dir)))
            if names != STUDY_ARTIFACTS:
                return f"study {i}: artifacts {names}"
            artifacts = {}
            for n in names:
                with open(os.path.join(out_dir, n), "rb") as fh:
                    artifacts[n] = fh.read()
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        totals = next(line for line in artifacts["report.csv"].decode().splitlines()
                      if line.startswith("total,"))
        if sum(int(v) for v in totals.split(",")[1:]) != self.n_cases:
            return f"study {i}: report totals {totals!r} for {self.n_cases} cases"
        if self.first is None:
            self.first = artifacts
            self.summary = json.loads(printed)
        elif artifacts != self.first:
            differ = sorted(n for n in names if artifacts[n] != self.first[n])
            return f"study {i}: artifacts differ from the first study: {differ}"
        return None

    def quality(self) -> tuple[float, int]:
        """AUC of the pooled cross-validation decisions of the tuned model;
        with 16 cases it resolves finer than the CV accuracy does."""
        return float(self.summary.get("auc", 0.0)), self.n_cases

    def extra(self) -> dict:
        return {"cv_accuracy": (float(self.summary.get("cv_accuracy", 0.0)), "ratio",
                                self.n_cases)}

    def close(self):
        if self.dir:
            shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "extract_speckle": lambda: Extract("extract_speckle", SPECKLE_SIGMA, judged=24),
    "extract_clean": lambda: Extract("extract_clean", 0.0, judged=N_BENIGN + N_MALIGNANT),
    "gridsearch": lambda: GridSearch("gridsearch"),
    "study": lambda: Study("study"),
}
