"""Per-layer metrics of a traced run: which sonocad functions get spans, the
probes that run outside every span, and the metrics derived from both."""

from __future__ import annotations

import inspect
import time

import numpy as np

from sonocad import features, image, metrics, pipeline, roi, slic, svm
from tracing import Tracer
from workloads import KKT_FACTOR, raw_fragments

# (owner, attribute, span name): each is replaced where its caller looks it up
TARGETS = (
    (pipeline, "run_pipeline", "pipeline.run_pipeline"),
    (pipeline, "extract_batch", "pipeline.extract_batch"),
    (pipeline, "process_case", "pipeline.process_case"),
    (pipeline, "evaluate_cv", "pipeline.evaluate_cv"),
    (image, "read_pgm", "image.read_pgm"),
    (image, "preprocess", "image.preprocess"),
    (slic, "slic", "slic.slic"),
    (roi, "grow", "roi.grow"),
    (features, "extract_all", "features.extract_all"),
    (svm, "grid_search", "svm.grid_search"),
    (svm.SmoSVC, "fit", "svm.SmoSVC.fit"),
    (svm, "kernel_matrix", "svm.kernel_matrix"),
    (svm, "smo_solve", "svm.smo_solve"),
    (metrics, "roc", "metrics.roc"),
)

# name -> unit, in the order they are reported
PER_LAYER = {
    "slic.slic_ms_p50": "ms",
    "slic.assign_ms_p50": "ms",
    "slic.enforce_ms_p50": "ms",
    "slic.raw_fragments_p50": "count",
    "slic.labels_p50": "count",
    "image.preprocess_ms_p50": "ms",
    "roi.grow_ms_p50": "ms",
    "features.extract_ms_p50": "ms",
    "svm.fits": "count",
    "svm.fit_ms_p50": "ms",
    "svm.fit_ms_p90": "ms",
    "svm.fit_ms_max": "ms",
    "svm.kernel_ms_total": "ms",
    "svm.smo_share": "ratio",
    "svm.nonconverged_fits": "count",
    "pipeline.process_case_self_ms_p50": "ms",
    "pipeline.extract_batch_s": "s",
    "pipeline.grid_search_s": "s",
    "pipeline.final_fit_cv_s": "s",
    "image.read_pgm_ms_p50": "ms",
    "metrics.roc_ms": "ms",
    "trace.overhead_pct": "%",
}


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class Probe:
    """Checks on the calls a traced run kept, made after the top-level call
    returned so that none of their cost lands in a span.

    Per ``slic.slic`` call it re-runs ``slic(..., enforce=False)`` on the same
    input: that time is the assignment, the span minus it is connectivity
    enforcement, and its labels give the raw fragment count. Per
    ``svm.smo_solve`` call it applies ``svm.kkt_violation`` to the returned
    solution.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.assign_ms: list[float] = []
        self.enforce_ms: list[float] = []
        self.fragments: list[int] = []
        self.labels: list[int] = []
        self.fits = 0
        self.nonconverged = 0

    def after_call(self):
        for name, idx, args, kwargs, result in self.tracer.drain():
            fn = self.tracer.original[name]
            call = inspect.signature(fn).bind(*args, **kwargs)
            call.apply_defaults()
            if name == "slic.slic" and call.arguments["enforce"]:
                start = time.perf_counter()
                raw = fn(*args, **{**kwargs, "enforce": False})
                assign = 1000 * (time.perf_counter() - start)
                self.assign_ms.append(assign)
                self.enforce_ms.append(1000 * self.tracer.duration(idx) - assign)
                self.fragments.append(raw_fragments(raw.labels))
                self.labels.append(result.n_labels)
            elif name == "svm.smo_solve":
                a = call.arguments
                alpha, b = result[0], result[1]
                residual = svm.kkt_violation(
                    a["k_mat"], np.asarray(a["y"], dtype=np.float64), alpha, b, a["c"]
                )
                self.fits += 1
                self.nonconverged += int(residual > KKT_FACTOR * a["tol"])


def per_layer(tracer: Tracer, probe: Probe, overhead_pct: float) -> dict:
    """name -> (value, unit, sample count) for every PER_LAYER metric."""

    def ms(name, parent=None):
        return [1000 * tracer.duration(i) for i in tracer.indices(name, parent)]

    def p50(samples):
        return percentile(samples, 50), len(samples)

    span_ms = {name: ms(name) for _, _, name in TARGETS}
    fit_ms = span_ms["svm.SmoSVC.fit"]
    grid_ms = span_ms["svm.grid_search"]
    smo_in_grid = [1000 * tracer.duration(i) for i in tracer.indices("svm.smo_solve")
                   if tracer.inside(i, "svm.grid_search")]
    # final fit plus CV evaluation, per study
    final: dict[int, float] = {}
    for name in ("svm.SmoSVC.fit", "pipeline.evaluate_cv"):
        for i in tracer.indices(name, "pipeline.run_pipeline"):
            parent = tracer.spans[i][3]
            final[parent] = final.get(parent, 0.0) + tracer.duration(i)
    values = {
        "slic.slic_ms_p50": p50(span_ms["slic.slic"]),
        "slic.assign_ms_p50": p50(probe.assign_ms),
        "slic.enforce_ms_p50": p50(probe.enforce_ms),
        "slic.raw_fragments_p50": p50(probe.fragments),
        "slic.labels_p50": p50(probe.labels),
        "image.preprocess_ms_p50": p50(span_ms["image.preprocess"]),
        "roi.grow_ms_p50": p50(span_ms["roi.grow"]),
        "features.extract_ms_p50": p50(span_ms["features.extract_all"]),
        "svm.fits": (probe.fits, probe.fits),
        "svm.fit_ms_p50": p50(fit_ms),
        "svm.fit_ms_p90": (percentile(fit_ms, 90), len(fit_ms)),
        "svm.fit_ms_max": (max(fit_ms, default=0.0), len(fit_ms)),
        "svm.kernel_ms_total": (sum(span_ms["svm.kernel_matrix"]),
                                len(span_ms["svm.kernel_matrix"])),
        "svm.smo_share": (sum(smo_in_grid) / sum(grid_ms) if grid_ms else 0.0,
                          len(smo_in_grid)),
        "svm.nonconverged_fits": (probe.nonconverged, probe.fits),
        "pipeline.process_case_self_ms_p50": p50(
            [1000 * t for t in tracer.self_times("pipeline.process_case")]),
        "pipeline.extract_batch_s": p50([t / 1000 for t in span_ms["pipeline.extract_batch"]]),
        "pipeline.grid_search_s": p50(
            [t / 1000 for t in ms("svm.grid_search", "pipeline.run_pipeline")]),
        "pipeline.final_fit_cv_s": p50(list(final.values())),
        "image.read_pgm_ms_p50": p50(span_ms["image.read_pgm"]),
        "metrics.roc_ms": p50(span_ms["metrics.roc"]),
        "trace.overhead_pct": (overhead_pct, 1),
    }
    return {name: (values[name][0], unit, values[name][1]) for name, unit in PER_LAYER.items()}
