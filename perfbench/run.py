"""sonocad benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or ``all`` of them, one after another) against the
sonocad sources in ``src/`` next to this directory. Load model: a closed
loop in one process, one call into the program after another, with BLAS
pinned to one thread. The inputs come from ``--seed`` alone. Each call's
wall time is divided by that of a fixed piece of work timed next to it
(``yardstick.py``), so that runs made while the host ran slower compare with
the rest; the gated time metric is this cost.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics of a traced run and writes the spans to
``perfbench/out/``. Every metric is printed by name with its unit and sample
count; the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit code 0 when every output check passed, 1 when one failed, 2 when the
sonocad sources are missing.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one thread: the matrices are small, and a second BLAS thread waits on a core
# that a shared host may be lending elsewhere
BLAS_THREADS = "1"
SETUP_REPEATS = 7
UNTRACED_SHARE = 1 / 3  # of a traced run's time, spent untraced for the overhead figure
# call times are reported in multiples of the yardstick timed next to each call
COST_UNIT = "yardstick"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def header(args, nproc: int, blas_threads: str, import_s: float) -> dict:
    import numpy
    import scipy
    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "data_seed": workloads.data_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu": cpu_model(),
        "blas_threads": blas_threads,
        "import_s": import_s,
        "load": "closed loop, 1 process, one call at a time",
    }


def measure(wl, seconds: float, min_calls: int, probe=None, sample_inside: bool = True):
    """Call the workload for about ``seconds`` and at least ``min_calls``
    times. Another call starts while it would end, by the last call's time,
    less than half a call past ``seconds``.

    The yardstick is timed before the first call and after each one, and,
    with ``sample_inside``, also before each call of the functions in the
    workload's ``sample_inside`` list; those runs are taken out of the call's
    time. A call's yardstick is the mean of the times around and inside it.

    Returns per-call times, per-call yardstick times and error messages."""
    import yardstick

    inner: list[float] = []

    def sampled(fn):
        @functools.wraps(fn)
        def after_yardstick(*args, **kwargs):
            inner.append(yardstick.measure())
            return fn(*args, **kwargs)

        return after_yardstick

    points = wl.sample_inside if sample_inside else ()
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr in points]
    times: list[float] = []
    sticks: list[float] = []
    errors: list[str] = []
    before = yardstick.measure()
    try:
        for owner, attr, fn in saved:
            setattr(owner, attr, sampled(fn))
        start = time.perf_counter()
        i = 0
        while i < min_calls or time.perf_counter() - start + times[-1] / 2 < seconds:
            msg = out = None
            inner.clear()
            t0 = time.perf_counter()
            try:
                out = wl.call(i)
            except Exception as exc:  # a failed call is counted and the run goes on
                msg = f"call {i} raised {exc!r}"
            times.append(time.perf_counter() - t0 - sum(inner))
            after = yardstick.measure()
            sticks.append(statistics.mean([before, *inner, after]))
            before = after
            if probe is not None:
                probe.after_call()
            if msg is None:
                try:
                    msg = wl.check(i, out)
                except Exception as exc:
                    msg = f"check {i} raised {exc!r}"
            if msg:
                errors.append(msg)
            i += 1
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    return times, sticks, errors


def set_up(wl, seed: int) -> float:
    """Build the inputs and make the untimed warm-up call, SETUP_REPEATS
    times; keep the last inputs and return the median time."""
    os.makedirs(OUT, exist_ok=True)
    times = []
    for k in range(SETUP_REPEATS):
        if k:
            wl.close()
        t0 = time.perf_counter()
        wl.build(seed, OUT)
        wl.warm_up()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def aliases(wl, m: dict, failed: int, attempted: int) -> list[tuple[str, float, str, int, str]]:
    """The workload's figures under the names users know, with the JSON key
    that carries each ("-" for a figure that is printed only)."""
    call = wl.call_name
    rows = [
        ("setup_s", *m["setup_s"], "setup_s"),
        (f"{wl.unit}_cost", *m["item_cost"], "item_cost"),
        (f"{call}_cost_p50", *m["call_cost_p50"], "-"),
        (f"{wl.unit}s_per_s", *m["items_per_s"], "-"),
    ]
    if call == "study":
        rows.append(("study_s", m["call_ms_p50"][0] / 1000, "s", m["call_ms_p50"][2], "-"))
    else:
        rows.append((f"{call}_ms_p50", *m["call_ms_p50"], "-"))
    if call == "case":
        rows.append(("case_ms_p90", *m["call_ms_p90"], "-"))
    rows.append(("yardstick_ms_p50", *m["yardstick_ms_p50"], "-"))
    rows.append((wl.quality_name, *m["quality"], "quality"))
    rows += [(name, value, unit, count, "-") for name, (value, unit, count) in wl.extra().items()]
    rows.append(("error_rate", failed / attempted, "ratio", attempted, "success_rate"))
    rows.append(("peak_rss_mb", *m["peak_rss_mb"], "peak_rss_mb"))
    return rows


def run_workload(name: str, args):
    """One workload: set-up, warm-up, then the untraced or traced measurement.

    Returns (correct, attempted, failed, metrics as name -> (value, unit, n)).
    """
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    try:
        setup_s = set_up(wl, args.seed)
        if args.trace:
            result = traced(wl, args)
        else:
            result = untraced(wl, args, setup_s)
    finally:
        wl.close()
    return result


def untraced(wl, args, setup_s: float):
    from layers import percentile

    times, sticks, errors = measure(wl, args.seconds, wl.min_calls)
    final = wl.finish()
    errors += [final] if final else []
    items = sum(wl.items(i) for i in range(len(times)))
    attempted = len(times)
    failed = min(len(errors), attempted)  # a failed run-level check fails a call too
    costs = [t / s for t, s in zip(times, sticks)]
    ms = [1000 * t for t in times]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    quality, judged = wl.quality()
    m = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "item_cost": (sum(costs) / items, COST_UNIT, items),
        "quality": (quality, "ratio", judged),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "success_rate": ((attempted - failed) / attempted, "ratio", attempted),
    }
    for e in errors:
        print(f"check failed: {wl.name}: {e}", file=sys.stderr)
    print(f"# {wl.name}: {attempted} calls of {wl.entry}, {items} {wl.unit}s, "
          f"{sum(times):.3f} s in calls")
    shown = {
        **m,
        "call_cost_p50": (statistics.median(costs), COST_UNIT, len(costs)),
        "items_per_s": (items / sum(times), "1/s", items),
        "call_ms_p50": (statistics.median(ms), "ms", len(ms)),
        "call_ms_p90": (percentile(ms, 90), "ms", len(ms)),
        "yardstick_ms_p50": (1000 * statistics.median(sticks), "ms", len(sticks)),
    }
    for alias, value, unit, n, key in aliases(wl, shown, failed, attempted):
        print(f"#   {alias:<20} {value:>14.6f} {unit:<9} n={n:<6} [{key}]")
    return not errors, attempted, failed, m


def traced(wl, args):
    from layers import TARGETS, Probe, per_layer
    from tracing import Tracer

    # no yardstick inside a call, so that spans hold only the program's time;
    # the untraced calls are gauged the same way for the overhead figure
    plain, plain_sticks, errors = measure(wl, args.seconds * UNTRACED_SHARE, 1,
                                          sample_inside=False)
    tracer = Tracer(keep=("slic.slic", "svm.smo_solve"))
    probe = Probe(tracer)
    with tracer.installed(TARGETS):
        times, sticks, more = measure(wl, args.seconds * (1 - UNTRACED_SHARE), 1, probe,
                                      sample_inside=False)
    errors += more
    final = wl.finish()
    errors += [final] if final else []
    common = min(len(plain), len(times))
    traced_cost = sum(t / s for t, s in zip(times[:common], sticks))
    plain_cost = sum(t / s for t, s in zip(plain[:common], plain_sticks))
    overhead = 100 * (traced_cost / plain_cost - 1)
    m = per_layer(tracer, probe, overhead)
    path = os.path.join(OUT, f"spans_{wl.name}_seed{args.seed}.jsonl")
    tracer.write(path)
    for e in errors:
        print(f"check failed: {wl.name}: {e}", file=sys.stderr)
    attempted = len(plain) + len(times)
    failed = min(len(errors), attempted)
    print(f"# {wl.name}: {len(plain)} untraced + {len(times)} traced calls of {wl.entry}; "
          f"{len(tracer.spans)} spans in {os.path.relpath(path, os.path.dirname(HERE))}")
    for name, (value, unit, n) in m.items():
        print(f"#   {name:<36} {value:>14.6f} {unit:<6} n={n}")
    return not errors, attempted, failed, m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["extract_speckle", "extract_clean", "gridsearch", "study", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sonocad", "__init__.py")):
        print(f"error: sonocad sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import sonocad
    import workloads
    import_s = time.perf_counter() - t0
    if not os.path.abspath(sonocad.__file__).startswith(SRC + os.sep):
        print(f"error: imported sonocad from {sonocad.__file__}, not {SRC}", file=sys.stderr)
        return 2

    head = header(args, nproc, BLAS_THREADS, import_s)
    print("# " + json.dumps(head))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, n, bad, m = run_workload(name, args)
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u, _) in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
