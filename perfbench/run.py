"""entcheck benchmark: one closed-loop client driving the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports entcheck from its
`src/` directory.  The workload's inputs are drawn from the seed
(perfbench/workloads.py), so the program only ever sees generated
inputs.  One client calls `entcheck.analyze` (in-memory workloads) or
`entcheck.cli.main` (cli-files) in a loop, the next call starting when
the previous one returned, over whole passes of the workload's inputs
until the time budget is spent.  Every call is checked against its
input's known label; see `check`.

--trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer metrics of a traced loop over the same inputs, next to an
untraced loop whose pass time gives the tracing overhead.  Human-readable
lines come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the machine is small and
# shared, and a second client-invisible thread would make timings noisy.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter  # noqa: E402
from functools import reduce  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import (  # noqa: E402
    BUILDERS, ENTANGLED, FACTORIZED, WORKLOADS, dense_text, parse_text, sparse_text)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# A factorized verdict fails the gate when its factors rebuild the input
# with a max-abs error above this share of the largest input entry.
RESIDUAL_BOUND = 1e-8
SETUP_REPEATS = 5
EXIT_CODES = {FACTORIZED: 0, ENTANGLED: 1}


# --- set-up ------------------------------------------------------------------


def import_entcheck():
    """Import entcheck afresh from the checkout's sources."""
    for name in [m for m in sys.modules if m == "entcheck" or m.startswith("entcheck.")]:
        del sys.modules[name]
    ec = importlib.import_module("entcheck")
    importlib.import_module("entcheck.cli")
    if Path(ec.__file__).resolve().parent != SRC / "entcheck":
        raise ImportError(f"entcheck imported from {ec.__file__}, not from {SRC}")
    return ec


def build_inputs(ec, workload, seed, workdir):
    items = BUILDERS[workload](seed, str(workdir))
    for item in items:
        if item.kind == "analyze":
            item.tensor = ec.CoeffTensor(item.array)
        elif item.kind == "read":
            text = dense_text(item.array) if item.fmt == "dense" else sparse_text(item.array)
            Path(item.path).write_text(text, encoding="utf-8")
        else:  # gen: the tensor the written file must hold
            argv = item.argv
            dims = tuple(int(d) for d in argv[argv.index("--dims") + 1].split(","))
            gen = ec.gen_product_state if "--product" in argv else ec.gen_random_state
            item.array = gen(dims, int(argv[argv.index("--seed") + 1])).array
    return items


def set_up(workload, seed, workdir):
    """Import and build the inputs SETUP_REPEATS times; keep the last."""
    times = []
    ec = items = None
    for _ in range(SETUP_REPEATS):
        ec = items = None
        start = time.perf_counter()
        ec = import_entcheck()
        items = build_inputs(ec, workload, seed, workdir)
        times.append(time.perf_counter() - start)
    return ec, items, times


# --- one call and its check ----------------------------------------------------


def call(ec, item):
    if item.kind == "analyze":
        return ec.analyze(item.tensor)
    argv = item.argv if item.kind == "gen" else [
        "analyze", "--input", item.path, "--format", item.fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ec.cli.main(argv)
    return code, out.getvalue()


def _rebuild(vectors, scale):
    return scale * reduce(np.multiply.outer, vectors)


def _residual_failure(array, residual, rebuilt):
    bound = RESIDUAL_BOUND * float(np.abs(array).max())
    independent = float(np.abs(rebuilt - array).max())
    if not (residual <= bound and independent <= bound):
        return f"reconstruction residual {residual!r} (rebuilt {independent!r}) above {bound!r}"
    return None


def check_report(item, report):
    """Failure reason for an in-memory analyze() result, or None."""
    if report.error is not None:
        return f"error: {report.error}"
    if report.verdict is None or report.verdict.value != item.label:
        return f"verdict {report.verdict} but the input is {item.label}"
    if report.exit_code != EXIT_CODES[item.label]:
        return f"exit code {report.exit_code} for a {item.label} input"
    if report.oracle_agrees is not True:
        return f"oracle_agrees is {report.oracle_agrees}"
    if item.label == FACTORIZED:
        f = report.factors
        return _residual_failure(item.array, report.reconstruction_residual,
                                 _rebuild(f.vectors, f.scale))
    return None


def _complex_fields(text):
    v = np.array(text.split(), dtype=float)
    return v[0::2] + 1j * v[1::2]


def check_cli(item, result):
    """Failure reason for an `entcheck analyze|gen` call, or None."""
    code, stdout = result
    if item.kind == "gen":
        if code != 0:
            return f"gen exit code {code}"
        written = parse_text(Path(item.path).read_text(encoding="utf-8"), item.fmt)
        if written.shape != item.array.shape or not np.array_equal(written, item.array):
            return "written file differs from the generated tensor"
        return None
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and not key.startswith("#"):
            fields[key] = value
    if code != EXIT_CODES[item.label]:
        return f"exit code {code} for a {item.label} input ({fields.get('error')})"
    if fields.get("verdict") != item.label:
        return f"verdict {fields.get('verdict')} but the input is {item.label}"
    if fields.get("oracle_agrees") != "true":
        return f"oracle_agrees is {fields.get('oracle_agrees')}"
    if item.label == FACTORIZED:
        vectors = [_complex_fields(fields[f"factor_{k}"]) for k in range(item.array.ndim)]
        scale = _complex_fields(fields["factor_scale"])[0]
        return _residual_failure(item.array, float(fields["reconstruction_residual"]),
                                 _rebuild(vectors, scale))
    return None


def check(item, result):
    return check_report(item, result) if item.kind == "analyze" else check_cli(item, result)


# --- the closed loop --------------------------------------------------------------


class Loop:
    """Closed-loop client over whole passes of `items`.

    Only the call itself is timed; checking runs between calls.  Every
    call is checked and every failure is kept, none is skipped.
    """

    def __init__(self, ec, items):
        self.ec = ec
        self.items = items
        self.attempted = 0
        self.failures = []

    def one_pass(self, latencies=None, around=None):
        """One pass; `around(k)` gives a context entered around call k."""
        pass_s = 0.0
        for k, item in enumerate(self.items):
            with around(k) if around else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    result, error = call(self.ec, item), None
                except (Exception, SystemExit) as exc:  # a failed call, counted below
                    result, error = None, f"raised {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
            pass_s += elapsed
            if latencies is not None:
                latencies.append(elapsed)
            self.attempted += 1
            reason = error or check(item, result)
            if reason is not None:
                self.failures.append((item.name, reason))
        return pass_s

    def run(self, seconds, latencies=None):
        """Whole passes until `seconds` have gone by (at least one)."""
        pass_times = []
        deadline = time.perf_counter() + seconds
        while True:
            pass_times.append(self.one_pass(latencies))
            if time.perf_counter() >= deadline:
                return pass_times


def percentiles(values):
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def end_to_end(loop, seconds, setup_times):
    latencies = []
    per_item = [[] for _ in loop.items]
    pass_times = loop.run(seconds, latencies)
    for n, dt in enumerate(latencies):
        per_item[n % len(loop.items)].append(dt)
    p50, p90 = percentiles([dt * 1e3 for dt in latencies])
    metrics = {
        # calls per second of a median pass, so that a slow spell of the
        # shared machine during one pass does not move the figure
        "states_per_s": (len(loop.items) / statistics.median(pass_times), "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = {
        "latency_samples": len(latencies),
        "samples_above_p90": sum(1 for dt in latencies if dt * 1e3 > p90),
        "passes": len(pass_times),
        "per_item_median_ms": {
            item.name + f"#{k}": round(statistics.median(v) * 1e3, 3)
            for k, (item, v) in enumerate(zip(loop.items, per_item))
        },
    }
    return metrics, notes


def per_layer(loop, ec, seconds, spans_path):
    """Untraced and traced passes in turn, then one tracemalloc pass.

    Alternating the two kinds of pass lets a slow spell of the shared
    machine fall on both, so their ratio is the tracing overhead.
    """
    tracer = spans.Tracer()
    untraced, traced, pass_starts, pass_counts, peaks = [], [], [], [], []

    @contextlib.contextmanager
    def call_id(k):
        tracer.call = len(traced) * len(loop.items) + k
        yield

    @contextlib.contextmanager
    def call_peak(k):
        tracemalloc.reset_peak()
        yield
        peaks.append(tracemalloc.get_traced_memory()[1])

    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(loop.one_pass())
        pass_starts.append(len(tracer.spans))
        tracer.counts.clear()
        spans.install(tracer, ec)
        try:
            traced.append(loop.one_pass(around=call_id))
        finally:
            tracer.uninstall()
        pass_counts.append(Counter(tracer.counts))
        if time.perf_counter() >= deadline:
            break
    bounds = pass_starts + [len(tracer.spans)]
    self_by_pass = [tracer.self_times(a, b) for a, b in zip(bounds, bounds[1:])]
    tracer.write(spans_path)

    tracemalloc.start()  # the peak of each call, without the checks between calls
    try:
        loop.one_pass(around=call_peak)
    finally:
        tracemalloc.stop()

    counts = pass_counts[0]
    metrics = spans.layer_metrics(self_by_pass, counts, untraced, traced, max(peaks))
    notes = {
        "traced_passes": len(traced),
        "counts_repeat_every_pass": all(c == counts for c in pass_counts),
        "spans_written": str(spans_path.relative_to(ROOT)),
        "computed_counts": ["oracle.elimination_steps", "oracle.unfold_mb", "io.loads.mb"],
    }
    return metrics, notes


# --- entry point ----------------------------------------------------------------


def run(workload, seed, seconds, trace):
    """Set up, warm up, measure; returns the result object and notes."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        ec, items, setup_times = set_up(workload, seed, workdir)
        loop = Loop(ec, items)
        loop.one_pass()  # warm-up: checked, not timed
        if trace:
            metrics, notes = per_layer(loop, ec, seconds,
                                       OUT / f"spans-{workload}-seed{seed}.jsonl")
        else:
            metrics, notes = end_to_end(loop, seconds, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    notes["failures"] = loop.failures[:10]
    return result, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "entcheck" / "__init__.py").is_file():
        print(f"error: no entcheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result, notes = run(args.workload, args.seed, args.seconds, args.trace)
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  "
          f"trace: {args.trace}  client: 1 closed-loop  "
          + "  ".join(f"{v}={os.environ[v]}" for v in BLAS_ENV))
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':42s} {failed_frac:.6g} fraction "
          f"({result['failed']} of {result['attempted']} calls)")
    for key, value in notes.items():
        print(f"  {key}: {json.dumps(value)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
