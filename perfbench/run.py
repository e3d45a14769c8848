"""segphrase benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload train|segment|relations \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. The set-up (interpreter start, ``segphrase`` import, ``synth``,
training of the shared table, writing the other input files) runs
``SETUP_REPS`` times, each in a fresh process, and ``setup_s`` is the
median. One untimed run of the first op warms caches; then the timed
phase runs the ops in a closed loop with one client for ``--seconds`` (and
at least one pass over them). Every op's output must match its first
run's, and the quality metrics score the outputs after the timed phase.
An op is one ``segphrase.cli.main(argv)`` call.

With ``--trace 1`` the same phases run, then the tracing
wrappers are installed and a fixed number of passes over the ops runs
traced; the per-layer metrics come from those spans (and, for
``evaluation.make_scene``, from a traced set-up).

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

SETUP_REPS = 5
SETUP_TIMEOUT_S = 120
# Traced passes over the op list: a fixed count, so counters repeat exactly.
TRACE_PASSES = {"train": 1, "segment": 1, "relations": 20}
# Op loops run a burst of CAL_BURST calibration kernels between ops once
# CAL_INTERVAL_S has passed since the last burst.
CAL_BURST = 3
CAL_INTERVAL_S = 0.5

SELF_MS = [
    "imaging.compute_superpixels", "imaging.extract_features",
    "imaging.load_image", "imaging.labels_to_mask",
    "mrf.min_cut_infer", "mrf.energy",
    "gmm.fit", "gmm.log_density_many",
    "latent.em_learn", "latent.segment_instance",
    "spt.save_table", "spt.load_table",
    "linguistics.semantic_segment", "linguistics.message_pass",
    "linguistics.fuse_and_cut", "linguistics.nms", "linguistics.load_embeddings",
    "relations.entail_score", "relations.solve_entailment_graph",
    "relations.exemplar_descriptor",
    "evaluation.make_scene",
    "cli",
]
COUNTS = [
    "imaging.compute_superpixels.calls", "imaging.pixels", "imaging.superpixels",
    "imaging.edges",
    "mrf.min_cut_infer.calls", "mrf.nodes", "mrf.edges",
    "gmm.fit.calls", "gmm.fit.points", "gmm.log_density_many.points",
    "latent.em_learn.calls", "latent.em_rounds", "latent.init_labels.calls",
    "spt.save_table.bytes", "spt.load_table.bytes",
    "linguistics.message_pass.masks", "linguistics.oov_words",
    "relations.entail_score.calls", "relations.solve_entailment_graph.calls",
    "relations.graph_nodes", "relations.exact_solves", "relations.greedy_solves",
    "relations.exemplar_descriptor.calls",
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _fingerprint(stdout, outputs):
    digest = hashlib.sha256(stdout.encode())
    for path in outputs:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


class Runner:
    """Runs ops against the set-up directory and checks every output."""

    def __init__(self, workloads, cli):
        self.workloads = workloads
        self.cli = cli
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, op):
        """One op: delete its outputs, time ``cli.main``, check the outputs.

        Returns the op's wall time in seconds.
        """
        name, argv, outputs = op
        for path in outputs:
            if os.path.exists(path):
                os.remove(path)
        out = io.StringIO()
        started_ns = time.time_ns()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(argv)
        except Exception:  # a traceback is a failed op, not a failed run
            code = "traceback:\n" + traceback.format_exc()
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        error = self._check(name, code, out.getvalue(), outputs, started_ns)
        if error:
            self.failed += 1
            self.errors.append(error)
        return elapsed

    def _check(self, name, code, stdout, outputs, started_ns):
        if code != 0:
            return f"{name}: exit {code}"
        for path in outputs:
            if not os.path.exists(path):
                return f"{name}: missing output {path}"
            if os.stat(path).st_mtime_ns < started_ns - 10_000_000:
                return f"{name}: stale output {path}"
        error = self.workloads.check_op(name)
        if error:
            return error
        digest = _fingerprint(stdout, outputs)
        first = self.reference.setdefault(name, digest)
        if digest != first:
            return f"{name}: output differs from the first run of the op"
        return None


def run_setups(workload, seed, work, reps, spans, cal):
    """Fresh-process set-ups; returns (scaled times, tree digests,
    directory of the last)."""
    times, digests = [], []
    for rep in range(reps):
        rep_dir = os.path.join(work, f"setup{rep}")
        os.makedirs(rep_dir)
        argv = [sys.executable, os.path.join(BENCH_DIR, "workloads.py"),
                workload, str(seed), rep_dir]
        if spans:
            argv += ["--spans", spans]
        before = speed(cal)
        t0 = time.perf_counter()
        proc = subprocess.run(argv, timeout=SETUP_TIMEOUT_S,
                              stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        times.append(cal.scale(elapsed, (before + speed(cal)) / 2))
        if proc.returncode != 0:
            fail(f"set-up failed with exit code {proc.returncode}")
        digests.append(_tree_digest(rep_dir))
    return times, digests, rep_dir


def _tree_digest(top):
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(top):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, top).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def speed(cal):
    """Median kernel time of a burst of ``CAL_BURST`` kernel runs."""
    return statistics.median(cal.measure() for _ in range(CAL_BURST))


def run_ops(runner, ops, cal, count, deadline=None):
    """Cycle through ``ops`` one at a time: ``count`` ops, then on until
    ``deadline`` (perf_counter) if one is given. Between ops, whenever ``CAL_INTERVAL_S``
    has passed since the last burst, and after the last op, a calibration
    burst runs; each op time is scaled by the mean of the bursts just
    before and just after it.

    Returns ({op name: [scaled s]}, [scaled s in run order], raw s total).
    """
    by_op: dict[str, list[float]] = {}
    samples = []
    raw_total = 0.0
    pending = []  # (op name, raw s) since the last burst
    before, burst_at = speed(cal), time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        elapsed = runner.run(op)
        raw_total += elapsed
        pending.append((op[0], elapsed))
        i += 1
        done = i >= count and (deadline is None or time.perf_counter() >= deadline)
        if done or time.perf_counter() - burst_at >= CAL_INTERVAL_S:
            after, burst_at = speed(cal), time.perf_counter()
            for name, raw in pending:
                scaled = cal.scale(raw, (before + after) / 2)
                samples.append(scaled)
                by_op.setdefault(name, []).append(scaled)
            pending.clear()
            before = after
        if done:
            return by_op, samples, raw_total


def tail(samples):
    """Highest percentile with at least ten samples above it, as
    (value, percentile). Below 21 samples no percentile above the median
    has ten samples above it, and the median is returned, as p50."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def env_record(seed):
    import numpy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def traced_metrics(workload, seed, runner, ops, cal, untraced_by_op, setup_spans):
    from tracing import Tracer, read_self_ms

    tracer = Tracer()
    tracer.install()
    try:
        traced_by_op, _, traced_raw_s = run_ops(
            runner, ops, cal, TRACE_PASSES[workload] * len(ops))
    finally:
        tracer.uninstall()
    if tracer.missing:
        print("perfbench: not found, reported as 0: " + ", ".join(tracer.missing),
              file=sys.stderr)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"trace-{workload}-{seed}.jsonl"))

    self_ms = tracer.self_ms()
    accounted_s = sum(self_ms.values()) / 1000.0
    self_ms["evaluation.make_scene"] = read_self_ms(setup_spans).get(
        "evaluation.make_scene", 0.0)
    counts = tracer.counts
    median = statistics.median
    both = [k for k in traced_by_op if k in untraced_by_op]
    overhead = (sum(median(traced_by_op[k]) for k in both)
                / sum(median(untraced_by_op[k]) for k in both))
    metrics = {}
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = (self_ms.get(name, 0.0), "ms")
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["bench.traced_ops"] = (sum(len(v) for v in traced_by_op.values()), "count")
    nms_in = counts.get("linguistics.nms.in", 0)
    metrics["linguistics.nms.kept_ratio"] = (
        counts.get("linguistics.nms.kept", 0) / nms_in if nms_in else 0.0, "ratio")
    metrics["bench.trace_overhead_ratio"] = (overhead, "ratio")
    metrics["bench.accounted_ratio"] = (accounted_s / traced_raw_s, "ratio")
    return metrics


def main():
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "segphrase", "cli.py")):
        fail(f"no segphrase sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    from segphrase import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        fail(f"segphrase imported from {cli.__file__}, not from {SRC}")

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cwd = os.getcwd()
    try:
        result = measure(args, work, workloads, cli)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


def measure(args, work, workloads, cli):
    from calibration import REFERENCE_S, Calibration

    cal = Calibration()
    spans = os.path.join(work, "setup-spans.jsonl") if args.trace else None
    reps = 1 if args.trace else SETUP_REPS
    setup_times, setup_digests, setup_dir = run_setups(
        args.workload, args.seed, work, reps, spans, cal)

    os.chdir(setup_dir)
    ops = workloads.ops(args.workload)
    runner = Runner(workloads, cli)
    runner.run(ops[0])  # warm-up, untimed
    failed_before = runner.failed
    # at least one pass, so every op has an output to score
    by_op, samples, raw_s = run_ops(
        runner, ops, cal, len(ops), deadline=time.perf_counter() + args.seconds)
    passed = len(samples) - (runner.failed - failed_before)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if runner.failed:  # outputs may be missing; nothing sound to score
        jaccard = precision = accuracy = 0.0
    else:  # every op's outputs are byte-identical to its first run's
        jaccard, precision, accuracy = workloads.quality(args.workload)

    tail_s, tail_pct = tail(samples)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_ms": (statistics.median(samples) * 1000.0, "ms"),
        "op_tail_ms": (tail_s * 1000.0, "ms"),
        "ops_per_s": (passed / sum(samples), "1/s"),
        "success_rate": (1.0 - runner.failed / runner.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "mean_jaccard": (jaccard, "ratio"),
        "mean_precision": (precision, "ratio"),
        "decision_accuracy": (accuracy, "ratio"),
    }
    if args.trace:
        metrics = traced_metrics(
            args.workload, args.seed, runner, ops, cal, by_op, spans)

    correct = runner.failed == 0 and len(set(setup_digests)) == 1
    if len(set(setup_digests)) != 1:
        runner.errors.append("repeated set-ups produced different files")
    for error, times in collections.Counter(runner.errors).most_common(10):
        print(f"perfbench: FAILED {times}x {error}", file=sys.stderr)
    print("env " + json.dumps(env_record(args.seed), sort_keys=True))
    print(f"workload {args.workload}: {len(samples)} timed ops, op_tail_ms is "
          f"p{tail_pct:.1f}, error_rate {runner.failed}/{runner.attempted}")
    print(f"calibration kernel: median {statistics.median(cal.times) * 1000.0:.2f} ms "
          f"over {len(cal.times)} runs; times are scaled to {REFERENCE_S * 1000.0:g} ms")
    print(f"unscaled mean op time {raw_s / len(samples) * 1000.0:.1f} ms")
    print("op medians (scaled ms): " + ", ".join(
        f"{k} {statistics.median(v) * 1000.0:.1f}" for k, v in by_op.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    main()
