"""posmap benchmark: replays CLI jobs in process and checks their outputs.

Run from the repository root:

    python3 bench/run.py --workload zeros-choi-lam --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

The load is one closed-loop client in one process and one thread: the
next job starts only when ``posmap.cli.main(argv)`` has returned. BLAS
is pinned to one thread before numpy is imported. Inputs are generated
from ``--seed``; the CLI receives only the generated files and flags.

``--trace 0`` prints the end-to-end metrics, with times scaled to a
nominal host speed measured by a reference kernel (see HostClock).
``--trace 1`` runs the same jobs untraced, then traced, and prints the
per-layer metrics; the count set is traced twice and its counts must
repeat exactly. Each job's output is checked outside its timed span.
The last line of standard output is the result object; the line before
it is a report with the environment, raw times, sample counts, the
output digest keyed by seed and the tracing overhead, also written to
``.bench_out/``.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# The CLI lets POSMAP_SEED override --seed; jobs must see their own seeds.
os.environ.pop("POSMAP_SEED", None)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# Reference kernel size and its nominal duration. The nominal duration
# only sets the scale of the normalized times: it is close to the
# kernel's fastest duration on a 2-core x86-64 VM (Python 3.11,
# numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread).
REF_ITERATIONS = 5000
REF_NOMINAL_S = 0.08
CALIBRATE_EVERY_S = 1.0


def _import_posmap():
    """Import posmap from this checkout's src/, never from elsewhere."""
    if not (SRC / "posmap" / "__init__.py").is_file():
        sys.exit(f"error: no posmap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import posmap
    if Path(posmap.__file__).resolve().parent != SRC / "posmap":
        sys.exit(f"error: imported posmap from {posmap.__file__}")


_import_posmap()

import numpy as np  # noqa: E402  (after the BLAS thread pinning)

from posmap import cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

# Per-layer metric -> (unit, the end-to-end metric and workloads it should move).
LAYER_METRICS = {
    "cli.self_ms": ("ms", "job_p50_ms on normalize-cli"),
    "serialize.read_ms": ("ms", "job_p50_ms on normalize-cli, sections-cli"),
    "serialize.encode_ms": ("ms", "job_p50_ms on normalize-cli, sections-cli"),
    "serialize.write_ms": ("ms", "job_p50_ms on normalize-cli, sections-cli"),
    "serialize.bytes_written": ("B", "job_p50_ms on normalize-cli, sections-cli"),
    "zeros.alternate_s": ("s", "job_p50_ms, jobs_per_s on both zeros workloads"),
    "zeros.refine_s": ("s", "job_p50_ms, jobs_per_s on both zeros workloads"),
    "zeros.classify_s": ("s", "job_p50_ms, jobs_per_s on zeros-choi-lam"),
    "zeros.merge_s": ("s", "job_p50_ms, jobs_per_s on zeros-choi-lam"),
    "zeros.sweeps_per_start": ("count", "job_p50_ms on both zeros workloads"),
    "zeros.refine_evals_per_start": ("count", "job_p50_ms on both zeros workloads"),
    "zeros.refine_budget_hits": ("count", "job_p50_ms on both zeros workloads"),
    "zeros.form_evals_per_zero": ("count", "job_p50_ms on zeros-choi-lam"),
    "zeros.us_per_sweep": ("us", "job_p50_ms on both zeros workloads"),
    "zeros.accepted": ("count", "explains zeros-choi-lam vs zeros-interior"),
    "zeros.accept_ratio": ("ratio", "explains zeros-choi-lam vs zeros-interior"),
    "zeros.distinct": ("count", "explains zeros-choi-lam vs zeros-interior"),
    "zeros.merged": ("count", "explains zeros-choi-lam vs zeros-interior"),
    "zeros.continuum": ("count", "explains zeros-choi-lam vs zeros-interior"),
    "zeros.quartic": ("count", "explains zeros-choi-lam vs zeros-interior"),
    "zeros.quadratic": ("count", "explains zeros-choi-lam vs zeros-interior"),
    "bipartite.apply_map.calls": ("count", "job_p50_ms on zeros workloads, normalize-cli"),
    "bipartite.apply_map.us_per_call": ("us", "job_p50_ms on zeros workloads, normalize-cli"),
    "bipartite.apply_transposed_map.calls": ("count", "job_p50_ms on zeros workloads, normalize-cli"),
    "bipartite.apply_transposed_map.us_per_call": ("us", "job_p50_ms on zeros workloads, normalize-cli"),
    "bipartite.biquadratic_form.calls": ("count", "job_p50_ms on zeros workloads"),
    "bipartite.biquadratic_form.us_per_call": ("us", "job_p50_ms on zeros workloads"),
    "hermitian.inv_pd.calls": ("count", "job_p50_ms on normalize-cli"),
    "hermitian.inv_pd.us_per_call": ("us", "job_p50_ms on normalize-cli"),
    "hermitian.sqrt_psd.calls": ("count", "job_p50_ms on normalize-cli"),
    "normalize.normalize_ms": ("ms", "job_p50_ms, jobs_per_s on normalize-cli"),
    "normalize.iterations": ("count", "job_p50_ms, jobs_per_s on normalize-cli"),
    "normalize.us_per_iteration": ("us", "job_p50_ms, jobs_per_s on normalize-cli"),
    "normalize.converged_frac": ("ratio", "job_p50_ms, jobs_per_s on normalize-cli"),
    "sections.scan_ms": ("ms", "job_p50_ms, jobs_per_s on sections-cli"),
    "sections.rays": ("count", "job_p50_ms, jobs_per_s on sections-cli"),
    "sections.us_per_ray": ("us", "job_p50_ms, jobs_per_s on sections-cli"),
    "sections.plane_ms": ("ms", "job_p50_ms, jobs_per_s on sections-cli"),
    "builtin.witness_ms": ("ms", "stays flat on every workload"),
    "trace.overhead_pct": ("%", "none: traced vs untraced jobs_per_s"),
}


# =============================================================================
# Environment and digests
# =============================================================================

def _git_commit():
    """HEAD of a git checkout at ROOT, read from .git only; None elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    source = hashlib.sha256()
    for path in sorted((SRC / "posmap").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def _digest_update(digest, job):
    for path in job.outputs:
        digest.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())


# =============================================================================
# Jobs and the closed loop
# =============================================================================

def run_job(job, call):
    """Run one job; return (latency in seconds, failure message or None)."""
    t0 = time.perf_counter()
    try:
        rc = call(list(job.argv))
    except (Exception, SystemExit) as exc:  # a job that raises is a failure
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if rc != 0:
        return latency, f"exit code {rc}"
    try:
        job.check()
    except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
        return latency, f"check failed: {exc}"
    return latency, None


class HostClock:
    """Host speed, from a fixed reference kernel timed between jobs.

    On a shared host (measured on a 2-core x86-64 VM) the same job runs
    up to ~1.5x slower for tens of seconds at a time. The reference
    kernel is benchmark-owned numpy work of the program's kind (a 4-index
    contraction and a 3x3 Hermitian eigensolve), so its duration tracks
    that slowdown and no change to posmap can move it. A run's times are
    scaled by REF_NOMINAL_S over the median reference duration of the
    run: its times at the nominal host speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        self._X = G @ G.conj().T
        self._T = (rng.standard_normal((3, 3, 3, 3))
                   + 1j * rng.standard_normal((3, 3, 3, 3)))
        self.durations = []
        self.last = None

    def measure(self):
        t0 = time.perf_counter()
        for _ in range(REF_ITERATIONS):
            np.linalg.eigh(np.einsum("ijkl,ki->jl", self._T, self._X))
        self.last = time.perf_counter()
        self.durations.append(self.last - t0)

    def factor(self):
        return REF_NOMINAL_S / statistics.median(self.durations)


class Phase:
    """Latencies and failures of one closed-loop phase."""

    def __init__(self, clock):
        self.clock = clock
        self.latencies = []
        self.failures = []

    def replay(self, jobs, count, budget_s, call, digest=None, first=0):
        """Run at least ``count`` jobs, then more until ``budget_s`` is spent.

        Jobs ``first .. first + count - 1`` feed ``digest`` when given.
        The reference kernel runs first and after every job that ends
        CALIBRATE_EVERY_S or more after its last run.
        """
        start = time.perf_counter()
        self.clock.measure()
        k = first
        while k < first + count or time.perf_counter() - start < budget_s:
            job = jobs[k % len(jobs)]
            latency, failure = run_job(job, call)
            self.latencies.append(latency)
            if failure is not None:
                self.failures.append(f"job {k} {' '.join(job.argv)}: {failure}")
            elif digest is not None and k < first + count:
                _digest_update(digest, job)
            k += 1
            if time.perf_counter() - self.clock.last >= CALIBRATE_EVERY_S:
                self.clock.measure()

    def end_to_end(self, scale=1.0):
        """jobs_per_s and the latency percentiles, times multiplied by scale."""
        xs = sorted(t * scale for t in self.latencies)
        if len(xs) == 1:
            p50 = p90 = xs[0]
        else:
            q = statistics.quantiles(xs, n=10, method="inclusive")
            p50, p90 = q[4], q[8]
        return {"jobs_per_s": len(xs) / sum(xs),
                "job_p50_ms": p50 * 1e3, "job_p90_ms": p90 * 1e3}


def prepare(workload, seed, toy, work):
    """Generate and write the inputs, then run the warm-up job."""
    work.mkdir(parents=True, exist_ok=True)
    jobs, warmup = workload.build(work, np.random.default_rng(seed), toy)
    _, failure = run_job(warmup, cli.main)
    if failure is not None:
        raise RuntimeError(f"warm-up job failed: {failure}")
    return jobs


def measure_setup(name, seed, toy, clock):
    """Wall times of fresh processes that import posmap, write the inputs
    and run the warm-up job, each from process start to exit."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", name, "--seed", str(seed)] + (["--smoke"] if toy else [])
    clock.measure()
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    clock.measure()
    return samples


# =============================================================================
# Metrics
# =============================================================================

def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, first, cycle):
    """Per-layer metrics: times per traced job, counts per count-set job."""
    jobs = tracer.counts["jobs"]
    busy = tracer.self_seconds
    ksec = tracer.kernel_seconds
    total = tracer.counts
    starts = first["zeros.starts"]

    def per_job_ms(span):
        return busy[span] / jobs * 1e3

    def per_set(key):
        return first[key] / cycle

    m = {
        "cli.self_ms": per_job_ms("cli"),
        "serialize.read_ms": per_job_ms("serialize.read"),
        "serialize.encode_ms": per_job_ms("serialize.encode"),
        "serialize.write_ms": per_job_ms("serialize.write"),
        "serialize.bytes_written": per_set("serialize.bytes_written"),
        "zeros.alternate_s": busy["zeros.alternate"] / jobs,
        "zeros.refine_s": busy["zeros.refine"] / jobs,
        "zeros.classify_s": busy["zeros.classify"] / jobs,
        "zeros.merge_s": busy["zeros.find"] / jobs,
        "zeros.sweeps_per_start": _ratio(
            first["bipartite.apply_transposed_map@zeros.alternate"], starts),
        "zeros.refine_evals_per_start": _ratio(
            first["bipartite.apply_map@zeros.refine"], starts),
        "zeros.refine_budget_hits": per_set("zeros.refine_budget_hits"),
        "zeros.form_evals_per_zero": _ratio(
            first["bipartite.biquadratic_form@zeros.classify"],
            first["spans.zeros.classify"]),
        "zeros.us_per_sweep": _ratio(
            busy["zeros.alternate"] * 1e6,
            total["bipartite.apply_transposed_map@zeros.alternate"]),
        "zeros.accepted": per_set("zeros.accepted"),
        "zeros.accept_ratio": _ratio(first["zeros.accepted"], starts),
        "zeros.distinct": per_set("zeros.distinct"),
        "zeros.merged": (first["zeros.accepted"] - first["zeros.distinct"]) / cycle,
        "zeros.continuum": per_set("zeros.continuum"),
        "zeros.quartic": per_set("zeros.quartic"),
        "zeros.quadratic": per_set("zeros.quadratic"),
    }
    for kernel in ("bipartite.apply_map", "bipartite.apply_transposed_map",
                   "bipartite.biquadratic_form", "hermitian.inv_pd"):
        m[f"{kernel}.calls"] = per_set(f"{kernel}.calls")
        m[f"{kernel}.us_per_call"] = _ratio(ksec[kernel] * 1e6,
                                           total[f"{kernel}.calls"])
    m["hermitian.sqrt_psd.calls"] = per_set("hermitian.sqrt_psd.calls")
    normalizations = first["spans.normalize.normalize"]
    m.update({
        "normalize.normalize_ms": per_job_ms("normalize.normalize"),
        "normalize.iterations": _ratio(first["normalize.iterations"], normalizations),
        "normalize.us_per_iteration": _ratio(busy["normalize.normalize"] * 1e6,
                                             total["normalize.iterations"]),
        "normalize.converged_frac": _ratio(first["normalize.converged"], normalizations),
        "sections.scan_ms": per_job_ms("sections.scan"),
        "sections.rays": per_set("sections.rays"),
        "sections.us_per_ray": _ratio(busy["sections.scan"] * 1e6, total["sections.rays"]),
        "sections.plane_ms": per_job_ms("sections.plane"),
        "builtin.witness_ms": per_job_ms("builtin.witness"),
    })
    return m


# =============================================================================
# A run
# =============================================================================

def run(name, seed, seconds, trace, toy=False):
    """One benchmark run; returns (result object, report)."""
    workload = WORKLOADS[name]
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "toy": toy, "env": environment(seed)}
    clock = HostClock()
    if not trace:
        report["setup_samples_s"] = measure_setup(name, seed, toy, clock)
    work = OUT / f"work-{name}-s{seed}-p{os.getpid()}"
    try:
        jobs = prepare(workload, seed, toy, work)
        digest = hashlib.sha256()
        untraced = Phase(clock)
        budget = seconds / 2 if trace else seconds
        untraced.replay(jobs, workload.cycle, budget, cli.main, digest)
        phases = [untraced]
        if trace:
            traced = Phase(clock)
            phases.append(traced)
            traced_digest = hashlib.sha256()
            with Tracer() as tracer:
                call = lambda argv: tracer.job(cli.main, argv)
                traced.replay(jobs, workload.cycle, 0.0, call, traced_digest)
                first = Counter(tracer.counts)
                traced.replay(jobs, workload.cycle, 0.0, call)
                again = tracer.counts - first
                # The rest of the budget: more traced jobs for the timings.
                traced.replay(jobs, 0, budget - sum(traced.latencies), call,
                              first=2 * workload.cycle)
            repeat_ok = again == first
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for p in phases for f in p.failures]
    attempted = sum(len(p.latencies) for p in phases)
    report.update({
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:10],
        "job_samples": len(untraced.latencies),
        # job_p90_ms is not a metric: a zeros run holds 2-6 jobs, too few
        # for ten samples beyond p90.
        "normalized": untraced.end_to_end(clock.factor()),
        "raw": untraced.end_to_end(),
        "host_factor": clock.factor(),
        "reference_s": clock.durations,
        "output_sha256": {str(seed): digest.hexdigest()},
    })
    correct = not failures
    if trace:
        metrics = layer_metrics(tracer, first, workload.cycle)
        untraced_rate = untraced.end_to_end()["jobs_per_s"]
        traced_rate = traced.end_to_end()["jobs_per_s"]
        metrics["trace.overhead_pct"] = (untraced_rate / traced_rate - 1.0) * 100.0
        report.update({
            "traced_jobs_per_s": traced.end_to_end(clock.factor())["jobs_per_s"],
            "traced_job_samples": len(traced.latencies),
            "tracing_overhead_pct": metrics["trace.overhead_pct"],
            "counts_repeat": repeat_ok,
            "traced_outputs_match": traced_digest.digest() == digest.digest(),
            "counts": dict(sorted(first.items())),
        })
        correct = correct and repeat_ok and report["traced_outputs_match"]
        units = {k: u for k, (u, _) in LAYER_METRICS.items()}
        tracer.write_spans(OUT / f"spans-{name}-s{seed}.jsonl")
    else:
        normalized = report["normalized"]
        metrics = {
            "setup_s": statistics.median(report["setup_samples_s"]) * clock.factor(),
            "jobs_per_s": normalized["jobs_per_s"],
            "job_p50_ms": normalized["job_p50_ms"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
                 "peak_rss_mb": "MB"}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(OUT / f"report-{name}-s{seed}-trace{trace}.json", "w") as handle:
        json.dump(report, handle, indent=2)
    return result, report


# =============================================================================
# Smoke mode: every workload at toy size, both levels
# =============================================================================

def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/workloads.py")
    for name in WORKLOADS:
        digests = []
        for trace, level in ((0, "end_to_end"), (1, "per_layer")):
            result, report = run(name, 1, 0.5, trace, toy=True)
            expected = {m["name"]: m["unit"] for m in spec[level]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{name} trace {trace}: metrics {got} != {expected}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: {report['failures']}")
            digests.append(report["output_sha256"])
            print(f"smoke {name} trace {trace}: {result['attempted']} jobs, "
                  f"correct={result['correct']}", flush=True)
        if digests[0] != digests[1]:
            problems.append(f"{name}: tracing changed the outputs")
    for problem in problems:
        print(f"smoke FAILED: {problem}")
    print("smoke: ok" if not problems else "smoke: failed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at toy size; checks the metric set")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke and not args.setup_only:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.setup_only:
        work = OUT / f"setup-{args.workload}-p{os.getpid()}"
        try:
            prepare(WORKLOADS[args.workload], args.seed, args.smoke, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    result, report = run(args.workload, args.seed, args.seconds, args.trace)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
