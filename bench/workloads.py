"""The benchmark's workloads: generated inputs, CLI jobs and output checks.

Each workload turns the workload seed into a list of CLI jobs. Set-up
writes the generated input files into a work directory; a job is the
argv that ``posmap.cli.main`` receives plus a check that reads the
job's output files after it returns. Jobs are replayed in order and
wrap around, so job k of a run is the same for every run with the same
seed. The first ``cycle`` jobs form the count set, whose counts and
output digest are compared across runs.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from posmap.bipartite import Witness, diagnostics, tensor
from posmap.builtin import horodecki_2x4_witness
from posmap.normalize import normalize
from posmap.serialize import witness_from_json, witness_to_json

__all__ = ["WORKLOADS", "Job", "CheckFailed"]

FULL_STARTS = 500   # CLI default and the acceptance size
TOY_STARTS = 5
FULL_SAMPLES = 720
TOY_SAMPLES = 24
ZERO_TOL = 1e-9
RESIDUAL_TOL = 1e-9
BUILTIN_SECTION_TYPES = ("A", "B", "C", "D", "E", "F", "diag", "tangent")
INPUT_SECTION_TYPES = ("A", "B", "C", "D", "E", "F")
# Zeros jobs take seconds, so a run holds a few; the pool is longer than
# any run, and wraps around if a run outlasts it.
ZEROS_POOL = 16
# The short jobs differ in cost by input and type, so their latency
# percentiles depend on the mix: a cycle of many distinct inputs keeps
# the percentiles of one seed close to those of another.
NORMALIZE_TRIPLES = 12      # 24 interior 3x3 + 12 interior 2x4 witnesses
SECTION_ROUNDS = 4          # every section type 4 times, fresh seeds and witnesses


class CheckFailed(Exception):
    """A job's output is wrong."""


@dataclass(frozen=True)
class Job:
    argv: tuple
    outputs: tuple            # files the check reads and the digest hashes
    check: Callable[[], None] = field(repr=False)


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int                # jobs in the count set
    build: Callable = field(repr=False)


def _seeds(rng, count):
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _interior_witness(rng, m, n):
    """lam * I/(mn) + (1 - lam) * A_cp, as in acceptance criterion 3.

    A_cp is a trace-one sum of four tensor products of random PSD
    factors, so it is PSD with PSD partial transpose; f >= lam/(mn) > 0.
    """
    N = m * n
    A = np.zeros((N, N), dtype=complex)
    for _ in range(4):
        B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A += tensor(B @ B.conj().T, C @ C.conj().T)
    A /= np.trace(A).real
    lam = rng.uniform(0.05, 0.9)
    return Witness(m, n, lam * np.eye(N) / N + (1 - lam) * A)


def _write(path, text):
    with open(path, "w") as handle:
        handle.write(text)
    return str(path)


# =============================================================================
# Output checks
# =============================================================================

def _vector(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def _check_choi_lam(path, full):
    """Criterion 7 on the CLI output; the size-dependent part at full size."""
    with open(path) as handle:
        zeros = json.load(handle)
    if not zeros:
        raise CheckFailed("no zeros found")
    for z in zeros:
        if not abs(z["value"]) <= ZERO_TOL:
            raise CheckFailed(f"|value| {z['value']:.3e} exceeds {ZERO_TOL}")
        if z["kind"] != "quartic":
            raise CheckFailed(f"zero classified {z['kind']!r}, not quartic")
    if not full:
        return
    e = np.eye(3)
    for i, j in ((0, 2), (1, 0), (2, 1)):
        hits = [z for z in zeros if not z["continuum"]
                and abs(np.vdot(_vector(z["phi"]), e[i])) > 1 - 1e-6
                and abs(np.vdot(_vector(z["chi"]), e[j])) > 1 - 1e-6]
        if len(hits) != 1:
            raise CheckFailed(f"isolated zero (e{i}, e{j}) found {len(hits)} times")
    continuum = sum(bool(z["continuum"]) for z in zeros)
    if continuum < 10:
        raise CheckFailed(f"only {continuum} continuum zeros")


def _check_no_zeros(path):
    with open(path) as handle:
        if json.load(handle) != []:
            raise CheckFailed("interior witness reported zeros")


def _check_normalized(path):
    with open(path) as handle:
        result = json.load(handle)
    if result["converged"] is not True:
        raise CheckFailed("normalization did not converge")
    W = witness_from_json(json.dumps(result["witness"]))
    report = diagnostics(W)
    for key in ("unitality_residual", "trace_preservation_residual"):
        if not report[key] <= RESIDUAL_TOL:
            raise CheckFailed(f"{key} {report[key]:.3e} exceeds {RESIDUAL_TOL}")


def _check_section(csv_path, sidecar_path, svg_path, samples):
    with open(csv_path) as handle:
        lines = handle.read().splitlines()
    if lines[0] != "theta,r,label":
        raise CheckFailed(f"unexpected CSV header {lines[0]!r}")
    labels = {"source": 0, "image_of_source": 0, "image_plane": 0}
    for line in lines[1:]:
        _, r, label = line.split(",")
        if label not in labels:
            raise CheckFailed(f"unexpected curve label {label!r}")
        labels[label] += 1
        r = float(r)
        if not (math.isfinite(r) and r > 0):
            raise CheckFailed(f"radius {r!r} is not finite and positive")
    if set(labels.values()) != {samples}:
        raise CheckFailed(f"rows per curve {labels}, expected {samples} each")
    with open(sidecar_path) as handle:
        json.load(handle)
    with open(svg_path) as handle:
        if "<svg" not in handle.read():
            raise CheckFailed("SVG output has no <svg> element")


# =============================================================================
# Job builders: (work directory, seed rng, toy) -> (jobs, warm-up job)
# =============================================================================

def _zeros_job(source, seed, starts, out, check):
    argv = ("zeros", *source, "--starts", str(starts), "--seed", str(seed),
            "--output", out)
    return Job(argv, (out,), check)


def _build_zeros_choi_lam(work, rng, toy):
    starts = TOY_STARTS if toy else FULL_STARTS
    out = str(work / "zeros.json")
    source = ("--builtin", "choi-lam")
    jobs = [_zeros_job(source, s, starts, out,
                       lambda: _check_choi_lam(out, starts == FULL_STARTS))
            for s in _seeds(rng, ZEROS_POOL)]
    warmup = _zeros_job(source, 0, TOY_STARTS, out,
                        lambda: _check_choi_lam(out, False))
    return jobs, warmup


def _build_zeros_interior(work, rng, toy):
    starts = TOY_STARTS if toy else FULL_STARTS
    out = str(work / "zeros.json")
    check = lambda: _check_no_zeros(out)
    jobs = []
    for k, s in enumerate(_seeds(rng, ZEROS_POOL)):
        path = _write(work / f"w{k}.json",
                      witness_to_json(_interior_witness(rng, 3, 3)))
        jobs.append(_zeros_job(("--input", path), s, starts, out, check))
    warmup = _zeros_job(jobs[0].argv[1:3], 0, TOY_STARTS, out, check)
    return jobs, warmup


def _build_normalize(work, rng, toy):
    out = str(work / "normalized.json")
    check = lambda: _check_normalized(out)
    witnesses = [_interior_witness(rng, *shape)
                 for _ in range(NORMALIZE_TRIPLES)
                 for shape in ((3, 3), (3, 3), (2, 4))]
    witnesses.append(horodecki_2x4_witness())
    jobs = []
    for k, W in enumerate(witnesses):
        path = _write(work / f"w{k}.json", witness_to_json(W))
        jobs.append(Job(("normalize", "--input", path, "--output", out),
                        (out,), check))
    return jobs, jobs[0]


def _build_sections(work, rng, toy):
    samples = TOY_SAMPLES if toy else FULL_SAMPLES
    csv, sidecar, svg = (str(work / f"section.{ext}")
                         for ext in ("csv", "json", "svg"))
    check = lambda: _check_section(csv, sidecar, svg, samples)
    sources, kinds = [], []
    for _ in range(SECTION_ROUNDS):
        sources += [("--builtin", "choi-lam")] * len(BUILTIN_SECTION_TYPES)
        kinds += BUILTIN_SECTION_TYPES
        for kind in INPUT_SECTION_TYPES:
            # Section images need a trace-preserving map: normalize first.
            W = normalize(_interior_witness(rng, 3, 3)).witness
            path = _write(work / f"n{len(kinds)}.json", witness_to_json(W))
            sources.append(("--input", path))
            kinds.append(kind)
    jobs = [Job(("section", *src, "--type", kind, "--samples", str(samples),
                 "--seed", str(s), "--output", csv, "--svg", svg),
                (csv, sidecar, svg), check)
            for src, kind, s in zip(sources, kinds, _seeds(rng, len(kinds)))]
    return jobs, jobs[0]


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("zeros-choi-lam", 1, _build_zeros_choi_lam),
    Workload("zeros-interior", 1, _build_zeros_interior),
    Workload("normalize-cli", 3 * NORMALIZE_TRIPLES + 1, _build_normalize),
    Workload("sections-cli",
             SECTION_ROUNDS * (len(BUILTIN_SECTION_TYPES) + len(INPUT_SECTION_TYPES)),
             _build_sections),
)}
