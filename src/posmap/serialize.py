"""File formats: witness/zeros/normalization JSON, curve CSV, SVG plots.

All emitters are deterministic: floats are written with shortest
round-trip repr, JSON keys are sorted, and nothing time- or
id-dependent enters the output. Writes go through a temporary file in
the target directory followed by an atomic rename, so a failed run
leaves no partial output behind.
"""

import functools
import json
import os
import tempfile

import numpy as np

from .bipartite import Witness
from .normalize import NormalizationResult
from .sections import SectionPlane
from .zeros import ProductZero

__all__ = [
    "FormatError",
    "atomic_write",
    "hermitian_to_obj",
    "hermitian_from_obj",
    "witness_to_json",
    "witness_from_json",
    "zeros_to_json",
    "normalization_to_json",
    "diagnostics_to_json",
    "section_sidecar_to_json",
    "curves_to_csv",
    "rings_to_csv",
    "render_section_svg",
]


class FormatError(ValueError):
    """Malformed input file: structural JSON/CSV problems."""


def atomic_write(path: str, text: str) -> None:
    """Write text to path via a same-directory temp file and atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".posmap-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# =============================================================================
# Matrices and vectors
# =============================================================================

def hermitian_to_obj(X: np.ndarray) -> dict:
    """Row-major [re, im] entry list with the dimension."""
    X = np.asarray(X, dtype=complex)
    return {
        "dim": X.shape[0],
        "entries": [[float(z.real), float(z.imag)] for z in X.ravel()],
    }


def hermitian_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise FormatError("matrix object needs 'dim' and 'entries'")
    dim = obj["dim"]
    entries = obj["entries"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FormatError("matrix 'dim' must be a positive integer")
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise FormatError(f"matrix needs {dim * dim} entries, "
                          f"got {len(entries) if isinstance(entries, list) else 'non-list'}")
    flat = np.empty(dim * dim, dtype=complex)
    for i, pair in enumerate(entries):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           for v in pair)):
            raise FormatError(f"entry {i} is not a [re, im] number pair")
        try:
            flat[i] = complex(pair[0], pair[1])
        except OverflowError:   # an integer beyond the float range
            flat[i] = np.inf
    # json parses NaN and Infinity, which are no matrix entries.
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise FormatError(f"entry {bad[0]} is not finite: {flat[bad[0]]}")
    return flat.reshape(dim, dim)


# =============================================================================
# Witness files
# =============================================================================

def witness_to_json(W: Witness) -> str:
    return _dumps({"m": W.m, "n": W.n, "matrix": hermitian_to_obj(W.matrix)})


def witness_from_json(text: str) -> Witness:
    """Parse a witness JSON document.

    Structural problems raise FormatError; a well-formed document whose
    matrix violates the witness preconditions (non-Hermitian, wrong
    dimension product) propagates the constructor's ValueError.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError("witness document must be a JSON object")
    for key in ("m", "n", "matrix"):
        if key not in obj:
            raise FormatError(f"witness document missing '{key}'")
    m, n = obj["m"], obj["n"]
    if any(not isinstance(v, int) or isinstance(v, bool) for v in (m, n)):
        raise FormatError("'m' and 'n' must be integers")
    matrix = hermitian_from_obj(obj["matrix"])
    return Witness(m, n, matrix)


# =============================================================================
# Result documents
# =============================================================================

@functools.cache
def _zero_layout(m: int, n: int, dim: int) -> str:
    """The ``%``-layout of one zero object of a zeros document, as
    :func:`_dumps` indents it inside the list: ``%r`` for each float and
    ``%s`` for ``continuum`` and ``kind``, in sorted-key order (chi pairs,
    continuum, the dim spectrum values, kind, phi pairs, value)."""
    pair = ["%r", "%r"]
    template = {"chi": [pair] * n, "continuum": "%s",
                "hessian_spectrum": ["%r"] * dim, "kind": "%s",
                "phi": [pair] * m, "value": "%r"}
    text = json.dumps([template], indent=2, sort_keys=True)
    return text[2:-2].replace('"%r"', "%r").replace('"%s"', "%s")


def zeros_to_json(zeros: list[ProductZero]) -> str:
    """The zeros document, bytes as :func:`_dumps` of the list of zero
    objects writes them.

    The floats of all zeros are stacked into one array and converted
    once; each zero then fills the layout of :func:`_zero_layout`, whose
    ``%r`` is the shortest round-trip repr that json writes.

    :raises ValueError: if the zeros differ in their vector or spectrum
        lengths, or if an entry is not finite: json would write NaN or
        Infinity, which :func:`hermitian_from_obj` refuses.
    """
    if not zeros:
        return _dumps([])
    try:
        phi = np.array([z.phi for z in zeros], dtype=complex)
        chi = np.array([z.chi for z in zeros], dtype=complex)
        spectra = np.array([z.hessian_spectrum for z in zeros], dtype=float)
    except ValueError as exc:
        raise ValueError(f"zeros of one document must share their shapes: {exc}") from exc
    m, n, dim = phi.shape[1], chi.shape[1], spectra.shape[1]
    values = np.array([z.value for z in zeros], dtype=float)[:, None]
    # Sorted-key order; a complex row read as floats is its [re, im] pairs.
    floats = np.concatenate([chi.view(float), spectra, phi.view(float), values], axis=1)
    bad = np.flatnonzero(~np.isfinite(floats).all(axis=1))
    if bad.size:
        raise ValueError(f"zero {bad[0]} has an entry that is not finite")
    layout = _zero_layout(m, n, dim)
    kinds = {kind: json.dumps(kind) for kind in {z.kind for z in zeros}}
    cut = 2 * n
    mid = cut + dim
    items = [layout % (*row[:cut], "true" if z.continuum else "false",
                       *row[cut:mid], kinds[z.kind], *row[mid:])
             for z, row in zip(zeros, floats.tolist())]
    return "[\n" + ",\n".join(items) + "\n]\n"


def normalization_to_json(result: NormalizationResult) -> str:
    return _dumps({
        "witness": {"m": result.witness.m, "n": result.witness.n,
                    "matrix": hermitian_to_obj(result.witness.matrix)},
        "U": hermitian_to_obj(result.U),
        "V": hermitian_to_obj(result.V),
        "X": hermitian_to_obj(result.X),
        "Y": hermitian_to_obj(result.Y),
        "iterations": result.iterations,
        "converged": result.converged,
        "history": [float(v) for v in result.history],
    })


def diagnostics_to_json(report: dict) -> str:
    obj = dict(report)
    obj["partial_trace_1"] = hermitian_to_obj(report["partial_trace_1"])
    obj["partial_trace_2"] = hermitian_to_obj(report["partial_trace_2"])
    return _dumps(obj)


def section_sidecar_to_json(section_type: str, plane: SectionPlane,
                            samples: int, seed: int, markers: dict) -> str:
    """The sidecar of a section's curve CSV: how the plane was built.

    :param markers: {name: (x, y) or None} plane coordinates.
    """
    return _dumps({
        "type": section_type,
        "abc": [float(v) for v in plane.abc],
        "samples": samples,
        "seed": seed,
        "markers": {k: (None if v is None else [float(v[0]), float(v[1])])
                    for k, v in markers.items()},
        "rho0": hermitian_to_obj(plane.rho0),
    })


# =============================================================================
# CSV
# =============================================================================

def curves_to_csv(curves) -> str:
    """`theta,r,label` rows, one per sample per curve, radians."""
    lines = ["theta,r,label"]
    for curve in curves:
        for theta, r in zip(curve.theta, curve.r):
            lines.append(f"{float(theta)!r},{float(r)!r},{curve.label}")
    return "\n".join(lines) + "\n"


def rings_to_csv(theta: np.ndarray, points_plus: np.ndarray,
                 points_minus: np.ndarray) -> str:
    """`theta,branch,x,y,z` rows for both solution branches."""
    lines = ["theta,branch,x,y,z"]
    for branch, pts in ((1, points_plus), (-1, points_minus)):
        for t, p in zip(theta, pts):
            lines.append(f"{float(t)!r},{branch},"
                         f"{float(p[0])!r},{float(p[1])!r},{float(p[2])!r}")
    return "\n".join(lines) + "\n"


# =============================================================================
# SVG rendering
# =============================================================================

SVG_SIZE = 640
SVG_PAD = 50


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_section_svg(curves, markers: dict = None) -> str:
    """Standalone SVG of section boundary curves with marker crosses.

    The image-plane curve is drawn solid, image-of-source (and source)
    curves dashed, markers as crosses. Axis ticks every 0.25 units.
    The CSV is the content contract; this is a convenience view.

    :param curves: BoundaryCurve sequence.
    :param markers: optional {name: (x, y) or None} points.
    :return: SVG document text.
    """
    markers = markers or {}
    pts = [c.xy() for c in curves]
    allp = np.vstack([p for p in pts if len(p)] or [np.zeros((1, 2))])
    marked = [xy for xy in markers.values() if xy is not None]
    if marked:
        allp = np.vstack([allp, np.asarray(marked, dtype=float)])
    lo = allp.min(axis=0)
    hi = allp.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    scale = (SVG_SIZE - 2 * SVG_PAD) / span
    cx = 0.5 * (lo[0] + hi[0])
    cy = 0.5 * (lo[1] + hi[1])

    def to_px(x, y):
        return (SVG_SIZE / 2 + (x - cx) * scale,
                SVG_SIZE / 2 - (y - cy) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]

    # Axes through the plane origin with ticks every 0.25 units.
    ox, oy = to_px(0.0, 0.0)
    parts.append('<g stroke="#999" stroke-width="1">')
    parts.append(f'<line x1="0" y1="{_fmt(oy)}" x2="{SVG_SIZE}" y2="{_fmt(oy)}"/>')
    parts.append(f'<line x1="{_fmt(ox)}" y1="0" x2="{_fmt(ox)}" y2="{SVG_SIZE}"/>')
    tick = 0.25
    nt = int(span / tick) + 2
    for i in range(-nt, nt + 1):
        tx, _ = to_px(i * tick, 0.0)
        _, ty = to_px(0.0, i * tick)
        if 0 <= tx <= SVG_SIZE:
            parts.append(f'<line x1="{_fmt(tx)}" y1="{_fmt(oy - 4)}" '
                         f'x2="{_fmt(tx)}" y2="{_fmt(oy + 4)}"/>')
        if 0 <= ty <= SVG_SIZE:
            parts.append(f'<line x1="{_fmt(ox - 4)}" y1="{_fmt(ty)}" '
                         f'x2="{_fmt(ox + 4)}" y2="{_fmt(ty)}"/>')
    parts.append('</g>')

    for curve, xy in zip(curves, pts):
        if not len(xy):
            continue
        points = " ".join(f"{_fmt(px)},{_fmt(py)}"
                          for px, py in (to_px(x, y) for x, y in xy))
        dash = '' if curve.label == "image_plane" else ' stroke-dasharray="7 5"'
        parts.append(f'<polygon points="{points}" fill="none" '
                     f'stroke="black" stroke-width="1.5"{dash}/>')

    for name in sorted(markers):
        xy = markers[name]
        if xy is None:
            continue
        px, py = to_px(xy[0], xy[1])
        parts.append(f'<g stroke="#c00" stroke-width="1.5">'
                     f'<line x1="{_fmt(px - 6)}" y1="{_fmt(py)}" '
                     f'x2="{_fmt(px + 6)}" y2="{_fmt(py)}"/>'
                     f'<line x1="{_fmt(px)}" y1="{_fmt(py - 6)}" '
                     f'x2="{_fmt(px)}" y2="{_fmt(py + 6)}"/></g>')
        parts.append(f'<text x="{_fmt(px + 8)}" y="{_fmt(py - 4)}" '
                     f'font-family="sans-serif" font-size="12" '
                     f'fill="#c00">{name}</text>')

    parts.append('</svg>')
    return "\n".join(parts) + "\n"
