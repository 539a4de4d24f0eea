"""Command-line surface: inspect, normalize, zeros, section, builtin, rings.

Exit codes: 0 success, 2 parse/usage/input errors, 3 non-convergence,
4 violated preconditions. Identical flags (including the seed) give
byte-identical output files; POSMAP_SEED in the environment overrides
--seed everywhere.
"""

import argparse
import os
import sys

import numpy as np

from . import builtin as builtins_mod
from .bipartite import Witness, diagnostics
from .normalize import normalize
# plane_from_states is unused here but stays importable from posmap.cli:
# the benchmark tracer (bench/tracer.py) patches it under this module.
from .sections import (SECTION_TYPES, plane_from_states, project_point,
                       scan_boundary, section_of_type)
from .serialize import (FormatError, atomic_write, curves_to_csv,
                        diagnostics_to_json, normalization_to_json,
                        render_section_svg, rings_to_csv,
                        section_sidecar_to_json, witness_from_json,
                        witness_to_json, zeros_to_json)
from .zeros import find_zeros

__all__ = ["main"]

# The named builtin witnesses, built from the parsed --dim and --scale.
# Each constructor is looked up in posmap.builtin at call time, where the
# benchmark tracer (bench/tracer.py) patches it.
BUILTINS = {
    "choi-lam": lambda args: builtins_mod.choi_lam_witness(scale=args.scale),
    "horodecki-2x4": lambda args: builtins_mod.horodecki_2x4_witness(),
    "identity": lambda args: builtins_mod.identity_witness(args.dim),
    "transposition": lambda args: builtins_mod.transposition_witness(args.dim),
}


# =============================================================================
# Helpers
# =============================================================================

def _emit(text: str, output: str) -> None:
    if output:
        atomic_write(output, text)
    else:
        sys.stdout.write(text)


def _resolve_seed(seed: int) -> int:
    env = os.environ.get("POSMAP_SEED")
    if env is None:
        return seed
    try:
        value = int(env)
    except ValueError:
        raise FormatError(f"POSMAP_SEED must be an integer, got {env!r}")
    if value < 0:
        raise FormatError(f"POSMAP_SEED must be >= 0, got {value}")
    return value


def at_least(lo: int):
    """Argument type of an integer >= lo: counts (1), seeds (0) and
    factor dimensions (2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    parse.__name__ = "int"      # argparse names the type in "invalid int value"
    return parse


def _load_witness(args) -> Witness:
    if args.input:
        try:
            with open(args.input, "r") as handle:
                text = handle.read()
        except OSError as exc:
            raise FormatError(f"cannot read {args.input}: {exc}")
        return witness_from_json(text)
    return BUILTINS[args.builtin](args)


def _add_builtin_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=at_least(2), default=3,
                        help="dimension for identity/transposition (default 3)")
    parser.add_argument("--scale", choices=("map", "paper"), default="map",
                        help="choi-lam normalization (default map)")


def _add_witness_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="witness JSON file")
    group.add_argument("--builtin", choices=BUILTINS,
                       help="named builtin witness")
    _add_builtin_options(parser)


# =============================================================================
# Subcommands
# =============================================================================

def _cmd_inspect(args) -> int:
    W = _load_witness(args)
    sys.stdout.write(diagnostics_to_json(diagnostics(W)))
    return 0


def _cmd_normalize(args) -> int:
    W = _load_witness(args)
    result = normalize(W, max_iter=args.max_iter)
    _emit(normalization_to_json(result), args.output)
    if not result.converged:
        print(f"did not converge within {args.max_iter} iterations",
              file=sys.stderr)
        return 3
    return 0


def _cmd_zeros(args) -> int:
    W = _load_witness(args)
    seed = _resolve_seed(args.seed)
    zeros = find_zeros(W, starts=args.starts, seed=seed)
    _emit(zeros_to_json(zeros), args.output)
    return 0


def _cmd_section(args) -> int:
    W = _load_witness(args)
    seed = _resolve_seed(args.seed)
    plane = section_of_type(args.type, W, seed=seed)
    source = scan_boundary(*plane.source, n_theta=args.samples)
    image_plane = scan_boundary(*plane.image, n_theta=args.samples)

    a, b, c = plane.abc
    # a and b scale as 1/map, so a * b leaves the float range on a map of
    # scale 2^±600; with both factors brought to unit exponent it cannot,
    # and the powers of two leave the bits at normal scales as they were.
    ea, eb = np.frexp(a)[1], np.frexp(b)[1]
    markers = {
        "rho1_image": (1.0 / a, 0.0),
        "rho2_image": (np.ldexp(-c / (np.ldexp(a, -ea) * np.ldexp(b, -eb)), -ea - eb),
                       1.0 / b),
        "max_mixed_projection": project_point(
            plane, np.eye(W.n, dtype=complex) / W.n),
    }

    # Every output is formed before the first is written, so a failure
    # leaves none of them behind.
    outputs = [(args.output, curves_to_csv(source, image_plane)),
               (os.path.splitext(args.output)[0] + ".json",
                section_sidecar_to_json(args.type, plane, args.samples, seed,
                                        markers))]
    if args.svg:
        outputs.append((args.svg, render_section_svg(source, image_plane, markers)))
    for path, text in outputs:
        atomic_write(path, text)
    return 0


def _cmd_builtin(args) -> int:
    W = BUILTINS[args.name](args)
    _emit(witness_to_json(W), args.output)
    return 0


def _cmd_rings(args) -> int:
    try:
        params = builtins_mod.RingParams(a=args.a, b=args.b,
                                         theta0=args.theta0)
    except ValueError as exc:
        raise FormatError(str(exc))
    theta = np.linspace(0.0, 2.0 * np.pi, args.samples, endpoint=False)
    _emit(rings_to_csv(theta, builtins_mod.ring_points(theta, params)),
          args.output)
    return 0


# =============================================================================
# Parser and entry point
# =============================================================================

def build_parser() -> argparse.ArgumentParser:
    defaults = builtins_mod.RingParams()
    parser = argparse.ArgumentParser(
        prog="posmap",
        description="Entanglement witness and positive map toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="structural report of a witness")
    _add_witness_source(p)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("normalize",
                       help="transform to unital, trace preserving form")
    _add_witness_source(p)
    p.add_argument("--max-iter", type=at_least(1), default=200)
    p.add_argument("--output", help="result JSON path (default stdout)")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("zeros", help="locate and classify product zeros")
    _add_witness_source(p)
    p.add_argument("--starts", type=at_least(1), default=500)
    p.add_argument("--seed", type=at_least(0), default=42)
    p.add_argument("--output", help="zeros JSON path (default stdout)")
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("section", help="boundary curves of a 2D section")
    _add_witness_source(p)
    p.add_argument("--type", required=True, choices=SECTION_TYPES)
    p.add_argument("--samples", type=at_least(1), default=720)
    p.add_argument("--seed", type=at_least(0), default=42)
    p.add_argument("--output", required=True, help="curve CSV path")
    p.add_argument("--svg", help="optional SVG rendering path")
    p.set_defaults(func=_cmd_section)

    p = sub.add_parser("builtin", help="emit a builtin witness as JSON")
    p.add_argument("name", choices=BUILTINS)
    _add_builtin_options(p)
    p.add_argument("--output", help="witness JSON path (default stdout)")
    p.set_defaults(func=_cmd_builtin)

    p = sub.add_parser("rings", help="sample the 2x4 map's zero rings")
    p.add_argument("--samples", type=at_least(1), default=1000)
    p.add_argument("--a", type=float, default=defaults.a)
    p.add_argument("--b", type=float, default=defaults.b)
    p.add_argument("--theta0", type=float, default=defaults.theta0)
    p.add_argument("--output", help="ring CSV path (default stdout)")
    p.set_defaults(func=_cmd_rings)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
