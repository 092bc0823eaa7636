"""Command-line frontend: analyze systems, sample attainable sets, trace
planar return maps, and emit the built-in corpus.

All outputs are deterministic for a fixed configuration (including the seed):
reports carry no timestamps and floats are rendered with repr.  Exit codes:
0 success, 1 invalid input, 2 analysis undetermined, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import _PRESCAN, AnalysisBudgets, Verdict, decide_controllability
from .foliation import FoliationError, arc_family, orbit_tangent_distribution, \
    radial_graph_distribution, sphere_distribution
from .matlie import DEFAULT_TOL
from .model import BUILTIN_NAMES, SystemSpec, builtin_corpus, parse_system, \
    serialize_system
from .reach import CoverageGrid, _attainable_blocks, _bin_blocks

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNDETERMINED = 2
EXIT_NUMERICAL = 3

FOLIATION_EXAMPLES = ("sphere", "radial_graph_h03")


def tolerance(text: str) -> float:
    """A relative tolerance: a number strictly between 0 and 1."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text!r}")
    return value


def fraction(text: str) -> float:
    """A fraction of a whole: a number in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {text!r}")
    return value


def at_least(low: int):
    """The type of an integer flag whose least valid value is low, so that
    argparse names the flag in its range error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text!r}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilinctrl",
        description="Controllability analysis of bilinear and homogeneous "
                    "control systems on R^n minus the origin.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # small parents, each shared only by the subcommands that read its flags
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=at_least(0), default=0)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=str, default=None)
    cover = argparse.ArgumentParser(add_help=False)  # sampling and coverage grid
    cover.add_argument("--budget", type=at_least(1),
                       default=AnalysisBudgets.reach_budget)
    cover.add_argument("--grid", type=at_least(1),
                       default=AnalysisBudgets.angular_cells,
                       help="number of angular cells "
                            f"(default {AnalysisBudgets.angular_cells})")
    cover.add_argument("--radial-bins", type=at_least(1),
                       default=AnalysisBudgets.radial_bins)
    cover.add_argument("--projective", action="store_true",
                       help="measure coverage on the antipodal quotient")

    source = argparse.ArgumentParser(add_help=False)
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=BUILTIN_NAMES)
    group.add_argument("--spec", type=str, help="path to a system document")

    p = sub.add_parser("analyze", parents=[seed, cover, out, source],
                       help="run the decision pipeline and write a verdict report")
    p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    p.add_argument("--samples", type=at_least(1), default=AnalysisBudgets.samples,
                   help="scan points of the angular accessibility search; the "
                        f"rank-drop search always scans {_PRESCAN} "
                        f"(default {AnalysisBudgets.samples})")
    p.add_argument("--coverage-threshold", type=fraction,
                   default=AnalysisBudgets.coverage_threshold)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reach", parents=[seed, cover, out, source],
                       help="sample the attainable set and write cloud + coverage")
    p.add_argument("--x0", type=str, default=None,
                   help="comma-separated start point (default: first basis vector)")
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("foliation", parents=[seed, out],
                       help="trace planar first-return arcs of a leaf field")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", choices=FOLIATION_EXAMPLES)
    group.add_argument("--builtin", choices=BUILTIN_NAMES,
                       help="use the orbit tangents of a bilinear builtin")
    group.add_argument("--spec", type=str,
                       help="orbit tangents of a bilinear system document")
    p.add_argument("--theta-samples", type=at_least(2), default=64)
    p.add_argument("--dim", type=at_least(3), default=None,
                   help="state dimension for --example, at least 3 (default 3)")
    p.add_argument("--tol", type=tolerance, default=None)  # orbit tangents only
    p.set_defaults(func=cmd_foliation)

    p = sub.add_parser("corpus", parents=[out],
                       help="list built-in systems or emit one as a document")
    p.add_argument("--builtin", choices=BUILTIN_NAMES, default=None)
    p.set_defaults(func=cmd_corpus)
    return parser


def _load_spec(args) -> SystemSpec:
    if args.builtin is not None:
        return builtin_corpus(args.builtin)
    path = Path(args.spec)
    if not path.is_file():
        raise ValueError(f"spec file not found: {path}")
    return parse_system(path.read_text())


def _budgets(args) -> AnalysisBudgets:
    return AnalysisBudgets(
        samples=args.samples, reach_budget=args.budget,
        coverage_threshold=args.coverage_threshold, tol=args.tol,
        seed=args.seed, angular_cells=args.grid, radial_bins=args.radial_bins,
        projective=args.projective)


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_or_print(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


_ENVIRONMENT_KEYS = {"seed": "seed", "tol": "tol", "samples": "samples",
                     "budget": "budget", "coverage_threshold": "coverage_threshold",
                     "grid_angular": "grid", "grid_radial": "radial_bins",
                     "projective": "projective"}


def _environment(args) -> dict:
    """The version and the shared settings the subcommand has flags for."""
    env = {"version": __version__}
    env.update((key, getattr(args, dest)) for key, dest in _ENVIRONMENT_KEYS.items()
               if hasattr(args, dest))
    return env


def _evidence_doc(evidence) -> dict | None:
    if evidence is None:
        return None
    return {
        "fraction": evidence.fraction,
        "hit_cells": evidence.hit_count,
        "total_cells": evidence.total_cells,
        "angular_fraction": evidence.angular_fraction,
        "points": evidence.num_points,
        "points_in_annulus": evidence.num_in_annulus,
        "points_below_annulus": evidence.num_below_annulus,
        "points_beyond_annulus": evidence.num_beyond_annulus,
        "grid": evidence.grid_params,
    }


def verdict_report(spec: SystemSpec, verdict: Verdict, args) -> dict:
    return {
        "report": "controllability-analysis",
        "environment": _environment(args),
        "system": {
            "name": spec.name,
            "n": spec.n,
            "kind": "bilinear" if spec.is_bilinear else "smooth",
            "num_fields": spec.num_fields,
        },
        "verdict": {
            "conclusion": verdict.conclusion,
            "certificate": None if verdict.certificate is None
                           else verdict.certificate.doc(),
            "evidence": _evidence_doc(verdict.evidence),
            "lie_dim": verdict.lie_dim,
            "orbit_dims": list(verdict.orbit_dims),
            "angular": verdict.angular,
            "diagnostics": verdict.diagnostics,
        },
    }


def cmd_analyze(args) -> int:
    spec = _load_spec(args)
    verdict = decide_controllability(spec, _budgets(args))
    _write_or_print(_dump_json(verdict_report(spec, verdict, args)), args.out)
    return EXIT_UNDETERMINED if verdict.conclusion == "undetermined" else EXIT_OK


def _parse_x0(text: str | None, n: int) -> np.ndarray:
    if text is None:
        x0 = np.zeros(n)
        x0[0] = 1.0
        return x0
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse x0: {text!r}") from None
    if len(vals) != n:
        raise ValueError(f"x0 must have {n} components")
    return np.array(vals)


def _csv_rows(rows) -> str:
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def _written(rows, csv):
    csv.write(_csv_rows(rows))
    return rows


def cmd_reach(args) -> int:
    if args.out is None:
        raise ValueError("reach needs --out DIRECTORY for the cloud and coverage files")
    spec = _load_spec(args)
    x0 = _parse_x0(args.x0, spec.n)
    blocks = _attainable_blocks(spec, x0, args.budget, args.seed)
    grid = CoverageGrid(spec.n, angular_cells=args.grid,
                        radial_bins=args.radial_bins, antipodal=args.projective)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # each block of the cloud is written out as it is binned
    with (out / "cloud.csv").open("w") as csv:
        report = _bin_blocks((_written(block, csv) for block in blocks), grid)
    doc = {
        "report": "attainable-coverage",
        "environment": _environment(args),
        "system": {"name": spec.name, "n": spec.n},
        "x0": [float(v) for v in x0],
        "coverage": _evidence_doc(report),
    }
    (out / "coverage.json").write_text(_dump_json(doc))
    return EXIT_OK


def _foliation_distribution(args):
    """The leaf field to trace; resolves --tol, which only orbit tangents read."""
    if args.example is None and args.dim is not None:
        raise ValueError("--dim applies only to --example; a system fixes its own")
    if args.example is not None and args.tol is not None:
        raise ValueError("--tol applies only to --builtin/--spec; an example has none")
    if args.tol is None:
        args.tol = DEFAULT_TOL
    if args.example is None:
        return orbit_tangent_distribution(_load_spec(args), tol=args.tol)
    n = 3 if args.dim is None else args.dim
    if args.example == "sphere":
        return sphere_distribution(n)
    if args.example == "radial_graph_h03":
        return radial_graph_distribution(n, slope=0.3)
    raise ValueError(f"unknown foliation example: {args.example!r}")


def cmd_foliation(args) -> int:
    if args.out is None:
        raise ValueError("foliation needs --out DIRECTORY for the table and arc files")
    distr = _foliation_distribution(args)
    family = arc_family(distr, theta_samples=args.theta_samples, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    lines = ["theta_index," + ",".join(f"theta_{k}" for k in range(distr.n))
             + ",return_radius,winding,arc_length\n"]
    for i, res in enumerate(family.results):
        theta = ",".join(repr(float(v)) for v in family.thetas[i])
        lines.append(f"{i},{theta},{res.radius!r},{res.winding!r},"
                     f"{res.arc_length!r}\n")
    (out / "return_map.csv").write_text("".join(lines))

    arc_lines = ["theta_index,t," + ",".join(f"x_{k}" for k in range(distr.n)) + "\n"]
    for i, res in enumerate(family.results):
        for t, pt in zip(res.arc_t, res.arc_points):
            coords = ",".join(repr(float(v)) for v in pt)
            arc_lines.append(f"{i},{t!r},{coords}\n")
    (out / "arcs.csv").write_text("".join(arc_lines))

    summary = {
        "report": "first-return-family",
        "environment": _environment(args),
        "distribution": distr.name,
        "n": distr.n,
        "theta_samples": args.theta_samples,
        "mean_return_radius": family.mean_radius,
        "max_radius_deviation": family.max_deviation,
        "start_spread": family.start_spread,
        "end_spread": family.end_spread,
        "min_point_radius": family.min_point_radius,
        "max_point_radius": family.max_point_radius,
    }
    (out / "summary.json").write_text(_dump_json(summary))
    return EXIT_OK


def cmd_corpus(args) -> int:
    if args.builtin is None:
        lines = []
        for name in BUILTIN_NAMES:
            spec = builtin_corpus(name)
            kind = "bilinear" if spec.is_bilinear else "smooth"
            lines.append(f"{name}  n={spec.n}  kind={kind}  fields={spec.num_fields}\n")
        _write_or_print("".join(lines), args.out)
        return EXIT_OK
    _write_or_print(serialize_system(builtin_corpus(args.builtin)) + "\n", args.out)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 after --help
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (FoliationError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
