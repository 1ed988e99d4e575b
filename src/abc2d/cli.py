"""Command-line front end: spectrum tables, cross-section sweeps, field dumps,
verification reports.

Exit codes: 0 success, 1 usage error (a non-finite number in any flag
included), 2 domain error (e.g. no bound states, unsupported flux case, a
result that overflows to inf or nan), 3 verification failure.  Numeric output
uses 17 significant digits and every artifact embeds the parameters that
produced it, so identical invocations give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import bound, scatter, verify
from .errors import DomainError
from .reduction import ParticlePair, RelativeProblem, reduce_two_body

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the contract here is 1.

    argparse takes only ``-12`` and ``-0.5`` style arguments for negative
    numbers; the wider pattern lets ``--alpha -1e-3`` through as a value.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _problem_from_args(args: argparse.Namespace) -> RelativeProblem:
    if args.raw is not None:
        m1, q1, f1, m2, q2, f2 = args.raw
        return reduce_two_body(ParticlePair(m1, m2, q1, q2, f1, f2))
    return RelativeProblem.from_parameters(args.mu, args.kappa, args.alpha)


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cell(value) -> str:
    """Text of one value: a float to 17 significant digits, a tuple as a
    spectrum level's members ``n_r:m;...``."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ";".join(f"{qn.n_r}:{qn.m}" for qn in value)
    return str(value)


def _emit(args: argparse.Namespace, params: dict, columns: tuple[str, ...],
          rows: list[tuple], key: str = "rows", records: bool = True) -> int:
    """Write one artifact in ``args.format`` to ``args.out`` (stdout if None).

    CSV: a ``# key=value`` line per parameter, the header, one line per row.
    JSON: ``{"params": ..., key: rows}``, each row an object keyed by column
    if ``records``, else an array; a level's members become [n_r, m] pairs.
    A non-finite float anywhere in the rows is a domain error, raised before
    anything is written.
    """
    for row in rows:
        for value in row:
            if isinstance(value, float) and not math.isfinite(value):
                name = columns[row.index(value)]
                raise DomainError(f"non-finite result {name} = {value}")
    if args.format == "json":
        body = [dict(zip(columns, row)) for row in rows] if records else rows
        text = json.dumps({"params": params, key: body}, sort_keys=True, indent=2,
                          default=lambda qn: (qn.n_r, qn.m))
    else:
        lines = [f"# {name}={_cell(value)}" for name, value in params.items()]
        lines.append(",".join(columns))
        lines += [",".join(map(_cell, row)) for row in rows]
        text = "\n".join(lines)
    _write(args.out, text + "\n")
    return EXIT_OK


# -- spectrum --------------------------------------------------------------------

def run_spectrum(args: argparse.Namespace) -> int:
    problem = _problem_from_args(args)
    levels = bound.spectrum(problem, args.levels)
    params = {
        "command": "spectrum", "mu": problem.reduced_mass, "kappa": problem.kappa,
        "alpha": problem.alpha_flux, "m0": problem.m0, "nu": problem.nu,
        "levels": args.levels,
    }
    rows = [(i, lv.energy, lv.branch, lv.principal_n, lv.degeneracy, lv.members)
            for i, lv in enumerate(levels)]
    return _emit(args, params, ("index", "energy", "branch", "N", "degeneracy", "members"),
                 rows, key="levels")


# -- cross sections --------------------------------------------------------------

_CASES = {case.value: case for case in scatter.FluxCase}


def _params_from_args(args: argparse.Namespace) -> scatter.ScatteringParams:
    if args.raw is not None:
        if args.energy is None:
            raise DomainError("--raw scattering input requires --energy")
        problem = _problem_from_args(args)
        return scatter.scattering_params(problem, args.energy)
    if args.case is None:
        raise DomainError("give --case with --k/--beta, or --raw with --energy")
    return scatter.ScatteringParams(args.k, args.beta, _CASES[args.case])


def run_xsection(args: argparse.Namespace) -> int:
    p = _params_from_args(args)
    rows = []
    for theta in np.linspace(args.theta_min, args.theta_max, args.thetas).tolist():
        s = scatter.sigma_sample(p, theta)
        rows.append((theta, s.sigma_total, s.sigma_coulomb, s.sigma_cross))
    params = {
        "command": "xsection", "case": p.flux_case.value, "k": p.k, "beta": p.beta,
        "thetas": args.thetas, "theta_min": args.theta_min, "theta_max": args.theta_max,
    }
    return _emit(args, params, ("theta", "sigma_total", "sigma_coulomb", "sigma_cross"),
                 rows)


# -- fields ----------------------------------------------------------------------

def run_field(args: argparse.Namespace) -> int:
    if args.kind == "bound":
        problem = _problem_from_args(args)
        psi = bound.wavefunction(bound.QuantumNumbers(args.nr, args.m), problem)
        axis = np.linspace(-args.extent, args.extent, args.points)
        params = {
            "command": "field", "kind": "bound",
            "mu": problem.reduced_mass, "kappa": problem.kappa,
            "alpha": problem.alpha_flux, "n_r": args.nr, "m": args.m,
            "extent": args.extent, "points": args.points,
        }
        columns = ("x", "y", "re", "im")
        rows = []
        for x in axis:
            for y in axis:
                v = psi(math.hypot(x, y), math.atan2(y, x))
                rows.append((float(x), float(y), v.real, v.imag))
    else:
        p = _params_from_args(args)
        grid = scatter.sample_scattering_field(
            p, (args.xi_min, args.xi_max), (args.eta_min, args.eta_max),
            args.nx, args.ny,
        )
        params = {
            "command": "field", "kind": "scatter", "case": p.flux_case.value,
            "k": p.k, "beta": p.beta, "xi_min": args.xi_min, "xi_max": args.xi_max,
            "eta_min": args.eta_min, "eta_max": args.eta_max, "nx": args.nx, "ny": args.ny,
        }
        columns = ("xi", "eta", "re", "im")
        rows = [(float(xv), float(ev), v.real, v.imag)
                for xv, line in zip(grid.xi, grid.values) for ev, v in zip(grid.eta, line)]
    return _emit(args, params, columns, rows, records=False)


# -- verification ----------------------------------------------------------------

def run_verify(args: argparse.Namespace) -> int:
    results, rows = verify.run_all_checks(small=(args.grid == "small"),
                                          perturb_energy=args.perturb_energy)
    params = {"command": "verify", "grid": args.grid,
              "perturb_energy": args.perturb_energy}
    if args.format == "json":
        payload = {
            "params": params,
            "checks": [{"name": r.name, "passed": r.passed, "worst": r.worst,
                        "bound": r.bound, "detail": r.detail} for r in results],
            "shooting_rows": [
                {"case": r.case, "n_r": r.n_r, "m": r.m, "closed_E": r.closed_energy,
                 "shoot_E": r.shoot_energy, "rel_err": r.rel_err, "norm": r.norm,
                 "passed": r.passed} for r in rows],
        }
        _write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        width = max(len(r.name) for r in results)
        lines = [f"# {key}={val}" for key, val in params.items()]
        lines.append("# per-state oracle rows: case, n_r, m, closed_E, shoot_E, "
                     "rel_err, norm, pass")
        for r in rows:
            lines.append(
                f"# {r.case},{r.n_r},{r.m},{_cell(r.closed_energy)},"
                f"{_cell(r.shoot_energy)},{r.rel_err:.3e},{_cell(r.norm)},"
                f"{'pass' if r.passed else 'FAIL'}"
            )
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{r.name:<{width}}  {status}  worst={r.worst:.3e}  "
                f"bound={r.bound:.3e}  {r.detail}"
            )
        n_fail = sum(not r.passed for r in results)
        lines.append(f"{n_fail} of {len(results)} checks failed"
                     if n_fail else f"all {len(results)} checks passed")
        _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


# -- wiring ----------------------------------------------------------------------

def _output_flags(*formats: str) -> _Parser:
    output = _Parser(add_help=False)
    output.add_argument("--format", choices=formats, default=formats[0])
    output.add_argument("--out", default=None)
    return output


def build_parser() -> _Parser:
    problem = _Parser(add_help=False)
    problem.add_argument("--mu", type=float, default=1.0)
    problem.add_argument("--kappa", type=float, default=1.0)
    problem.add_argument("--alpha", type=float, default=0.0)
    problem.add_argument(
        "--raw", nargs=6, type=float, default=None,
        metavar=("M1", "Q1", "PHI1", "M2", "Q2", "PHI2"),
        help="particle-level inputs (mass, charge, flux) x2; overrides --mu/--kappa/--alpha",
    )
    scattering = _Parser(add_help=False)
    scattering.add_argument("--case", choices=tuple(_CASES), default=None)
    scattering.add_argument("--k", type=float, default=1.0)
    scattering.add_argument("--beta", type=float, default=1.0)
    scattering.add_argument("--energy", type=float, default=None)
    output = _output_flags("csv", "json")

    parser = _Parser(prog="abc2d",
                     description="Planar charge-flux two-body problem: exact "
                                 "spectra, wavefunctions and cross sections")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", parents=[problem, output],
                        help="bound-state level table")
    sp.add_argument("--levels", type=int, default=5)
    sp.set_defaults(func=run_spectrum)

    xs = sub.add_parser("xsection", parents=[scattering, problem, output],
                        help="differential cross-section sweep")
    xs.add_argument("--thetas", type=int, default=64)
    xs.add_argument("--theta-min", type=float, default=0.1)
    xs.add_argument("--theta-max", type=float, default=2.0 * math.pi - 0.1)
    xs.set_defaults(func=run_xsection)

    fd = sub.add_parser("field", parents=[problem, scattering, output],
                        help="complex field dump on a grid")
    fd.add_argument("--kind", choices=("bound", "scatter"), required=True)
    fd.add_argument("--nr", type=int, default=0)
    fd.add_argument("--m", type=int, default=0)
    fd.add_argument("--extent", type=float, default=4.0)
    fd.add_argument("--points", type=int, default=41)
    fd.add_argument("--xi-min", type=float, default=-2.0)
    fd.add_argument("--xi-max", type=float, default=2.0)
    fd.add_argument("--eta-min", type=float, default=-2.0)
    fd.add_argument("--eta-max", type=float, default=2.0)
    fd.add_argument("--nx", type=int, default=41)
    fd.add_argument("--ny", type=int, default=41)
    fd.set_defaults(func=run_field)

    vf = sub.add_parser("verify", parents=[_output_flags("table", "json")],
                        help="run the cross-validation suite")
    vf.add_argument("--grid", choices=("small", "full"), default="full")
    vf.add_argument("--perturb-energy", type=float, default=0.0,
                    help="test hook: offset applied to the closed-form energy")
    vf.set_defaults(func=run_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            values = value if isinstance(value, list) else [value]
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
        return args.func(args)
    except DomainError as exc:
        print(f"abc2d: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OverflowError, ZeroDivisionError) as exc:
        print(f"abc2d: the result is not finite: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"abc2d: invalid argument: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
