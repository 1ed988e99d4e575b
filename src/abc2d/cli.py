"""Command-line front end: spectrum tables, cross-section sweeps, field dumps,
verification reports.

Exit codes: 0 success, 1 usage error (a non-finite number in any flag, an
integer flag past sys.maxsize in size, an axis span that overflows, a
field grid axis of fewer than 2 points, a sweep of no angles, a field dump
given a flag that only the other --kind reads, an unwritable --out and a
stdout that its reader closed, as in ``abc2d spectrum | head -1``, included),
2 domain error (e.g. no bound states, unsupported flux case, --energy without
--raw or --case/--k/--beta/--mu/--kappa/--alpha with it, a result that
overflows to inf or nan), 3 verification failure.
Numeric output uses 17 significant digits and every artifact embeds the
parameters that produced it, so identical invocations give byte-identical
files.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import operator
import os
import re
import sys
from collections.abc import Callable, Iterable

from . import bound, scatter, verify
from .errors import DomainError
from .reduction import ParticlePair, RelativeProblem, reduce_two_body

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3

# An artifact's column layout: each column's name and the type of its values.
Columns = tuple[tuple[str, type], ...]


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


# Flags that one run reads and another ignores.  The parser leaves them None,
# so that _refuse_unread can tell a given flag from an absent one; main then
# fills in these defaults.
_DEFAULTS = {
    "mu": 1.0, "kappa": 1.0, "alpha": 0.0, "k": 1.0, "beta": 1.0,
    "nr": 0, "m": 0, "extent": 4.0, "points": 41,
    "xi_min": -2.0, "xi_max": 2.0, "eta_min": -2.0, "eta_max": 2.0, "nx": 41, "ny": 41,
}
# The flags of a field dump that only one --kind reads.
_KIND_FLAGS = {
    "bound": ("mu", "kappa", "alpha", "nr", "m", "extent", "points"),
    "scatter": ("case", "k", "beta", "energy",
                "xi_min", "xi_max", "eta_min", "eta_max", "nx", "ny"),
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _refuse_unread(args: argparse.Namespace) -> None:
    """A given flag that the run would ignore is an error: a field flag of the
    other --kind is a usage error; --energy without --raw, and --case, --k,
    --beta, --mu, --kappa or --alpha with it, are domain errors."""
    given = [dest for dest, value in vars(args).items() if value is not None]
    if args.command == "field":
        other = "scatter" if args.kind == "bound" else "bound"
        for dest in given:
            if dest in _KIND_FLAGS[other]:
                raise ValueError(f"{_flag(dest)} applies only to --kind {other}")
    if "raw" not in given and "energy" in given:
        raise DomainError("--energy applies only to --raw scattering input")
    if "raw" in given:
        for dests, what in ((("case", "k", "beta"), "scattering"),
                            (("mu", "kappa", "alpha"), "particle")):
            for dest in dests:
                if dest in given:
                    raise DomainError(f"{_flag(dest)} does not apply to --raw {what} input")


def _problem_from_args(args: argparse.Namespace) -> RelativeProblem:
    if args.raw is not None:
        m1, q1, f1, m2, q2, f2 = args.raw
        return reduce_two_body(ParticlePair(m1, m2, q1, q2, f1, f2))
    return RelativeProblem.from_parameters(args.mu, args.kappa, args.alpha)


def _write(path: str | None, lines: list[str]) -> None:
    """Write the rendered text, given as its pieces in order (lines that end in
    their newline), with ``writelines``: no joined copy of the text is made."""
    if path is None:
        sys.stdout.writelines(lines)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ValueError(f"--out {path}: {exc.strerror}") from None


def _check_out(path: str) -> None:
    """An --out path that is a directory or an unwritable file, or a new file
    whose directory is missing or not writable, is a usage error raised before
    the command does its work; _write still reports a path that fails when it
    is opened."""
    if os.path.isdir(path):
        raise ValueError(f"--out {path}: is a directory")
    if os.path.exists(path):
        if not os.access(path, os.W_OK):
            raise ValueError(f"--out {path}: file is not writable")
        return
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"--out {path}: no directory {folder}")
    if not os.access(folder, os.W_OK):
        raise ValueError(f"--out {path}: directory {folder} is not writable")


def _span(lo: float, hi: float, flags: str) -> tuple[float, float]:
    """(lo, hi) of a grid or angle axis; a span hi - lo that overflows is a
    usage error, raised before scatter.linspace would return nan."""
    if not math.isfinite(hi - lo):
        raise ValueError(f"{flags}: the span {hi!r} - ({lo!r}) overflows")
    return lo, hi


# Each column kind has one cell format per output format.  JSON writes a
# float by repr and an int in decimal, as json.dumps does, and quotes text as
# it is, which is valid JSON for the branch names.  A tuple column is a
# level's members, given as their text (_MEMBERS) and written as it is.
_CELL = {"csv": {float: "%.17g", int: "%d", str: "%s", tuple: "%s"},
         "json": {float: "%r", int: "%d", str: '"%s"', tuple: "%s"}}
# A level's (n_r, m) members as text: "n_r:m;..." in CSV; in JSON the
# indented list of [n_r, m] arrays that json.dumps writes in a row object.
# Each is the literal pieces around the two cells of each member: (before
# the first member, between n_r and m, between one member and the next,
# after the last member).
_MEMBERS = {
    "csv": ("", ":", ";", ""),
    "json": ("[\n        [\n          ", ",\n          ",
             "\n        ],\n        [\n          ", "\n        ]\n      ]"),
}


# Rows per %-format call where every cell is a float (_row_layout's scan).
# Rendering a 4,096-angle sweep a block at a time took 0.91 to 0.96 of the
# time of a row at a time for blocks of 64 to 1,024 rows, against 0.95 (CSV)
# and 1.02 (JSON) for 4,096 (median ratios of 100 to 150 paired in-process
# renderings); a block's transient memory grows with its size.
_FLOAT_BLOCK = 256


def _row_layout(fmt: str, columns: Columns,
                records: bool) -> tuple[str, Callable[[tuple], tuple], bool]:
    """(row format, values, scan) of one artifact's rows in ``fmt``.

    ``row format % values(row)`` is a row's text: a CSV line, or in JSON the
    row's object (keys sorted, if ``records``) or array at depth 2, followed by
    ",\n".  ``scan`` is true where a row's text alone tells whether the row is
    finite: every cell is a float, whose finite ``%.17g`` or repr text holds
    no "n" (only digits, ".", "e" and signs) while inf and nan do, and the
    format's own text holds no "n".  Elsewhere every float is checked directly.
    """
    names = [name for name, _ in columns]
    kinds = [kind for _, kind in columns]
    cells = [_CELL[fmt][kind] for kind in kinds]
    order = list(range(len(columns)))
    if fmt == "csv":
        row_format = ",".join(cells) + "\n"
    elif records:
        order.sort(key=names.__getitem__)
        row_format = "    {\n%s\n    },\n" % ",\n".join(
            f'      "{names[i]}": {cells[i]}' for i in order)
    else:
        row_format = "    [\n%s\n    ],\n" % ",\n".join("      " + cell for cell in cells)
    scan = set(kinds) == {float} and "n" not in row_format % ((0.0,) * len(kinds))
    if order == sorted(order):
        return row_format, tuple, scan
    return row_format, operator.itemgetter(*order), scan


def _check_finite(columns: Columns, rows: Iterable[tuple]) -> None:
    """A non-finite float in the rows is a domain error naming the first
    non-finite column of the first such row."""
    for row in rows:
        for (name, kind), value in zip(columns, row):
            if kind is float and not math.isfinite(value):
                raise DomainError(f"non-finite result {name} = {value}")


def _emit(args: argparse.Namespace, params: dict, columns: Columns,
          rows: Iterable[tuple] = (), key: str = "rows",
          grid: tuple[list[float], list[float], list[list[complex]]] | None = None) -> int:
    """Write one artifact in ``args.format`` to ``args.out`` (stdout if None).

    ``columns`` is the layout: each column's name and kind (float, int, str,
    or tuple for a level's (n_r, m) members, which the row gives as their text
    in ``args.format``).  Each row is rendered by one %-format built from it
    (``_row_layout``); where every cell is a float, a block of _FLOAT_BLOCK
    rows is rendered by one %-format of that format repeated, and elsewhere,
    as in the spectrum, whose rows carry members text of any length, a row
    at a time.
    CSV: a ``# key=value`` line per parameter, the header, one line per row.
    JSON: the text of ``json.dumps({"params": ..., key: rows}, sort_keys=True,
    indent=2)``, each row an object keyed by column, or an array in a field
    dump; a level's members text is its list of [n_r, m] arrays.  It takes
    at least one row; every command refuses an empty artifact before it gets
    here.
    ``rows`` may be any iterable, a generator included, and is read once:
    each block of rows is rendered to its text and dropped, so memory is
    bounded by the text plus one block: _FLOAT_BLOCK rows of floats, or one
    row of any other layout.  A field dump gives ``grid`` = (xs, ys, values)
    instead, the rows (xs[i], ys[j], re, im) of values[i][j]: each y cell is
    rendered once per column, and each line of the grid is one %-format of its
    x cell's text and the column texts over that line's (re, im) pairs.
    A non-finite float is a domain error naming the first non-finite column of
    the first such row, found in the rendered text where that is sure (see
    ``_row_layout``): a block whose text holds an "n" is checked row by row.
    Every row is rendered before anything is written, so it is raised with
    nothing written and ``--out`` left as it was.
    """
    row_format, values, scan = _row_layout(args.format, columns, records=grid is None)
    if args.format == "json":
        import json

        params_text = '  "params": ' + json.dumps(params, sort_keys=True,
                                                  indent=2).replace("\n", "\n  ")
        body = f'  "{key}": [\n'
        if key < "params":
            lines, tail = ["{\n" + body], "  ],\n" + params_text + "\n}\n"
        else:
            lines, tail = ["{\n" + params_text + ",\n" + body], "  ]\n}\n"
    else:
        lines = [f"# {name}={value:.17g}\n" if isinstance(value, float)
                 else f"# {name}={value}\n" for name, value in params.items()]
        lines.append(",".join(name for name, _ in columns) + "\n")
    if grid is None:
        size = _FLOAT_BLOCK if scan else 1
        rows = iter(rows)
        while block := list(itertools.islice(rows, size)):
            text = ((row_format * len(block))
                    % tuple(itertools.chain.from_iterable(map(values, block))))
            if not scan or "n" in text:
                _check_finite(columns, block)
            lines.append(text)
    else:
        # a float row format holds one % per cell: split off the x and y cells
        head, x_format, y_format, rest = re.split("(?=%)", row_format, maxsplit=3)
        xs, ys, field = grid
        y_rests = [y_format % y + rest for y in ys]
        for x, line in zip(xs, field):
            x_text = head + x_format % x
            text = ((x_text + x_text.join(y_rests))
                    % tuple([part for v in line for part in (v.real, v.imag)]))
            if not scan or "n" in text:
                _check_finite(columns, ((x, y, v.real, v.imag) for y, v in zip(ys, line)))
            lines.append(text)
    if args.format == "json":
        lines[-1] = lines[-1][:-2] + "\n"  # the last row takes no comma
        lines.append(tail)
    _write(args.out, lines)
    return EXIT_OK


def _floats(*names: str) -> Columns:
    return tuple((name, float) for name in names)


# -- spectrum --------------------------------------------------------------------

_SPECTRUM_COLUMNS = (("index", int), ("energy", float), ("branch", str), ("N", int),
                     ("degeneracy", int), ("members", tuple))


def run_spectrum(args: argparse.Namespace) -> int:
    """The level table.  Levels stream from bound.iter_levels through _emit,
    so a table's memory is bounded by its text plus one level.  A level's
    members text is its member cells, sliced from two tables of text (each
    int's string followed by the separator after an n_r cell, or after an m
    cell), joined once after the opening piece, with the last member's
    separator replaced by the closing piece.  The tables grow with the
    largest rung N the walk reaches, never with --levels."""
    problem = _problem_from_args(args)
    levels = bound.iter_levels(problem, args.levels)
    params = {
        "command": "spectrum", "mu": problem.reduced_mass, "kappa": problem.kappa,
        "alpha": problem.alpha_flux, "m0": problem.m0, "nu": problem.nu,
        "levels": args.levels,
    }
    first, between, after, last = _MEMBERS[args.format]
    # the n_r cells heads[i] == f"{i}{between}" for 0 <= i < zero, and the
    # m cells tails[zero + i] == f"{i}{after}" for |i| <= zero
    heads, tails, zero = [], [], 0

    def members(lv: bound.SpectrumLevel) -> str:
        nonlocal heads, tails, zero
        top = max(lv.plus_n, lv.minus_n)
        if top >= zero:
            zero = 2 * top + 1
            heads = [f"{i}{between}" for i in range(zero)]
            tails = [f"{i}{after}" for i in range(-zero, zero + 1)]
        cells = lv.member_cells(heads, tails, zero)
        # removesuffix is right for an empty separator too, where a cut by
        # len(after) would cut the whole cell
        cells[-1] = cells[-1].removesuffix(after) + last
        return first + "".join(cells)

    rows = ((i, lv.energy, lv.branch, lv.principal_n, lv.degeneracy, members(lv))
            for i, lv in enumerate(levels))
    return _emit(args, params, _SPECTRUM_COLUMNS, rows, key="levels")


# -- cross sections --------------------------------------------------------------

_CASES = {case.value: case for case in scatter.FluxCase}
_XSECTION_COLUMNS = _floats("theta", "sigma_total", "sigma_coulomb", "sigma_cross")


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
    """A cross-section sweep: scatter.cross_sections computes it column by
    column, and its rows, zipped from the columns, are plain tuples to _emit."""
    p = _params_from_args(args)
    span = _span(args.theta_min, args.theta_max, "--theta-min/--theta-max")
    thetas = scatter.linspace(*span, args.thetas)
    if not thetas:
        raise ValueError("a sweep needs at least 1 angle")
    rows = zip(*scatter.cross_sections(p, thetas))
    params = {
        "command": "xsection", "case": p.flux_case.value, "k": p.k, "beta": p.beta,
        "thetas": args.thetas, "theta_min": args.theta_min, "theta_max": args.theta_max,
    }
    return _emit(args, params, _XSECTION_COLUMNS, rows)


# -- fields ----------------------------------------------------------------------

def run_field(args: argparse.Namespace) -> int:
    """A field dump: (xs, ys, values) from the kind's sample_*_field, which
    evaluates each separated factor once per distinct argument, to _emit."""
    if args.kind == "bound":
        problem = _problem_from_args(args)
        qn = bound.QuantumNumbers(args.nr, args.m)
        bound.normalization_constant(qn, problem)  # a bad state is refused before --extent
        xs, ys, values = bound.sample_bound_field(
            qn, problem, _span(-args.extent, args.extent, "--extent"), args.points)
        params = {
            "command": "field", "kind": "bound",
            "mu": problem.reduced_mass, "kappa": problem.kappa,
            "alpha": problem.alpha_flux, "n_r": args.nr, "m": args.m,
            "extent": args.extent, "points": args.points,
        }
        columns = _floats("x", "y", "re", "im")
    else:
        p = _params_from_args(args)
        xs, ys, values = scatter.sample_scattering_field(
            p, _span(args.xi_min, args.xi_max, "--xi-min/--xi-max"),
            _span(args.eta_min, args.eta_max, "--eta-min/--eta-max"), args.nx, args.ny,
        )
        params = {
            "command": "field", "kind": "scatter", "case": p.flux_case.value,
            "k": p.k, "beta": p.beta, "xi_min": args.xi_min, "xi_max": args.xi_max,
            "eta_min": args.eta_min, "eta_max": args.eta_max, "nx": args.nx, "ny": args.ny,
        }
        columns = _floats("xi", "eta", "re", "im")
    return _emit(args, params, columns, grid=(xs, ys, values))


# -- verification ----------------------------------------------------------------

def run_verify(args: argparse.Namespace) -> int:
    results, rows = verify.run_all_checks(small=(args.grid == "small"))
    params = {"command": "verify", "grid": args.grid}
    if args.format == "json":
        import json

        payload = {
            "params": params,
            "checks": [{"name": r.name, "passed": r.passed, "worst": r.worst,
                        "bound": r.bound, "detail": r.detail} for r in results],
            "shooting_rows": [
                {"case": r.case, "n_r": r.n_r, "m": r.m, "closed_E": r.closed_energy,
                 "shoot_E": r.shoot_energy, "rel_err": r.rel_err, "norm": r.norm,
                 "passed": r.passed} for r in rows],
        }
        _write(args.out, [json.dumps(payload, sort_keys=True, indent=2), "\n"])
    else:
        width = max(len(r.name) for r in results)
        lines = [f"# {key}={val}" for key, val in params.items()]
        lines.append("# per-state oracle rows: case, n_r, m, closed_E, shoot_E, "
                     "rel_err, norm, pass")
        for r in rows:
            lines.append(
                f"# {r.case},{r.n_r},{r.m},{r.closed_energy:.17g},"
                f"{r.shoot_energy:.17g},{r.rel_err:.3e},{r.norm:.17g},"
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
        _write(args.out, ["\n".join(lines), "\n"])
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


# -- wiring ----------------------------------------------------------------------

def _output_flags(*formats: str) -> _Parser:
    output = _Parser(add_help=False)
    output.add_argument("--format", choices=formats, default=formats[0])
    output.add_argument("--out", default=None)
    return output


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process; main picks the command's run_*
    function by name at each call, so a replaced module attribute is seen."""
    # Here and below, a default of None is filled in from _DEFAULTS by main.
    problem = _Parser(add_help=False)
    problem.add_argument("--mu", type=float, default=None)
    problem.add_argument("--kappa", type=float, default=None)
    problem.add_argument("--alpha", type=float, default=None)
    raw = _Parser(add_help=False)
    raw.add_argument("--raw", nargs=6, type=float, default=None,
                     metavar=("M1", "Q1", "PHI1", "M2", "Q2", "PHI2"),
                     help="particle-level inputs (mass, charge, flux) x2")
    scattering = _Parser(add_help=False)
    scattering.add_argument("--case", choices=tuple(_CASES), default=None)
    scattering.add_argument("--k", type=float, default=None)
    scattering.add_argument("--beta", type=float, default=None)
    scattering.add_argument("--energy", type=float, default=None)
    output = _output_flags("csv", "json")

    parser = _Parser(prog="abc2d",
                     description="Planar charge-flux two-body problem: exact "
                                 "spectra, wavefunctions and cross sections")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", parents=[problem, raw, output],
                        help="bound-state level table")
    sp.add_argument("--levels", type=int, default=5)

    xs = sub.add_parser("xsection", parents=[scattering, raw, output],
                        help="differential cross-section sweep")
    xs.add_argument("--thetas", type=int, default=64)
    xs.add_argument("--theta-min", type=float, default=0.1)
    xs.add_argument("--theta-max", type=float, default=2.0 * math.pi - 0.1)

    fd = sub.add_parser("field", parents=[problem, raw, scattering, output],
                        help="complex field dump on a grid")
    fd.add_argument("--kind", choices=("bound", "scatter"), required=True)
    fd.add_argument("--nr", type=int, default=None)
    fd.add_argument("--m", type=int, default=None)
    fd.add_argument("--extent", type=float, default=None)
    fd.add_argument("--points", type=int, default=None)
    fd.add_argument("--xi-min", type=float, default=None)
    fd.add_argument("--xi-max", type=float, default=None)
    fd.add_argument("--eta-min", type=float, default=None)
    fd.add_argument("--eta-max", type=float, default=None)
    fd.add_argument("--nx", type=int, default=None)
    fd.add_argument("--ny", type=int, default=None)

    vf = sub.add_parser("verify", parents=[_output_flags("table", "json")],
                        help="run the cross-validation suite")
    vf.add_argument("--grid", choices=("small", "full"), default="full")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, value in vars(args).items():
            values = value if isinstance(value, list) else [value]
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ValueError(f"{_flag(name)} must be finite, got {value}")
            if isinstance(value, int) and abs(value) > sys.maxsize:
                raise ValueError(f"{_flag(name)} must lie within +-{sys.maxsize}, got an "
                                 f"integer of {len(str(abs(value)))} digits")
        _refuse_unread(args)
        for dest, default in _DEFAULTS.items():
            if dest in vars(args) and getattr(args, dest) is None:
                setattr(args, dest, default)
        if args.out is not None:
            _check_out(args.out)
        run = {"spectrum": run_spectrum, "xsection": run_xsection,
               "field": run_field, "verify": run_verify}[args.command]
        code = run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point fd 1 at devnull so that the
        # interpreter's final flush of what is left cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
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
