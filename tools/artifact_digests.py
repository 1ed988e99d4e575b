"""Run every benchmark artifact in two source trees and compare them by value.

    python tools/artifact_digests.py SRC_A SRC_B [--seeds 1-20] [--workloads fields,tables,verify]

SRC_A and SRC_B are directories that hold an ``abc2d`` package (``src`` in a
checkout).  The operations are every ``fields`` and ``tables`` CLI call that
the benchmark's ``perfbench/workloads.make`` draws at each seed, its
out-of-loop probe included, each run once with ``--format csv`` and once with
``--format json``, plus ``verify --grid small|full`` in table and JSON.  With
``verify``, each extra bound state that the ``verify`` workload draws at each
seed is one more operation: its stdout is the line
``closed,shot,nodes,norm`` of reprs that ``perfbench/worker.py`` writes, from
``bound.energy``, ``oracle.shoot_with_nodes`` and ``oracle.quad_norm``.  All
operations run in one fresh interpreter per tree, so the two trees never
share ``sys.modules``; the two run side by side and stream one artifact at a
time, so neither tree's output is held whole.

An artifact is an operation's exit code, stdout and stderr.  For each one that
is not byte-identical, the report gives one line: a change of exit code or of
stderr if there is one; else the first line whose text differs beyond its
numbers, if any; else the largest change of a number relative to itself
(``cell``) and, in CSV, the largest change of a column's number relative to
that column's largest magnitude (``column``).  A summary line follows.  The
exit status is 0 when every artifact is byte-identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("fields", "tables", "verify")
_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")

# Runs in the fresh interpreter: reads the operations as JSON on stdin, an
# argv list or a state dict each, and writes the cli module's path, then one
# [exit, stdout, stderr] per line.
_CHILD = r"""
import contextlib, io, json, sys
from abc2d import bound, cli, oracle
from abc2d.reduction import RelativeProblem
print(json.dumps(cli.__file__), flush=True)

def state(op):
    problem = RelativeProblem.from_parameters(op["mu"], op["kappa"], op["alpha"])
    qn = bound.QuantumNumbers(op["n_r"], op["m"])
    closed = bound.energy(qn, problem)
    shot, nodes = oracle.shoot_with_nodes(problem, op["m"], op["n_r"])
    print(f"{closed!r},{shot!r},{nodes},{oracle.quad_norm(qn, problem)!r}")
    return 0

for op in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = state(op) if isinstance(op, dict) else cli.main(op)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    print(json.dumps([code, out.getvalue(), err.getvalue()]), flush=True)
"""


def _seeds(text: str) -> list[int]:
    """"7" or "1-20" (both ends included)."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def operations(seeds: list[int], workloads: list[str]) -> list[list[str] | dict]:
    """Every operation, in order: a CLI call's argv, or a ``verify`` extra
    state's dict.  perfbench/workloads.py is read and run here, not imported,
    so nothing is written under perfbench/."""
    path = ROOT / "perfbench" / "workloads.py"
    bench = types.ModuleType("workloads")
    exec(compile(path.read_text(), path, "exec"), bench.__dict__)
    ops = []
    for workload in workloads:
        if workload == "verify":
            ops += [["verify", "--grid", grid, "--format", fmt]
                    for grid in ("small", "full") for fmt in ("table", "json")]
            ops += [op for seed in seeds for op in bench.make(workload, seed)[0]
                    if op["op"] == "state"]
            continue
        for seed in seeds:
            drawn, probe = bench.make(workload, seed)
            ops += [op["argv"] + ["--format", fmt] for op in drawn + [probe]
                    if op and op["op"] == "cli" for fmt in ("csv", "json")]
    return ops


def _start(src: Path, ops: list[list[str] | dict]) -> subprocess.Popen:
    """The fresh interpreter that runs ops in src, its first line read."""
    proc = subprocess.Popen([sys.executable, "-c", _CHILD], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, cwd=src,
                            env={**os.environ, "PYTHONPATH": str(src)})
    proc.stdin.write(json.dumps(ops))
    proc.stdin.close()
    module = json.loads(proc.stdout.readline() or "null")
    if module != str(src / "abc2d" / "cli.py"):
        raise SystemExit(f"{src}: the run imported {module}, not this tree's cli")
    return proc


def _records(src: Path, proc: subprocess.Popen, count: int):
    """The count [exit, stdout, stderr] records proc writes, one at a time."""
    for _ in range(count):
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(f"{src}: the run stopped with exit {proc.wait()}")
        yield json.loads(line)


def _change(x: float, y: float) -> float:
    """|x - y| relative to the larger magnitude, 0 where they are equal."""
    return 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))


def value_changes(a: str, b: str, csv: bool) -> tuple[float, float, str] | int:
    """(largest change of a cell, of a CSV column, that column's name) between
    two texts that differ only in their numbers; else the first line (from 1)
    whose text differs beyond its numbers."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    cell, header, diffs, sizes = 0.0, None, {}, {}
    for n, (la, lb) in enumerate(zip(lines_a, lines_b), 1):
        if la != lb:
            if _NUMBER.sub("", la) != _NUMBER.sub("", lb):
                return n
            cell = max([cell] + [_change(float(x), float(y)) for x, y in
                                 zip(_NUMBER.findall(la), _NUMBER.findall(lb))])
        if not csv or la.startswith("#"):
            continue
        if header is None:
            header = la.split(",")
            continue
        for name, x, y in zip(header, la.split(","), lb.split(",")):
            if _NUMBER.fullmatch(x):
                x, y = float(x), float(y)
                diffs[name] = max(diffs.get(name, 0.0), abs(x - y))
                sizes[name] = max(sizes.get(name, 0.0), abs(x), abs(y))
    if len(lines_a) != len(lines_b):
        return min(len(lines_a), len(lines_b)) + 1
    column, name = max(((diffs[name] / sizes[name] if diffs[name] else 0.0, name)
                        for name in diffs), default=(0.0, ""))
    return cell, column, name


def _label(op: list[str] | dict) -> str:
    """The report's name of an operation: the argv, or the state's draws."""
    if isinstance(op, list):
        return shlex.join(op)
    return "state " + " ".join(f"{key}={op[key]!r}" for key in ("mu", "kappa", "alpha",
                                                               "n_r", "m"))


def compare(src_a: Path, src_b: Path, ops: list[list[str] | dict]) -> list[str]:
    """One report line per artifact that is not byte-identical, then the
    summary line."""
    proc_a, proc_b = (_start(src, ops) for src in (src_a, src_b))
    records = zip(ops, _records(src_a, proc_a, len(ops)),
                  _records(src_b, proc_b, len(ops)))
    lines, moved, cell, column = [], 0, 0.0, 0.0
    with proc_a, proc_b:
        for op, (code_a, out_a, err_a), (code_b, out_b, err_b) in records:
            if (code_a, out_a, err_a) == (code_b, out_b, err_b):
                continue
            change = ", ".join(text for text, differs in (
                (f"exit {code_a} -> {code_b}", code_a != code_b),
                (f"stderr {err_a!r} -> {err_b!r}", err_a != err_b)) if differs)
            if not change:
                changes = value_changes(out_a, out_b, isinstance(op, list) and "csv" in op)
                if isinstance(changes, int):
                    change = f"text differs at line {changes}"
                else:
                    moved += 1
                    cell, column = max(cell, changes[0]), max(column, changes[1])
                    change = f"cell {changes[0]:.2g}"
                    if changes[2]:
                        change += f", column {changes[1]:.2g} ({changes[2]})"
            lines.append(f"{_label(op)}: {change}")
    summary = (f"{len(ops)} artifacts: {len(ops) - len(lines)} byte-identical, "
               f"{moved} differ in numbers only, {len(lines) - moved} otherwise")
    if moved:
        summary += f"; largest change {cell:.2g} of a cell, {column:.2g} of a column"
    return lines + [summary]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs=2, metavar="SRC", help="SRC_A SRC_B")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-20"))
    parser.add_argument("--workloads", type=lambda text: text.split(","),
                        default=list(WORKLOADS))
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    srcs = [Path(path).resolve() for path in args.paths]
    for src in srcs:
        if not (src / "abc2d" / "cli.py").is_file():
            parser.error(f"{src} holds no abc2d package")
    lines = compare(*srcs, operations(args.seeds, args.workloads))
    print("\n".join(lines))
    return 1 if len(lines) > 1 else 0


if __name__ == "__main__":
    raise SystemExit(main())
