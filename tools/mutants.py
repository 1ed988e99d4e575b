"""Run ``verify`` on a copy of the abc2d package with some of its text replaced.

    python tools/mutants.py [--grid small|full] FILE OLD NEW [FILE OLD NEW ...]

FILE names a module of the package (``specfn.py``); each OLD must occur
exactly once in its file, and is replaced by NEW.  Put ``--`` before the
edits when an OLD or NEW starts with ``-``.  Prints one JSON line,
``{"exit": verify's exit code, "failed": [the failing rows, sorted]}``; an OLD
that does not occur exactly once exits 1.

The mutant is imported in this process as a fresh package under its own
alias, whose search path is a directory of the edited files and then a
compiled copy of the package.  Every import inside abc2d is relative, so the
mutant never reaches the real package.  It runs ``verify --format json --out``
and is removed from ``sys.modules`` afterwards.  ``tests/test_mutations.py``
runs its table through ``verdict``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import importlib.util
import itertools
import json
import py_compile
import shutil
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "abc2d"
_ALIASES = itertools.count()


class TextMoved(ValueError):
    """An edit's old text does not occur exactly once in its file."""


@functools.cache
def _pristine() -> tempfile.TemporaryDirectory:
    """The package with every module's bytecode, copied once a process, so a
    mutant compiles only the files it edits; removed when the process exits."""
    tmp = tempfile.TemporaryDirectory()
    shutil.copytree(PACKAGE, tmp.name, dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for source in Path(tmp.name).glob("*.py"):
        py_compile.compile(str(source), doraise=True)
    return tmp


def verdict(edits, dest: Path, grid: str = "small") -> tuple[int, list[str]]:
    """Write each (file, old, new) edit to ``dest/abc2d``, import the mutant
    under a fresh alias, run ``verify`` on it and return the exit code and the
    names of the failing rows."""
    pristine, edited = Path(_pristine().name), dest / "abc2d"
    edited.mkdir()
    for file, old, new in edits:
        source = (edited / file if (edited / file).exists() else pristine / file).read_text()
        if source.count(old) != 1:
            raise TextMoved(f"{file}: {old!r} occurs {source.count(old)} times, not once")
        (edited / file).write_text(source.replace(old, new))
    alias = f"abc2d_mutant_{next(_ALIASES)}"
    init = next(d / "__init__.py" for d in (edited, pristine) if (d / "__init__.py").exists())
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(edited), str(pristine)])
    report = dest / "verify.json"
    try:
        sys.modules[alias] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[alias])
        cli = importlib.import_module(f"{alias}.cli")
        code = cli.main(["verify", "--grid", grid, "--format", "json", "--out", str(report)])
    finally:
        for name in [name for name in sys.modules if name.partition(".")[0] == alias]:
            del sys.modules[name]
    if not report.exists():
        return code, []
    checks = json.loads(report.read_text())["checks"]
    return code, sorted(check["name"] for check in checks if not check["passed"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", choices=("small", "full"), default="small")
    parser.add_argument("edits", nargs="+", metavar="FILE OLD NEW")
    args = parser.parse_args(argv)
    if len(args.edits) % 3:
        parser.error("edits come in FILE OLD NEW triples")
    edits = list(zip(*[iter(args.edits)] * 3))
    with tempfile.TemporaryDirectory() as tmp:
        try:
            code, failed = verdict(edits, Path(tmp), args.grid)
        except TextMoved as exc:
            print(f"mutants: {exc}", file=sys.stderr)
            return 1
    print(json.dumps({"exit": code, "failed": failed}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
