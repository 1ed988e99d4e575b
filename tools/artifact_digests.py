"""Digest every CLI artifact of one source tree, or compare two digest files.

    python tools/artifact_digests.py SRC OUT.json [--seeds 1-20] [--workloads fields,tables,verify]
    python tools/artifact_digests.py --compare A.json B.json

SRC is the directory that holds the ``abc2d`` package (``src`` in a checkout).
The operations are every ``fields`` and ``tables`` CLI call that the
benchmark's ``perfbench/workloads.make`` draws at each seed, its out-of-loop
probe included, each run once
with ``--format csv`` and once with ``--format json``, plus ``verify --grid
small|full`` in table and JSON.  For each it records the exit code, the
sha256 of stdout and the text of stderr.  All calls go through
``abc2d.cli.main`` in one fresh interpreter per tree, so two trees never
share ``sys.modules``.

``--compare`` prints every operation whose record differs or that only one
file holds, then a summary line; it exits 0 when there is no difference and
1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("fields", "tables", "verify")

# Runs in the fresh interpreter: reads the argv lists as JSON on stdin and
# writes {"module": ..., "records": [[exit, stdout sha256, stderr], ...]}.
_CHILD = r"""
import contextlib, hashlib, io, json, sys
from abc2d import cli
records = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    records.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
                    err.getvalue()])
json.dump({"module": cli.__file__, "records": records}, sys.__stdout__)
"""


def _seeds(text: str) -> list[int]:
    """"7" or "1-20" (both ends included)."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def operations(seeds: list[int], workloads: list[str]) -> list[list[str]]:
    """The argv of every operation, in order.  perfbench/workloads.py is read
    and run here, not imported, so nothing is written under perfbench/."""
    path = ROOT / "perfbench" / "workloads.py"
    bench = types.ModuleType("workloads")
    exec(compile(path.read_text(), path, "exec"), bench.__dict__)
    argvs = []
    for workload in workloads:
        if workload == "verify":
            argvs += [["verify", "--grid", grid, "--format", fmt]
                      for grid in ("small", "full") for fmt in ("table", "json")]
            continue
        for seed in seeds:
            ops, probe = bench.make(workload, seed)
            argvs += [op["argv"] + ["--format", fmt] for op in ops + [probe]
                      if op and op["op"] == "cli" for fmt in ("csv", "json")]
    return argvs


def digest(src: Path, argvs: list[list[str]]) -> dict:
    """{"module": the cli module that ran, "artifacts": {command line: record}}."""
    proc = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(argvs),
                          capture_output=True, text=True, cwd=src,
                          env={**os.environ, "PYTHONPATH": str(src)})
    if proc.returncode:
        raise SystemExit(f"{src}: the digest run failed\n{proc.stderr}")
    result = json.loads(proc.stdout)
    artifacts = {}
    for argv, (code, sha, stderr) in zip(argvs, result["records"]):
        artifacts[shlex.join(argv)] = {"exit": code, "stdout_sha256": sha, "stderr": stderr}
    return {"module": result["module"], "artifacts": artifacts}


def compare(a: dict, b: dict) -> list[str]:
    """One line per command line whose record differs or that one side lacks."""
    lines = []
    for key in sorted(a["artifacts"].keys() | b["artifacts"].keys()):
        ra, rb = a["artifacts"].get(key), b["artifacts"].get(key)
        if ra != rb:
            lines.append(f"{key}: {ra} != {rb}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs=2, metavar="PATH",
                        help="SRC OUT.json, or A.json B.json with --compare")
    parser.add_argument("--compare", action="store_true")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-20"))
    parser.add_argument("--workloads", type=lambda text: text.split(","),
                        default=list(WORKLOADS))
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(path).read_text()) for path in args.paths)
        lines = compare(a, b)
        print("\n".join(lines + [f"{len(a['artifacts'])} and {len(b['artifacts'])} "
                                 f"artifacts, {len(lines)} differ"]))
        return 1 if lines else 0
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    src, out = (Path(path).resolve() for path in args.paths)
    if not (src / "abc2d" / "cli.py").is_file():
        parser.error(f"{src} holds no abc2d package")
    result = digest(src, operations(args.seeds, args.workloads))
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{len(result['artifacts'])} artifacts from {result['module']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
