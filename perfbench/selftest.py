"""Self-test of the benchmark's own checks, on a short run of each workload.

    python3 perfbench/selftest.py

Run from the root of an abc2d checkout.  For every workload it shows that

  1. the correctness gate accepts the genuine outputs and rejects each one
     after a deliberate perturbation of a single printed number;
  2. an operation that raises is counted as failed (and attempted), not
     dropped, and does not stop the pass;
  3. the same seed gives the same artifact digest in two fresh processes,
     and another seed gives another digest.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7  # the second seed is SEED + 1

# The number each perturbation changes: (row selector, CSV column).
_COLUMN = {"spectrum": 1, "xsection": 1, "field": 2, "verify": 3}


def perturb(op: dict, text: str) -> str:
    """The output with one printed number moved by 1e-6 of its size."""
    lines = text.splitlines(keepends=True)
    if op["op"] == "state":
        i, col = 0, 0
    elif op["argv"][0] == "verify":
        i = next(j for j, ln in enumerate(lines)
                 if ln.startswith("# ") and ln.count(",") == 7 and " " not in ln[2:].strip())
        col = _COLUMN["verify"]
    else:
        data = [j for j, ln in enumerate(lines) if not ln.startswith("#")]
        i, col = data[1], _COLUMN[op["argv"][0]]
    fields = lines[i].rstrip("\n").split(",")
    v = float(fields[col])
    fields[col] = repr(v + 1e-6 * max(abs(v), 1e-3))
    lines[i] = ",".join(fields) + "\n"
    return "".join(lines)


def one_pass(runner: run.Runner, ops: list[dict]) -> dict:
    return runner.spawn("run", {"ops": ops, "seconds": 0})[0]


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "abc2d" / "__init__.py").is_file():
        print("selftest: run from the root of an abc2d checkout", file=sys.stderr)
        return 2
    runner = run.Runner(root, time.monotonic() + 600.0)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name in workloads.WORKLOADS:
        ops, _ = workloads.make(name, SEED)
        faulty = one_pass(runner, ops + [{"op": "fault"}])
        again = one_pass(runner, ops)
        other_ops, _ = workloads.make(name, SEED + 1)
        other = one_pass(runner, other_ops)

        rng = random.Random(SEED)
        clean = all(not gate.check(op, t, rng) for op, t in zip(ops, again["texts"]))
        expect(clean, f"{name}: gate accepts the genuine outputs")
        caught: dict[str, list[bool]] = {}
        for op, text in zip(ops, again["texts"]):
            label = op["argv"][0] if op["op"] == "cli" else op["op"]
            caught.setdefault(label, []).append(
                bool(gate.check(op, perturb(op, text), random.Random(SEED))))
        for label, hits in caught.items():
            expect(all(hits), f"{name}: gate rejects {sum(hits)} of {len(hits)} "
                              f"perturbed {label} outputs")

        attempted, failed, errors, problems = run.gate_worker(
            ops + [{"op": "fault"}], faulty, SEED)
        expect(attempted == 2 * (len(ops) + 1) and failed == 2 and not problems
               and all("injected fault" in e for e in errors),
               f"{name}: a raising operation counts as failed "
               f"(failed_ratio {failed}/{attempted})")

        # the faulty pass's last text is the injected fault's (empty) output
        digests = [run.artifact_digest(faulty["texts"][:-1]), run.artifact_digest(again["texts"])]
        expect(digests[0] == digests[1],
               f"{name}: same seed, same digest {digests[0][:16]}")
        expect(run.artifact_digest(other["texts"]) != digests[0],
               f"{name}: another seed, another digest")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
