"""The abc2d benchmark: one workload, one seed, one result.

    python3 perfbench/run.py --workload {verify,fields,tables} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The program is imported from ./src; its
bytecode is compiled first.  Each fresh interpreter is a worker process
(perfbench/worker.py) that runs the workload's operations in-process through
abc2d.cli.main and the public module functions, one at a time.

--trace 0 measures the end-to-end metrics, with tracing off:
  setup_s      median over every fresh interpreter of the time to import abc2d
               and build the CLI parser
  cold_s       median over the WORKERS fresh interpreters of the time to the
               end of their first pass
  wall_s       median seconds per warm pass, pooled over the workers, which
               share --seconds of warm passes
  peak_rss_mb  peak resident memory of the largest worker
  failed_ratio operations that raised, exited non-zero or failed the
               correctness gate, over operations attempted
The three times are host-speed scaled to the reference machine's typical
speed (see worker.py); the medians as measured are printed too.
The workers run one after another, each preceded by an import-only
interpreter, so the set-up, cold and warm samples are spread over the whole
run and a slow spell of the machine does not land on one metric alone.
--trace 1 runs the workload once untraced and once traced and reports the
per-layer metrics (per warm pass) and the tracing overhead.

Every output is checked by gate.py after the timed region; a wrong output
makes the run exit 1.  A run whose workers do not finish by the run deadline
(run_deadline_s) exits 3 without a result.  The last line of stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS  # noqa: E402

WORKERS = 4             # fresh interpreters per run, each with its own cold pass
OUT_DIR = ".perfbench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

EXIT_FAILURE = 1   # an output failed the correctness gate, or a worker crashed
EXIT_USAGE = 2     # not run from an abc2d checkout, or the program does not compile
EXIT_DEADLINE = 3  # the workers did not finish by the run deadline: no measurement


def run_deadline_s(seconds: float) -> float:
    """Seconds every worker of a run may take together.  The warm passes take
    --seconds; set-up, cold passes and the last pass of each worker get 120 s
    plus as much again.  At --seconds 15 that is 150 s, which leaves the gate
    and report inside a 180 s limit while still measuring a program about
    three times slower than at the baseline."""
    return 120.0 + 2.0 * seconds


class WorkerError(RuntimeError):
    pass


class DeadlineError(WorkerError):
    pass


def machine() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    record = {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath"):
        record[pkg] = metadata.version(pkg)
    return record


class Runner:
    """Spawns workers one at a time under a deadline for the whole run."""

    def __init__(self, root: Path, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.env.update({var: "1" for var in THREAD_VARS})
        self.root = root

    def spawn(self, mode: str, spec: dict | None = None,
              py_flags: tuple[str, ...] = ()) -> tuple[dict, float, str]:
        """(worker JSON, monotonic spawn time, stderr) of one worker run."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise DeadlineError("run deadline passed before a worker could start")
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, *py_flags, str(HERE / "worker.py"), mode],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=self.env, cwd=self.root)
        try:
            out, err = proc.communicate(json.dumps(spec or {}).encode(), timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise DeadlineError(f"worker ({mode}) exceeded the run deadline") from None
        if proc.returncode != 0:
            raise WorkerError(f"worker ({mode}) exited {proc.returncode}:\n"
                              f"{err.decode(errors='replace')[-4000:]}")
        return json.loads(out), t0, err.decode(errors="replace")


def scipy_integrate_s(importtime_log: str) -> float:
    """Cumulative import time of scipy.integrate, net of a numpy import nested
    in it, from `python -X importtime` output (0 when not imported)."""
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), int(cum), name.strip()))
    for j, (depth, cum, name) in enumerate(rows):
        if name == "scipy.integrate":
            i = j - 1
            while i >= 0 and rows[i][0] > depth:
                if rows[i][2] == "numpy":
                    cum -= rows[i][1]
                i -= 1
            return cum * 1e-6
    return 0.0


def artifact_digest(texts: list[str]) -> str:
    """sha256 of the concatenated outputs of one pass: the CLI output and,
    on verify, the extra states' (closed E, shot E, nodes, norm) records."""
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def warm_samples(worker: dict) -> list[tuple[float, float]]:
    """(measured seconds, host-speed scale) of each warm pass of a worker."""
    return list(zip(worker["durations"], worker["pass_scale"][1:]))


def scaled(samples: list[tuple[float, float]]) -> list[float]:
    """Reference-speed seconds of (measured seconds, scale) samples."""
    return [seconds * factor for seconds, factor in samples]


def percentile_line(samples: list[float]) -> str:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    text = f"median={statistics.median(xs)!r} n={n}"
    if n >= 11:
        text += f" p{100 * (n - 10) // n}={xs[n - 11]!r}"
    else:
        text += " (fewer than 11 samples: no percentile with 10 beyond it)"
    return text


def gate_worker(ops: list[dict], result: dict,
                seed: int) -> tuple[int, int, list[str], list[str]]:
    """(attempted, failed, errors, problems) for one worker's passes.

    An error is an operation that raised or exited non-zero; a problem is an
    output the gate rejects.  Both count as failed operations; only problems
    make the run incorrect.  The first pass's outputs go through the gate;
    every later pass must give byte-identical outputs (same sha256 per
    operation), which the CLI guarantees for identical invocations.
    """
    rng = random.Random(f"gate:{seed}")
    first = result["passes"][0]
    rejected = []
    problems: list[str] = []
    for op, (err, _, _), text in zip(ops, first, result["texts"]):
        found = [] if err else gate.check(op, text, rng)
        rejected.append(bool(found))
        problems.extend(found)
    attempted = failed = 0
    errors: list[str] = []
    for results in result["passes"]:
        for op, bad, (err, sha, _), (_, sha0, _) in zip(ops, rejected, results, first):
            attempted += 1
            failed += bool(err or bad or sha != sha0)
            if err:
                errors.append(f"{op.get('argv', op['op'])}: {err}")
            elif sha != sha0:
                problems.append(f"{op.get('argv', op['op'])}: output differs between "
                                f"passes of identical input")
    return attempted, failed, errors, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "abc2d" / "__init__.py").is_file():
        print("perfbench: run from the root of an abc2d checkout (no src/abc2d here)",
              file=sys.stderr)
        return EXIT_USAGE
    if not compileall.compile_dir(str(root / "src" / "abc2d"), quiet=1):
        print("perfbench: src/abc2d does not compile", file=sys.stderr)
        return EXIT_USAGE
    ops, probe = workloads.make(args.workload, args.seed)
    runner = Runner(root, start + run_deadline_s(args.seconds))
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spec = {"ops": ops, "seconds": args.seconds, "probe": probe}
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "machine": machine()}

    try:
        if args.trace:
            logs = [runner.spawn("setup", py_flags=("-X", "importtime"))[2]
                    for _ in range(WORKERS)]
            untraced = runner.spawn("run", dict(spec, probe=None))[0]
            traced, _, _ = runner.spawn("run", dict(
                spec, trace=True, trace_out=str(out_dir / f"spans-{tag}.npz")))
            workers = [untraced, traced]
        else:
            setups, colds, workers = [], [], []  # (measured seconds, scale) samples
            for i in range(WORKERS):
                res, t0, _ = runner.spawn("setup")
                setups.append((res["setup_end"] - t0, res["setup_scale"]))
                res, t0, _ = runner.spawn("run", dict(
                    spec, seconds=args.seconds / WORKERS,
                    probe=probe if i == WORKERS - 1 else None))
                setups.append((res["setup_end"] - t0, res["setup_scale"]))
                colds.append((res["first_pass_end"] - t0, res["pass_scale"][0]))
                workers.append(res)
    except DeadlineError as exc:
        print(f"perfbench: {exc} ({run_deadline_s(args.seconds):g} s at --seconds "
              f"{args.seconds:g}); the program is too slow for this run, no result",
              file=sys.stderr)
        return EXIT_DEADLINE
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    attempted = failed = 0
    errors: list[str] = []
    problems: list[str] = []
    for res in workers:
        a, f, e, p = gate_worker(ops, res, args.seed)
        attempted, failed = attempted + a, failed + f
        errors.extend(e)
        problems.extend(p)
    shas = [sha for _, sha, _ in workers[0]["passes"][0]]
    if any([sha for _, sha, _ in w["passes"][0]] != shas for w in workers):
        problems.append("outputs differ between processes for identical input")
    digest = artifact_digest(workers[-1]["texts"])

    probe_line = None
    if probe is not None:
        outcome = workers[-1]["probe"]
        if outcome["error"] is None:
            problems.extend(gate.check(probe, outcome["text"], random.Random(f"gate:{args.seed}")))
        probe_line = (f"probe {' '.join(probe['argv'])}: "
                      f"{outcome['error'] or 'ok'} (outside the timed passes)")
        record["probe"] = {"argv": probe["argv"], "error": outcome["error"]}

    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations per pass, "
          f"closed loop, one caller, --jobs 1")
    if args.trace:
        durations = warm_samples(traced)
        overhead = (statistics.median(scaled(durations))
                    / statistics.median(scaled(warm_samples(untraced))))
        metrics = layer_metrics(ops, traced, logs, overhead)
        for name, (value, unit) in metrics.items():
            print(f"{name} {value!r} {unit}")
        metrics["failed_ratio"] = (failed / attempted, "ratio")
    else:
        durations = [x for w in workers for x in warm_samples(w)]
        metrics = {
            "setup_s": (statistics.median(scaled(setups)), "s"),
            "cold_s": (statistics.median(scaled(colds)), "s"),
            "wall_s": (statistics.median(scaled(durations)), "s"),
            "peak_rss_mb": (max(w["peak_rss_mb"] for w in workers), "MB"),
        }
        print(f"setup_s {metrics['setup_s'][0]!r} s (median of {len(setups)} fresh interpreters)")
        print(f"cold_s {metrics['cold_s'][0]!r} s (median of {len(colds)} fresh interpreters)")
        print(f"wall_s {metrics['wall_s'][0]!r} s per warm pass "
              f"({percentile_line(scaled(durations))})")
        print(f"peak_rss_mb {metrics['peak_rss_mb'][0]!r} MB (largest of {len(workers)} workers)")
        print("as measured, before host-speed scaling: "
              + ", ".join(f"{name} {statistics.median(raw for raw, _ in samples)!r} s"
                          for name, samples in (("setup_s", setups), ("cold_s", colds),
                                                ("wall_s", durations)))
              + f"; median scale {statistics.median(sc for _, sc in durations)!r}")
        record["setup_samples"], record["cold_samples"] = setups, colds
    print(f"failed_ratio {failed / attempted!r} ({failed} of {attempted} operations)")
    print(f"artifact_sha256 {digest} (outputs of one pass, seed {args.seed})")
    if probe_line:
        print(probe_line)
    for e in sorted(set(errors))[:20]:
        print(f"FAILED: {e}")
    for p in problems[:20]:
        print(f"GATE FAIL: {p}")

    record.update({"durations": durations, "artifact_sha256": digest,
                   "attempted": attempted, "failed": failed, "problems": problems,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else EXIT_FAILURE


def layer_metrics(ops: list[dict], traced: dict, importtime_logs: list[str],
                  overhead: float) -> dict:
    """Per-layer metrics of the traced worker: medians over its warm passes."""
    layers, counts = traced["layers"], traced["counts"]

    def med(fn, count: bool = False):
        values = [fn(layer, c) for layer, c in zip(layers, counts)]
        # counts repeat exactly from pass to pass; keep them whole numbers
        return statistics.median_low(values) if count else statistics.median(values)

    def calls(name):
        return med(lambda lay, _: lay.get(name, [0, 0.0])[0], count=True)

    def self_s(name):
        return med(lambda lay, _: lay.get(name, [0, 0.0])[1])

    m: dict[str, tuple[float, str]] = {}
    m["oracle.shoot_with_nodes.calls"] = (calls("oracle.shoot_with_nodes"), "count")
    m["oracle.shoot_with_nodes.self_s"] = (self_s("oracle.shoot_with_nodes"), "s")
    m["oracle.quad_norm.calls"] = (calls("oracle.quad_norm"), "count")
    m["oracle.quad_norm.self_s"] = (self_s("oracle.quad_norm"), "s")
    m["oracle.quad_norm.integrand_evals"] = (
        med(lambda _, c: c["oracle.quad_norm.integrand_evals"], count=True), "count")
    for path in ("poly", "taylor", "asymptotic"):
        m[f"specfn.kummer_m.calls.{path}"] = (calls(f"specfn.kummer_m.{path}"), "count")
    for path in ("poly", "taylor", "asymptotic"):
        m[f"specfn.kummer_m.self_s.{path}"] = (self_s(f"specfn.kummer_m.{path}"), "s")
    n_taylor = calls("specfn.kummer_m.taylor")
    m["specfn.kummer_m.us_per_call.taylor"] = (
        1e6 * self_s("specfn.kummer_m.taylor") / n_taylor if n_taylor else 0.0, "us")
    for name in ("specfn.ln_gamma", "scatter.sigma_sample", "scatter.eval_scattering_field"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["scatter.sample_scattering_field.self_s"] = (self_s("scatter.sample_scattering_field"), "s")
    m["bound.spectrum.calls"] = (calls("bound.spectrum"), "count")
    m["bound.spectrum.levels"] = (med(lambda _, c: c["bound.spectrum.levels"], count=True), "count")
    m["bound.spectrum.self_s"] = (self_s("bound.spectrum"), "s")
    m["bound.eval_bound_wavefunction.calls"] = (calls("bound.eval_bound_wavefunction"), "count")
    m["bound.eval_bound_wavefunction.self_s"] = (self_s("bound.eval_bound_wavefunction"), "s")
    for fn in TARGETS["verify"]:
        m[f"verify.{fn}.self_s"] = (self_s(f"verify.{fn}"), "s")
    for fn in TARGETS["cli"]:
        m[f"cli.{fn}.self_s"] = (self_s(f"cli.{fn}"), "s")
    warm = [[r for op, r in zip(ops, p) if op["op"] == "cli"] for p in traced["passes"][1:]]
    m["cli.output_bytes"] = (statistics.median_low(sum(r[2] for r in p) for p in warm), "bytes")
    m["cli.calls"] = (calls("cli.main"), "count")
    m["cli.failed"] = (statistics.median_low(sum(1 for r in p if r[0]) for p in warm), "count")
    m["probe.large_beta_integer.failed"] = (
        1 if traced["probe"] and traced["probe"]["error"] else 0, "count")
    m["setup.scipy_integrate_s"] = (
        statistics.median(scipy_integrate_s(log) for log in importtime_logs), "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


if __name__ == "__main__":
    sys.exit(main())
