"""One fresh benchmark process.

    python worker.py setup     import abc2d and build the CLI parser, report when done
    python worker.py run       then read a JSON spec on stdin and run passes

The parent (run.py) times each worker from before it spawns it, so the
timestamps printed here are CLOCK_MONOTONIC readings, comparable across
processes.  Nothing but the abc2d import and the calibration timer precede
the set-up timestamp.

Host-speed calibration: the reference machine's speed drifts by tens of
percent over tens of seconds, driven by other tenants, and a drift that
lasts a whole run moves every statistic taken inside it.  So from its start
the worker runs a fixed pure-Python loop every CAL_INTERVAL_S of wall time,
from a SIGALRM handler, and records how long each loop took.  For each timed
stretch (set-up, cold pass, warm pass) it reports the time with the loops'
own time taken out, and the scale CAL_REFERENCE_S / (median loop time in the
stretch).  run.py multiplies each time by its scale: the metrics are seconds
at the reference machine's typical speed.  Because the loops fire on a wall
clock, a long operation gets as many of them as its length calls for.
"""

import signal
import sys
import time

CAL_ITERATIONS = 8000     # about 0.55 ms per loop on the reference machine
CAL_REFERENCE_S = 5.5e-4  # the loop's median time there, over minutes
CAL_INTERVAL_S = 0.025    # wall time between loops

CAL: list[float] = []  # seconds of every calibration loop so far, in order


def _calibrate(signum, frame) -> None:
    """Time the fixed loop.  It allocates no containers, so the program's
    heap and garbage collector do not reach it."""
    t = time.perf_counter()
    s = 0
    for i in range(CAL_ITERATIONS):
        s += i * i % 7
    CAL.append(time.perf_counter() - t)


signal.signal(signal.SIGALRM, _calibrate)
signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

from abc2d import cli  # noqa: E402

cli.build_parser()
SETUP_END = time.monotonic()
SETUP_CAL = len(CAL)

import contextlib  # noqa: E402  (after the set-up timestamp on purpose)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

from abc2d import bound, oracle  # noqa: E402
from abc2d.reduction import RelativeProblem  # noqa: E402


def stretch(lo: int, hi: int) -> tuple[float, float]:
    """(calibration seconds spent, scale) over the loops lo..hi-1.  A stretch
    too short to hold a loop takes the scale of the latest one."""
    if not CAL:
        _calibrate(None, None)
    samples = CAL[lo:hi] or CAL[-1:]
    return sum(CAL[lo:hi]), CAL_REFERENCE_S / statistics.median(samples)


def run_op(op: dict) -> tuple[str | None, str]:
    """(error or None, output text) of one operation.

    Errors are an exception escaping the call or a non-zero exit code.
    """
    buf = io.StringIO()
    try:
        if op["op"] == "cli":
            with contextlib.redirect_stdout(buf):
                rc = cli.main(op["argv"])
            if rc != 0:
                return f"exit {rc}", buf.getvalue()
        elif op["op"] == "state":
            problem = RelativeProblem.from_parameters(op["mu"], op["kappa"], op["alpha"])
            qn = bound.QuantumNumbers(op["n_r"], op["m"])
            closed = bound.energy(qn, problem)
            shot, nodes = oracle.shoot_with_nodes(problem, op["m"], op["n_r"])
            norm = oracle.quad_norm(qn, problem)
            buf.write(f"{closed!r},{shot!r},{nodes},{norm!r}\n")
        elif op["op"] == "fault":
            raise RuntimeError("injected fault")
        else:
            raise ValueError(f"unknown operation {op['op']!r}")
    except SystemExit as exc:  # argparse rejects bad flags by exiting
        return f"exit {exc.code}", buf.getvalue()
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}", buf.getvalue()
    return None, buf.getvalue()


def run_pass(ops: list[dict], keep: bool) -> tuple[list, list[str]]:
    """Run every op once: ([error, sha256 of output, output bytes] per op, texts if keep)."""
    results, texts = [], []
    for op in ops:
        err, text = run_op(op)
        data = text.encode()
        results.append([err, hashlib.sha256(data).hexdigest(), len(data)])
        if keep:
            texts.append(text)
    return results, texts


def main() -> int:
    setup_cal_s, setup_scale = stretch(0, SETUP_CAL)
    if sys.argv[1:] == ["setup"]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        print(json.dumps({"setup_end": SETUP_END - setup_cal_s, "setup_scale": setup_scale}))
        return 0
    spec = json.load(sys.stdin)
    ops = spec["ops"]
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    results, texts = run_pass(ops, keep=True)
    cold_cal_s, cold_scale = stretch(0, len(CAL))
    first_pass_end = time.monotonic() - cold_cal_s
    passes, pass_scale = [results], [cold_scale]
    durations = []
    marks = [tracer.mark()] if tracer else []
    warm_start = time.perf_counter()
    # At least one warm pass; start another while it is expected to end
    # within the time budget.
    while not durations or (
            time.perf_counter() - warm_start + durations[-1] <= spec["seconds"]):
        lo, t = len(CAL), time.perf_counter()
        results, _ = run_pass(ops, keep=False)
        elapsed, (cal_s, factor) = time.perf_counter() - t, stretch(lo, len(CAL))
        durations.append(elapsed - cal_s)
        pass_scale.append(factor)
        passes.append(results)
        if tracer:
            marks.append(tracer.mark())
    signal.setitimer(signal.ITIMER_REAL, 0)

    probe = None
    if spec.get("probe"):
        err, text = run_op(spec["probe"])
        probe = {"error": err, "text": text}

    out = {
        "setup_end": SETUP_END - setup_cal_s,
        "setup_scale": setup_scale,
        "first_pass_end": first_pass_end,
        "durations": durations,
        "pass_scale": pass_scale,
        "passes": passes,
        "texts": texts,
        "probe": probe,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        ids, self_s = tracer.self_times()
        out["layers"] = [tracer.summarize(lo, hi, ids, self_s)
                         for (lo, _), (hi, _) in zip(marks, marks[1:])]
        out["counts"] = [{k: after[k] - before[k] for k in after}
                         for (_, before), (_, after) in zip(marks, marks[1:])]
        if spec.get("trace_out"):
            tracer.write(spec["trace_out"])
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
