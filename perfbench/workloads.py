"""Seeded inputs for the three benchmark workloads.

A workload is a list of operations that one pass runs in order, in one
process, each waiting for the previous one (a closed loop with one caller).
An operation is a dict:

    {"op": "cli", "argv": [...]}      abc2d.cli.main(argv), expected exit 0
    {"op": "state", "mu", "kappa", "alpha", "n_r", "m"}
                                      one extra bound state through the
                                      public oracle and closed-form functions

Every draw comes from ``random.Random(seed)``, so a seed fixes the inputs.
Draws are stratified (one draw per stratum of each range, strata paired by a
seeded permutation) so that the cost of a pass barely depends on the seed,
while a seed not seen during development still exercises other parameters.
All runs use the CLI default ``--jobs 1``: no process pool ever starts.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("verify", "fields", "tables")

# The five spectral regimes of the flux alpha = m0 + nu.
REGIMES = ("coulomb", "integer", "split_low", "split_high", "half")


def _fmt(x: float) -> str:
    return repr(float(x))


def _alpha(rng: random.Random, regime: str) -> float:
    """A flux alpha inside the given spectral regime."""
    if regime == "coulomb":
        return 0.0
    m0 = rng.choice((-3, -2, -1, 1, 2, 3))
    if regime == "integer":
        return float(m0)
    if regime == "half":
        return m0 + 0.5
    if regime == "split_low":
        return m0 + rng.uniform(0.05, 0.45)
    return m0 + rng.uniform(0.55, 0.95)


def _state(rng: random.Random, regime: str) -> tuple[float, int, int]:
    """(alpha, n_r, m) with n_r <= 2, |m| <= 2, regular at the origin.

    The integer regime (nu = 0, m0 != 0) excludes m = 0.
    """
    alpha = _alpha(rng, regime)
    ms = (-2, -1, 1, 2) if regime == "integer" else (-2, -1, 0, 1, 2)
    return alpha, rng.randint(0, 2), rng.choice(ms)


def _strata(rng: random.Random, lo: float, hi: float, n: int, log: bool = False) -> list[float]:
    """One uniform draw in each of n equal strata of [lo, hi] (log scale if log)."""
    if log:
        lo, hi = math.log(lo), math.log(hi)
    width = (hi - lo) / n
    out = [lo + width * (j + rng.random()) for j in range(n)]
    return [math.exp(v) for v in out] if log else out


def _mu_kappa(rng: random.Random) -> list[str]:
    return ["--mu", _fmt(rng.uniform(0.5, 2.0)), "--kappa", _fmt(rng.uniform(0.5, 2.0))]


# Shooting cost grows with |m| (0.2 s at m = 0 to 0.5 s at |m| = 2 on the
# reference machine), so |m| and n_r are fixed multisets dealt to the regimes.
STATE_ABS_M = (0, 1, 1, 2, 2)
STATE_N_R = (0, 1, 1, 2, 2)


def verify_ops(rng: random.Random) -> list[dict]:
    """``verify --grid small`` plus one extra bound state per spectral regime."""
    ops: list[dict] = [{"op": "cli", "argv": ["verify", "--grid", "small"]}]
    abs_ms, nrs = list(STATE_ABS_M), list(STATE_N_R)
    rng.shuffle(abs_ms)
    rng.shuffle(nrs)
    i = REGIMES.index("integer")  # m = 0 is not a state there
    if abs_ms[i] == 0:
        abs_ms[i], abs_ms[i - 1] = abs_ms[i - 1], abs_ms[i]
    for regime, abs_m, n_r in zip(REGIMES, abs_ms, nrs):
        ops.append({"op": "state", "mu": rng.uniform(0.5, 2.0),
                    "kappa": rng.uniform(0.5, 2.0), "alpha": _alpha(rng, regime),
                    "n_r": n_r, "m": rng.choice((-1, 1)) * abs_m})
    return ops


# Grid half-widths paired with the k strata from low to high: the largest
# k * extent^2 reaches |z| ~ 30 in M(., ., i k eta^2), where the float
# Taylor sum cancels and the Decimal re-sum runs.
FIELD_EXTENTS = (2.0, 3.0, 4.0, 4.0)
FIELD_POINTS = 21


def fields_ops(rng: random.Random) -> list[dict]:
    """Scattering-field dumps of all three cases plus bound-state field dumps."""
    ops: list[dict] = []
    for case in ("coulomb", "integer", "half"):
        ks = _strata(rng, 0.5, 2.0, len(FIELD_EXTENTS))
        betas = _strata(rng, 0.2, 3.0, len(FIELD_EXTENTS))
        rng.shuffle(betas)
        for k, beta, ext in zip(ks, betas, FIELD_EXTENTS):
            ops.append({"op": "cli", "argv": [
                "field", "--kind", "scatter", "--case", case,
                "--k", _fmt(k), "--beta", _fmt(beta),
                "--xi-min", _fmt(-ext), "--xi-max", _fmt(ext),
                "--eta-min", _fmt(-ext), "--eta-max", _fmt(ext),
                "--nx", str(FIELD_POINTS), "--ny", str(FIELD_POINTS)]})
    for regime in ("coulomb", "integer", "split_low", "half"):
        alpha, n_r, m = _state(rng, regime)
        ops.append({"op": "cli", "argv": [
            "field", "--kind", "bound", *_mu_kappa(rng), "--alpha", _fmt(alpha),
            "--nr", str(n_r), "--m", str(m), "--extent", "4.0", "--points", "41"]})
    return ops


# Level counts per regime, in REGIMES order.  spectrum() is quadratic in the
# level count and the split regimes print a quarter of the members, so the
# counts stay with their regimes: the seed moves alpha, mu and kappa only, and
# the pass cost stays put.
SPECTRUM_LEVELS = (200, 100, 50, 25, 400)
XSECTION_THETAS = 4096


def tables_ops(rng: random.Random) -> list[dict]:
    """Spectrum tables across the five regimes and cross-section sweeps."""
    ops: list[dict] = []
    for regime, n in zip(REGIMES, SPECTRUM_LEVELS):
        ops.append({"op": "cli", "argv": [
            "spectrum", *_mu_kappa(rng), "--alpha", _fmt(_alpha(rng, regime)),
            "--levels", str(n)]})
    for case in ("coulomb", "integer", "half"):
        for beta in _strata(rng, 0.05, 200.0, 2, log=True):
            k = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            ops.append({"op": "cli", "argv": [
                "xsection", "--case", case, "--k", _fmt(k), "--beta", _fmt(beta),
                "--thetas", str(XSECTION_THETAS)]})
    return ops


def tables_probe(rng: random.Random) -> dict:
    """Integer-flux sweep at large beta, run once per tables run outside the
    timed passes.  At the baseline it dies with OverflowError (ln_gamma's
    reflection branch); see the benchmark README for why it is kept apart."""
    beta = math.exp(rng.uniform(math.log(250.0), math.log(1000.0)))
    k = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    return {"op": "cli", "argv": ["xsection", "--case", "integer", "--k", _fmt(k),
                                  "--beta", _fmt(beta), "--thetas", "64"]}


def make(workload: str, seed: int) -> tuple[list[dict], dict | None]:
    """(operations of one pass, out-of-loop probe or None) for a workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        return verify_ops(rng), None
    if workload == "fields":
        return fields_ops(rng), None
    if workload == "tables":
        ops = tables_ops(rng)
        return ops, tables_probe(rng)
    raise ValueError(f"unknown workload {workload!r}")
