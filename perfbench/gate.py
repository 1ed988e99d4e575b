"""Correctness gate: every benchmark output against an independent reference.

Runs in the parent process, outside the timed region, and shares no code with
abc2d.  Field values and cross sections are recomputed from the closed forms
with mpmath (``hyp1f1``, ``loggamma``) on a seeded subsample; spectrum tables
are rebuilt from the closed degeneracy formulas of each regime; verify reports
must pass every row, and each extra bound state must meet verify's per-state
rule.  ``check(op, text, rng)`` returns a list of problems, empty when the
output is correct.
"""

from __future__ import annotations

import math
import random

import mpmath as mp

mp.mp.dps = 30

# Relative tolerances.  The closed forms promise ~1e-12 (kummer_m) and 17
# printed digits; the bounds leave room for float evaluation of the prefactors.
FIELD_RTOL = 1e-10
XSECTION_RTOL = 1e-11
ENERGY_RTOL = 1e-13
# verify's per-state rule: shooting energy within 1e-6 (relative) of the closed
# form, quadrature norm within 1e-6 of 1, node count equal to n_r.
STATE_TOL = 1e-6
# Rows checked per field dump and per cross-section sweep (plus the first row).
FIELD_SAMPLES = 12
XSECTION_SAMPLES = 48


def _flags(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1)
            if argv[i].startswith("--")}


def decompose(alpha: float) -> tuple[int, float]:
    """alpha = m0 + nu, nu in [0, 1), snapped within 1e-12 of 0, 1/2 and 1."""
    m0 = math.floor(alpha)
    nu = alpha - m0
    if nu < 1e-12:
        nu = 0.0
    elif nu > 1.0 - 1e-12:
        m0, nu = m0 + 1, 0.0
    elif abs(nu - 0.5) < 1e-12:
        nu = 0.5
    return m0, nu


def _data_rows(text: str) -> list[list[str]]:
    """CSV rows after the '#' parameter block and the column header."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _sample(rng: random.Random, n: int, k: int) -> list[int]:
    return sorted({0} | set(rng.sample(range(n), min(k, n))))


# -- spectrum ---------------------------------------------------------------------

def expected_levels(m0: int, nu: float, n: int) -> list[tuple[float, int, str, int]]:
    """(lambda, degeneracy, branch, N) of the n lowest levels, from the closed
    formulas: E = -mu kappa^2 / (2 lambda^2)."""
    if nu == 0.0 and m0 == 0:
        return [(N + 0.5, 2 * N + 1, "unsplit", N) for N in range(n)]
    if nu == 0.0:
        return [(N + 0.5, 2 * N, "unsplit", N) for N in range(1, n + 1)]
    if nu == 0.5:
        return [(N + 1.0, 2 * N + 2, "unsplit", N) for N in range(n)]
    plus = [(N + nu + 0.5, N + 1, "plus", N) for N in range(n)]
    minus = [(N - nu + 0.5, N, "minus", N) for N in range(1, n + 1)]
    return sorted(plus + minus)[:n]


def check_spectrum(argv: list[str], text: str) -> list[str]:
    f = _flags(argv)
    mu, kappa, n = float(f["mu"]), float(f["kappa"]), int(f["levels"])
    m0, nu = decompose(float(f["alpha"]))
    rows = _data_rows(text)
    want = expected_levels(m0, nu, n)
    if len(rows) != n:
        return [f"spectrum: {len(rows)} levels, expected {n}"]
    problems = []
    for row, (lam, deg, branch, principal) in zip(rows, want):
        idx, e, br, big_n, d, members = row
        e_want = -mu * kappa * kappa / (2.0 * lam * lam)
        if abs(float(e) - e_want) > ENERGY_RTOL * abs(e_want):
            problems.append(f"spectrum level {idx}: energy {e} != {e_want!r}")
        if (br, int(big_n), int(d)) != (branch, principal, deg):
            problems.append(f"spectrum level {idx}: ({br}, N={big_n}, d={d}) "
                            f"!= ({branch}, N={principal}, d={deg})")
        states = [tuple(map(int, s.split(":"))) for s in members.split(";")]
        if len(set(states)) != deg or any(
                abs(n_r + abs(m + nu) + 0.5 - lam) > 1e-9 or (nu == 0.0 and m0 != 0 and m == 0)
                for n_r, m in states):
            problems.append(f"spectrum level {idx}: wrong members {members}")
        if problems:
            break
    return problems


# -- cross sections ---------------------------------------------------------------

def check_xsection(argv: list[str], text: str, rng: random.Random) -> list[str]:
    f = _flags(argv)
    case, k, beta = f["case"], mp.mpf(f["k"]), mp.mpf(f["beta"])
    rows = _data_rows(text)
    if len(rows) != int(f["thetas"]):
        return [f"xsection: {len(rows)} rows, expected {f['thetas']}"]
    bt = beta * mp.tanh(mp.pi * beta)
    d01 = mp.im(mp.loggamma(mp.mpf(0.5) - 1j * beta)) + mp.im(mp.loggamma(1j * beta))
    for i in _sample(rng, len(rows), XSECTION_SAMPLES):
        theta, total, coul, cross = (mp.mpf(v) for v in rows[i])
        s = mp.sin(theta / 2)
        s2 = s * s
        sc = bt / (2 * k * s2)
        sx = mp.mpf(0)
        st = sc
        scale = sc
        if case == "integer":
            amp = mp.sqrt(bt) / (mp.sqrt(mp.pi) * k * abs(s))
            sx = -amp * mp.cos(d01 - beta * mp.log(s2))
            st = sc + sx
            scale = sc + amp
        elif case == "half":
            st = beta / mp.tanh(mp.pi * beta) / (2 * k * s2)
            scale = st
        for name, got, want in (("total", total, st), ("coulomb", coul, sc), ("cross", cross, sx)):
            if abs(got - want) > XSECTION_RTOL * scale:
                return [f"xsection {case} row {i}: sigma_{name} {got} != {mp.nstr(want, 17)}"]
    return []


# -- fields -----------------------------------------------------------------------

def _scatter_value(case: str, k, b, xi, eta):
    """(psi0, magnitude scale) from the closed forms in parabolic coordinates."""
    x = (xi * xi - eta * eta) / 2
    z = 1j * k * eta * eta
    c1 = mp.exp(mp.pi * b / 2 + mp.loggamma(mp.mpf(0.5) - 1j * b)) / mp.sqrt(mp.pi)
    direct = mp.exp(1j * k * x) * mp.hyp1f1(1j * b, mp.mpf(0.5), z)
    if case == "coulomb":
        return c1 * direct, abs(c1 * direct)
    if case == "integer":
        r = (xi * xi + eta * eta) / 2
        swave = mp.exp(1j * k * r) * mp.hyp1f1(mp.mpf(0.5) - 1j * b, 1, -2j * k * r)
        return c1 * (direct - swave), abs(c1) * (abs(direct) + abs(swave))
    c2 = 2 * mp.sqrt(k / mp.pi) * mp.exp(mp.pi * b / 2 - 1j * mp.pi / 4 + mp.loggamma(1 - 1j * b))
    v = c2 * mp.exp(1j * k * x) * eta * mp.hyp1f1(1j * b + mp.mpf(0.5), mp.mpf(1.5), z)
    return v, abs(v)


def _bound_value(f: dict[str, str], x, y):
    """Normalized bound-state wavefunction at Cartesian (x, y)."""
    mu, kappa = mp.mpf(f["mu"]), mp.mpf(f["kappa"])
    n_r, m = int(f["nr"]), int(f["m"])
    m0, nu = decompose(float(f["alpha"]))
    w = abs(m + mp.mpf(nu))
    lam = n_r + w + mp.mpf(0.5)
    rho = 2 * mu * kappa / lam * mp.sqrt(x * x + y * y)
    two_lam = 2 * lam
    log_c = (mp.log(4 * mu * kappa) - mp.log(two_lam) - mp.loggamma(2 * w + 1)
             + (mp.loggamma(n_r + 2 * w + 1) - mp.log(2 * mp.pi)
                - mp.loggamma(n_r + 1) - mp.log(two_lam)) / 2)
    radial = mp.exp(log_c - rho / 2) * (rho ** w if rho else (1 if w == 0 else 0))
    phase = mp.exp(1j * (m - m0) * mp.atan2(y, x))
    return radial * mp.hyp1f1(-n_r, 2 * w + 1, rho) * phase


def check_field(argv: list[str], text: str, rng: random.Random) -> list[str]:
    f = _flags(argv)
    rows = _data_rows(text)
    if f["kind"] == "scatter":
        n = int(f["nx"]) * int(f["ny"])
        k, b = mp.mpf(f["k"]), mp.mpf(f["beta"])
    else:
        n = int(f["points"]) ** 2
        peak = max(math.hypot(float(r[2]), float(r[3])) for r in rows) if rows else 0.0
    if len(rows) != n:
        return [f"field: {len(rows)} rows, expected {n}"]
    for i in _sample(rng, n, FIELD_SAMPLES):
        a, c, re, im = (mp.mpf(v) for v in rows[i])
        got = complex(float(re), float(im))
        if f["kind"] == "scatter":
            want, scale = _scatter_value(f["case"], k, b, a, c)
            scale = max(scale, 1e-300)
        else:
            want, scale = _bound_value(f, a, c), peak
        if abs(got - complex(want)) > FIELD_RTOL * float(scale):
            return [f"field {f['kind']} row {i}: {got!r} != {mp.nstr(want, 17)}"]
    return []


# -- verify -----------------------------------------------------------------------

_CASE_NU = {"PureCoulomb": 0.0, "HalfInteger": 0.5}


def check_verify(text: str) -> list[str]:
    """Every per-state row passes with correct closed energies; every check PASSes.

    The small grid has mu = kappa = 1 and m0 = 0, so the closed energy of a
    row is -1 / (2 (n_r + |m + nu| + 1/2)^2).
    """
    problems = []
    lines = text.splitlines()
    states = [ln[2:].split(",") for ln in lines
              if ln.startswith("# ") and ln.count(",") == 7 and " " not in ln[2:]]
    if not states:
        problems.append("verify: no per-state rows")
    for case, n_r, m, closed, shot, rel, norm, verdict in states:
        lam = int(n_r) + abs(int(m) + _CASE_NU.get(case, math.nan)) + 0.5
        want = -1.0 / (2.0 * lam * lam)
        if not (abs(float(closed) - want) <= ENERGY_RTOL * abs(want)
                and abs(float(shot) - want) <= STATE_TOL * abs(want)
                and abs(float(norm) - 1.0) <= STATE_TOL and verdict == "pass"):
            problems.append(f"verify state row fails: {case},{n_r},{m},{closed},{shot},{norm},{verdict}")
    checks = [ln for ln in lines if not ln.startswith("#") and "worst=" in ln]
    if len(checks) != 11 or any(ln.split()[1] != "PASS" for ln in checks):
        problems.append(f"verify: check rows not all PASS: {checks}")
    if not lines or lines[-1] != "all 11 checks passed":
        problems.append(f"verify: summary line {lines[-1] if lines else ''!r}")
    return problems


def check_state(op: dict, text: str) -> list[str]:
    """An extra bound state against the closed energy and verify's per-state rule."""
    closed, shot, nodes, norm = text.strip().split(",")
    m0, nu = decompose(op["alpha"])
    lam = op["n_r"] + abs(op["m"] + nu) + 0.5
    want = -op["mu"] * op["kappa"] ** 2 / (2.0 * lam * lam)
    ok = (abs(float(closed) - want) <= ENERGY_RTOL * abs(want)
          and abs(float(shot) - want) < STATE_TOL * abs(want)
          and abs(float(norm) - 1.0) < STATE_TOL
          and int(nodes) == op["n_r"])
    return [] if ok else [f"state {op}: closed, shot, nodes, norm = {text.strip()}"]


def check(op: dict, text: str, rng: random.Random) -> list[str]:
    """Problems with one operation's output; [] when it is correct."""
    try:
        if op["op"] == "state":
            return check_state(op, text)
        if op["op"] != "cli":
            return [f"no gate for operation {op['op']!r}"]
        command = op["argv"][0]
        if command == "spectrum":
            return check_spectrum(op["argv"], text)
        if command == "xsection":
            return check_xsection(op["argv"], text, rng)
        if command == "field":
            return check_field(op["argv"], text, rng)
        if command == "verify":
            return check_verify(text)
        return [f"no gate for command {command!r}"]
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return [f"unparseable output for {op.get('argv', op)}: {type(exc).__name__}: {exc}"]
