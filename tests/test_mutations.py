"""Mutation table: one-line edits to the source that `verify` should catch.

Each row copies the package to a temporary directory, applies one edit there
and runs ``python -m abc2d verify --grid small --format json`` on the copy.
The edited text must occur exactly once, so a row fails loudly when the code
it names moves.  A killed mutant exits 3 with exactly its listed rows failing.
A surviving mutant is an expected failure whose reason names the ROADMAP item
that should kill it; when that item lands the row passes unexpectedly, and
the change that closed it lists the rows that now fail.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import abc2d

PACKAGE = Path(abc2d.__file__).parent


def _survives(item: int, why: str) -> pytest.MarkDecorator:
    return pytest.mark.xfail(strict=True, reason=f"survives verify; ROADMAP item {item}: {why}")


# (name, file, exact old text, new text, the rows that must fail)
MUTATIONS = [
    pytest.param(
        "half_prefactor", "scatter.py",
        "c = (2.0 * math.sqrt(k / math.pi)",
        "c = 1.001 * (2.0 * math.sqrt(k / math.pi)", (),
        marks=_survives(5, "no row reads the half-integer field's normalization")),
    pytest.param(
        "normalization_constant", "bound.py",
        "return math.exp(log_front + log_root)",
        "return math.exp(log_front + log_root) * (1 + 1e-8)", (),
        marks=_survives(6, "norm_quadrature's bound is looser than 1e-8")),
    pytest.param(
        "d0_shift", "scatter.py",
        "d0 = arg_gamma(0.5 - 1j * b)",
        "d0 = arg_gamma(0.5 - 1j * b) + 1e-6", (),
        marks=_survives(4, "no cross section has a witness away from its limits")),
    pytest.param(
        "interference_sign", "scatter.py",
        "sx = neg_amp * math.cos(arg) / math.sqrt(s2)",
        "sx = -neg_amp * math.cos(arg) / math.sqrt(s2)", (),
        marks=_survives(4, "interference tests only properties the flip keeps")),
    pytest.param(
        "coulomb_prefactor", "scatter.py",
        "c = cmath.exp(0.5 * math.pi * b + ln_gamma(0.5 - 1j * b)) / SQRT_PI",
        "c = 1.001 * cmath.exp(0.5 * math.pi * b + ln_gamma(0.5 - 1j * b)) / SQRT_PI",
        ("stationary_wave",)),
    pytest.param(
        "energy_lambda", "bound.py",
        "lam = _lambda(qn, problem.nu)",
        "lam = _lambda(qn, problem.nu) * (1 + 1e-8)",
        ("degeneracy",)),
    pytest.param(
        "taylor_checked_value", "specfn.py",
        "capped)\n    return value\n",
        "capped)\n    return value * (1 + 1e-6)\n",
        ("kummer_polynomial", "norm_quadrature")),
    pytest.param(
        "sigma_coulomb", "scatter.py",
        "sc = 0.5 * btanh / (p.k * s2)",
        "sc = 0.5 * btanh / (p.k * s2) * (1 + 1e-6)",
        ("limits",)),
    pytest.param(
        "sigma_half_coth", "scatter.py",
        "b / math.tanh(math.pi * b)",
        "b / math.tanh(math.pi * b) * (1 + 1e-4)",
        ("limits",)),
]


@pytest.mark.parametrize("name, file, old, new, rows", MUTATIONS,
                         ids=[param.values[0] for param in MUTATIONS])
def test_verify_kills_the_mutant(tmp_path, name, file, old, new, rows):
    copy = tmp_path / "abc2d"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / file).read_text()
    assert source.count(old) == 1, f"{name}: the text to mutate moved"
    (copy / file).write_text(source.replace(old, new))
    proc = subprocess.run(
        [sys.executable, "-m", "abc2d", "verify", "--grid", "small", "--format", "json"],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(tmp_path)})
    assert proc.returncode in (0, 3), proc.stderr
    failed = {check["name"] for check in json.loads(proc.stdout)["checks"]
              if not check["passed"]}
    assert failed, f"{name}: every row passes the mutant"
    assert proc.returncode == 3
    if rows:  # a survivor's rows are listed when an item kills it
        assert failed == set(rows)
