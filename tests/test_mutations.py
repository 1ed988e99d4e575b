"""Mutation table: edits to the source that `verify` should catch.

Each row copies the package to a temporary directory, applies its edits there
and runs ``verify --grid small --format json --out`` on the copy, imported in
this process under its own alias by ``tools/mutants.py``.  The edited text
must occur exactly once, so a row fails loudly when the code it names moves.
A killed mutant exits 3 with exactly its listed rows failing; the row with no
edit exits 0 with none.  A surviving mutant is an expected failure whose
reason names the ROADMAP item that should kill it; when that item lands the
row passes unexpectedly, and the change that closed it lists the rows that
now fail.
"""

import importlib
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def mutants(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("mutants")


def _survives(item: int, why: str) -> pytest.MarkDecorator:
    # a moved text raises TextMoved, which fails the row instead of passing it off
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"survives verify; ROADMAP item {item}: {why}")


def _row(name, file, old, new, rows, **kwargs):
    return pytest.param(name, [(file, old, new)], rows, id=name, **kwargs)


# (name, [(file, exact old text, new text)], the rows that must fail, or None
# for a survivor)
MUTATIONS = [
    pytest.param("identity", [], (), id="identity"),
    _row("half_prefactor", "scatter.py",
         "c = (2.0 * math.sqrt(k / math.pi)",
         "c = 1.001 * (2.0 * math.sqrt(k / math.pi)", None,
         marks=_survives(5, "no row reads the half-integer field's normalization")),
    _row("normalization_constant", "bound.py",
         "return math.exp(log_front + log_root)",
         "return math.exp(log_front + log_root) * (1 + 1e-8)", None,
         marks=_survives(6, "norm_quadrature's bound is looser than 1e-8")),
    _row("d0_shift", "scatter.py",
         "d0 = arg_gamma(0.5 - 1j * b)",
         "d0 = arg_gamma(0.5 - 1j * b) + 1e-6", None,
         marks=_survives(4, "no cross section has a witness away from its limits")),
    _row("interference_sign", "scatter.py",
         "[neg_amp * math.cos(",
         "[-neg_amp * math.cos(", None,
         marks=_survives(4, "interference tests only properties the flip keeps")),
    _row("sigma_c_tanh_to_coth", "scatter.py",
         "btanh = b * math.tanh(math.pi * b)",
         "btanh = b / math.tanh(math.pi * b)", None,
         marks=_survives(4, "limits is taken at beta = 20, where tanh and coth agree, "
                            "and interference tests only sign properties")),
    _row("asymptotic_dropped_term", "specfn.py",
         "        total += term\n        prev = mag\n",
         "        total += term if n != 1 else 0.0\n        prev = mag\n", None,
         marks=_survives(3, "no row checks the large-|z| expansion term by term")),
    _row("coulomb_prefactor", "scatter.py",
         "c = cmath.exp(0.5 * math.pi * b + log_gamma) / SQRT_PI",
         "c = 1.001 * cmath.exp(0.5 * math.pi * b + log_gamma) / SQRT_PI",
         ("stationary_wave",)),
    _row("energy_lambda", "bound.py",
         "lam = _lambda(qn, problem.nu)",
         "lam = _lambda(qn, problem.nu) * (1 + 1e-8)",
         ("degeneracy",)),
    # the shooting oracle never calls bound.energy, so it keeps the true energies
    _row("energy_scale", "bound.py",
         "return -problem.reduced_mass * (problem.kappa * problem.kappa) / (2.0 * lam * lam)",
         "return -problem.reduced_mass * (problem.kappa * problem.kappa) / (2.0 * lam * lam)"
         " * (1.0 + 1e-3)",
         ("degeneracy", "shooting")),
    # the closed forms move with |m - nu|, the shots take w from the Hamiltonian
    _row("effective_exponent_sign", "bound.py",
         "return abs(m + nu)",
         "return abs(m - nu)",
         ("degeneracy", "shooting")),
    # a shooting row prints its state's norm but passes on the energy alone
    _row("quad_norm_scale", "oracle.py",
         "return 2.0 * math.pi * value",
         "return 2.0 * math.pi * value * (1 + 2e-6)",
         ("norm_quadrature",)),
    _row("taylor_checked_value", "specfn.py",
         "capped)\n    return value\n",
         "capped)\n    return value * (1 + 1e-6)\n",
         ("kummer_polynomial", "norm_quadrature")),
    _row("taylor_shifted_parameter", "specfn.py",
         "    return _taylor_checked(a, b, z, deferred)",
         "    return _taylor_checked(a, b + 1e-3, z, deferred)",
         ("kummer_polynomial", "kummer_transform", "norm_quadrature", "pde_residual")),
    # the coefficient table's D_1 times 1 + 1e-5; pde_residual's
    # integer-flux stencil sums its three s-wave re-sums from one table
    _row("table_ratio", "specfn.py",
         "        terms.append((dr, di))\n",
         "        terms.append((dr, di) if n != 1 else "
         "(dr * 100001 // 100000, di * 100001 // 100000))\n",
         ("pde_residual",)),
    # the upper sign down to arg z = -pi/2, where it belongs only to Im z > 0
    _row("quadrant_sector_rule", "specfn.py",
         "sign = math.copysign(1.0, z.imag)",
         "sign = 1.0 if cmath.phase(z) > -0.5 * math.pi else -1.0",
         ("kummer_transform",)),
    # kummer_transform cannot see a uniform scale of M (ROADMAP item 3)
    _row("asymptotic_scale", "specfn.py",
         "        if error <= _CONDITION_LIMIT:\n            return value\n",
         "        if error <= _CONDITION_LIMIT:\n            return value * (1 + 1e-3)\n",
         ("stationary_wave",)),
    _row("sigma_coulomb", "scatter.py",
         "sigma_coulomb = [0.5 * btanh / (k * s2)",
         "sigma_coulomb = [0.5 * btanh / (k * s2) * (1 + 1e-6)",
         ("limits",)),
    _row("sigma_half_coth", "scatter.py",
         "b / math.tanh(math.pi * b)",
         "b / math.tanh(math.pi * b) * (1 + 1e-4)",
         ("limits",)),
]


@pytest.mark.parametrize("name, edits, rows", MUTATIONS)
def test_verify_gives_the_rows_verdict(mutants, tmp_path, name, edits, rows):
    code, failed = mutants.verdict(edits, tmp_path)
    assert not [module for module in sys.modules if module.startswith("abc2d_mutant_")]
    assert code == (3 if failed else 0)
    if rows is None:  # a survivor, until the item in its reason lands
        assert failed, f"{name}: every row passes the mutant"
    else:
        assert failed == sorted(rows)

