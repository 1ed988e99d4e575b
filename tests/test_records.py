"""The contract of the package's seven records: how each is built, shown,
copied, pickled, replaced and remade.  The refusals of their constructors are
rows of LIBRARY_REFUSALS in tests/test_refusals.py."""

import copy
import math
import pickle

import pytest

from abc2d.bound import QuantumNumbers, SpectrumLevel
from abc2d.reduction import ParticlePair, RelativeProblem
from abc2d.scatter import FluxCase, ScatteringParams
from abc2d.verify import CheckResult, ShootingRow

# (record, its repr); every field is given, so the repr shows them all
RECORDS = [
    (ParticlePair(1.0, 2.0, 1.0, -3.0, 2.0, -6.0),
     "ParticlePair(mass1=1.0, mass2=2.0, charge1=1.0, charge2=-3.0, flux1=2.0, flux2=-6.0)"),
    (RelativeProblem(1.0, 0.5, 2.75),
     "RelativeProblem(reduced_mass=1.0, kappa=0.5, alpha_flux=2.75, m0=2, nu=0.75)"),
    (QuantumNumbers(0, 1), "QuantumNumbers(n_r=0, m=1)"),
    (SpectrumLevel(-0.5, "unsplit", 1, 1, 1, 1, 1),
     "SpectrumLevel(energy=-0.5, branch='unsplit', principal_n=1, plus_n=1, plus_count=1, "
     "minus_n=1, minus_count=1)"),
    (ScatteringParams(1.0, 0.5, FluxCase.HALF_INTEGER),
     "ScatteringParams(k=1.0, beta=0.5, flux_case=<FluxCase.HALF_INTEGER: 'half'>)"),
    (CheckResult("limits", True, 1e-16, 1e-6),
     "CheckResult(name='limits', passed=True, worst=1e-16, bound=1e-06, detail='')"),
    (ShootingRow("PureCoulomb", 0, 0, -2.0, -2.0000000000001, 5e-14, 1.0, True),
     "ShootingRow(case='PureCoulomb', n_r=0, m=0, closed_energy=-2.0, "
     "shoot_energy=-2.0000000000001, rel_err=5e-14, norm=1.0, passed=True)"),
]
_IDS = [type(record).__name__ for record, _ in RECORDS]

# (record, a field change its constructor refuses)
BAD_REPLACEMENTS = [
    (RECORDS[0][0], {"mass2": 0.0}),
    (RECORDS[1][0], {"reduced_mass": -1.0}),
    (RECORDS[1][0], {"alpha_flux": math.nan}),
    (RECORDS[1][0], {"nu": 0.25}),
    (RECORDS[1][0], {"m0": 3}),
    (RECORDS[2][0], {"n_r": -1}),
    (RECORDS[4][0], {"k": 0.0}),
    (RECORDS[4][0], {"beta": math.inf}),
]


class TestRecordContract:
    @pytest.mark.parametrize("record, text", RECORDS, ids=_IDS)
    def test_repr(self, record, text):
        assert repr(record) == text

    def test_repr_of_a_bound_problem_shows_the_derived_split(self):
        assert repr(RelativeProblem(2.0, 1.0, -0.5)) == (
            "RelativeProblem(reduced_mass=2.0, kappa=1.0, alpha_flux=-0.5, m0=-1, nu=0.5)")

    @pytest.mark.parametrize("record, text", RECORDS, ids=_IDS)
    def test_copy_pickle_and_replace_round_trip(self, record, text):
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record)), record._replace(),
                     type(record)._make(iter(record))):
            assert type(twin) is type(record)
            assert twin == record
            assert repr(twin) == text

    @pytest.mark.parametrize("record, text", RECORDS, ids=_IDS)
    def test_records_are_tuples_of_their_fields(self, record, text):
        assert tuple(record) == tuple(getattr(record, name) for name in record._fields)
        assert type(record)(*record.__getnewargs__()) == record
        with pytest.raises(AttributeError):
            record.extra = 1

    @pytest.mark.parametrize("record, change", BAD_REPLACEMENTS,
                             ids=[f"{type(r).__name__}-{next(iter(c))}"
                                  for r, c in BAD_REPLACEMENTS])
    def test_replace_and_make_validate(self, record, change):
        with pytest.raises(ValueError):
            record._replace(**change)
        fields = [change.get(name, value) for name, value in zip(record._fields, record)]
        with pytest.raises(ValueError):
            type(record)._make(fields)

    def test_replace_rederives_the_split(self):
        problem = RECORDS[1][0]._replace(alpha_flux=-0.5)
        assert problem == RelativeProblem(1.0, 0.5, -0.5)
        assert (problem.m0, problem.nu) == (-1, 0.5)
