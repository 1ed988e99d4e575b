import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import abc2d
from abc2d.bound import QuantumNumbers, eval_bound_wavefunction
from abc2d.cli import build_parser, main
from abc2d.reduction import RelativeProblem

TANH_PI_HALF = 0.49813603811037497
# Child interpreters import the same abc2d as this process, installed or not.
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(abc2d.__file__).parents[1])}


def run_csv(tmp_path, args, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def parse_csv(text):
    header_meta = {}
    rows = []
    columns = None
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            header_meta[key.strip()] = val
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header_meta, columns, rows


class TestSpectrumCommand:
    def test_pure_coulomb_table(self, tmp_path):
        code, text = run_csv(tmp_path, ["spectrum", "--mu", "1", "--kappa", "1",
                                        "--alpha", "0", "--levels", "3"])
        assert code == 0
        meta, cols, rows = parse_csv(text)
        assert cols == ["index", "energy", "branch", "N", "degeneracy", "members"]
        assert [float(r[1]) for r in rows] == pytest.approx([-2.0, -2.0 / 9.0, -0.08])
        assert [int(r[4]) for r in rows] == [1, 3, 5]
        assert meta["alpha"] == "0"

    def test_half_integer_merged_levels(self, tmp_path):
        code, text = run_csv(tmp_path, ["spectrum", "--alpha", "1.5", "--levels", "3"])
        assert code == 0
        _, _, rows = parse_csv(text)
        assert [int(r[4]) for r in rows] == [2, 4, 6]

    def test_no_bound_states_exit_code(self, capsys):
        assert main(["spectrum", "--kappa", "-1"]) == 2
        assert "bound states" in capsys.readouterr().err

    def test_raw_particle_input(self, tmp_path):
        phi = 2.0 * math.pi * 0.5
        code, text = run_csv(tmp_path, [
            "spectrum", "--raw", "1", "1", str(phi), "1", "-1", str(-phi),
            "--levels", "1"])
        assert code == 0
        _, _, rows = parse_csv(text)
        # mu = 1/2, kappa = 1, alpha = 1/2: ground energy -mu/2
        assert float(rows[0][1]) == pytest.approx(-0.25)

    def test_json_format(self, tmp_path):
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--alpha", "0", "--levels", "2",
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["levels"] == 2
        assert doc["levels"][0]["members"] == [[0, 0]]


class TestXsectionCommand:
    def test_coulomb_sweep(self, tmp_path):
        code, text = run_csv(tmp_path, ["xsection", "--case", "coulomb",
                                        "--k", "1", "--beta", "1", "--thetas", "64"])
        assert code == 0
        meta, cols, rows = parse_csv(text)
        assert len(rows) == 64
        assert cols == ["theta", "sigma_total", "sigma_coulomb", "sigma_cross"]
        assert meta["case"] == "coulomb"
        nearest = min(rows, key=lambda r: abs(float(r[0]) - math.pi))
        assert float(nearest[1]) == pytest.approx(TANH_PI_HALF, abs=2e-3)

    def test_backscattering_on_grid(self, tmp_path):
        # odd count with symmetric bounds puts theta = pi exactly on the grid
        code, text = run_csv(tmp_path, ["xsection", "--case", "coulomb",
                                        "--thetas", "63"])
        assert code == 0
        _, _, rows = parse_csv(text)
        mid = rows[31]
        assert float(mid[0]) == pytest.approx(math.pi, abs=1e-12)
        assert float(mid[1]) == pytest.approx(TANH_PI_HALF, rel=1e-12)

    def test_half_case_ratio(self, tmp_path):
        _, text_h = run_csv(tmp_path, ["xsection", "--case", "half", "--beta", "1",
                                       "--thetas", "16"], "h.csv")
        _, text_c = run_csv(tmp_path, ["xsection", "--case", "coulomb", "--beta", "1",
                                       "--thetas", "16"], "c.csv")
        _, _, rows_h = parse_csv(text_h)
        _, _, rows_c = parse_csv(text_c)
        expected = 1.0 / math.tanh(math.pi) ** 2
        for rh, rc in zip(rows_h, rows_c):
            assert float(rh[1]) / float(rc[1]) == pytest.approx(expected, rel=1e-12)

    def test_integer_case_interference_bounded(self, tmp_path):
        # sigma_x opposes sigma_C by up to ~92% at beta = 0.3 yet sigma_1
        # stays positive at every angle
        code, text = run_csv(tmp_path, ["xsection", "--case", "integer",
                                        "--beta", "0.3", "--thetas", "512",
                                        "--theta-min", "0.005"])
        assert code == 0
        _, _, rows = parse_csv(text)
        totals = [float(r[1]) for r in rows]
        crosses = [float(r[3]) for r in rows]
        assert min(totals) > 0.0
        assert min(crosses) < 0.0 < max(crosses)

    def test_large_beta_integer_flux(self, tmp_path):
        code, text = run_csv(tmp_path, ["xsection", "--case", "integer",
                                        "--beta", "500", "--thetas", "16"])
        assert code == 0
        _, _, rows = parse_csv(text)
        assert len(rows) == 16
        assert all(math.isfinite(float(v)) for r in rows for v in r)

    def test_raw_requires_energy(self, capsys):
        assert main(["xsection", "--raw", "1", "1", "1", "1", "-1", "-1"]) == 2

    def test_unsupported_flux_case(self):
        assert main(["xsection", "--raw", "1", "1", str(math.pi / 2), "1", "-1",
                     str(-math.pi / 2), "--energy", "0.5"]) == 2


class TestFieldCommand:
    def test_bound_field_peak_at_origin(self, tmp_path):
        code, text = run_csv(tmp_path, ["field", "--kind", "bound", "--alpha", "0",
                                        "--nr", "0", "--m", "0",
                                        "--extent", "3", "--points", "21"])
        assert code == 0
        _, _, rows = parse_csv(text)
        mods = [(math.hypot(float(r[2]), float(r[3])), float(r[0]), float(r[1]))
                for r in rows]
        peak = max(mods)
        assert peak[0] == pytest.approx(1.5957691216057307, rel=1e-10)
        assert (peak[1], peak[2]) == (0.0, 0.0)

    def test_integer_scatter_field_zero_at_origin(self, tmp_path):
        code, text = run_csv(tmp_path, ["field", "--kind", "scatter", "--case",
                                        "integer", "--nx", "5", "--ny", "5"])
        assert code == 0
        _, _, rows = parse_csv(text)
        center = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
        assert center and float(center[0][2]) == 0.0 and float(center[0][3]) == 0.0

    def test_half_field_antisymmetry(self, tmp_path):
        code, text = run_csv(tmp_path, ["field", "--kind", "scatter", "--case",
                                        "half", "--nx", "11", "--ny", "11"])
        assert code == 0
        _, _, rows = parse_csv(text)
        table = {(r[0], r[1]): complex(float(r[2]), float(r[3])) for r in rows}
        worst = 0.0
        for (xs, es), v in table.items():
            neg = (format(-float(xs), ".17g"), format(-float(es), ".17g"))
            if neg in table:
                worst = max(worst, abs(v + table[neg]))
        assert worst < 1e-12

    @pytest.mark.parametrize("alpha,nr,m", [(0.0, 0, 0), (2.0, 1, -1), (1.3, 2, 1)])
    def test_bound_dump_matches_pointwise_evaluation(self, tmp_path, alpha, nr, m):
        out = tmp_path / "b.json"
        assert main(["field", "--kind", "bound", "--mu", "1.2", "--kappa", "0.8",
                     "--alpha", str(alpha), "--nr", str(nr), "--m", str(m),
                     "--extent", "3", "--points", "9", "--format", "json",
                     "--out", str(out)]) == 0
        problem = RelativeProblem.from_parameters(1.2, 0.8, alpha)
        qn = QuantumNumbers(nr, m)
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 81
        for x, y, re, im in rows:
            v = eval_bound_wavefunction(qn, problem, math.hypot(x, y), math.atan2(y, x))
            assert (re, im) == (v.real, v.imag)

    def test_json_embeds_params(self, tmp_path):
        out = tmp_path / "f.json"
        assert main(["field", "--kind", "scatter", "--case", "coulomb",
                     "--nx", "4", "--ny", "4", "--format", "json",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["params"]["k"] == 1.0
        assert len(doc["rows"]) == 16


class TestVerifyCommand:
    def test_small_grid_passes_quickly(self, tmp_path):
        out = tmp_path / "verify.txt"
        start = time.monotonic()
        code = main(["verify", "--grid", "small", "--out", str(out)])
        elapsed = time.monotonic() - start
        assert code == 0
        assert elapsed < 60.0
        text = out.read_text()
        assert "FAIL" not in text and "all" in text

    def test_energy_perturbation_is_caught(self, tmp_path):
        out = tmp_path / "verify_bad.txt"
        code = main(["verify", "--grid", "small", "--perturb-energy", "1e-3",
                     "--out", str(out)])
        assert code == 3
        assert "shooting" in out.read_text()


class TestDeterminismAndUsage:
    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["xsection", "--case", "integer", "--beta", "0.7", "--thetas", "33"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_usage_errors_exit_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["xsection", "--case", "bogus"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--kappa", "nan"],
        ["spectrum", "--mu", "inf"],
        ["spectrum", "--kappa", "inf"],
        ["xsection", "--case", "integer", "--beta", "nan"],
        ["xsection", "--case", "coulomb", "--k", "inf"],
        ["field", "--kind", "bound", "--extent", "nan"],
        ["field", "--kind", "scatter", "--case", "coulomb", "--xi-max", "inf"],
        ["xsection", "--case", "coulomb", "--theta-min", "nan"],
        ["spectrum", "--raw", "1", "1", "nan", "1", "-1", "1"],
    ])
    def test_non_finite_input_exits_one(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    def test_cli_import_does_not_load_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, abc2d.cli; assert 'scipy' not in sys.modules"],
            capture_output=True, text=True, env=SUBPROCESS_ENV)
        assert proc.returncode == 0, proc.stderr

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "abc2d", "spectrum", "--levels", "1"],
            capture_output=True, text=True, env=SUBPROCESS_ENV)
        assert proc.returncode == 0
        assert "-2" in proc.stdout


FLOAT_FLAGS = {
    "spectrum": ("--mu", "--kappa", "--alpha"),
    "xsection": ("--k", "--beta", "--energy", "--theta-min", "--theta-max",
                 "--mu", "--kappa", "--alpha"),
    "field": ("--mu", "--kappa", "--alpha", "--k", "--beta", "--energy", "--extent",
              "--xi-min", "--xi-max", "--eta-min", "--eta-max"),
    "verify": ("--perturb-energy",),
}
REQUIRED = {"field": ["--kind", "bound"]}
NEGATIVE_EXPONENT_FORMS = ("-1e-3", "-2E0", "-3e-12", "-1.5e+300", "-.5e1")


class TestNegativeExponentValues:
    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, flags in FLOAT_FLAGS.items() for flag in flags])
    @pytest.mark.parametrize("text", NEGATIVE_EXPONENT_FORMS)
    def test_float_flag_takes_negative_exponent(self, command, flag, text):
        args = build_parser().parse_args([command, *REQUIRED.get(command, []), flag, text])
        assert getattr(args, flag[2:].replace("-", "_")) == float(text)

    @pytest.mark.parametrize("command", ["spectrum", "xsection", "field"])
    def test_raw_takes_negative_exponents(self, command):
        texts = ["1e0", "-1e-3", "-2E0", "2e0", "-3e-12", "-1.5e+300"]
        args = build_parser().parse_args([command, *REQUIRED.get(command, []), "--raw", *texts])
        assert args.raw == [float(t) for t in texts]

    def test_negative_exponent_alpha_runs(self, capsys):
        assert main(["spectrum", "--alpha", "-1e-3", "--levels", "2"]) == 0
        assert "# alpha=-0.001" in capsys.readouterr().out


class TestNonFiniteResults:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--mu", "1e300", "--kappa", "1e300"],
        ["field", "--kind", "scatter", "--case", "coulomb", "--xi-max", "1e300",
         "--eta-max", "1e300", "--nx", "3", "--ny", "3"],
        ["xsection", "--case", "coulomb", "--k", "1e-320", "--thetas", "3"],
        ["xsection", "--case", "coulomb", "--k", "1e-320", "--thetas", "3",
         "--format", "json"],
    ])
    def test_overflow_exits_two_with_one_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("abc2d: ")


# -- the CLI input domain ------------------------------------------------------------

_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-320, -1e-310, 1e-300, 1e300, -1e300,
                1.7976931348623157e308)
_NUMBERS = st.one_of(st.sampled_from(_EDGE_FLOATS),
                     st.floats(-10.0, 10.0),
                     st.floats(allow_nan=False, allow_infinity=False))
# repr gives -0.001 style text, ".6e" the exponent form argparse used to reject
_FLOAT_TEXT = st.builds(lambda x, exp: format(x, ".6e") if exp else repr(x),
                        _NUMBERS, st.booleans())
_CASE = st.sampled_from(["coulomb", "integer", "half"])
_FORMAT = st.sampled_from(["csv", "json"])
_RAW = st.lists(_FLOAT_TEXT, min_size=6, max_size=6)
_PROBLEM = {"--mu": _FLOAT_TEXT, "--kappa": _FLOAT_TEXT, "--alpha": _FLOAT_TEXT,
            "--raw": _RAW, "--format": _FORMAT}
_SCATTERING = {"--case": _CASE, "--k": _FLOAT_TEXT, "--beta": _FLOAT_TEXT,
               "--energy": _FLOAT_TEXT}


def _small_int(lo, hi):
    return st.integers(lo, hi).map(str)


def _flatten(command, drawn):
    argv = [command]
    for flag, value in drawn.items():
        argv += [flag, *value] if isinstance(value, list) else [flag, value]
    return argv


def _argv(command, required, optional):
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda drawn: _flatten(command, drawn))


# Size flags are always drawn, so no run falls back to a large default grid.
_ARGV = st.one_of(
    _argv("spectrum", {"--levels": _small_int(-1, 50)}, _PROBLEM),
    _argv("xsection", {"--thetas": _small_int(0, 16)},
          {**_PROBLEM, **_SCATTERING, "--theta-min": _FLOAT_TEXT,
           "--theta-max": _FLOAT_TEXT}),
    _argv("field", {"--kind": st.just("bound"), "--points": _small_int(0, 5)},
          {**_PROBLEM, "--nr": _small_int(0, 3), "--m": _small_int(-3, 3),
           "--extent": _FLOAT_TEXT}),
    _argv("field", {"--kind": st.just("scatter"), "--nx": _small_int(0, 5),
                    "--ny": _small_int(0, 5)},
          {**_PROBLEM, **_SCATTERING, "--xi-min": _FLOAT_TEXT, "--xi-max": _FLOAT_TEXT,
           "--eta-min": _FLOAT_TEXT, "--eta-max": _FLOAT_TEXT}),
)


@settings(max_examples=300, deadline=None)
@given(_ARGV)
@example(["spectrum", "--mu", "1e300", "--kappa", "1e300"])
@example(["field", "--kind", "scatter", "--case", "coulomb", "--xi-max", "1e300",
          "--eta-max", "1e300", "--nx", "3", "--ny", "3"])
@example(["xsection", "--case", "coulomb", "--k", "1e-320", "--thetas", "3"])
@example(["spectrum", "--alpha", "-1e-3"])
# found by this test: an endless asymptotic sum, a division by an underflowed
# k, and an overflowing rho**w
@example(["field", "--kind", "scatter", "--case", "coulomb", "--k", "6.373226e+16",
          "--beta", "1e300", "--nx", "3", "--ny", "3"])
@example(["xsection", "--case", "coulomb", "--k", "5e-324", "--thetas", "3"])
@example(["field", "--kind", "bound", "--mu", "7.196283e+117", "--kappa", "1.615272e+16",
          "--m", "-3", "--points", "2"])
def test_every_input_ends_in_a_result_or_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code == 0:
        text = out.getvalue().lower()
        assert "nan" not in text and "inf" not in text, argv
    else:
        assert out.getvalue() == "", argv
