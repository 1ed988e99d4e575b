import json
import math
import subprocess
import sys
import time

import pytest

from abc2d.bound import QuantumNumbers, eval_bound_wavefunction
from abc2d.cli import main
from abc2d.reduction import RelativeProblem

TANH_PI_HALF = 0.49813603811037497


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
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "abc2d", "spectrum", "--levels", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "-2" in proc.stdout
