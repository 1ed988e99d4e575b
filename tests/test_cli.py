import ast
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import abc2d
from abc2d import bound, cli, oracle, scatter, verify
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


def refused(argv, code, err, tmp_path, capsys):
    """Run argv to stdout, then with --out naming a file filled beforehand:
    each run exits with code, prints nothing to stdout and exactly err to
    stderr, and the file is left as it was."""
    assert main(argv) == code
    assert capsys.readouterr() == ("", err)
    path = tmp_path / "artifact.out"
    path.write_bytes(b"old,bytes\n")
    assert main(argv + ["--out", str(path)]) == code
    assert capsys.readouterr() == ("", err)
    assert path.read_bytes() == b"old,bytes\n"


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


# sha256 of stdout for each argv, one table for every command.  Any change to
# an artifact's bytes, down to an energy's last bit, shows here.
FIELD_SCATTER = ["--k", "1.3", "--beta", "0.8", "--xi-min", "-4", "--xi-max", "4",
                 "--eta-min", "-4", "--eta-max", "4", "--nx", "21", "--ny", "21"]
FIELD_ASYMMETRIC = ["--k", "1.3", "--beta", "0.8", "--xi-min", "-1.3", "--xi-max", "2.9",
                    "--nx", "10", "--eta-min", "-0.7", "--eta-max", "3.1", "--ny", "8"]
# README's large-beta refusal band: on this grid beta = 43 passes and beta = 60
# does not, at k eta^2 = 324 in the Coulomb factor
LARGE_BETA_GRID = ["field", "--kind", "scatter", "--case", "coulomb", "--k", "1",
                   "--xi-min", "0", "--xi-max", "1", "--eta-min", "17", "--eta-max", "18",
                   "--nx", "2", "--ny", "2"]
XSECTION_SWEEP = ["--k", "1.3", "--beta", "0.8", "--thetas", "64"]
GOLDEN_DIGESTS = [
    # `spectrum` in the five regimes (coulomb, integer, split low and high,
    # half), recorded from the ladder walk that built its members as sorted
    # QuantumNumbers objects
    (["spectrum", "--alpha", "0", "--levels", "300", "--format", "csv"],
     "7b1ae7add16b7076b2c00dbf81482dbc512fe718625b9130b9abcb7900de0a4d"),
    (["spectrum", "--alpha", "0", "--levels", "300", "--format", "json"],
     "b5c5bfc59c4af6cb1c64767c91910212d7cd13cef20b720b09caf4a22a557867"),
    (["spectrum", "--alpha", "-2", "--levels", "300", "--format", "csv"],
     "d6493d74e47538fb0d464fb424a97ba709c2ae588a55dafdd3bf7ef88a6ccbcf"),
    (["spectrum", "--alpha", "-2", "--levels", "300", "--format", "json"],
     "d049c00dd1b53a5e53904c7b7a2e5960e8f8edfcd1582a8e540456526283d9e3"),
    (["spectrum", "--alpha", "0.3", "--levels", "300", "--format", "csv"],
     "4d3cc1d7e4ad69cd96e93991bb43743d68202fa5bf0973e00ec7eef898b31c71"),
    (["spectrum", "--alpha", "0.3", "--levels", "300", "--format", "json"],
     "39bfc679797bf37b5eaedf85d65d0c937b06236196e2dd6b04c96f6321057d78"),
    (["spectrum", "--alpha", "0.7", "--levels", "300", "--format", "csv"],
     "fa5d43f91114a2da489434b1835a062436f8ff8a0e8baaf03c89448c39da1c1a"),
    (["spectrum", "--alpha", "0.7", "--levels", "300", "--format", "json"],
     "aec4325080be8c975dde488cdf65493f38bc1605ebf572a8710beaf2b05d8997"),
    (["spectrum", "--alpha", "2.5", "--levels", "300", "--format", "csv"],
     "d4c1ebdae6c3ab77bcf7339d745e1b4693fee1bf7721a0c2da84d9bd1208aad7"),
    (["spectrum", "--alpha", "2.5", "--levels", "300", "--format", "json"],
     "86ef42ff54467f1417ccc92f6e330321819e7b51f67b4bf94fe10a1ff485fe55"),
    (["spectrum", "--alpha", "0.5", "--levels", "1000", "--format", "csv"],
     "a5ab66d08485cdc6285d00ff34e64264808581ac2abf9728e77bb404219b803d"),
    # recorded from the writer that built every row and joined the whole text
    (["spectrum", "--alpha", "0.5", "--levels", "1000", "--format", "json"],
     "a2f8b9d2a95fd9ec91b3f0b552f0440321a7f6316b963d60528f4cb7a8361cfc"),
    # recorded from the walk that takes lambda from the rung, N +- nu + 1/2;
    # at this nu the smallest member's n_r + |m + nu| + 1/2 rounds one ulp
    # off it in 95 of the 300 levels, and 92 energies differ from that rounding
    (["spectrum", "--alpha", "2.354937147435284", "--levels", "300", "--format", "csv"],
     "d97c723c70acc70c1d29ffd7bfb49f09cce45a00b1b41bb5b98f48d911ae5cf0"),
    (["spectrum", "--alpha", "2.354937147435284", "--levels", "300", "--format", "json"],
     "40c671eea35f30e6181a15e65e178e5f4365c5ad24da7a397145f9ef09bab0da"),
    # `field`: each scattering case on a 21 x 21 grid of extent +-4, where the
    # Kummer factors reach the fixed-point re-sum, and bound states in the
    # integer and split regimes; recorded from the dump that built its rows in
    # one loop per kind.  The next three (a half-flux bound state on an even
    # grid in JSON, and an asymmetric 10 x 8 integer-flux grid in both
    # formats) were recorded from that dump too, before it rendered each grid
    # coordinate once per axis.  The six scattering rows were re-recorded when
    # ln_gamma's Stirling products stopped carrying Dekker residuals, which
    # moved their Gamma prefactors: no cell by more than 2.6e-14 of itself.
    (["field", "--kind", "scatter", "--case", "coulomb", *FIELD_SCATTER],
     "30d6d067a23923f791bdc956360d2fb26ef3f4fbf1965d29c11444fe767a46f9"),
    (["field", "--kind", "scatter", "--case", "integer", *FIELD_SCATTER],
     "074f36aed8e135c5b87edfab79a8aefaa03939776345819f6c573aecc9f6d387"),
    (["field", "--kind", "scatter", "--case", "half", *FIELD_SCATTER],
     "12db2bc13f0d8d611b77d46a56250791624809792412f66e93a29320f9dc17db"),
    (["field", "--kind", "scatter", "--case", "integer", "--format", "json", *FIELD_SCATTER],
     "78d2155c1f01392d925b82f33913412dc7ac5c67b0e11d301b354a04994b6f57"),
    (["field", "--kind", "bound", "--alpha", "-2", "--nr", "1", "--m", "1",
      "--extent", "4", "--points", "21"],
     "d8a43fd0440bee115952530e659f866ab622053e14516c495853c374c7f017ee"),
    (["field", "--kind", "bound", "--alpha", "0.3", "--nr", "2", "--m", "-1",
      "--extent", "4", "--points", "21"],
     "c7f6336bd9b80104452c39c55be53f15a7cb1789a38c382d29e4b6417553a4a0"),
    (["field", "--kind", "bound", "--alpha", "1.5", "--nr", "1", "--m", "-2",
      "--extent", "3", "--points", "20", "--format", "json"],
     "8f242cac5bacaf3912b3e7e15c7149a78ec80381ffd255a622ae64a2bc72c3ae"),
    (["field", "--kind", "scatter", "--case", "integer", *FIELD_ASYMMETRIC],
     "3834d15742356c15ab017cc706e28b2a09a30ee76623fce1da8f9f77ec78d5dd"),
    (["field", "--kind", "scatter", "--case", "integer", "--format", "json", *FIELD_ASYMMETRIC],
     "148d1e249854fe4ea23437c3dd4a098bd48e73045b54ef3d5ae4af1decd8b46a"),
    # the passing edge of the large-beta band, recorded when it joined this table
    ([*LARGE_BETA_GRID, "--beta", "43"],
     "4b681c26a410befa92719d5ac6f3b2697ed6339dc786736efdecd7e81baaadb1"),
    # `verify`: all three were re-recorded when the shooting oracle's inward
    # leg became the Riccati equation for R_s / R in s.  Field by field
    # against the previous output, in JSON on both grids, only the rows'
    # shoot_E and rel_err cells and the shooting row's worst moved: 12 of 12
    # rows on the small grid and 60 of 60 on the full one, with every closed_E,
    # norm, n_r, m and per-state pass (which holds the node count) equal.  The
    # shooting worst fell from 1.170e-10 to 5.670e-11 (small) and from
    # 1.723e-10 to 8.710e-11 (full).  The full-grid digest was re-recorded
    # again when node-count narrowing stopped as soon as the window held level
    # n_r alone: in JSON, only shoot_E and rel_err of 6 of its 60 rows moved,
    # shoot_E by at most 3 ulp, and the shooting worst stayed at 8.710e-11.
    # All three were re-recorded again when kummer_m stopped applying Kummer's
    # transformation to itself and the kummer_transform row drew one triple in
    # four at |z| in [45, 100]: in JSON on both grids only that row's worst and
    # detail moved, its worst from 4.873e-16 to 8.072e-15 (small) and from
    # 5.807e-15 to 1.191e-14 (full).  All three were re-recorded again when
    # ln_gamma's Stirling products stopped carrying Dekker residuals: in JSON
    # only worst cells moved, every check still passing.  gamma_identities
    # went from 1.732e-14 to 2.531e-14 (small) and from 2.531e-14 to
    # 2.442e-14 (full), gamma_functional from 6.217e-15 to 8.438e-15 (both),
    # kummer_transform from 8.072e-15 to 9.626e-15 (small), pde_residual and
    # stationary_wave by 2.8e-8 and 9.8e-13 of themselves (both).
    (["verify", "--grid", "small", "--format", "table"],
     "0375726b1d845378be771d72e83dcc4c99e374be96115ef5561f997491f50bf3"),
    (["verify", "--grid", "small", "--format", "json"],
     "683c575beda7c220e1603d2fa43a0b7df50ea0eb0aaa01629cc0601553775f24"),
    (["verify", "--grid", "full", "--format", "table"],
     "10dc2045b06d3efb194e930143da5ded3a397e65ce6fdf786c9d3b4d62058eb0"),
    # `xsection`: each case in both formats on a 64-angle sweep, and a
    # 4,096-angle integer-flux sweep as the benchmark's tables run it; recorded
    # from the writer that checked and formatted each value on its own.  The
    # three integer-flux rows were re-recorded when ln_gamma's Stirling
    # products stopped carrying Dekker residuals and the cosine its 2 pi
    # remainder: sigma_cross moved by at most 8.6e-12 of a cell and 3.5e-14
    # of its column.
    (["xsection", "--case", "coulomb", *XSECTION_SWEEP],
     "c21852a00dcf514c68a86f1e500b8e9c6b81a1e9eaa0aa718c4de7fcb14c61d1"),
    (["xsection", "--case", "coulomb", "--format", "json", *XSECTION_SWEEP],
     "02b0f153b7756158d7d3fdbb9448061ab85f077c232b85b71460b6ac3cc4349a"),
    (["xsection", "--case", "integer", *XSECTION_SWEEP],
     "db8a5035d242bcbcd329a147bedadd605dcb1f3607c723b6012e7d5d364ffbb5"),
    (["xsection", "--case", "integer", "--format", "json", *XSECTION_SWEEP],
     "4c9faf962aa01c98f45e89242fa0401fd5c2f7b233d687ba6189f33b84e1fa6a"),
    (["xsection", "--case", "half", *XSECTION_SWEEP],
     "fec411f5e096206fdda3ec56766d2e3a59a7a332bdeaba4f0ac78a942811c248"),
    (["xsection", "--case", "half", "--format", "json", *XSECTION_SWEEP],
     "57b7349602ca2ee9d27b22454d570cddb5ef328c6a64430b3449b57641d4f462"),
    (["xsection", "--case", "integer", "--k", "0.7", "--beta", "40", "--thetas", "4096"],
     "2685a890e029128f2d3905979284c5493e1d06e6bed8721ddf672446ab424878"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_DIGESTS)
def test_golden_digests(argv, digest, capsys):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_out_file_matches_the_golden_digest(tmp_path, capsys):
    # --out takes the same writelines path as stdout: the same bytes
    argv = ["spectrum", "--alpha", "0.5", "--levels", "1000", "--format", "csv"]
    digest = dict((tuple(a), d) for a, d in GOLDEN_DIGESTS)[tuple(argv)]
    path = tmp_path / "levels.csv"
    assert main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_table_memory_is_bounded_by_its_text(tmp_path, fmt):
    # members grow quadratically with the level count; a writer that keeps
    # every level, or joins the whole text, peaks at many times the file
    # size (12.9x here in CSV when it did both; 7.2x in JSON when one
    # json.dumps call took every row)
    path = tmp_path / f"levels.{fmt}"
    tracemalloc.start()
    try:
        assert main(["spectrum", "--alpha", "0.5", "--levels", "300", "--format", fmt,
                     "--out", str(path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * path.stat().st_size


@pytest.mark.parametrize("fmt,factor", [("csv", 3), ("json", 2)])
def test_sweep_memory_is_bounded_by_its_text(tmp_path, fmt, factor):
    # the sweep's four float columns, 32 bytes a cell against about 20 bytes
    # of CSV text, stay alive while it is rendered, so CSV peaks at over 2x
    # its size whatever the writer; with a string per row the peak was 3.49x
    # in CSV and 2.14x in JSON, with blocks of _FLOAT_BLOCK rows 2.83x and 1.83x
    path = tmp_path / f"sweep.{fmt}"
    build_parser()
    tracemalloc.start()
    try:
        assert main(["xsection", "--case", "integer", "--thetas", "10000", "--format", fmt,
                     "--out", str(path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= factor * path.stat().st_size


# Every documented refusal as (argv, exit code, the whole of stderr): exit 1
# is a usage error and exit 2 a domain error, each refused with one line on
# stderr, nothing on stdout and nothing written to --out.
USAGE = "abc2d: invalid argument: "
BOUND = ["field", "--kind", "bound"]
SCATTER = ["field", "--kind", "scatter"]
RAW_HALF = ["--raw", "1", "1", str(math.pi), "1", "-1", str(-math.pi)]
RAW_INTEGER = ["--raw", "1", "1", str(2 * math.pi), "1", "-1", str(-2 * math.pi)]
RAW_SPLIT = ["--raw", "1", "1", "1", "1", "-1", "-1"]  # nu = 1/(2 pi)
DBL_MAX = "1.7976931348623157e308"
REFUSALS = [
    (["spectrum", "--levels", "0"], 1, USAGE + "n_levels must be positive\n"),
    (["xsection", "--case", "coulomb", "--thetas", "0"], 1,
     USAGE + "a sweep needs at least 1 angle\n"),
    (["xsection", "--case", "coulomb", "--thetas", "-1"], 1,
     USAGE + "number of samples, -1, must be non-negative\n"),
    ([*BOUND, "--points", "-2"], 1, USAGE + "number of samples, -2, must be non-negative\n"),
    # both kinds of field dump share one rule
    *((argv, 1, USAGE + "grid needs at least 2 points per axis\n") for argv in (
        [*BOUND, "--points", "0"], [*BOUND, "--points", "1"],
        [*SCATTER, "--case", "half", "--nx", "1"], [*SCATTER, "--case", "half", "--ny", "0"])),
    # refused before any work; counts up to sys.maxsize that allocate a whole
    # axis are not run here
    *((argv + ["1" + "0" * (digits - 1)], 1, f"{USAGE}{argv[-1]} must lie within "
       f"+-{sys.maxsize}, got an integer of {digits} digits\n")
      for argv in (["spectrum", "--levels"], ["xsection", "--case", "coulomb", "--thetas"],
                   [*BOUND, "--nr"], [*BOUND, "--m"], [*BOUND, "--points"],
                   [*SCATTER, "--case", "coulomb", "--nx"],
                   [*SCATTER, "--case", "coulomb", "--ny"])
      for digits in (20, 401)),
    (["spectrum", "--kappa", "nan"], 1, USAGE + "--kappa must be finite, got nan\n"),
    (["spectrum", "--mu", "inf"], 1, USAGE + "--mu must be finite, got inf\n"),
    (["spectrum", "--kappa", "inf"], 1, USAGE + "--kappa must be finite, got inf\n"),
    (["xsection", "--case", "integer", "--beta", "nan"], 1,
     USAGE + "--beta must be finite, got nan\n"),
    (["xsection", "--case", "coulomb", "--k", "inf"], 1, USAGE + "--k must be finite, got inf\n"),
    ([*BOUND, "--extent", "nan"], 1, USAGE + "--extent must be finite, got nan\n"),
    ([*SCATTER, "--case", "coulomb", "--xi-max", "inf"], 1,
     USAGE + "--xi-max must be finite, got inf\n"),
    (["xsection", "--case", "coulomb", "--theta-min", "nan"], 1,
     USAGE + "--theta-min must be finite, got nan\n"),
    (["spectrum", "--raw", "1", "1", "nan", "1", "-1", "1"], 1,
     USAGE + "--raw must be finite, got [1.0, 1.0, nan, 1.0, -1.0, 1.0]\n"),
    ([*SCATTER, "--case", "half", "--xi-min", "-1e300", "--xi-max", DBL_MAX, "--nx", "3",
      "--ny", "3"], 1,
     USAGE + "--xi-min/--xi-max: the span 1.7976931348623157e+308 - (-1e+300) overflows\n"),
    ([*SCATTER, "--case", "half", "--eta-min", "-1e300", "--eta-max", DBL_MAX, "--nx", "3",
      "--ny", "3"], 1,
     USAGE + "--eta-min/--eta-max: the span 1.7976931348623157e+308 - (-1e+300) overflows\n"),
    (["xsection", "--case", "coulomb", "--theta-min", "-1e300", "--theta-max", DBL_MAX], 1,
     USAGE + "--theta-min/--theta-max: the span 1.7976931348623157e+308 - (-1e+300) "
     "overflows\n"),
    ([*BOUND, "--extent", DBL_MAX, "--points", "3"], 1,
     USAGE + "--extent: the span 1.7976931348623157e+308 - (-1.7976931348623157e+308) "
     "overflows\n"),
    # a field dump takes no flag that only the other --kind reads
    *(([*BOUND, flag, value], 1, f"{USAGE}{flag} applies only to --kind scatter\n")
      for flag, value in (("--case", "half"), ("--k", "3"), ("--beta", "1"),
                          ("--energy", "2"), ("--xi-min", "-1"), ("--nx", "3"))),
    *(([*SCATTER, "--case", "half", flag, value], 1,
       f"{USAGE}{flag} applies only to --kind bound\n")
      for flag, value in (("--nr", "1"), ("--m", "0"), ("--extent", "2"), ("--points", "2"),
                          ("--mu", "2"), ("--alpha", "0"))),
    (["spectrum", "--kappa", "-1"], 2, "abc2d: bound states require attraction (kappa > 0)\n"),
    ([*BOUND, "--kappa", "-1", "--points", "3"], 2,
     "abc2d: bound states require attraction (kappa > 0)\n"),
    ([*BOUND, "--alpha", "1", "--m", "0"], 2,
     "abc2d: state (n_r=0, m=0) is not regular at the origin for m0=1, nu=0.0\n"),
    (["spectrum", "--raw", "1", "0", "0", "1", "0", "0"], 2,
     "abc2d: flux entries must be nonzero\n"),
    (["spectrum", "--raw", "1", "1", "1", "1", "2", "1"], 2,
     "abc2d: charge/flux ratios differ: 1.0 vs 2.0\n"),
    # a scattering sweep is set by --case/--k/--beta or by --raw with --energy
    (["xsection", *RAW_SPLIT], 2, "abc2d: --raw scattering input requires --energy\n"),
    (["xsection", "--case", "half", "--energy", "5"], 2,
     "abc2d: --energy applies only to --raw scattering input\n"),
    ([*SCATTER, "--case", "half", "--energy", "5"], 2,
     "abc2d: --energy applies only to --raw scattering input\n"),
    *(([*command, *RAW_INTEGER, "--energy", "0.5", *flag], 2,
       f"abc2d: {flag[0]} does not apply to --raw scattering input\n")
      for command in (["xsection"], SCATTER)
      for flag in (["--case", "half"], ["--k", "3"], ["--beta", "9"], ["--k", "1"])),
    *(([*command, *RAW_HALF, flag, "7"], 2, f"abc2d: {flag} does not apply to --raw particle "
       "input\n")
      for command in (["spectrum", "--levels", "1"], [*BOUND, "--points", "2"])
      for flag in ("--mu", "--kappa", "--alpha")),
    (["xsection", "--raw", "1", "1", str(math.pi / 2), "1", "-1", str(-math.pi / 2),
      "--energy", "0.5"], 2, "abc2d: no closed-form scattering solution for nu = 0.25\n"),
    (["xsection", *RAW_SPLIT, "--energy", "1"], 2,
     "abc2d: no closed-form scattering solution for nu = 0.15915494309189535\n"),
    ([*SCATTER, *RAW_SPLIT, "--energy", "1", "--nx", "3", "--ny", "3"], 2,
     "abc2d: no closed-form scattering solution for nu = 0.15915494309189535\n"),
    (["xsection", "--case", "integer", "--k", "1", "--beta", "0"], 2,
     "abc2d: interference term undefined at beta = 0\n"),
    (["xsection", "--case", "coulomb", "--thetas", "1", "--theta-min", "0", "--theta-max", "0"],
     2, "abc2d: theta = 0.0 is inside the forward cone\n"),
    # at beta = 1e7 the cosine argument's terms are near 3e8, so double
    # precision leaves it uncertain by about 1e-7 radians
    *((["xsection", "--case", "integer", "--beta", "1e7", "--format", fmt], 2,
       "abc2d: the integer-flux phase at beta = 10000000.0, theta = 0.1 is lost to rounding\n")
      for fmt in ("csv", "json")),
    # at beta = 1e306 the phases arg Gamma(1/2 - i beta) and arg Gamma(i beta)
    # overflow to -inf and inf, and the same rule refuses them
    (["xsection", "--case", "integer", "--beta", "1e306"], 2,
     "abc2d: the integer-flux phase at beta = 1e+306, theta = 0.1 is lost to rounding\n"),
    # at beta = 100 neither the expansion nor the Taylor sum reaches 1e-13 at
    # k eta^2 = 306.25
    ([*SCATTER, "--case", "coulomb", "--k", "1", "--beta", "100", "--xi-min", "1", "--xi-max",
      "2", "--eta-min", "17", "--eta-max", "17.5", "--nx", "2", "--ny", "2"], 2,
     "abc2d: M(100j, (0.5+0j), 306.25j): the Taylor series has not converged after 1000 "
     "terms\n"),
    ([*LARGE_BETA_GRID, "--beta", "60"], 2,
     "abc2d: M(60j, (0.5+0j), 324j): the Taylor series has not converged after 1000 terms\n"),
    # results that overflow: every line is rendered before --out is opened
    (["spectrum", "--mu", "1e300", "--kappa", "1e300"], 2,
     "abc2d: non-finite result energy = -inf\n"),
    (["spectrum", "--mu", "1e300", "--kappa", "1e300", "--format", "json"], 2,
     "abc2d: non-finite result energy = -inf\n"),
    ([*SCATTER, "--case", "coulomb", "--xi-max", "1e300", "--eta-max", "1e300", "--nx", "3",
      "--ny", "3"], 2, "abc2d: M(a, b, z) needs a finite argument, got z = infj\n"),
    *((["xsection", "--case", "coulomb", "--k", "1e-320", "--thetas", "3", "--format", fmt], 2,
       "abc2d: non-finite result sigma_total = inf\n") for fmt in ("csv", "json")),
    ([*BOUND, "--mu", "1e-300", "--kappa", "1e-300"], 2,
     "abc2d: normalization: 4 mu kappa underflows to 0 at mu = 1e-300, kappa = 1e-300\n"),
    ([*BOUND, "--alpha", DBL_MAX, "--extent", "2", "--points", "3", "--nr", "2", "--m", "1"], 2,
     "abc2d: the angular phase (m - m0) theta overflows at m = 1, theta = -2.356194490192345\n"),
    ([*BOUND, "--mu", "1e200", "--kappa", "1e200", "--points", "5"], 2,
     "abc2d: normalization: 4 mu kappa overflows to inf at mu = 1e+200, kappa = 1e+200\n"),
]


@pytest.mark.parametrize("argv,code,err", REFUSALS)
def test_documented_refusal(argv, code, err, tmp_path, capsys):
    refused(argv, code, err, tmp_path, capsys)


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

    @pytest.mark.parametrize("case", ["coulomb", "half"])
    def test_backscattering_at_the_largest_k(self, case, tmp_path):
        # 2k overflows at k = 1e308; beta tanh(pi beta) / (2k) and
        # beta coth(pi beta) / (2k) are both 0.5 at theta = pi
        code, text = run_csv(tmp_path, ["xsection", "--case", case, "--k", "1e308",
                                        "--beta", "1e308", "--thetas", "1",
                                        "--theta-min", "3.141592653589793",
                                        "--theta-max", "3.141592653589793"])
        assert code == 0
        _, _, rows = parse_csv(text)
        assert [float(v) for v in rows[0][1:]] == [0.5, 0.5, 0.0]


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

    @pytest.mark.parametrize("beta", [10.0, 20.0])
    @pytest.mark.parametrize("case", ["coulomb", "half"])
    def test_scatter_dump_beyond_the_taylor_radius_matches_mpmath(self, case, beta, tmp_path):
        # k eta^2 in [42.25, 49]: the large-|z| expansion cannot reach 1e-13
        # at this beta, so the Kummer factor is the Taylor sum
        out = tmp_path / "f.json"
        assert main(["field", "--kind", "scatter", "--case", case, "--k", "1",
                     "--beta", str(beta), "--xi-min", "1", "--xi-max", "2",
                     "--eta-min", "6.5", "--eta-max", "7", "--nx", "2", "--ny", "2",
                     "--format", "json", "--out", str(out)]) == 0
        with mp.workdps(40):
            b = mp.mpf(beta)
            if case == "half":
                c = (2 / mp.sqrt(mp.pi) * mp.exp(mp.pi * b / 2 - 1j * mp.pi / 4)
                     * mp.gamma(1 - 1j * b))
            else:
                c = mp.exp(mp.pi * b / 2) * mp.gamma(0.5 - 1j * b) / mp.sqrt(mp.pi)
            for xi, eta, re, im in json.loads(out.read_text())["rows"]:
                z = 1j * mp.mpf(eta) ** 2
                plane = mp.exp(1j * (mp.mpf(xi) ** 2 - mp.mpf(eta) ** 2) / 2)
                if case == "half":
                    ref = c * plane * eta * mp.hyp1f1(0.5 + 1j * b, 1.5, z)
                else:
                    ref = c * plane * mp.hyp1f1(1j * b, 0.5, z)
                assert abs(complex(re, im) - complex(ref)) <= 1e-12 * abs(complex(ref))

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

    def test_shared_shots_keep_each_states_closed_energy(self, capsys, monkeypatch):
        # lambda = n_r + |m| + nu + 1/2 is wrong only where m < 0 < nu, and
        # each such state shares its shot with a state of the same |m + nu|
        # that the mutant gets right, e.g. (nu, m) = (1/2, -1) and (1/2, 0)
        def mutant(qn, problem):
            lam = qn.n_r + abs(qn.m) + problem.nu + 0.5
            return -problem.reduced_mass * problem.kappa ** 2 / (2.0 * lam * lam)

        monkeypatch.setattr(verify.bound, "energy", mutant)
        assert main(["verify", "--grid", "small"]) == 3
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines() if line.startswith("shooting ")]
        assert [row[1] for row in rows] == ["FAIL"]
        failed = [line.split(",")[:3] for line in out.splitlines()
                  if line.startswith("# ") and line.endswith(",FAIL")]
        assert failed == [["# HalfInteger", "0", "-1"], ["# HalfInteger", "1", "-1"]]

    def test_root_find_nonconvergence_exits_two(self, capsys, monkeypatch):
        # the shooting root-find gets one step, too few for any sign change
        monkeypatch.setattr(oracle, "_ROOT_MAXITER", 1)
        assert main(["verify", "--grid", "small"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("abc2d: root-find did not converge in 1 steps")

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_params_block_holds_only_command_and_grid(self, fmt, capsys):
        assert main(["verify", "--grid", "small", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            assert json.loads(out)["params"] == {"command": "verify", "grid": "small"}
        else:
            params = [line for line in out.splitlines()
                      if line.startswith("# ") and "=" in line]
            assert params == ["# command=verify", "# grid=small"]


class TestDeterminismAndUsage:
    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["xsection", "--case", "integer", "--beta", "0.7", "--thetas", "33"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["xsection", "--case", "bogus"],
        ["nonsense"],
        # a sweep is set by --case/--k/--beta or by --raw with --energy alone
        ["xsection", "--case", "coulomb", "--alpha", "0.5"],
        ["xsection", "--case", "coulomb", "--mu", "2"],
        ["xsection", "--case", "coulomb", "--kappa", "2"],
        ["verify", "--grid", "small", "--perturb-energy", "1e-3"],
    ])
    def test_usage_errors_exit_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--levels", "2"],
        ["xsection", "--case", "coulomb", "--thetas", "3"],
        ["field", "--kind", "bound", "--points", "3"],
        ["verify", "--grid", "small"],
    ])
    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unopenable_out_exits_one(self, tmp_path, capsys, argv, target):
        path = tmp_path / "missing" / "x.out" if target == "missing" else tmp_path
        assert main(argv + ["--out", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and f"--out {path}" in captured.err

    def test_unwritable_out_exits_before_the_work(self, tmp_path, capsys, monkeypatch):
        def no_checks(**kwargs):
            raise AssertionError("verify ran its checks before --out was checked")

        monkeypatch.setattr(verify, "run_all_checks", no_checks)
        path = tmp_path / "missing" / "v.txt"
        assert main(["verify", "--grid", "full", "--out", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and f"--out {path}" in captured.err

    def test_out_overwrites_a_file_in_a_read_only_directory(self, tmp_path, capsys, monkeypatch):
        # an existing file needs write access to itself only; the directory
        # is denied through os.access, since a test run as root passes it
        path = tmp_path / "levels.txt"
        path.write_text("old")
        monkeypatch.setattr(os, "access", lambda p, mode: Path(p) != tmp_path)
        assert main(["spectrum", "--levels", "2", "--out", str(path)]) == 0
        assert main(["spectrum", "--levels", "2", "--out", os.devnull]) == 0
        assert capsys.readouterr().out == ""
        main(["spectrum", "--levels", "2"])
        assert path.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("exists,reason", [
        (True, "file is not writable"), (False, "directory {} is not writable")])
    def test_out_denied_by_os_access_exits_one(self, exists, reason, tmp_path, capsys,
                                               monkeypatch):
        path = tmp_path / "levels.txt"
        if exists:
            path.write_text("old")
        monkeypatch.setattr(os, "access", lambda p, mode: False)
        assert main(["spectrum", "--levels", "2", "--out", str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"abc2d: invalid argument: --out {path}: {reason.format(tmp_path)}\n")

    def test_out_failing_at_open_exits_one(self, tmp_path, capsys):
        # the directory is there and writable, so only open() finds the fault
        path = tmp_path / ("x" * 300)
        assert main(["spectrum", "--levels", "2", "--out", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and f"--out {path}" in captured.err

    @pytest.mark.parametrize("command,reads_problem", [
        (["spectrum"], True), (["field", "--kind", "bound"], True), (["xsection"], False)])
    def test_help_lists_only_the_flags_a_command_reads(self, command, reads_problem,
                                                       capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # keep each help entry on one line
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--mu", "--kappa", "--alpha"):
            assert (f"[{flag} " in text) is reads_problem
        # --raw with --mu/--kappa/--alpha is refused, so nothing overrides them
        assert "overrides" not in text
        assert "particle-level inputs (mass, charge, flux) x2" in text

    @staticmethod
    def _loaded(statement):
        """The modules a fresh interpreter holds after running ``statement``."""
        script = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=SUBPROCESS_ENV)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    def test_cli_import_loads_no_heavy_standard_module(self):
        # every command pays for what importing the CLI loads: records are
        # NamedTuples, and fractions and json are imported where they are used;
        # abc2d.verify stays, since the benchmark's tracer wraps it at start
        bare = self._loaded("pass")
        new = self._loaded("import abc2d.cli\nabc2d.cli.build_parser()") - bare
        assert "abc2d.verify" in new
        assert not new & {"dataclasses", "inspect", "fractions", "decimal", "json"}, sorted(new)

    def test_package_import_loads_only_what_is_named(self):
        # each name has one import path, its module's: the package re-exports
        # nothing, so importing one module does not load the others
        def ours(statement):
            return {name for name in self._loaded(statement) if name.partition(".")[0] == "abc2d"}

        assert ours("import abc2d") == {"abc2d"}
        assert ours("from abc2d.specfn import kummer_m") == {
            "abc2d", "abc2d.errors", "abc2d.specfn"}
        assert {"abc2d.cli", "abc2d.bound", "abc2d.oracle"} <= ours(
            "from abc2d import cli, bound, oracle")

    def test_package_imports_only_the_standard_library(self):
        # a third-party import anywhere in the package would put it back on
        # the runtime path; relative imports are the package's own modules
        for path in sorted(Path(abc2d.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, name)

    def test_every_private_constant_is_read(self):
        # a module-level _UPPER_CASE constant that its module never reads is
        # a knob left behind by a deleted rule
        for path in sorted(Path(abc2d.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            targets = [target for node in tree.body if isinstance(node, ast.Assign)
                       for target in node.targets]
            targets += [node.target for node in tree.body if isinstance(node, ast.AnnAssign)]
            assigned = {target.id for target in targets if isinstance(target, ast.Name)
                        and re.fullmatch(r"_[A-Z][A-Z0-9_]*", target.id)}
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            assert assigned <= read, (path.name, sorted(assigned - read))

    def test_test_extra_names_the_tests_third_party_imports(self):
        # a test dependency left out of the extra, or kept after its last
        # import is gone, fails here; importorskip gates Python 3.10
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        imported = set()
        for path in sorted(root.glob("tests/*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.partition(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.partition(".")[0])
        third_party = imported - set(sys.stdlib_module_names) - {"abc2d"}
        with open(root / "pyproject.toml", "rb") as f:
            extra = tomllib.load(f)["project"]["optional-dependencies"]["test"]
        names = {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in extra}
        assert third_party == names

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "abc2d", "spectrum", "--levels", "1"],
            capture_output=True, text=True, env=SUBPROCESS_ENV)
        assert proc.returncode == 0
        assert "-2" in proc.stdout

    def test_closed_stdout_exits_one_without_a_traceback(self):
        # 650 KB of table against a 64 KB pipe: the reader closes it mid-write
        proc = subprocess.Popen(
            [sys.executable, "-m", "abc2d", "spectrum", "--levels", "300"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=SUBPROCESS_ENV)
        assert proc.stdout.readline() == "# command=spectrum\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 1
        assert "Traceback" not in err and "Exception ignored" not in err


FLOAT_FLAGS = {
    "spectrum": ("--mu", "--kappa", "--alpha"),
    "xsection": ("--k", "--beta", "--energy", "--theta-min", "--theta-max"),
    "field": ("--mu", "--kappa", "--alpha", "--k", "--beta", "--energy", "--extent",
              "--xi-min", "--xi-max", "--eta-min", "--eta-max"),
}
REQUIRED = {"field": ["--kind", "bound"]}
NEGATIVE_EXPONENT_FORMS = ("-1e-3", "-2E0", "-3e-12", "-1.5e+300", "-.5e1")


def test_parser_is_built_once_and_main_finds_run_functions_at_call_time(
        capsys, monkeypatch):
    assert main(["spectrum", "--levels", "1"]) == 0
    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__",
                        lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
    ran = []
    run_spectrum = cli.run_spectrum
    monkeypatch.setattr(cli, "run_spectrum",
                        lambda args: ran.append(args.levels) or run_spectrum(args))
    assert main(["spectrum", "--levels", "2"]) == 0
    assert ran == [2]
    assert built == []
    assert build_parser() is build_parser()


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
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=str)
    @pytest.mark.parametrize("command,column", [
        *(("xsection", name) for name in scatter.CrossSectionSweep._fields),
        *(("field", name) for name in ("xi", "eta", "re", "im")),
        ("spectrum", "energy"),
    ])
    def test_non_finite_row_is_refused_column_by_column(self, command, column, bad, fmt,
                                                        tmp_path, capsys, monkeypatch):
        # one row, non-finite in this column alone, from the function that
        # computes the artifact
        def row(names):
            return [bad if name == column else 0.5 for name in names]

        if command == "xsection":
            fields = scatter.CrossSectionSweep._fields
            sweep = scatter.CrossSectionSweep(*([value] for value in row(fields)))
            monkeypatch.setattr(scatter, "cross_sections", lambda p, thetas: sweep)
            argv = ["xsection", "--case", "coulomb", "--thetas", "1"]
        elif command == "field":
            xi, eta, re_, im = row(("xi", "eta", "re", "im"))
            monkeypatch.setattr(scatter, "sample_scattering_field",
                                lambda *args: ([xi], [eta], [[complex(re_, im)]]))
            argv = ["field", "--kind", "scatter", "--case", "coulomb"]
        else:
            level = bound.SpectrumLevel(bad, bound.BRANCH_UNSPLIT, 0, 0, 1, 1, 0)
            monkeypatch.setattr(bound, "iter_levels", lambda problem, n: iter([level]))
            argv = ["spectrum"]
        refused(argv + ["--format", fmt], 2, f"abc2d: non-finite result {column} = {bad}\n",
                tmp_path, capsys)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("xis,etas,cell,err", [
        # im on line 1 comes before the xi of line 2
        ([0.5, math.nan], [0.5, 1.5, 2.5], (0, 2, complex(0.5, math.inf)), "im = inf"),
        # the eta of column 3 comes before an re later on line 1 and on line 2
        ([0.5, 1.5], [0.5, 1.5, -math.inf, 2.5], (0, 3, complex(math.nan, 0.5)),
         "eta = -inf"),
        # an re in column 2 comes before the eta of column 3
        ([0.5, 1.5], [0.5, 1.5, math.nan], (0, 1, complex(-math.inf, 0.5)), "re = -inf"),
    ])
    def test_first_non_finite_row_in_row_order_is_refused(self, xis, etas, cell, err, fmt,
                                                          tmp_path, capsys, monkeypatch):
        # a grid of several rows, non-finite in more than one: the message
        # names the first non-finite column of the first non-finite row
        values = [[complex(0.5, 0.5)] * len(etas) for _ in xis]
        line, column, value = cell
        values[line][column] = value
        if line + 1 < len(xis):
            values[line + 1][column] = value
        monkeypatch.setattr(scatter, "sample_scattering_field",
                            lambda *args: (xis, etas, values))
        refused(["field", "--kind", "scatter", "--case", "coulomb", "--format", fmt], 2,
                f"abc2d: non-finite result {err}\n", tmp_path, capsys)


B = cli._FLOAT_BLOCK
SWEEP = ["xsection", "--case", "integer", "--k", "0.7", "--beta", "3"]


def _sweep_text_one_row_at_a_time(fmt, thetas):
    """The rows of a sweep's artifact rendered one %-format per row, the
    last JSON row without its comma."""
    p = scatter.ScatteringParams(0.7, 3.0, scatter.FluxCase.INTEGER_FLUX)
    row_format, values, _ = cli._row_layout(fmt, cli._XSECTION_COLUMNS, records=True)
    texts = []
    for row in zip(*scatter.cross_sections(p, scatter.linspace(0.1, 2.0 * math.pi - 0.1,
                                                                thetas))):
        texts.append(row_format % values(row))
    if fmt == "json":
        texts[-1] = texts[-1][:-2] + "\n"
    return "".join(texts)


class TestFloatBlocks:
    """Rows whose cells are all floats are rendered B = _FLOAT_BLOCK at a time."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("thetas", [1, B - 1, B, B + 1, 2 * B + 3])
    def test_blocks_render_as_one_row_at_a_time(self, thetas, fmt, capsys):
        assert main(SWEEP + ["--thetas", str(thetas), "--format", fmt]) == 0
        out = capsys.readouterr().out
        rows = _sweep_text_one_row_at_a_time(fmt, thetas)
        if fmt == "csv":
            assert out.endswith("theta,sigma_total,sigma_coulomb,sigma_cross\n" + rows)
        else:
            assert out.endswith('  "rows": [\n' + rows + "  ]\n}\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad_row", [0, B // 2, B - 1, B + 5, 2 * B + 2],
                             ids=["first", "middle", "last", "later-block", "last-row"])
    def test_first_non_finite_row_of_a_block_is_refused(self, bad_row, fmt, tmp_path,
                                                         capsys, monkeypatch):
        # sigma_total comes before sigma_coulomb in column order, after it in
        # JSON's key order; a later row is non-finite in an earlier column
        columns = [[0.5] * (2 * B + 3) for _ in scatter.CrossSectionSweep._fields]
        columns[1][bad_row], columns[2][bad_row] = -math.inf, math.nan
        if bad_row + 1 < 2 * B + 3:
            columns[0][bad_row + 1] = math.inf
        sweep = scatter.CrossSectionSweep(*columns)
        monkeypatch.setattr(scatter, "cross_sections", lambda p, thetas: sweep)
        refused(SWEEP + ["--thetas", "3", "--format", fmt], 2,
                "abc2d: non-finite result sigma_total = -inf\n", tmp_path, capsys)


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
_RAW_INPUT = {"--raw": _RAW, "--format": _FORMAT}
_PROBLEM = {"--mu": _FLOAT_TEXT, "--kappa": _FLOAT_TEXT, "--alpha": _FLOAT_TEXT,
            **_RAW_INPUT}
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
          {**_RAW_INPUT, **_SCATTERING, "--theta-min": _FLOAT_TEXT,
           "--theta-max": _FLOAT_TEXT}),
    _argv("field", {"--kind": st.just("bound"), "--points": _small_int(0, 5)},
          {**_PROBLEM, "--nr": _small_int(0, 3), "--m": _small_int(-3, 3),
           "--extent": _FLOAT_TEXT}),
    _argv("field", {"--kind": st.just("scatter"), "--nx": _small_int(0, 5),
                    "--ny": _small_int(0, 5)},
          {**_RAW_INPUT, **_SCATTERING, "--xi-min": _FLOAT_TEXT, "--xi-max": _FLOAT_TEXT,
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
# spans that overflow, and bound dumps whose normalisation or phase is not finite
@example(["field", "--kind", "scatter", "--case", "half", "--xi-min", "-1e300",
          "--xi-max", "1.7976931348623157e308", "--nx", "3", "--ny", "3"])
@example(["xsection", "--case", "coulomb", "--theta-min", "-1e300",
          "--theta-max", "1.7976931348623157e308"])
@example(["field", "--kind", "bound", "--extent", "1.7976931348623157e308", "--points", "3"])
@example(["field", "--kind", "bound", "--mu", "1e-300", "--kappa", "1e-300"])
@example(["field", "--kind", "bound", "--alpha", "1.7976931348623157e308", "--extent", "2",
          "--points", "3", "--nr", "2", "--m", "1"])
# flags that the run would ignore: --case/--k/--beta and --mu/--kappa/--alpha
# with --raw, and the other --kind's flags in a field dump
@example(["spectrum", "--raw", "1", "1", "3.14159", "1", "-1", "-3.14159", "--mu", "7",
          "--levels", "1"])
@example(["xsection", "--raw", "1", "1", "6.283185307179586", "1", "-1", "-6.283185307179586",
          "--energy", "0.5", "--case", "half", "--k", "3", "--beta", "9", "--thetas", "3"])
@example(["field", "--kind", "bound", "--case", "half", "--k", "3", "--energy", "2",
          "--points", "2"])
@example(["field", "--kind", "bound", "--xi-max", "1", "--nx", "3", "--points", "2"])
@example(["field", "--kind", "scatter", "--case", "half", "--nr", "1", "--extent", "2",
          "--nx", "3", "--ny", "3"])
@example(["field", "--kind", "scatter", "--case", "half", "--mu", "2", "--nx", "3", "--ny", "3"])
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


# -- rendered text against the standard library --------------------------------------

# The fuzz test's command shapes, drawn where most runs exit 0.
_MODERATE = st.floats(0.1, 10.0).map(repr)
_SIGNED = st.floats(-10.0, 10.0).map(repr)
_RENDERED_ARGV = st.one_of(
    _argv("spectrum", {"--levels": _small_int(1, 30)},
          {"--mu": _MODERATE, "--kappa": _MODERATE, "--alpha": _SIGNED}),
    _argv("xsection", {"--case": _CASE, "--thetas": _small_int(1, 16)},
          {"--k": _MODERATE, "--beta": _MODERATE,
           "--theta-min": st.floats(0.01, 6.27).map(repr),
           "--theta-max": st.floats(0.01, 6.27).map(repr)}),
    _argv("field", {"--kind": st.just("bound"), "--points": _small_int(2, 5)},
          {"--mu": _MODERATE, "--kappa": _MODERATE, "--alpha": _SIGNED,
           "--nr": _small_int(0, 3), "--m": _small_int(-3, 3), "--extent": _MODERATE}),
    _argv("field", {"--kind": st.just("scatter"), "--case": _CASE,
                    "--nx": _small_int(2, 5), "--ny": _small_int(2, 5)},
          {"--k": _MODERATE, "--beta": _MODERATE, "--xi-min": _SIGNED, "--xi-max": _SIGNED,
           "--eta-min": _SIGNED, "--eta-max": _SIGNED}),
)
# The CSV columns that are not floats: the spectrum's ints, branch and members.
_NOT_FLOAT = {"index", "branch", "N", "degeneracy", "members"}


@settings(max_examples=100, deadline=None)
@given(_RENDERED_ARGV)
def test_rendered_text_matches_the_standard_library(argv):
    # the writer builds its text by hand; json's encoder and float
    # formatting are the oracles for it
    texts = {}
    for fmt in ("csv", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--format", fmt])
        assume(code == 0)
        texts[fmt] = out.getvalue()
    text = texts["json"]
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    _, columns, rows = parse_csv(texts["csv"])
    floats = [i for i, name in enumerate(columns) if name not in _NOT_FLOAT]
    assert rows and floats
    for row in rows:
        for i in floats:
            assert format(float(row[i]), ".17g") == row[i], (argv, columns[i])


def _check_spectrum_formats(argv):
    """The CSV members cells, the JSON members arrays and bound.iter_levels
    agree level by level, and so do the other columns; False where argv is
    refused."""
    texts = {}
    for fmt in ("csv", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--format", fmt])
        if code != 0:
            return False
        texts[fmt] = out.getvalue()
    doc = json.loads(texts["json"])
    params = doc["params"]
    problem = RelativeProblem.from_parameters(params["mu"], params["kappa"], params["alpha"])
    levels = list(bound.iter_levels(problem, params["levels"]))
    _, columns, rows = parse_csv(texts["csv"])
    assert len(rows) == len(doc["levels"]) == len(levels)
    for i, (row, obj, lv) in enumerate(zip(rows, doc["levels"], levels)):
        cells = dict(zip(columns, row))
        members = [[int(n) for n in pair.split(":")] for pair in cells["members"].split(";")]
        assert members == obj["members"] == [list(pair) for pair in lv.members], (argv, i)
        ints = (i, lv.principal_n, lv.degeneracy)
        assert tuple(int(cells[name]) for name in ("index", "N", "degeneracy")) == ints
        assert (obj["index"], obj["N"], obj["degeneracy"]) == ints
        assert cells["branch"] == obj["branch"] == lv.branch
        assert float(cells["energy"]) == obj["energy"] == lv.energy
    return True


@settings(max_examples=60, deadline=None)
@given(_argv("spectrum", {"--levels": _small_int(1, 30)},
             {"--mu": _MODERATE, "--kappa": _MODERATE, "--alpha": _SIGNED}))
def test_spectrum_csv_and_json_carry_the_walks_levels(argv):
    # each format's members text is built by hand from the level's rungs,
    # sliced from two tables of text, two pieces per member
    assume(_check_spectrum_formats(argv))


@pytest.mark.parametrize("levels", [1, 2, 3, 41, 300])
@pytest.mark.parametrize("alpha", ["0", "2", "-2", "0.5", "-1.5", "0.25", "0.75", "-1.3"])
def test_spectrum_formats_carry_the_walks_levels_at_exact_flux(alpha, levels):
    # random floats practically never draw integer or half-integer flux, where
    # both rungs make one level and the empty integer-flux N = 0 level is
    # skipped; at 300 levels the CLI's tables of member text, built at the
    # first level, regrow 6 or 7 times
    assert _check_spectrum_formats(["spectrum", "--alpha", alpha, "--levels", str(levels)])


def test_members_text_with_an_empty_separator(monkeypatch, capsys):
    # the last member's separator is replaced whatever its length, none included
    monkeypatch.setitem(cli._MEMBERS, "csv", ("<", "|", "", ">"))
    assert main(["spectrum", "--alpha", "0.3", "--levels", "30"]) == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    levels = bound.spectrum(RelativeProblem.from_parameters(1.0, 1.0, 0.3), 30)
    assert [row[5] for row in rows] == [
        "<" + "".join(f"{n_r}|{m}" for n_r, m in lv.members) + ">" for lv in levels]


def test_spectrum_rows_stream_at_the_largest_level_count(monkeypatch):
    # the tables of member text grow with the walk: tables sized from --levels
    # could not be allocated at sys.maxsize
    rows = []

    def first_rows(args, params, columns, levels, key):
        rows.extend(itertools.islice(levels, 3))
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "_emit", first_rows)
    argv = ["spectrum", "--alpha", "0.5", "--levels", str(sys.maxsize)]
    build_parser()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert [row[5] for row in rows] == ["0:-1;0:0", "0:-2;0:1;1:-1;1:0",
                                        "0:-3;0:2;1:-2;1:1;2:-1;2:0"]


def _readme_cli_lines():
    """The abc2d command lines of README's CLI section, without their
    trailing comments."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```")[1::2]
    return [line.partition("#")[0].strip() for block in blocks
            for line in block.splitlines() if line.startswith("abc2d ")]


def test_readme_has_cli_examples():
    assert _readme_cli_lines()


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_example_runs(line, tmp_path, monkeypatch, capsys):
    # one example writes --out sweep.csv into the working directory
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
