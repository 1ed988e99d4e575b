"""tools/artifact_digests.py: a tree compared with itself differs nowhere, and
a literal scaled by 1 + 1e-12 shows as a change of about 1e-12."""

import shutil
import subprocess
import sys
from pathlib import Path

import abc2d

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "artifact_digests.py"
SRC = Path(abc2d.__file__).parents[1]
# the half-integer field's prefactor: every cell of those dumps but eta = 0
LITERAL = "2.0 * math.sqrt(k / math.pi)"


def compare(a, b):
    return subprocess.run([sys.executable, str(TOOL), str(a), str(b),
                           "--seeds", "1", "--workloads", "fields"],
                          capture_output=True, text=True)


def test_this_tree_against_itself():
    same = compare(SRC, SRC)
    assert same.returncode == 0, same.stderr
    assert same.stdout == "32 artifacts: 32 byte-identical, 0 differ in numbers only, 0 otherwise\n"


def test_a_scaled_literal_is_reported_by_value(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(SRC / "abc2d", copy / "abc2d", ignore=shutil.ignore_patterns("__pycache__"))
    scatter = copy / "abc2d" / "scatter.py"
    text = scatter.read_text()
    assert text.count(LITERAL) == 1
    scatter.write_text(text.replace(LITERAL, f"{2.0 * (1.0 + 1e-12)!r} * math.sqrt(k / math.pi)"))
    moved = compare(SRC, copy)
    assert moved.returncode == 1, moved.stderr
    *lines, summary = moved.stdout.splitlines()
    assert len(lines) == 8  # the four half-integer dumps, in CSV and JSON
    assert all(line.startswith("field --kind scatter --case half ") for line in lines)
    changes = [float(word.rstrip(",")) for line in lines
               for key, word in zip(line.split(), line.split()[1:]) if key in ("cell", "column")]
    assert len(changes) == 12  # a cell change in each, a column change in each CSV
    assert all(1e-13 < change < 1e-11 for change in changes)
    assert summary == ("32 artifacts: 24 byte-identical, 8 differ in numbers only, 0 otherwise; "
                       "largest change 1e-12 of a cell, 1e-12 of a column")
