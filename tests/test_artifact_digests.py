"""tools/artifact_digests.py: a tree compared with itself differs nowhere, and
a literal scaled by 1 + 1e-12 shows as a change of about 1e-12, in a CLI
artifact or in a ``verify`` extra state's record."""

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


def compare(a, b, workloads="fields"):
    return subprocess.run([sys.executable, str(TOOL), str(a), str(b),
                           "--seeds", "1", "--workloads", workloads],
                          capture_output=True, text=True)


def scaled_copy(tmp_path, module, old, new):
    """A copy of the package with old, which occurs once in module, replaced."""
    copy = tmp_path / "src"
    shutil.copytree(SRC / "abc2d", copy / "abc2d", ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / "abc2d" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return copy


def test_this_tree_against_itself():
    same = compare(SRC, SRC)
    assert same.returncode == 0, same.stderr
    assert same.stdout == "32 artifacts: 32 byte-identical, 0 differ in numbers only, 0 otherwise\n"


def test_a_scaled_literal_is_reported_by_value(tmp_path):
    copy = scaled_copy(tmp_path, "scatter.py", LITERAL,
                       f"{2.0 * (1.0 + 1e-12)!r} * math.sqrt(k / math.pi)")
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


def test_verify_extra_states_are_compared(tmp_path):
    # verify --grid small|full in table and JSON, then the 5 extra states
    # that the verify workload draws at seed 1
    same = compare(SRC, SRC, "verify")
    assert same.returncode == 0, same.stderr
    assert same.stdout == "9 artifacts: 9 byte-identical, 0 differ in numbers only, 0 otherwise\n"
    copy = scaled_copy(tmp_path, "oracle.py", "return 2.0 * math.pi * value\n",
                       "return 2.0 * math.pi * value * (1.0 + 1e-12)\n")
    moved = compare(SRC, copy, "verify")
    assert moved.returncode == 1, moved.stderr
    *lines, summary = moved.stdout.splitlines()
    states = [line for line in lines if line.startswith("state mu=")]
    assert len(states) == 5 and len(lines) == 9
    assert all(1e-13 < float(line.rpartition(" cell ")[2]) < 1e-11 for line in states)
    assert summary.startswith("9 artifacts: 0 byte-identical, 9 differ in numbers only, "
                              "0 otherwise")
