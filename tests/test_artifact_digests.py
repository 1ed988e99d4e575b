"""tools/artifact_digests.py: two digests of one tree agree, and a changed
record is reported."""

import json
import subprocess
import sys
from pathlib import Path

import abc2d

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "artifact_digests.py"


def test_two_digests_of_this_tree_agree(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    src = Path(abc2d.__file__).parents[1]
    for out in (a, b):
        subprocess.run([sys.executable, str(TOOL), str(src), str(out),
                        "--seeds", "1", "--workloads", "fields"], check=True,
                       capture_output=True)
    digest = json.loads(a.read_text())
    assert digest["module"] == str(src / "abc2d" / "cli.py")
    assert len(digest["artifacts"]) == 32  # 16 field dumps, in CSV and JSON
    assert {record["exit"] for record in digest["artifacts"].values()} == {0}

    def compare():
        return subprocess.run([sys.executable, str(TOOL), "--compare", str(a), str(b)],
                              capture_output=True, text=True)

    same = compare()
    assert same.returncode == 0, same.stdout
    assert same.stdout == "32 and 32 artifacts, 0 differ\n"

    key = next(iter(digest["artifacts"]))
    digest["artifacts"][key]["stdout_sha256"] = "0" * 64
    b.write_text(json.dumps(digest))
    changed = compare()
    assert changed.returncode == 1
    assert changed.stdout.startswith(key + ": ")
    assert changed.stdout.endswith("32 and 32 artifacts, 1 differ\n")
