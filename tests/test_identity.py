"""scripts/identity.py: the arguments it refuses before any probe runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_identity(*args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "identity.py"), *args],
                          capture_output=True, text=True, timeout=120)


@pytest.fixture()
def tree(tmp_path):
    """A source checkout whose evdepth leaves a mark when a probe imports it."""
    package = tmp_path / "tree" / "src" / "evdepth"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from pathlib import Path\nPath(__file__).parents[2].joinpath('probed').touch()\n")
    return tmp_path / "tree"


@pytest.mark.parametrize("case", ["one tree", "unknown revision", "directory without sources"])
def test_bad_tree_exits_2_before_any_probe(tmp_path, tree, case):
    (tmp_path / "empty").mkdir()
    args, message = {
        "one tree": ((str(tree),), "give exactly two trees"),
        "unknown revision": ((str(tree), "no-such-revision"), "no-such-revision"),
        "directory without sources": ((str(tree), str(tmp_path / "empty")),
                                      f"no evdepth sources under {tmp_path / 'empty' / 'src'}"),
    }[case]
    result = run_identity(*args)
    assert result.returncode == 2
    assert message in result.stderr and result.stdout == ""
    assert not (tree / "probed").exists()


def test_the_marking_tree_is_probed_when_both_trees_are_good(tree):
    # the tree above does leave its mark once a probe imports it; its probes
    # all fail (it has no API), so the two trees compare equal on no probe
    result = run_identity(str(tree), str(tree))
    assert result.returncode == 1, result.stderr
    assert (tree / "probed").exists()
    # the OpenBLAS kernel each tree ran on ("unknown" without numpy's bundled one)
    report = json.loads(result.stdout)
    assert report["a"]["openblas_core"] == report["b"]["openblas_core"] != ""
