"""Smoke test: the desk demo drives the whole chain through the CLI."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_desk_demo_exits_zero(tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "desk_demo.py"),
         "--workdir", str(tmp_path / "demo")],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert (tmp_path / "demo" / "fusion_depth").is_dir()
