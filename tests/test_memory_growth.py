"""scripts/memory_growth.py: the report of a small run, and the inputs it
refuses instead of measuring."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_harness(*args, env=None):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "memory_growth.py"), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_reports_peak_and_growth_per_size(tmp_path):
    result = run_harness("fusion", "1", "2", "--max-growth-mb", "64", "--workdir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert (report["case"], report["src"], report["ok"]) == ("fusion", str(ROOT / "src"), True)
    assert [run["stacks"] for run in report["runs"]] == [1, 2]
    assert all(run["peak_rss_mb"] > 0 and run["input_mb"] > 0 for run in report["runs"])
    assert report["growth_mb"] == round(
        report["runs"][1]["peak_rss_mb"] - report["runs"][0]["peak_rss_mb"], 1)
    assert list(tmp_path.iterdir()) == []  # each input is removed once measured


def test_unknown_case_is_usage_error():
    result = run_harness("simulate", "8")
    assert result.returncode == 2 and "invalid choice: 'simulate'" in result.stderr


def test_size_below_the_case_minimum_is_usage_error():
    for case, size, message in (("slice", "49999", "count events; each must be at least 50000"),
                                ("fusion", "0", "count stacks; each must be at least 1")):
        result = run_harness(case, size, "--max-growth-mb", "16")
        assert result.returncode == 2 and message in result.stderr


def test_src_without_evdepth_is_not_measured_through_another_evdepth(tmp_path):
    # with this checkout on PYTHONPATH, as an installed one would be on sys.path,
    # the measuring child must refuse the evdepth it finds there
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = run_harness("fusion", "1", "--src", str(tmp_path), "--workdir", str(tmp_path),
                         env=env)
    assert result.returncode == 1
    assert f"not from {tmp_path.resolve()}" in result.stderr
    assert "peak_rss_mb" not in result.stdout
