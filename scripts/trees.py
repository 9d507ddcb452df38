"""How the scripts run evdepth out of a source tree, written once.

A tree is a source checkout directory, or a revision of this repository
exported with ``git archive``. A script runs its measured part in a child
interpreter with BLAS and evdepth threads pinned to 1 and the caller's
environment otherwise kept, PYTHONPATH included: ``import_evdepth``, not the
environment, refuses an evdepth from anywhere but the tree's ``src/``.
"""

import contextlib
import ctypes
import io
import json
import os
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "EVDEPTH_THREADS")


def _git(*args) -> str:
    proc = subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def export(spec: str, workdir: Path) -> tuple[Path, dict]:
    """The source tree for ``spec``, and what it is: a checkout directory as
    it is, or a revision exported with ``git archive`` under ``workdir``."""
    path = Path(spec)
    if path.is_dir():
        if not (path / "src" / "evdepth" / "__init__.py").is_file():
            raise RuntimeError(f"{spec}: no evdepth sources under {path / 'src'}")
        return path.resolve(), {"tree": spec, "directory": str(path.resolve())}
    commit = _git("rev-parse", "--verify", f"{spec}^{{commit}}")
    tree = workdir / commit
    if not tree.is_dir():
        archive = workdir / f"{commit}.tar"
        _git("archive", "--format=tar", "-o", str(archive), commit)
        with tarfile.open(archive) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(tree, filter="data")
            else:
                tar.extractall(tree)
    return tree, {"tree": spec, "commit": commit}


def run_child(script, *args: str, timeout: float | None = None) -> dict:
    """The JSON object ``script args`` prints last, run with ``THREAD_VARS``
    pinned to 1; a RuntimeError holding its stderr if it exits non-zero."""
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    proc = subprocess.run([sys.executable, str(script), *args], env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(script).name} {' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def import_evdepth(src) -> None:
    """Import evdepth from ``src``; an ImportError if it came from anywhere
    else, as an installed copy or one on PYTHONPATH does if ``src`` has none."""
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import evdepth

    if Path(evdepth.__file__).resolve().parent != src / "evdepth":
        raise ImportError(f"imported evdepth from {evdepth.__file__}, not from {src}")


def run_evdepth(*args: str) -> None:
    """``evdepth args`` in this process, stdout discarded; a RuntimeError on exit != 0."""
    from evdepth.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(args))
    if code != 0:
        raise RuntimeError(f"evdepth {' '.join(args)} exited {code}")


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs on here (``SkylakeX``,
    ``Haswell``, ...), or "unknown" when numpy bundles no OpenBLAS that
    reports it."""
    root = Path(np.__file__).parent
    for lib in [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]:
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode("ascii")
    return "unknown"
