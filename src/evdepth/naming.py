"""Timestamp conventions for directory-based datasets.

Frame-like files are named by their acquisition time in zero-padded
microseconds (``000050000.pgm``). A directory may instead carry a
``timestamps.txt`` index with one ``<filename>,<t_us>`` line per file,
which takes precedence over stem parsing. A time read from either is ASCII
decimal digits, at most ``MAX_TIME_US`` (2**63 - 1); anything else is a
FormatError naming the file (and the index line).

Files that pair with a frame (proxy labels, ground truth, masks) share its
stem; their suffix matches in any letter case. Every input directory is
listed here; a path that is not a directory is a FileNotFoundError (exit 3).
"""

from __future__ import annotations

from pathlib import Path

from .errors import BuildError, FormatError
from .events import MAX_TIME_US
from .imgio import _read_text

INDEX_FILENAME = "timestamps.txt"


def _time_us(text: str, where) -> int:
    """``text`` as microseconds: ASCII decimal digits (``str.isdigit`` alone
    takes '²' and '١٢') of at most ``MAX_TIME_US``, else a FormatError."""
    digits = text.lstrip("0") or "0"  # int() refuses 4,301 digits, leading zeros too
    if not (text.isascii() and text.isdigit() and len(digits) <= 19
            and int(digits) <= MAX_TIME_US):
        raise FormatError(f"{where}: time {text!r} is not ASCII decimal digits, at most 2**63 - 1")
    return int(digits)


def _directory(dirpath) -> Path:
    """``dirpath`` as a Path, or a FileNotFoundError if it is not a directory."""
    dirpath = Path(dirpath)
    if not dirpath.is_dir():
        raise FileNotFoundError(f"not a directory: {dirpath}")
    return dirpath


def _listing(dirpath: Path, suffixes: tuple[str, ...]) -> list[Path]:
    """The files (or links to files) in ``dirpath`` with a suffix in ``suffixes``, by name."""
    return sorted(p for p in dirpath.iterdir() if p.suffix.lower() in suffixes and p.is_file())


def timestamped_files(dirpath, suffixes: tuple[str, ...]) -> list[tuple[int, Path]]:
    """All files under ``dirpath`` with one of ``suffixes``, sorted by time.

    Returns (timestamp_us, path) pairs. Duplicate timestamps are an error:
    downstream consumers require strictly increasing frame times.
    """
    dirpath = _directory(dirpath)
    index = dirpath / INDEX_FILENAME
    if index.is_file():
        out = []
        for lineno, line in enumerate(_read_text(index, "timestamp index").splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, t_raw = line.partition(",")
            t = _time_us(t_raw.strip(), f"{index}:{lineno}: {line!r}")
            p = dirpath / name.strip()
            if p.suffix.lower() in suffixes:
                if not p.is_file():
                    raise BuildError(f"{index}:{lineno}: listed file missing: {p}")
                out.append((t, p))
    else:
        out = [(_time_us(p.stem, p), p) for p in _listing(dirpath, suffixes)]
    out.sort(key=lambda pair: (pair[0], pair[1].name))
    for (ta, pa), (tb, pb) in zip(out, out[1:]):
        if ta == tb:
            raise BuildError(f"duplicate frame timestamp {ta} us: {pa.name}, {pb.name}")
    return out


def files_by_stem(dirpath, suffixes: tuple[str, ...], kind: str) -> dict[str, Path]:
    """The files under ``dirpath`` whose suffix is one of ``suffixes`` in any
    letter case, keyed by stem.

    A stem found twice (``a.pfm`` with ``a.pgm``, or with ``a.PFM``) is
    ambiguous; ``kind`` names the files in that error.
    """
    dirpath = _directory(dirpath)
    files: dict[str, Path] = {}
    for p in _listing(dirpath, suffixes):
        if p.stem in files:
            raise BuildError(f"ambiguous {kind} files for {p.stem!r} under {dirpath}: "
                             f"{files[p.stem].name}, {p.name}")
        files[p.stem] = p
    return files
