"""Timestamp conventions for directory-based datasets.

Frame-like files are named by their acquisition time in zero-padded
microseconds (``000050000.pgm``). A directory may instead carry a
``timestamps.txt`` index with one ``<filename>,<t_us>`` line per file,
which takes precedence over stem parsing.

Files that pair with a frame (proxy labels, ground truth, masks) share its
stem; their suffix matches in any letter case.
"""

from __future__ import annotations

from pathlib import Path

from .errors import BuildError, FormatError
from .imgio import _read_text

INDEX_FILENAME = "timestamps.txt"


def parse_timestamp_stem(name: str) -> int:
    stem = Path(name).stem
    if not stem.isdigit():
        raise FormatError(f"cannot parse microsecond timestamp from filename {name!r}")
    return int(stem)


def timestamped_files(dirpath, suffixes: tuple[str, ...]) -> list[tuple[int, Path]]:
    """All files under ``dirpath`` with one of ``suffixes``, sorted by time.

    Returns (timestamp_us, path) pairs. Duplicate timestamps are an error:
    downstream consumers require strictly increasing frame times.
    """
    dirpath = Path(dirpath)
    if not dirpath.is_dir():
        raise FileNotFoundError(f"not a directory: {dirpath}")
    index = dirpath / INDEX_FILENAME
    if index.is_file():
        out = []
        for lineno, line in enumerate(_read_text(index, "timestamp index").splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, t_raw = line.partition(",")
            name, t_raw = name.strip(), t_raw.strip()
            if not t_raw or not t_raw.lstrip("-").isdigit():
                raise FormatError(f"{index}:{lineno}: expected '<filename>,<t_us>', got {line!r}")
            t = int(t_raw)
            if t < 0:
                raise FormatError(f"{index}:{lineno}: negative timestamp {t}")
            p = dirpath / name
            if p.suffix.lower() in suffixes:
                if not p.is_file():
                    raise BuildError(f"{index}:{lineno}: listed file missing: {p}")
                out.append((t, p))
    else:
        out = [
            (parse_timestamp_stem(p.name), p)
            for p in dirpath.iterdir()
            if p.is_file() and p.suffix.lower() in suffixes
        ]
    out.sort(key=lambda pair: (pair[0], pair[1].name))
    for (ta, pa), (tb, pb) in zip(out, out[1:]):
        if ta == tb:
            raise BuildError(f"duplicate frame timestamp {ta} us: {pa.name}, {pb.name}")
    return out


def files_by_stem(dirpath, suffixes: tuple[str, ...], kind: str) -> dict[str, Path]:
    """The files under ``dirpath`` whose suffix is one of ``suffixes`` in any
    letter case, keyed by stem; a missing directory holds none.

    A stem found twice (``a.pfm`` with ``a.pgm``, or with ``a.PFM``) is
    ambiguous; ``kind`` names the files in that error.
    """
    dirpath = Path(dirpath)
    if not dirpath.is_dir():
        return {}
    files: dict[str, Path] = {}
    for p in sorted(dirpath.iterdir()):
        if p.suffix.lower() in suffixes and p.is_file():
            if p.stem in files:
                raise BuildError(
                    f"ambiguous {kind} files for {p.stem!r} under {dirpath}: "
                    f"{files[p.stem].name}, {p.name}"
                )
            files[p.stem] = p
    return files
