"""Byte-mutation fuzzing of the raster, depth sidecar, evcsv and EVB readers.

Every mutated file must either read or raise an EvDepthError subclass (exit 2
from the CLI), never another exception or a RuntimeWarning. Mutations
overwrite, insert or delete single bytes, half of them inside the header
(of an EVB file, one header or record field at a time).
"""

import contextlib
import io
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evdepth import events
from evdepth.cli import main
from evdepth.errors import EvDepthError
from evdepth.events import SliceMode, SliceSpec, read_events, slice_events
from evdepth.imgio import (
    load_depth,
    load_mask_pgm,
    read_pfm,
    read_pgm,
    read_ppm,
    save_depth_pfm,
    save_depth_pgm16,
    save_mask_pgm,
    write_pgm,
    write_ppm,
)
from evdepth.pipeline import _open_recording

# header syntax and digits come up more often than other bytes
BYTES = st.one_of(st.sampled_from(b"0123456789 \n\t#-+.eEfFP"), st.integers(0, 255))
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _mutate(data, raw: bytes, head: int) -> bytes:
    out = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 4), label="mutations")):
        end = min(head, len(out)) if data.draw(st.booleans(), label="in header") else len(out)
        pos = data.draw(st.integers(0, end), label="position")
        op = data.draw(st.sampled_from(("overwrite", "insert", "delete")), label="op")
        if op == "insert":
            out.insert(pos, data.draw(BYTES, label="byte"))
        elif pos < len(out):
            if op == "overwrite":
                out[pos] = data.draw(BYTES, label="byte")
            else:
                del out[pos]
    return bytes(out)


def _header_len(raw: bytes) -> int:
    """Bytes up to and including the newline that ends the third header line."""
    return len(b"\n".join(raw.split(b"\n", 3)[:3])) + 1


def _reads_or_rejects(read, path):
    """``read(path)``, or None when it raises an EvDepthError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return read(path)
        except EvDepthError:
            return None


def _pfm(ident: bytes, order: str, scale: bytes, shape) -> bytes:
    values = np.random.default_rng(0).uniform(-3.0, 40.0, shape).astype(order + "f4")
    h, w = shape[:2]
    return ident + f"\n{w} {h}\n".encode() + scale + b"\n" + values.tobytes()


RASTERS = {
    "pf-le": (_pfm(b"PF", "<", b"-2.5", (4, 3, 3)), read_pfm),
    "pf-be": (_pfm(b"PF", ">", b"0.5", (4, 3, 3)), read_pfm),
    "gray-pf-le": (_pfm(b"Pf", "<", b"-0.25", (5, 4)), load_depth),
    "gray-pf-be": (_pfm(b"Pf", ">", b"4", (5, 4)), load_depth),
}


@pytest.mark.parametrize("name", sorted(RASTERS))
@FUZZ
@given(data=st.data())
def test_mutated_pfm_reads_or_is_format_error(tmp_path, name, data):
    raw, read = RASTERS[name]
    path = tmp_path / "r.pfm"
    path.write_bytes(_mutate(data, raw, _header_len(raw)))
    out = _reads_or_rejects(read, path)
    assert out is None or (out.dtype == np.float64 and out.ndim in (2, 3))


@pytest.fixture()
def pnm_files(tmp_path):
    rng = np.random.default_rng(1)
    save_depth_pgm16(tmp_path / "d16.pgm", rng.uniform(0.5, 30.0, (4, 5)))
    write_pgm(tmp_path / "g8.pgm", rng.integers(0, 256, (4, 5)))
    save_mask_pgm(tmp_path / "m8.pgm", rng.random((4, 5)) < 0.7)
    write_ppm(tmp_path / "c.ppm", rng.random((3, 4, 3)))
    return tmp_path


PNM_CASES = {
    "pgm16": ("d16.pgm", (load_depth, read_pgm)),
    "pgm16-sidecar": ("d16.pgm.json", (load_depth,)),
    "pgm8": ("g8.pgm", (read_pgm, load_depth)),
    "mask": ("m8.pgm", (load_mask_pgm,)),
    "ppm": ("c.ppm", (read_ppm,)),
}


@pytest.mark.parametrize("case", sorted(PNM_CASES))
@FUZZ
@given(data=st.data())
def test_mutated_pnm_or_sidecar_reads_or_is_format_error(pnm_files, case, data):
    name, readers = PNM_CASES[case]
    target = pnm_files / name
    raw = target.read_bytes()
    target.write_bytes(_mutate(data, raw, len(raw) if name.endswith(".json") else _header_len(raw)))
    try:
        for read in readers:
            _reads_or_rejects(read, pnm_files / name.removesuffix(".json"))
    finally:
        target.write_bytes(raw)


EVCSV = (b"# evcsv v1 width=8 height=6\n"
         + b"".join(b"%d,%d,%d,%d\n" % (k % 8, k % 6, 1 - 2 * (k % 2), 10 * k) for k in range(12)))


@FUZZ
@given(data=st.data())
def test_mutated_evcsv_reads_or_is_format_error(tmp_path, data):
    path = tmp_path / "e.csv"
    path.write_bytes(_mutate(data, EVCSV, EVCSV.index(b"\n") + 1))
    stream = _reads_or_rejects(read_events, path)
    assert stream is None or len(stream) <= 12 + 4  # an inserted newline splits a record


@FUZZ
@given(data=st.data())
def test_evaluate_on_a_mutated_depth_file_exits_2(tmp_path, data):
    """The CLI exits 2, with its one-line error, whenever the mutated
    prediction does not read; one that reads may still evaluate (exit 0)."""
    rng = np.random.default_rng(2)
    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    for d in (pred_dir, gt_dir):
        d.mkdir(exist_ok=True)
    gt = rng.uniform(1.0, 10.0, (6, 5))
    save_depth_pfm(gt_dir / "f.pfm", gt)
    save_depth_pfm(pred_dir / "f.pfm", 0.5 * gt + 1.0)
    raw = (pred_dir / "f.pfm").read_bytes()
    (pred_dir / "f.pfm").write_bytes(_mutate(data, raw, _header_len(raw)))
    readable = _reads_or_rejects(load_depth, pred_dir / "f.pfm") is not None
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir)])
    assert code in (0, 2) and (readable or code == 2)
    if not readable:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# an 8x6 sensor, 12 records: u16 x, u16 y, i8 p, u64 t after the 16-byte header
EVB = struct.pack("<4sHHQ", b"EVB1", 8, 6, 12) + b"".join(
    struct.pack("<HHbQ", k % 8, k % 6, 1 - 2 * (k % 2), 10 * k) for k in range(12))
# the bytes of each header field, and of each field of record k (+ 16 + 13 * k)
EVB_FIELDS = {"magic": (0, 4), "width": (4, 6), "height": (6, 8), "count": (8, 16),
              "x": (0, 2), "y": (2, 4), "p": (4, 5), "t": (5, 13)}
# most mutations overwrite: an insert or a delete only ever meets the size check
EVB_OPS = ("overwrite",) * 4 + ("insert", "delete")


def _mutate_evb(data, fields, ops) -> bytes:
    """``EVB`` with 1-4 mutations, each of one of ``fields`` and by one of
    ``ops``: a field is picked first, so the sensor dims and every record
    field are reached as often as the magic."""
    out = bytearray(EVB)
    for _ in range(data.draw(st.integers(1, 4), label="mutations")):
        field = data.draw(st.sampled_from(fields), label="field")
        start, stop = EVB_FIELDS[field]
        if field in ("x", "y", "p", "t"):
            record = 16 + 13 * data.draw(st.integers(0, 11), label="record")
            start, stop = record + start, record + stop
        pos = data.draw(st.integers(start, stop - 1), label="position")
        op = data.draw(st.sampled_from(ops), label="op")
        if op == "insert":
            out.insert(pos, data.draw(BYTES, label="byte"))
        elif op == "overwrite":
            out[pos] = data.draw(BYTES, label="byte")
        else:
            del out[pos]
    return bytes(out)


# the last 2**62 events up to the largest timestamp: every record of the file
EVERY_RECORD = SliceSpec(SliceMode.SBN, count=2**62)


def _columns_or_error(read):
    """The x, y, p, t columns ``read()`` returns, or the type and message of
    the EvDepthError it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            got = read()
        except EvDepthError as exc:
            return type(exc), str(exc)
    return [a.tolist() for a in (got.xs, got.ys, got.ps, got.ts)]


def _sliced(path):
    with _open_recording(path) as source:
        return slice_events(source, 2**63 - 1, EVERY_RECORD)


@pytest.fixture(params=["one chunk", "chunks of 4"])
def evb_chunks(request, monkeypatch):
    """As they are, the file fits one read chunk; with 4-record chunks and an
    index entry every 2 records, checks and slices cross chunk boundaries."""
    if request.param == "chunks of 4":
        monkeypatch.setattr(events, "_EVB_CHUNK", 4)
        monkeypatch.setattr(events, "_INDEX_STEP", 2)


@FUZZ
@given(data=st.data())
def test_mutated_evb_gives_one_verdict_from_both_readers(tmp_path, evb_chunks, data):
    path = tmp_path / "e.evb"
    path.write_bytes(_mutate_evb(data, sorted(EVB_FIELDS), EVB_OPS))
    assert _columns_or_error(lambda: read_events(path)) == _columns_or_error(
        lambda: _sliced(path))


@FUZZ
@given(data=st.data())
def test_encode_on_a_mutated_evb_exits_0_or_2(tmp_path, monkeypatch, data):
    """Overwritten sensor dims and records, which the readers' verdict test
    above does not carry past the read. A header may declare a sensor of up
    to 65535x65535; stacks past 2**20 samples are refused here as if memory
    ran out, so the allocation guard must turn each into exit 2 without
    using the memory."""
    zeros = np.zeros

    def small_zeros(shape, *args, **kwargs):
        if np.prod(shape, dtype=object) > 2**20:
            raise MemoryError
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", small_zeros)
    path = tmp_path / "e.evb"
    path.write_bytes(_mutate_evb(data, ["width", "height", "x", "y", "p", "t"], ["overwrite"]))
    layout = data.draw(st.sampled_from(["tencode", "voxel"]), label="layout")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["encode", "--events", str(path), "--td-us", "80", "--dt-us", "50",
                     "--layout", layout, "--out", str(tmp_path / "s.pfm")])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
