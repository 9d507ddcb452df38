"""Byte-mutation fuzzing of the raster, depth sidecar, evcsv and EVB readers,
of the dataset manifest, the parameter archive, the timestamp index and the
``bench --baseline`` report.

Every mutated file must either read or raise an EvDepthError subclass (exit 2
from the CLI), never another exception or a RuntimeWarning. Mutations
overwrite, insert or delete single bytes, half of them inside the header
(of an EVB file, one header or record field at a time).
"""

import contextlib
import io
import json
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evdepth import events
from evdepth.cli import _baseline_rates, main
from evdepth.errors import EvDepthError
from evdepth.events import SliceMode, SliceSpec, read_events, slice_events
from evdepth.fusion import load_model_params, make_model_params, save_model_params
from evdepth.imgio import (
    load_depth,
    load_mask_pgm,
    read_pfm,
    read_pgm,
    read_ppm,
    save_depth_pfm,
    save_depth_pgm16,
    save_mask_pgm,
    write_pfm,
    write_pgm,
    write_ppm,
)
from evdepth.naming import timestamped_files
from evdepth.pipeline import _open_recording, build_manifest, load_manifest, save_manifest

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


def _exits_0_or_2(argv) -> int:
    """``main(argv)``'s exit code, which must be 0, or 2 with one ``error:``
    line on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    return code


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
    # a mutation to a 16-bit header makes load_depth read g8.pgm with this sidecar
    (tmp_path / "g8.pgm.json").write_text(json.dumps({"scale_m_per_unit": 0.001}))
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
    code = _exits_0_or_2(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir)])
    assert readable or code == 2


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
        elif pos < len(out):  # an earlier delete may have cut the last byte
            if op == "overwrite":
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


# numpy's own, taken once: the patch below lasts for every example of a test
# run, so an example that took np.zeros would wrap the previous one's wrapper
NP_ZEROS = np.zeros


@FUZZ
@given(data=st.data())
def test_encode_on_a_mutated_evb_exits_0_or_2(tmp_path, monkeypatch, data):
    """Overwritten sensor dims and records, which the readers' verdict test
    above does not carry past the read. A header may declare a sensor of up
    to 65535x65535; stacks past 2**20 samples are refused here as if memory
    ran out, so the allocation guard must turn each into exit 2 without
    using the memory."""

    def small_zeros(shape, *args, **kwargs):
        if np.prod(shape, dtype=object) > 2**20:
            raise MemoryError
        return NP_ZEROS(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", small_zeros)
    path = tmp_path / "e.evb"
    path.write_bytes(_mutate_evb(data, ["width", "height", "x", "y", "p", "t"], ["overwrite"]))
    layout = data.draw(st.sampled_from(["tencode", "voxel"]), label="layout")
    _exits_0_or_2(["encode", "--events", str(path), "--td-us", "80", "--dt-us", "50",
                   "--layout", layout, "--out", str(tmp_path / "s.pfm")])


# bytes that keep a JSON number one, mostly
NUMBER_BYTES = st.sampled_from(b"01234567899-.e")
_JSON_NUMBER = re.compile(rb"-?[0-9][0-9.eE+-]*")


def _mutate_json(data, raw: bytes, keep=()) -> bytes:
    """``raw`` with 1-4 byte mutations, none inside a (start, stop) span of
    ``keep``: most change a number (so the file stays JSON often enough to
    reach the checks past the parse), the rest any byte anywhere. Positions are drawn on ``raw`` and applied from the last to
    the first, so each lands where it was drawn."""
    outside = [i for i in range(len(raw) + 1) if not any(a <= i < b for a, b in keep)]
    numbers = sorted({i for m in _JSON_NUMBER.finditer(raw) for i in range(*m.span())}
                     .intersection(outside))
    edits = []
    for _ in range(data.draw(st.integers(1, 4), label="mutations")):
        in_number = data.draw(st.integers(0, 3), label="kind") > 0
        edits.append((data.draw(st.sampled_from(numbers if in_number else outside), label="position"),
                      data.draw(st.sampled_from(("overwrite", "insert", "delete")), label="op"),
                      data.draw(NUMBER_BYTES if in_number else BYTES, label="byte")))
    out = bytearray(raw)
    for pos, op, byte in sorted(edits, reverse=True):
        if op == "insert":
            out.insert(pos, byte)
        elif pos < len(out):
            if op == "overwrite":
                out[pos] = byte
            else:
                del out[pos]
    return bytes(out)


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    """The 8x6 ``EVB`` recording (t = 0, 10, ..., 110) with three frames and
    their proxies, and the manifest of 30 us tencode slices built from them."""
    root = tmp_path_factory.mktemp("recording")
    (root / "e.evb").write_bytes(EVB)
    for d in ("frames", "proxy"):
        (root / d).mkdir()
    for t in (40, 80, 110):
        write_pgm(root / "frames" / f"{t:09d}.pgm", np.full((6, 8), t))
        save_depth_pfm(root / "proxy" / f"{t:09d}.pfm", np.full((6, 8), 2.0))
    save_manifest(build_manifest(root / "e.evb", root / "frames", root / "proxy", window_us=30),
                  root / "m.json")
    return root


@FUZZ
@given(data=st.data())
def test_mutated_manifest_loads_or_is_format_error_and_exports_or_exits_2(recording, tmp_path,
                                                                         data):
    """Path values are left as they are: a mutated path names a missing file,
    an OSError (exit 3) by the exit-code contract."""
    raw = (recording / "m.json").read_bytes()
    paths = [m.span(1) for m in re.finditer(rb'_path": ("[^"]*")', raw)]
    path = tmp_path / "m.json"
    path.write_bytes(_mutate_json(data, raw, paths))
    _reads_or_rejects(load_manifest, path)
    _exits_0_or_2(["dataset", "export", "--manifest", str(path), "--out", str(tmp_path / "s")])


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """A two-scale parameter archive (2 and 3 channels) and two 16x16 stacks."""
    root = tmp_path_factory.mktemp("archive")
    save_model_params(make_model_params(seed=5, scales=(4, 8), channels=(2, 3)), root / "p.bin")
    (root / "stacks").mkdir()
    rng = np.random.default_rng(6)
    for k in range(2):
        write_pfm(root / "stacks" / f"{k:012d}.pfm", rng.random((16, 16, 3)).astype(np.float32))
    return root


@pytest.mark.parametrize("part", [".json", ".bin"])
@FUZZ
@given(data=st.data())
def test_mutated_parameter_archive_loads_or_is_format_error_and_runs_or_exits_2(
    archive, tmp_path, part, data
):
    bin_path = tmp_path / "p.bin"
    for suffix in (".json", ".bin"):
        raw = (archive / "p").with_suffix(suffix).read_bytes()
        if suffix == part:
            raw = _mutate_json(data, raw) if part == ".json" else _mutate(data, raw, len(raw))
        bin_path.with_suffix(suffix).write_bytes(raw)
    _reads_or_rejects(load_model_params, bin_path)
    _exits_0_or_2(["fusion", "run", "--stacks", str(archive / "stacks"), "--params",
                   str(bin_path), "--out", str(tmp_path / "d")])


INDEX = b"# name,t_us\na.pgm,0\nb.pgm,1000\nc.pgm,2500\n"


@FUZZ
@given(data=st.data())
def test_mutated_timestamp_index_reads_or_is_format_error_and_simulates_or_exits_2(
    tmp_path, data
):
    frames = tmp_path / "frames"
    frames.mkdir(exist_ok=True)
    for name, value in (("a", 60), ("b", 90), ("c", 200)):
        write_pgm(frames / f"{name}.pgm", np.full((6, 8), value))
    (frames / "timestamps.txt").write_bytes(_mutate(data, INDEX, len(INDEX)))
    _reads_or_rejects(lambda d: timestamped_files(d, (".pgm",)), frames)
    _exits_0_or_2(["simulate", "--frames", str(frames), "--contrast", "0.1",
                   "--out", str(tmp_path / "e.evb")])


# a bench report as ``evdepth bench --out`` writes it, trimmed to two layouts
BASELINE = json.dumps({
    "layouts": {
        "tencode": {"events_per_s": 5452146.079056179, "hash": "8800bf6ce5165079",
                    "median_s": 1.8341401449997647, "times_s": [1.975156276999769]},
        "voxel": {"events_per_s": 7019967.719030086, "hash": "99d71c4f5b0bd6e4",
                  "median_s": 1.4245079749998695, "times_s": [1.2976905119994626]},
    },
    "n_events": 10000000, "peak_rss_kb": 1234567, "repetitions": 1,
}, indent=2, sort_keys=True).encode()


@FUZZ
@given(data=st.data())
def test_mutated_bench_baseline_loads_or_is_format_error_and_benches_or_exits_2(tmp_path, data):
    path = tmp_path / "base.json"
    path.write_bytes(_mutate_json(data, BASELINE))
    rates = _reads_or_rejects(_baseline_rates, path)
    assert rates is None or all(math.isfinite(r) and r > 0 for r in rates.values())
    (tmp_path / "e.csv").write_bytes(EVCSV)
    _exits_0_or_2(["bench", "--events", str(tmp_path / "e.csv"), "--layouts", "tencode",
                   "--repetitions", "1", "--baseline", str(path)])
