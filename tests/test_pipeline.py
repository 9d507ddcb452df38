import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from conftest import make_random_stream
from evdepth import pipeline
from evdepth.cli import main
from evdepth.errors import BuildError, ContractError, DomainError, FormatError, ParameterError
from evdepth.events import (EventStream, SliceMode, SliceSpec, read_events, slice_sbt,
                            write_events)
from evdepth.imgio import load_depth, read_pfm, save_depth_pfm, save_mask_pgm, write_pgm
from evdepth.pipeline import (
    build_manifest,
    export_stacks,
    load_manifest,
    save_manifest,
    training_step,
)
from evdepth.stacks import StackLayout, encode_tencode

MS = 1000

# v1 manifests exactly as save_manifest writes them; the on-disk format is pinned
PINNED_SBT_TENCODE = """\
{
  "encoder": {
    "bins": null,
    "count": null,
    "layout": "tencode",
    "mode": "sbt",
    "window_us": 50000
  },
  "provenance": {
    "k_scales": 4,
    "lambda": 0.25,
    "teacher": "unspecified"
  },
  "records": [
    {
      "empty_slice": false,
      "events_path": "/data/scene.evb",
      "gt_path": null,
      "height": 24,
      "mask_path": null,
      "proxy_path": "/data/proxy/000050000.pfm",
      "t_d_us": 50000,
      "t_end_us": 50000,
      "t_start_us": 0,
      "width": 32
    },
    {
      "empty_slice": true,
      "events_path": "/data/scene.evb",
      "gt_path": "/data/gt/000100000.pfm",
      "height": 24,
      "mask_path": "/data/mask/000100000.pgm",
      "proxy_path": "/data/proxy/000100000.pfm",
      "t_d_us": 100000,
      "t_end_us": 100000,
      "t_start_us": 50000,
      "width": 32
    }
  ],
  "version": 1
}
"""
PINNED_SBN_VOXEL = """\
{
  "encoder": {
    "bins": 5,
    "count": 100,
    "layout": "voxel",
    "mode": "sbn",
    "window_us": null
  },
  "provenance": {
    "k_scales": 3,
    "lambda": 0.5,
    "teacher": "vfm-large"
  },
  "records": [
    {
      "empty_slice": false,
      "events_path": "/data/scene.evb",
      "gt_path": null,
      "height": 24,
      "mask_path": null,
      "proxy_path": "/data/proxy/000150000.pfm",
      "t_d_us": 150000,
      "t_end_us": 150000,
      "t_start_us": 149012,
      "width": 32
    }
  ],
  "version": 1
}
"""


def build_scene(tmp_path, frame_times_ms=(50, 100, 150), with_gt=False, with_mask=False, seed=0):
    """Events file + frames dir + proxy dir (+ optional gt/mask dirs)."""
    rng = np.random.default_rng(seed)
    stream = make_random_stream(rng, width=32, height=24, n_events=4000, t_max=200 * MS)
    events = tmp_path / "scene.evb"
    write_events(stream, events)
    frames = tmp_path / "frames"
    proxies = tmp_path / "proxy"
    frames.mkdir()
    proxies.mkdir()
    gt_dir = mask_dir = None
    if with_gt:
        gt_dir = tmp_path / "gt"
        gt_dir.mkdir()
    if with_mask:
        mask_dir = tmp_path / "mask"
        mask_dir.mkdir()
    for t_ms in frame_times_ms:
        stem = f"{t_ms * MS:09d}"
        write_pgm(frames / f"{stem}.pgm", rng.integers(0, 256, (24, 32)).astype(np.uint8))
        save_depth_pfm(proxies / f"{stem}.pfm", rng.uniform(1.0, 10.0, (24, 32)))
        if with_gt:
            gt = rng.uniform(1.0, 10.0, (24, 32))
            gt[rng.random((24, 32)) < 0.4] = 0.0  # sparse ground truth
            save_depth_pfm(gt_dir / f"{stem}.pfm", gt)
        if with_mask:
            save_mask_pgm(mask_dir / f"{stem}.pgm", rng.random((24, 32)) < 0.9)
    return events, frames, proxies, gt_dir, mask_dir


class TestBuildManifest:
    def test_intervals_end_at_frame_timestamps(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        manifest = build_manifest(events, frames, proxies, window_us=50 * MS)
        assert [r.t_d_us for r in manifest.records] == [50 * MS, 100 * MS, 150 * MS]
        assert [(r.t_start_us, r.t_end_us) for r in manifest.records] == [
            (0, 50 * MS),
            (50 * MS, 100 * MS),
            (100 * MS, 150 * MS),
        ]
        assert all(r.t_end_us == r.t_d_us for r in manifest.records)

    def test_missing_proxy_is_build_error_naming_the_frame(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        (proxies / f"{100 * MS:09d}.pfm").unlink()
        with pytest.raises(BuildError, match=str(100 * MS)):
            build_manifest(events, frames, proxies)

    def test_unparsable_frame_timestamp_is_error(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        write_pgm(frames / "not-a-time.pgm", np.zeros((24, 32), dtype=np.uint8))
        with pytest.raises(FormatError):
            build_manifest(events, frames, proxies)

    def test_build_is_order_independent_and_deterministic(self, tmp_path):
        rng = np.random.default_rng(1)
        times = [int(t) for t in rng.choice(np.arange(20, 200, 10), size=8, replace=False)]
        events, frames, proxies, _, _ = build_scene(tmp_path, frame_times_ms=times)
        m1 = build_manifest(events, frames, proxies)
        m2 = build_manifest(events, frames, proxies)
        assert m1 == m2
        assert [r.t_d_us for r in m1.records] == sorted(r.t_d_us for r in m1.records)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_manifest(m1, p1)
        save_manifest(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_slices_flagged_and_droppable(self, tmp_path):
        # frame at 400 ms sits far beyond the last event (t_max 200 ms)
        events, frames, proxies, _, _ = build_scene(tmp_path, frame_times_ms=(50, 400))
        manifest = build_manifest(events, frames, proxies, window_us=10 * MS)
        flags = {r.t_d_us: r.empty_slice for r in manifest.records}
        assert flags[400 * MS] is True and flags[50 * MS] is False
        dropped = build_manifest(events, frames, proxies, window_us=10 * MS, drop_empty=True)
        assert [r.t_d_us for r in dropped.records] == [50 * MS]

    def test_sbn_mode_records_count_interval(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        manifest = build_manifest(events, frames, proxies, mode="sbn", count=100)
        assert manifest.encoder.slicing == SliceSpec(SliceMode.SBN, count=100)
        stream = read_events(events)
        for r in manifest.records:
            lo = np.searchsorted(stream.ts, r.t_d_us, side="right") - 100
            assert r.t_start_us == int(stream.ts[max(lo, 0)])

    def test_provenance_recorded(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        manifest = build_manifest(events, frames, proxies, teacher="vfm-large", lam=0.25, k_scales=4)
        assert manifest.provenance.teacher == "vfm-large"
        assert manifest.provenance.lam == 0.25
        assert manifest.provenance.k_scales == 4

    def test_numpy_integer_parameters_are_saved_as_ints(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        manifest = build_manifest(events, frames, proxies, mode="sbn", count=np.int64(100),
                                  layout="voxel", bins=np.uint8(3), k_scales=np.int16(2))
        save_manifest(manifest, tmp_path / "m.json")
        loaded = load_manifest(tmp_path / "m.json")
        assert loaded == manifest
        assert (loaded.encoder.slicing.count, loaded.encoder.bins, loaded.provenance.k_scales) == (
            100, 3, 2)

    def test_mode_validation(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        with pytest.raises(ParameterError):
            build_manifest(events, frames, proxies, mode="sbn")
        with pytest.raises(ParameterError):
            build_manifest(events, frames, proxies, mode="nope")
        with pytest.raises(ParameterError):  # a count would be dropped in SBT mode
            build_manifest(events, frames, proxies, count=100)
        with pytest.raises(ParameterError):  # bins would be dropped by a non-voxel layout
            build_manifest(events, frames, proxies, layout="tencode", bins=3)

    @pytest.mark.parametrize("mode, layout", [(SliceMode.SBT, StackLayout.TENCODE),
                                              (SliceMode.SBN, StackLayout.VOXEL)])
    def test_members_build_what_their_values_build(self, tmp_path, mode, layout):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        count = 100 if mode is SliceMode.SBN else None
        by_member = build_manifest(events, frames, proxies, mode=mode, count=count, layout=layout)
        assert by_member == build_manifest(events, frames, proxies, mode=mode.value, count=count,
                                           layout=layout.value)

    def test_timestamp_index_file_overrides_stems(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        # remap existing frame files to new timestamps via the index
        names = sorted(p.name for p in frames.iterdir())
        index_times = [70 * MS, 110 * MS, 160 * MS]
        lines = [f"{n},{t}" for n, t in zip(names, index_times)]
        (frames / "timestamps.txt").write_text("\n".join(lines) + "\n")
        # proxies keep pairing by filename stem, independent of the index
        manifest = build_manifest(events, frames, proxies, window_us=50 * MS)
        assert [r.t_d_us for r in manifest.records] == index_times
        assert [r.t_end_us for r in manifest.records] == index_times

    def test_frame_times_up_to_int64_max_build_and_export(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path, frame_times_ms=(50,))
        last = f"{2**63 - 1}"
        (frames / f"{50 * MS:09d}.pgm").rename(frames / f"{last}.pgm")
        (proxies / f"{50 * MS:09d}.pfm").rename(proxies / f"{last}.pfm")
        manifest = build_manifest(events, frames, proxies)
        assert [r.t_d_us for r in manifest.records] == [2**63 - 1]
        assert len(export_stacks(manifest, tmp_path / "stacks")) == 1
        # the index allows leading zeros past what int() parses
        (frames / "timestamps.txt").write_text(f"{last}.pgm,{'0' * 5000}{2**63 - 1}\n")
        assert build_manifest(events, frames, proxies) == manifest


class TestManifestFile:
    def test_round_trip(self, tmp_path):
        events, frames, proxies, gt_dir, mask_dir = build_scene(
            tmp_path, with_gt=True, with_mask=True
        )
        manifest = build_manifest(events, frames, proxies, gt_dir=gt_dir, mask_dir=mask_dir)
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        assert load_manifest(path) == manifest

    def test_version_checked(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(FormatError, match="version"):
            load_manifest(path)

    def test_non_increasing_timestamps_rejected(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        manifest = build_manifest(events, frames, proxies)
        path = tmp_path / "m.json"
        save_manifest(manifest, path)
        payload = json.loads(path.read_text())
        payload["records"][1]["t_d_us"] = payload["records"][0]["t_d_us"]
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="increase"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda m: m.pop("encoder"),
            lambda m: m.pop("provenance"),
            lambda m: m["records"][0].pop("proxy_path"),
            lambda m: m["encoder"].update(mode="sbx"),
            lambda m: m["encoder"].update(layout="hexgrid"),
            lambda m: m["encoder"].update(window_us=None),
            lambda m: m["encoder"].update(mode="sbn", window_us=None, count=None),
            lambda m: m["encoder"].update(mode="sbn", window_us=None, count=2.5),
            lambda m: m["encoder"].update(layout="voxel", bins=0),
            lambda m: m["encoder"].update(layout="voxel"),  # bins stays null
            lambda m: m.update(records=[dict(m["records"][0], t_d_us="50000")]),
            lambda m: m["records"][1].update(events_path=5),
            lambda m: m["records"][0].update(width=True),
            lambda m: m["records"][0].update(height=24.0),
            lambda m: m["records"][0].update(gt_path=7),
            lambda m: m["records"][0].update(mask_path=["m.pgm"]),
            lambda m: m["records"][0].update(empty_slice=0),
            lambda m: m["records"][0].update(proxy_path=None),
            lambda m: m["encoder"].update(layout="voxel", bins=True),
            lambda m: m["encoder"].update(window_us=True),
            lambda m: m["encoder"].update(mode="sbn", window_us=None, count=True),
            lambda m: m["provenance"].update(teacher=5),
            lambda m: m["provenance"].update({"lambda": "abc"}),
            lambda m: m["provenance"].update({"lambda": True}),
            lambda m: m["provenance"].update({"lambda": float("nan")}),
            lambda m: m["provenance"].update({"lambda": float("inf")}),
            lambda m: m["provenance"].update({"lambda": 10**400}),
            lambda m: m["provenance"].update(k_scales=None),
            lambda m: m["provenance"].update(k_scales=0),
            lambda m: m["provenance"].update(k_scales=True),
            lambda m: m["provenance"].update(k_scales=2.0),
            lambda m: m["records"][0].update(width=0),
            lambda m: m["records"][0].update(height=65536),
            lambda m: m["records"][0].update(t_d_us=-1),
            lambda m: m["records"][0].update(t_end_us=2**63),
            lambda m: m["records"][0].update(t_start_us=-(2**63)),
        ],
        ids=[
            "no-encoder", "no-provenance", "no-record-key", "unknown-mode", "unknown-layout",
            "null-window", "null-count", "fractional-count", "zero-bins", "missing-bins",
            "text-t_d-one-record", "int-events-path", "bool-width", "float-height",
            "int-gt-path", "list-mask-path", "int-empty-slice", "null-proxy-path",
            "bool-bins", "bool-window", "bool-count", "int-teacher", "text-lambda",
            "bool-lambda", "nan-lambda", "inf-lambda", "huge-int-lambda", "null-k-scales",
            "zero-k-scales", "bool-k-scales", "float-k-scales", "zero-width", "huge-height",
            "negative-t_d", "huge-t_end", "huge-negative-t_start",
        ],
    )
    def test_malformed_manifest_is_format_error(self, tmp_path, capsys, mutate):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        path = tmp_path / "m.json"
        save_manifest(build_manifest(events, frames, proxies), path)
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "):
            load_manifest(path)
        assert main(["dataset", "export", "--manifest", str(path),
                     "--out", str(tmp_path / "stacks")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text", [PINNED_SBT_TENCODE, PINNED_SBN_VOXEL])
    def test_save_reproduces_loaded_bytes(self, tmp_path, text):
        src, dst = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(text)
        save_manifest(load_manifest(src), dst)
        assert dst.read_bytes() == src.read_bytes()


class TestTrainingStep:
    def test_prediction_equal_to_proxy_gives_exact_zero(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        manifest = build_manifest(events, frames, proxies)
        record = manifest.records[0]
        pred = load_depth(record.proxy_path)
        step = training_step(record, pred)
        assert step.total == 0.0
        assert not step.grad.any()
        assert step.proxy_report.l_si == 0.0 and step.proxy_report.l_reg == 0.0

    def test_zero_regardless_of_mask(self, tmp_path):
        events, frames, proxies, _, mask_dir = build_scene(tmp_path, with_mask=True)
        manifest = build_manifest(events, frames, proxies, mask_dir=mask_dir)
        record = manifest.records[1]
        assert record.mask_path is not None
        step = training_step(record, load_depth(record.proxy_path))
        assert step.total == 0.0 and not step.grad.any()

    def test_default_lambda_wiring(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        manifest = build_manifest(events, frames, proxies)
        record = manifest.records[0]
        rng = np.random.default_rng(3)
        step = training_step(record, rng.uniform(1, 10, (24, 32)))
        assert step.proxy_report.lam == 0.25
        assert step.proxy_report.k_scales == 4
        assert step.total > 0

    def test_gt_mode_uses_gt_validity_mask(self, tmp_path):
        events, frames, proxies, gt_dir, _ = build_scene(tmp_path, with_gt=True)
        manifest = build_manifest(events, frames, proxies, gt_dir=gt_dir)
        record = manifest.records[0]
        assert record.gt_path is not None
        gt = load_depth(record.gt_path)
        pred = np.where(gt > 0, gt, 123.456)  # garbage only on invalid gt pixels
        step = training_step(record, pred, mode="gt")
        assert step.total == 0.0
        assert step.proxy_report is None and step.gt_report is not None

    def test_combined_mode_is_additive(self, tmp_path):
        events, frames, proxies, gt_dir, _ = build_scene(tmp_path, with_gt=True)
        manifest = build_manifest(events, frames, proxies, gt_dir=gt_dir)
        record = manifest.records[2]
        rng = np.random.default_rng(4)
        pred = rng.uniform(1, 10, (24, 32))
        proxy_only = training_step(record, pred, mode="proxy")
        gt_only = training_step(record, pred, mode="gt")
        combined = training_step(record, pred, mode="combined")
        assert combined.total == proxy_only.total + gt_only.total
        assert np.array_equal(combined.grad, proxy_only.grad + gt_only.grad)

    def test_combined_mode_reads_the_mask_once(self, tmp_path, monkeypatch):
        events, frames, proxies, gt_dir, mask_dir = build_scene(
            tmp_path, with_gt=True, with_mask=True
        )
        manifest = build_manifest(events, frames, proxies, gt_dir=gt_dir, mask_dir=mask_dir)
        record = manifest.records[1]
        reads = []
        load = pipeline.load_mask_pgm
        monkeypatch.setattr(pipeline, "load_mask_pgm", lambda p: reads.append(p) or load(p))
        training_step(record, np.ones((24, 32)), mode="combined")
        assert reads == [record.mask_path]

    @pytest.mark.parametrize("mode", ["proxy", "gt", "combined"])
    def test_non_finite_prediction_is_domain_error(self, tmp_path, mode):
        events, frames, proxies, gt_dir, _ = build_scene(tmp_path, with_gt=True)
        record = build_manifest(events, frames, proxies, gt_dir=gt_dir).records[0]
        gt = load_depth(record.gt_path)
        pred = np.random.default_rng(5).uniform(1, 10, (24, 32))
        y, x = np.argwhere(gt > 0)[0]  # valid for the proxy and the ground truth
        pred[y, x] = np.nan
        with pytest.raises(DomainError, match="prediction must be finite"):
            training_step(record, pred, mode=mode)

    def test_combined_requires_gt(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        manifest = build_manifest(events, frames, proxies)
        with pytest.raises(ParameterError):
            training_step(manifest.records[0], np.ones((24, 32)), mode="combined")

    def test_missing_proxy_at_step_time_names_the_record(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        manifest = build_manifest(events, frames, proxies)
        record = manifest.records[0]
        (proxies / f"{record.t_d_us:09d}.pfm").unlink()
        with pytest.raises(FileNotFoundError, match=str(record.t_d_us)):
            training_step(record, np.ones((24, 32)))

    def test_prediction_shape_contract(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        manifest = build_manifest(events, frames, proxies)
        with pytest.raises(ContractError):
            training_step(manifest.records[0], np.ones((10, 10)))


class TestExport:
    def test_files_match_direct_encoding(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        manifest = build_manifest(events, frames, proxies, window_us=50 * MS)
        out = tmp_path / "stacks"
        written = export_stacks(manifest, out)
        assert len(written) == 3
        stream = read_events(events)
        for record, path in zip(manifest.records, written):
            direct = encode_tencode(slice_sbt(stream, record.t_d_us, 50 * MS))
            assert np.array_equal(
                read_pfm(path), direct.values.astype(np.float32).astype(np.float64)
            )

    def test_rerun_is_byte_identical(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        manifest = build_manifest(events, frames, proxies)
        out = tmp_path / "stacks"
        first = {p.name: p.read_bytes() for p in export_stacks(manifest, out)}
        second = {p.name: p.read_bytes() for p in export_stacks(manifest, out)}
        assert first == second

    def test_empty_slice_exports_zero_stack(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path, frame_times_ms=(50, 400))
        manifest = build_manifest(events, frames, proxies, window_us=10 * MS)
        written = export_stacks(manifest, tmp_path / "stacks")
        zero_stack = read_pfm([p for p in written if f"{400 * MS:012d}" in p.name][0])
        assert not zero_stack.any()

    def test_voxel_layout_export(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        manifest = build_manifest(events, frames, proxies, layout="voxel", bins=5)
        written = export_stacks(manifest, tmp_path / "stacks")
        assert len(written) == 15  # 3 records x 5 per-channel files

    def test_ppm_export(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        manifest = build_manifest(events, frames, proxies)
        written = export_stacks(manifest, tmp_path / "stacks", fmt="ppm")
        assert all(p.suffix == ".ppm" for p in written)

    def test_stale_events_file_detected(self, tmp_path):
        events, frames, proxies, _, _ = build_scene(tmp_path)
        manifest = build_manifest(events, frames, proxies, mode="sbn", count=50)
        other = make_random_stream(np.random.default_rng(99), width=32, height=24, n_events=10)
        write_events(other, events)
        with pytest.raises(ContractError, match="no longer matches"):
            export_stacks(manifest, tmp_path / "stacks")

    @pytest.mark.parametrize("mode, layout", [("sbt", "tencode"), ("sbn", "voxel")])
    def test_evcsv_recording_exports_what_its_evb_twin_does(self, tmp_path, mode, layout):
        events, frames, proxies, _, _ = build_scene(tmp_path, frame_times_ms=(0, 50, 150, 400))
        twin = tmp_path / "scene.csv"
        write_events(read_events(events), twin)
        count = 700 if mode == "sbn" else None
        out = {}
        for path in (events, twin):
            manifest = build_manifest(path, frames, proxies, mode=mode, count=count, layout=layout)
            out[path.suffix] = (
                [dataclasses.replace(r, events_path="") for r in manifest.records],
                [p.read_bytes() for p in export_stacks(manifest, tmp_path / path.suffix[1:])],
            )
        assert out[".csv"] == out[".evb"]
        # no events by t = 0, and none in the last SBT window
        empty = [True, False, False, mode == "sbt"]
        assert [r.empty_slice for r in out[".evb"][0]] == empty

    def test_export_memory_is_bounded_by_the_slice_not_the_file(self, tmp_path):
        # 1M events, slices of at most 2,000: the columns of the whole file
        # would take 17 MB
        n = 1_000_000
        rng = np.random.default_rng(5)
        stream = EventStream(32, 24, rng.integers(0, 32, n), rng.integers(0, 24, n),
                             rng.choice(np.array([-1, 1]), n), np.arange(n) * 10)
        events, frames, proxies, _, _ = build_scene(tmp_path, frame_times_ms=(1_000, 5_000, 9_000))
        write_events(stream, events)
        del stream
        manifest = build_manifest(events, frames, proxies, window_us=20 * MS)
        tracemalloc.start()
        try:
            written = export_stacks(manifest, tmp_path / "stacks")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(written) == 3
        assert peak < 17 * n / 4, peak

    def test_export_frees_each_stack_before_the_next_record(self, tmp_path):
        # voxel SBN stacks at 346x260 with 5 bins take 3.6 MB each; holding
        # the previous record's slice and stack through the next encode peaks
        # at about 11.7 MB, freeing them at about 8.2 MB
        n, width, height = 200_000, 346, 260
        rng = np.random.default_rng(6)
        stream = EventStream(width, height, rng.integers(0, width, n), rng.integers(0, height, n),
                             rng.choice(np.array([-1, 1]), n), np.arange(n) * 2)
        events = tmp_path / "events.evb"
        write_events(stream, events)
        del stream
        for name in ("frames", "proxy"):
            (tmp_path / name).mkdir()
            for k in range(1, 4):
                save_depth_pfm(tmp_path / name / f"{k * n // 2:09d}.pfm", np.ones((height, width)))
        manifest = build_manifest(events, tmp_path / "frames", tmp_path / "proxy",
                                  layout="voxel", mode="sbn", count=50_000, bins=5)
        export_stacks(manifest, tmp_path / "warm")
        tracemalloc.start()
        try:
            written = export_stacks(manifest, tmp_path / "stacks")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(written) == 3 * 5
        assert peak < 10 * 2**20, peak / 2**20
