import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import make_random_stream
from evdepth import config
from evdepth.cli import main
from evdepth.errors import FormatError, ParameterError
from evdepth.events import EventStream, read_events, slice_sbt, write_events
from evdepth.fusion import (load_model_params, make_model_params, run_sequence, save_model_params,
                            toy_extractor)
from evdepth.imgio import read_pfm, save_depth_pfm, save_depth_pgm16, write_pfm, write_pgm
from evdepth.naming import timestamped_files
from evdepth.simulator import MAX_FRAME_TIME_US
from evdepth.stacks import (StackLayout, encode, encode_tencode, load_stack_pfms, save_stack_pfm,
                            save_stack_ppm)

MS = 1000
ROOT = Path(__file__).resolve().parents[1]


def write_frames(dirpath, specs):
    dirpath.mkdir(exist_ok=True)
    for t_us, value in specs:
        write_pgm(dirpath / f"{t_us:09d}.pgm", np.full((8, 8), value, dtype=np.uint8))


@pytest.fixture()
def events_file(tmp_path):
    stream = make_random_stream(np.random.default_rng(0), width=16, height=12, n_events=3000)
    path = tmp_path / "events.evb"
    write_events(stream, path)
    return path


class TestExitCodes:
    def test_usage_error_is_one(self, tmp_path, events_file, capsys):
        assert main(["slice", "--events", "x.evb"]) == 1  # --td-us missing
        assert main(["not-a-command"]) == 1
        assert main([]) == 1
        assert main(["slice", "--events", str(events_file), "--td-us", "10",
                     "--out", str(tmp_path / "o.evb")]) == 1  # no --dt-us or --count
        assert main(["dataset", "build", "--events", str(events_file), "--frames", str(tmp_path),
                     "--proxy", str(tmp_path), "--mode", "sbn",
                     "--out", str(tmp_path / "m.json")]) == 1  # --mode sbn without --count
        assert main(["encode", "--events", str(events_file), "--td-us", "500000",
                     "--out", str(tmp_path / "s.png")]) == 1  # neither .pfm nor .ppm
        err = capsys.readouterr().err
        assert "slice needs --dt-us (SBT) or --count (SBN)" in err
        assert "--mode sbn needs --count" in err
        assert "output must end in .pfm or .ppm, got 's.png'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["events.evb"]

    def test_data_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# evcsv v1 width=8 height=8\n1,1,0,10\n")
        assert main(["slice", "--events", str(bad), "--td-us", "10", "--dt-us", "5",
                     "--out", str(tmp_path / "o.evb")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["slice", "encode", "dataset-build"])
    def test_non_ascii_evcsv_is_data_error(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"# evcsv v1 width=8 height=8\n1,1,1,10\n2,2,1,\xb520\n")
        out = str(tmp_path / "out.pfm")
        argv = {
            "slice": ["slice", "--events", str(bad), "--td-us", "20", "--dt-us", "15",
                      "--out", str(tmp_path / "o.evb")],
            "encode": ["encode", "--events", str(bad), "--td-us", "20", "--dt-us", "15",
                       "--out", out],
            "dataset-build": ["dataset", "build", "--events", str(bad), "--frames",
                              str(tmp_path), "--proxy", str(tmp_path), "--out", out],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not an ASCII evcsv file")

    def test_frame_without_proxy_is_named_before_the_recording(self, tmp_path, capsys):
        # the 15-byte recording is a truncated EVB header, yet the missing
        # proxy is what a build reports: frames are paired before the open
        events = tmp_path / "events.evb"
        events.write_bytes(b"\0" * 15)
        write_frames(tmp_path / "frames", [(500, 90)])
        (tmp_path / "proxy").mkdir()
        out = tmp_path / "m.json"
        assert main(["dataset", "build", "--events", str(events), "--frames",
                     str(tmp_path / "frames"), "--proxy", str(tmp_path / "proxy"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: missing proxy/mask files for frames: 000000500 (t_d=500)\n"
        assert not out.exists()

    @pytest.mark.parametrize("header, record", [
        ("width=8 height=6", "1,1,1," + "9" * 5000),
        ("width=" + "9" * 5000 + " height=6", "1,1,1,5"),
    ], ids=["time", "width"])
    def test_evcsv_field_of_5000_digits_is_data_error(self, tmp_path, capsys, header, record):
        bad = tmp_path / "big.csv"
        bad.write_text(f"# evcsv v1 {header}\n{record}\n")
        assert main(["encode", "--events", str(bad), "--td-us", "10", "--dt-us", "5",
                     "--out", str(tmp_path / "s.pfm")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1

    def test_io_error_is_three(self, tmp_path, capsys):
        assert main(["slice", "--events", str(tmp_path / "missing.evb"), "--td-us", "10",
                     "--dt-us", "5", "--out", str(tmp_path / "o.evb")]) == 3
        assert "missing.evb" in capsys.readouterr().err

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0


class TestSimulate:
    def test_constant_frames_give_header_only_evb(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        write_frames(frames, [(0, 90), (1000, 90), (2000, 90)])
        out = tmp_path / "out.evb"
        assert main(["simulate", "--frames", str(frames), "--contrast", "0.1",
                     "--out", str(out)]) == 0
        assert out.stat().st_size == 16
        assert "0 events" in capsys.readouterr().out

    def test_ramp_event_count_matches_threshold_oracle(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        write_frames(frames, [(0, 49), (1000, 135)])
        out = tmp_path / "out.evb"
        assert main(["simulate", "--frames", str(frames), "--contrast", "0.1",
                     "--out", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        per_pixel = math.floor(math.log(136 / 50) / 0.1)
        assert payload["n_events"] == 64 * per_pixel
        assert len(read_events(out)) == payload["n_events"]

    def test_non_ascii_timestamp_index_is_data_error(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        write_frames(frames, [(0, 90)])
        (frames / "timestamps.txt").write_bytes(b"a.pgm,\xff12\n")
        with pytest.raises(FormatError, match="timestamps.txt"):
            timestamped_files(frames, (".pgm",))
        assert main(["simulate", "--frames", str(frames), "--contrast", "0.1",
                     "--out", str(tmp_path / "o.evb")]) == 2
        assert "timestamps.txt" in capsys.readouterr().err

    def test_frame_time_past_bound_is_data_error(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        write_frames(frames, [(0, 90), (1000, 120)])
        (frames / "timestamps.txt").write_text(
            f"000000000.pgm,0\n000001000.pgm,{MAX_FRAME_TIME_US + 1}\n"
        )
        assert main(["simulate", "--frames", str(frames), "--contrast", "0.1",
                     "--out", str(tmp_path / "o.evb")]) == 2
        assert "000001000.pgm: frame timestamp" in capsys.readouterr().err

    # a time read from text is ASCII decimal digits, at most 2**63 - 1
    BAD_TIMES = {
        "index-double-minus": ("a.pgm", "000000000.pgm,0\na.pgm,--5\n", "timestamps.txt:2"),
        "index-negative": ("a.pgm", "000000000.pgm,0\na.pgm,-5\n", "timestamps.txt:2"),
        "index-past-int64": ("a.pgm", f"000000000.pgm,0\na.pgm,{2**63}\n", "timestamps.txt:2"),
        "index-5000-digits": ("a.pgm", f"000000000.pgm,0\na.pgm,{'9' * 5000}\n",
                              "timestamps.txt:2"),
        "superscript-stem": ("\u00b200.pgm", None, "/\u00b200.pgm: time"),
        "arabic-indic-stem": ("\u0661\u0662.pgm", None, "/\u0661\u0662.pgm: time"),
        "stem-past-int64": (f"{10**20}.pgm", None, f"/{10**20}.pgm: time"),
    }

    @pytest.mark.parametrize("case", BAD_TIMES, ids=list(BAD_TIMES))
    def test_time_that_is_not_an_ascii_decimal_int64_is_data_error(self, tmp_path, capsys,
                                                                     case):
        name, index, named = self.BAD_TIMES[case]
        frames = tmp_path / "frames"
        write_frames(frames, [(0, 90)])
        write_pgm(frames / name, np.full((8, 8), 120, dtype=np.uint8))
        if index is not None:
            (frames / "timestamps.txt").write_text(index)
        with pytest.raises(FormatError, match=re.escape(named)):
            timestamped_files(frames, (".pgm",))
        assert main(["simulate", "--frames", str(frames), "--contrast", "0.1",
                     "--out", str(tmp_path / "o.evb")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert not (tmp_path / "o.evb").exists()

    def test_missing_dir_reports_path(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["simulate", "--frames", str(missing), "--contrast", "0.1",
                     "--out", str(tmp_path / "o.evb")]) == 3
        assert str(missing) in capsys.readouterr().err


class TestSliceEncode:
    def test_slice_writes_substream(self, tmp_path, events_file):
        out = tmp_path / "slice.evb"
        assert main(["slice", "--events", str(events_file), "--td-us", "500000",
                     "--dt-us", "100000", "--out", str(out)]) == 0
        sliced = read_events(out)
        full = read_events(events_file)
        expected = [e for e in full if 400000 <= e.timestamp <= 500000]
        assert list(sliced) == expected

    def test_mutually_exclusive_window_args(self, tmp_path, events_file):
        assert main(["slice", "--events", str(events_file), "--td-us", "10",
                     "--dt-us", "5", "--count", "3", "--out", str(tmp_path / "o.evb")]) == 1
        build = ["dataset", "build", "--events", str(events_file), "--frames", str(tmp_path),
                 "--proxy", str(tmp_path), "--out", str(tmp_path / "m.json")]
        assert main(build + ["--count", "3"]) == 1  # --count without --mode sbn
        assert main(build + ["--layout", "tencode", "--bins", "3"]) == 1
        assert not (tmp_path / "m.json").exists()

    def test_encode_matches_library_golden_bytes(self, tmp_path, events_file):
        out = tmp_path / "stack.pfm"
        assert main(["encode", "--events", str(events_file), "--td-us", "500000",
                     "--dt-us", "100000", "--layout", "tencode", "--out", str(out)]) == 0
        golden = tmp_path / "golden.pfm"
        stream = read_events(events_file)
        stack = encode_tencode(slice_sbt(stream, 500000, 100000))
        save_stack_pfm(stack, golden)
        assert out.read_bytes() == golden.read_bytes()
        # an 8-bit PPM of the same stack, by the output's suffix
        assert main(["encode", "--events", str(events_file), "--td-us", "500000", "--dt-us",
                     "100000", "--layout", "tencode", "--out", str(out.with_suffix(".PPM"))]) == 0
        save_stack_ppm(stack, golden.with_suffix(".ppm"))
        assert out.with_suffix(".PPM").read_bytes() == golden.with_suffix(".ppm").read_bytes()

    def test_encode_default_window_and_bins(self, tmp_path, events_file, capsys):
        out = tmp_path / "stack.pfm"
        assert main(["encode", "--events", str(events_file), "--td-us", "500000",
                     "--layout", "voxel", "--out", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # default SBT window is 50 ms and default bins is 5 (one pfm per bin)
        assert payload["t_start_us"] == 500000 - 50 * MS
        assert len(payload["files"]) == 5

    @pytest.mark.parametrize("args, named", [
        (["--td-us", str(10**20), "--count", "1", "--layout", "tencode"], "t_d"),
        (["--td-us", "100", "--dt-us", str(10**19), "--layout", "voxel"], "window"),
        (["--td-us", "100", "--count", str(2**63), "--layout", "imagelike"], "count"),
    ], ids=["t_d", "window", "count"])
    def test_encode_past_int64_is_data_error(self, tmp_path, events_file, capsys, args, named):
        assert main(["encode", "--events", str(events_file), *args,
                     "--out", str(tmp_path / "s.pfm")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} must be an integer in [") and err.count("\n") == 1

    def test_encode_empty_slice_warns_but_succeeds(self, tmp_path, events_file, capsys):
        out = tmp_path / "stack.pfm"
        assert main(["encode", "--events", str(events_file), "--td-us", "999000000",
                     "--dt-us", "10", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "empty slice" in err
        assert not read_pfm(out).any()

    def test_voxel_bins_past_numpy_sizes_is_data_error(self, tmp_path, events_file, capsys):
        # numpy refuses the (12, 16, 2**62) grid outright: nothing is allocated
        out = tmp_path / "stack.pfm"
        tracemalloc.start()
        try:
            code = main(["encode", "--events", str(events_file), "--td-us", "500000",
                         "--layout", "voxel", "--bins", str(2**62), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20
        nbytes = 12 * 16 * 2**62 * 8
        assert capsys.readouterr().err == (f"error: a 16x12x{2**62} voxel stack, more than fit "
                                           f"in memory ({nbytes:,} bytes)\n")
        assert not list(tmp_path.glob("stack*"))

    @pytest.mark.parametrize("layout, channels", [("tencode", 3), ("voxel", 5)])
    def test_sensor_too_large_to_encode_is_data_error(self, tmp_path, capsys, monkeypatch,
                                                      layout, channels):
        # a legal 29-byte EVB file declaring a 65535x65535 sensor: its stack
        # takes 96 or 160 GiB, so the allocation fails (injected here, to
        # stay independent of this machine's memory)
        events = tmp_path / "big.evb"
        events.write_bytes(struct.pack("<4sHHQ", b"EVB1", 65535, 65535, 1)
                           + struct.pack("<HHbQ", 3, 4, 1, 10))
        zeros = np.zeros

        def failing_zeros(shape, *args, **kwargs):
            if math.prod(np.atleast_1d(shape)) > 2**30:
                raise MemoryError
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", failing_zeros)
        assert main(["encode", "--events", str(events), "--td-us", "10", "--layout", layout,
                     "--out", str(tmp_path / "stack.pfm")]) == 2
        nbytes = 65535 * 65535 * channels * 8
        assert capsys.readouterr().err == (
            f"error: a 65535x65535x{channels} {layout} stack, more than fit in memory "
            f"({nbytes:,} bytes)\n")

    def test_encode_rerun_is_byte_identical(self, tmp_path, events_file):
        a, b = tmp_path / "a.pfm", tmp_path / "b.pfm"
        args = ["encode", "--events", str(events_file), "--td-us", "500000",
                "--dt-us", "100000"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "slice"])
    def test_event_format_that_contradicts_the_suffix_is_data_error(
            self, tmp_path, events_file, capsys, command):
        frames = tmp_path / "frames"
        write_frames(frames, [(0, 90), (1000, 120)])
        out = tmp_path / {"simulate": "x.evb", "slice": "s.csv"}[command]
        argv = {
            "simulate": ["simulate", "--frames", str(frames), "--contrast", "0.1",
                         "--format", "csv"],
            "slice": ["slice", "--events", str(events_file), "--td-us", "500000",
                      "--dt-us", "100000", "--format", "evb"],
        }[command]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: event format ") and err.count("\n") == 1
        assert not out.exists()


class TestAlignEvaluate:
    def test_align_recovers_affine_map(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        target = rng.uniform(1, 10, (12, 12))
        save_depth_pfm(tmp_path / "target.pfm", target)
        save_depth_pfm(tmp_path / "pred.pfm", (target - 3.0) / 2.0)
        assert main(["align", "--pred", str(tmp_path / "pred.pfm"),
                     "--target", str(tmp_path / "target.pfm"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scale"] == pytest.approx(2.0, abs=1e-6)
        assert payload["shift"] == pytest.approx(3.0, abs=1e-6)

    def test_overflowing_alignment_is_data_error(self, tmp_path, capsys):
        # a 16-bit depth PGM is scaled by its sidecar's factor, so a stored
        # depth can be finite and still overflow float64 once squared
        target = np.random.default_rng(3).uniform(1, 10, (12, 12))
        save_depth_pfm(tmp_path / "target.pfm", target)
        save_depth_pgm16(tmp_path / "pred.pgm", target * 1e290)
        assert main(["align", "--pred", str(tmp_path / "pred.pgm"),
                     "--target", str(tmp_path / "target.pfm")]) == 2
        assert "alignment overflows float64 on the valid mask" in capsys.readouterr().err

    def test_align_mask_of_another_shape_is_data_error(self, tmp_path, capsys):
        depth = np.random.default_rng(5).uniform(1, 10, (4, 4))
        save_depth_pfm(tmp_path / "d.pfm", depth)
        write_pgm(tmp_path / "m.pgm", np.full((3, 4), 255))
        assert main(["align", "--pred", str(tmp_path / "d.pfm"), "--target", str(tmp_path / "d.pfm"),
                     "--mask", str(tmp_path / "m.pgm")]) == 2
        assert f"mask {tmp_path / 'm.pgm'} shape (3, 4), expected (4, 4)" in capsys.readouterr().err

    def test_evaluate_mask_of_another_shape_is_data_error(self, tmp_path, capsys):
        pred_dir, gt_dir = self._make_eval_dirs(tmp_path)
        mask_dir = tmp_path / "masks"
        mask_dir.mkdir()
        for k in range(3):
            write_pgm(mask_dir / f"f{k}.pgm", np.full((10, 9) if k == 1 else (10, 10), 255))
        json_out = tmp_path / "r.json"
        assert main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                     "--mask-dir", str(mask_dir), "--json-out", str(json_out)]) == 2
        assert f"mask {mask_dir / 'f1.pgm'} shape (10, 9), expected (10, 10)" in (
            capsys.readouterr().err)
        assert not json_out.exists()

    def _make_eval_dirs(self, tmp_path, scale=1.0, shift=0.0):
        rng = np.random.default_rng(2)
        pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        for k in range(3):
            gt = rng.uniform(1, 10, (10, 10))
            save_depth_pfm(gt_dir / f"f{k}.pfm", gt)
            save_depth_pfm(pred_dir / f"f{k}.pfm", scale * gt + shift)
        return pred_dir, gt_dir

    def test_identical_dirs_give_zero_errors(self, tmp_path, capsys):
        pred_dir, gt_dir = self._make_eval_dirs(tmp_path)
        assert main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        agg = payload["aggregate"]
        assert agg["abs_rel"] == 0.0 and agg["rmse"] == 0.0
        assert agg["delta1"] == 1.0 and agg["delta3"] == 1.0
        assert len(payload["frames"]) == 3

    def test_json_out_to_redirected_stdout_keeps_the_table(self, tmp_path):
        # `evaluate --json-out /dev/stdout > out.txt`: the report and the table
        # printed after it share stdout's file and offset
        pred_dir, gt_dir = self._make_eval_dirs(tmp_path)
        path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        out = tmp_path / "out.txt"
        with open(out, "w") as fh:
            result = subprocess.run(
                [sys.executable, "-m", "evdepth.cli", "evaluate", "--pred-dir", str(pred_dir),
                 "--gt-dir", str(gt_dir), "--json-out", "/dev/stdout"],
                stdout=fh, stderr=subprocess.PIPE, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=path),
            )
        assert result.returncode == 0, result.stderr
        text = out.read_text()
        report, end = json.JSONDecoder().raw_decode(text)
        assert report["aggregate"]["abs_rel"] == 0.0 and len(report["frames"]) == 3
        table = text[end:].split()
        assert table[:2] == ["frame", "abs_rel"] and "aggregate" in table

    def test_alignment_flag_controls_scaled_predictions(self, tmp_path, capsys):
        pred_dir, gt_dir = self._make_eval_dirs(tmp_path, scale=3.0, shift=1.0)
        assert main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                     "--no-align", "--json"]) == 0
        no_align = json.loads(capsys.readouterr().out)["aggregate"]
        assert no_align["abs_rel"] > 0.5
        assert main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                     "--json"]) == 0
        aligned = json.loads(capsys.readouterr().out)["aggregate"]
        # float32 PFM storage quantizes the affine relation at ~1e-7 relative
        assert aligned["abs_rel"] < 1e-6

    def test_mismatched_sets_fail_listing_basenames(self, tmp_path, capsys):
        pred_dir, gt_dir = self._make_eval_dirs(tmp_path)
        (pred_dir / "extra.pfm").write_bytes((pred_dir / "f0.pfm").read_bytes())
        assert main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir)]) == 2
        assert "extra" in capsys.readouterr().err

    def test_malformed_gt_sidecar_is_data_error(self, tmp_path, capsys):
        pred_dir, gt_dir = self._make_eval_dirs(tmp_path)
        (gt_dir / "f0.pfm").unlink()
        save_depth_pgm16(gt_dir / "f0.pgm", np.full((10, 10), 4.0))
        (gt_dir / "f0.pgm.json").write_text('{"scale": 0.001}\n')
        assert main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir)]) == 2
        assert "f0.pgm.json" in capsys.readouterr().err

    def test_overflowing_gt_sidecar_scale_is_data_error(self, tmp_path, capsys):
        # the scaled ground truth (up to 65535e299) is finite, its error squared
        # is not; aligned, the same file overflows the alignment first
        pred_dir, gt_dir = self._make_eval_dirs(tmp_path)
        gt = read_pfm(gt_dir / "f0.pfm")
        (gt_dir / "f0.pfm").unlink()
        save_depth_pgm16(gt_dir / "f0.pgm", gt)
        (gt_dir / "f0.pgm.json").write_text('{"scale_m_per_unit": 1e299}\n')
        assert main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                     "--no-align"]) == 2
        assert "prediction error overflows float64" in capsys.readouterr().err

    def test_gt_sidecar_scale_past_float_range_is_data_error(self, tmp_path, capsys):
        pred_dir, gt_dir = self._make_eval_dirs(tmp_path)
        (gt_dir / "f0.pfm").unlink()
        save_depth_pgm16(gt_dir / "f0.pgm", np.full((10, 10), 4.0))
        (gt_dir / "f0.pgm.json").write_text('{"scale_m_per_unit": 1' + "0" * 400 + "}\n")
        assert main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir)]) == 2
        assert capsys.readouterr().err.startswith(f"error: frame f0: {gt_dir / 'f0.pgm.json'}: ")

    def test_negative_prediction_without_clamp_floor_is_data_error(self, tmp_path, capsys):
        pred_dir, gt_dir = self._make_eval_dirs(tmp_path)
        pred = read_pfm(pred_dir / "f1.pfm")
        pred[4, 5] = -3.0
        save_depth_pfm(pred_dir / "f1.pfm", pred)
        assert main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                     "--no-align", "--clamp-min=-inf"]) == 2
        assert "clamped prediction must be > 0 on the valid mask" in capsys.readouterr().err

    def test_non_finite_prediction_is_data_error(self, tmp_path, capsys):
        pred_dir, gt_dir = self._make_eval_dirs(tmp_path)
        pred = read_pfm(pred_dir / "f1.pfm")
        pred[4, 5] = np.nan
        save_depth_pfm(pred_dir / "f1.pfm", pred)
        assert main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir)]) == 2
        assert "prediction must be finite" in capsys.readouterr().err
        assert main(["align", "--pred", str(pred_dir / "f1.pfm"),
                     "--target", str(gt_dir / "f1.pfm")]) == 2

    def test_stem_with_pfm_and_pgm_is_data_error(self, tmp_path, capsys):
        pred_dir, gt_dir = self._make_eval_dirs(tmp_path)
        save_depth_pgm16(gt_dir / "f1.pgm", np.full((10, 10), 4.0))
        assert main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                     "--no-align"]) == 2
        assert "ambiguous depth files for 'f1'" in capsys.readouterr().err

    def test_stem_with_pfm_and_upper_case_pfm_is_data_error(self, tmp_path, capsys):
        pred_dir, gt_dir = self._make_eval_dirs(tmp_path)
        save_depth_pfm(gt_dir / "f1.PFM", np.full((10, 10), 4.0))
        assert main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                     "--no-align"]) == 2
        assert "ambiguous depth files for 'f1' under" in capsys.readouterr().err

    def test_upper_case_suffixes_are_read(self, tmp_path, capsys):
        pred_dir, gt_dir = self._make_eval_dirs(tmp_path)
        (pred_dir / "f1.pfm").rename(pred_dir / "f1.PFM")
        mask_dir = tmp_path / "masks"
        mask_dir.mkdir()
        for k in range(3):
            write_pgm(mask_dir / f"f{k}.{'PGM' if k == 2 else 'pgm'}", np.full((10, 10), 255))
        assert main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                     "--mask-dir", str(mask_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [f["frame"] for f in payload["frames"]] == ["f0", "f1", "f2"]
        assert payload["aggregate"]["n_valid"] == 300

    def test_raster_header_past_the_file_is_data_error(self, tmp_path, capsys):
        pred_dir, gt_dir = self._make_eval_dirs(tmp_path)
        (pred_dir / "f2.pfm").write_bytes(b"Pf\n100000000 100000000\n-1.0\n" + bytes(400))
        assert main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir)]) == 2
        assert "truncated raster" in capsys.readouterr().err

    def test_report_files_written(self, tmp_path):
        pred_dir, gt_dir = self._make_eval_dirs(tmp_path)
        json_out = tmp_path / "r.json"
        csv_out = tmp_path / "r.csv"
        assert main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir),
                     "--json-out", str(json_out), "--csv-out", str(csv_out)]) == 0
        payload = json.loads(json_out.read_text())
        assert {f["frame"] for f in payload["frames"]} == {"f0", "f1", "f2"}
        assert csv_out.read_text().startswith("frame,abs_rel")


class TestDatasetAndFusion:
    def _build_dataset(self, tmp_path, events_file, shape=(12, 16)):
        frames = tmp_path / "frames"
        proxies = tmp_path / "proxy"
        frames.mkdir()
        proxies.mkdir()
        rng = np.random.default_rng(3)
        for t_ms in (300, 600, 900):
            stem = f"{t_ms * MS:09d}"
            write_pgm(frames / f"{stem}.pgm", rng.integers(0, 256, shape).astype(np.uint8))
            save_depth_pfm(proxies / f"{stem}.pfm", rng.uniform(1, 10, shape))
        return frames, proxies

    def test_build_export_fusion_round(self, tmp_path, events_file, capsys):
        frames, proxies = self._build_dataset(tmp_path, events_file)
        manifest_path = tmp_path / "manifest.json"
        assert main(["dataset", "build", "--events", str(events_file),
                     "--frames", str(frames), "--proxy", str(proxies),
                     "--dt-us", str(300 * MS), "--out", str(manifest_path)]) == 0
        assert manifest_path.is_file()

        stacks_dir = tmp_path / "stacks"
        assert main(["dataset", "export", "--manifest", str(manifest_path),
                     "--out", str(stacks_dir)]) == 0
        exported = sorted(stacks_dir.glob("*.pfm"))
        assert len(exported) == 3

        first = {p.name: p.read_bytes() for p in exported}
        assert main(["dataset", "export", "--manifest", str(manifest_path),
                     "--out", str(stacks_dir)]) == 0
        assert {p.name: p.read_bytes() for p in sorted(stacks_dir.glob("*.pfm"))} == first

    @pytest.mark.parametrize("change", ["t_end_us edited", "sensor rewritten"])
    def test_export_of_a_record_the_recording_no_longer_matches_is_data_error(
            self, tmp_path, events_file, capsys, change):
        frames, proxies = self._build_dataset(tmp_path, events_file)
        manifest_path = tmp_path / "manifest.json"
        assert main(["dataset", "build", "--events", str(events_file), "--frames", str(frames),
                     "--proxy", str(proxies), "--out", str(manifest_path)]) == 0
        if change == "t_end_us edited":  # to before the record's own t_start_us
            payload = json.loads(manifest_path.read_text())
            assert payload["records"][0]["t_start_us"] == 250 * MS
            payload["records"][0]["t_end_us"] = 7
            manifest_path.write_text(json.dumps(payload))
        else:  # the same events, on a sensor twice the size the records hold
            s = read_events(events_file)
            write_events(EventStream(2 * s.width, 2 * s.height, s.xs, s.ys, s.ps, s.ts),
                         events_file)
        capsys.readouterr()
        stacks_dir = tmp_path / "stacks"
        assert main(["dataset", "export", "--manifest", str(manifest_path),
                     "--out", str(stacks_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: record t_d=300000: events file no longer matches")
        assert err.count("\n") == 1
        assert not stacks_dir.exists()

    def test_upper_case_proxy_and_mask_suffixes_build(self, tmp_path, events_file, capsys):
        frames, proxies = self._build_dataset(tmp_path, events_file)
        masks = tmp_path / "masks"
        masks.mkdir()
        for t_ms in (300, 600, 900):
            stem = f"{t_ms * MS:09d}"
            write_pgm(masks / f"{stem}.PGM", np.full((12, 16), 255))
        stem = f"{600 * MS:09d}"
        (proxies / f"{stem}.pfm").rename(proxies / f"{stem}.PFM")
        manifest_path = tmp_path / "manifest.json"
        assert main(["dataset", "build", "--events", str(events_file), "--frames", str(frames),
                     "--proxy", str(proxies), "--mask", str(masks),
                     "--out", str(manifest_path)]) == 0
        records = json.loads(manifest_path.read_text())["records"]
        assert [r["proxy_path"].endswith(".PFM") for r in records] == [False, True, False]
        assert all(r["mask_path"].endswith(".PGM") for r in records)

    def test_proxy_stem_with_pfm_and_upper_case_pfm_is_data_error(
        self, tmp_path, events_file, capsys
    ):
        frames, proxies = self._build_dataset(tmp_path, events_file)
        save_depth_pfm(proxies / f"{600 * MS:09d}.PFM", np.full((12, 16), 4.0))
        assert main(["dataset", "build", "--events", str(events_file), "--frames", str(frames),
                     "--proxy", str(proxies), "--out", str(tmp_path / "m.json")]) == 2
        assert f"ambiguous depth files for '{600 * MS:09d}'" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_proxy_stem_with_pfm_and_pgm_is_data_error(self, tmp_path, events_file, capsys):
        frames, proxies = self._build_dataset(tmp_path, events_file)
        save_depth_pgm16(proxies / f"{600 * MS:09d}.pgm", np.full((12, 16), 4.0))
        assert main(["dataset", "build", "--events", str(events_file), "--frames", str(frames),
                     "--proxy", str(proxies), "--out", str(tmp_path / "m.json")]) == 2
        assert f"ambiguous depth files for '{600 * MS:09d}'" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_frame_stem_past_int64_is_data_error(self, tmp_path, events_file, capsys):
        frames, proxies = self._build_dataset(tmp_path, events_file)
        stem = f"{600 * MS:09d}"
        (frames / f"{stem}.pgm").rename(frames / f"{10**20}.pgm")
        (proxies / f"{stem}.pfm").rename(proxies / f"{10**20}.pfm")
        assert main(["dataset", "build", "--events", str(events_file), "--frames", str(frames),
                     "--proxy", str(proxies), "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and f"/{10**20}.pgm: time" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("wrong", ["frames-and-proxies", "proxy", "gt", "mask"])
    def test_raster_of_another_size_than_the_sensor_is_data_error(self, tmp_path, capsys,
                                                                  wrong):
        # a 346x260 recording; each wrong file is 640x480, the first in time order is named
        events = tmp_path / "events.evb"
        write_events(make_random_stream(np.random.default_rng(4), width=346, height=260,
                                        n_events=500), events)
        dirs = {name: tmp_path / name for name in ("frames", "proxy", "gt", "mask")}
        for d in dirs.values():
            d.mkdir()
        stems = [f"{t_ms * MS:09d}" for t_ms in (300, 600, 900)]
        wrong_files = ({(kind, k) for kind in ("frames", "proxy") for k in range(3)}
                       if wrong == "frames-and-proxies" else {(wrong, 1)})
        for k, stem in enumerate(stems):
            size = {kind: (480, 640) if (kind, k) in wrong_files else (260, 346) for kind in dirs}
            write_pgm(dirs["frames"] / f"{stem}.pgm", np.zeros(size["frames"], dtype=np.uint8))
            save_depth_pfm(dirs["proxy"] / f"{stem}.pfm", np.ones(size["proxy"]))
            save_depth_pgm16(dirs["gt"] / f"{stem}.pgm", np.ones(size["gt"]))
            write_pgm(dirs["mask"] / f"{stem}.pgm", np.full(size["mask"], 255))
        named = {"frames-and-proxies": dirs["frames"] / f"{stems[0]}.pgm",
                 "proxy": dirs["proxy"] / f"{stems[1]}.pfm",
                 "gt": dirs["gt"] / f"{stems[1]}.pgm",
                 "mask": dirs["mask"] / f"{stems[1]}.pgm"}[wrong]
        out = tmp_path / "m.json"
        assert main(["dataset", "build", "--events", str(events), "--frames", str(dirs["frames"]),
                     "--proxy", str(dirs["proxy"]), "--gt", str(dirs["gt"]),
                     "--mask", str(dirs["mask"]), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named.resolve()}: size 640x480, ")
        assert "346x260 sensor" in err
        assert not out.exists()

    def test_empty_proxy_is_data_error_naming_it(self, tmp_path, events_file, capsys):
        frames, proxies = self._build_dataset(tmp_path, events_file)
        empty = proxies / f"{600 * MS:09d}.pfm"
        empty.write_bytes(b"")
        out = tmp_path / "m.json"
        assert main(["dataset", "build", "--events", str(events_file), "--frames", str(frames),
                     "--proxy", str(proxies), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {empty.resolve()}: unexpected end of file in raster header\n")
        assert not out.exists()

    def test_png_and_jpg_frames_are_paired_by_name_only(self, tmp_path, events_file, capsys):
        frames, proxies = self._build_dataset(tmp_path, events_file)
        for k, frame in enumerate(sorted(frames.iterdir())):
            frame.rename(frame.with_suffix(".png" if k % 2 else ".JPG")).write_bytes(b"")
        out = tmp_path / "m.json"
        assert main(["dataset", "build", "--events", str(events_file), "--frames", str(frames),
                     "--proxy", str(proxies), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["records"]) == 3

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_is_data_error(self, tmp_path, events_file, capsys, lam):
        frames, proxies = self._build_dataset(tmp_path, events_file)
        assert main(["dataset", "build", "--events", str(events_file), "--frames", str(frames),
                     "--proxy", str(proxies), "--lam", lam, "--out", str(tmp_path / "m.json")]) == 2
        assert "lambda must be a real number in (-inf, inf)" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_fusion_run_deterministic(self, tmp_path, capsys):
        stacks_dir = tmp_path / "stacks"
        stacks_dir.mkdir()
        rng = np.random.default_rng(4)
        for k in range(4):
            write_pfm(stacks_dir / f"{k:012d}.pfm", rng.random((32, 32, 3)).astype(np.float32))
        out_a, out_b = tmp_path / "da", tmp_path / "db"
        params_path = tmp_path / "model.bin"
        assert main(["fusion", "run", "--stacks", str(stacks_dir), "--out", str(out_a),
                     "--seed", "7", "--params-out", str(params_path)]) == 0
        assert main(["fusion", "run", "--stacks", str(stacks_dir), "--out", str(out_b),
                     "--seed", "7", "--params", str(params_path)]) == 0
        files_a = sorted(out_a.glob("*.pfm"))
        files_b = sorted(out_b.glob("*.pfm"))
        assert len(files_a) == 4
        for a, b in zip(files_a, files_b):
            assert a.read_bytes() == b.read_bytes()
        depth = read_pfm(files_a[0])
        assert depth.shape == (8, 8)  # finest stride of 32x32 input

    @pytest.mark.parametrize("params", [False, True], ids=["seeded", "loaded"])
    def test_negative_seed_is_data_error(self, tmp_path, capsys, params):
        stacks_dir = tmp_path / "stacks"
        stacks_dir.mkdir()
        write_pfm(stacks_dir / f"{0:012d}.pfm", np.full((32, 32, 3), 0.5, dtype=np.float32))
        save_model_params(make_model_params(seed=0), tmp_path / "p.bin")
        argv = ["fusion", "run", "--stacks", str(stacks_dir), "--out", str(tmp_path / "d"),
                "--seed=-1", "--params-out", str(tmp_path / "q.bin")]
        assert main(argv + (["--params", str(tmp_path / "p.bin")] if params else [])) == 2
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
        assert not (tmp_path / "d").exists() and not (tmp_path / "q.bin").exists()

    def test_params_out_inside_a_fresh_out_dir(self, tmp_path, capsys):
        stacks_dir = tmp_path / "stacks"
        stacks_dir.mkdir()
        write_pfm(stacks_dir / f"{0:012d}.pfm", np.full((32, 32, 3), 0.5, dtype=np.float32))
        out = tmp_path / "run"
        assert main(["fusion", "run", "--stacks", str(stacks_dir), "--out", str(out),
                     "--seed", "2", "--params-out", str(out / "p.bin")]) == 0
        loaded = load_model_params(out / "p.bin")
        assert np.array_equal(loaded.head_weight, make_model_params(seed=2).head_weight)
        assert (out / f"{0:012d}.depth.pfm").is_file()

    def test_voxel_export_runs_one_step_per_record(self, tmp_path, capsys):
        stream = make_random_stream(np.random.default_rng(5), width=32, height=16, n_events=3000)
        events = tmp_path / "events.evb"
        write_events(stream, events)
        frames, proxies = self._build_dataset(tmp_path, events, shape=(16, 32))
        manifest_path = tmp_path / "manifest.json"
        assert main(["dataset", "build", "--events", str(events), "--frames", str(frames),
                     "--proxy", str(proxies), "--dt-us", str(300 * MS), "--layout", "voxel",
                     "--out", str(manifest_path)]) == 0
        stacks_dir, out = tmp_path / "stacks", tmp_path / "depth"
        assert main(["dataset", "export", "--manifest", str(manifest_path),
                     "--out", str(stacks_dir)]) == 0
        assert len(list(stacks_dir.glob("*.c*.pfm"))) == 3 * config.ENCODER_DEFAULTS.voxel_bins
        capsys.readouterr()
        assert main(["fusion", "run", "--stacks", str(stacks_dir), "--out", str(out)]) == 0
        assert "ran 3 steps" in capsys.readouterr().out
        records = json.loads(manifest_path.read_text())["records"]
        want = sorted(f"{r['t_d_us']:012d}.depth.pfm" for r in records)
        assert sorted(p.name for p in out.iterdir()) == want

    @pytest.mark.parametrize(
        "bad",
        [lambda d: write_pfm(d / "000000000003.pfm", np.zeros((48, 32, 3), dtype=np.float32)),
         lambda d: (d / "000000000003.pfm").write_bytes(
             (d / "000000000002.pfm").read_bytes()[:-1]),
         lambda d: write_pfm(d / "000000000003.c1.pfm", np.zeros((32, 32), dtype=np.float32)),
         lambda d: write_pfm(d / "000000000003.c0.pfm", np.zeros((32, 32, 3), dtype=np.float32))],
        ids=["size-drift", "truncated", "missing-channel", "colour-channel-file"],
    )
    def test_fusion_run_checks_every_stack_before_any_step(self, tmp_path, capsys, bad):
        stacks_dir = tmp_path / "stacks"
        stacks_dir.mkdir()
        for k in range(3):
            write_pfm(stacks_dir / f"{k:012d}.pfm", np.full((32, 32, 3), 0.5, dtype=np.float32))
        bad(stacks_dir)
        assert main(["fusion", "run", "--stacks", str(stacks_dir),
                     "--out", str(tmp_path / "depth")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "depth").exists()

    def test_fusion_run_refuses_a_change_of_channel_count(self, tmp_path, capsys):
        stacks_dir = tmp_path / "stacks"
        stacks_dir.mkdir()
        write_pfm(stacks_dir / "000000000001.pfm", np.full((32, 32, 3), 0.5, dtype=np.float32))
        for k in range(5):  # a 5-bin voxel stack of the same size
            write_pfm(stacks_dir / f"000000000002.c{k}.pfm",
                      np.full((32, 32), 0.5, dtype=np.float32))
        assert main(["fusion", "run", "--stacks", str(stacks_dir),
                     "--out", str(tmp_path / "depth")]) == 2
        assert capsys.readouterr().err == (
            f"error: {stacks_dir}: stack 000000000002 is (32, 32, 5), "
            f"stack 000000000001 is (32, 32, 3)\n")
        assert not (tmp_path / "depth").exists()

    @pytest.mark.parametrize("flag", ["--stacks", "--out", "--params", "--params-out"])
    def test_fusion_run_refuses_an_empty_path(self, tmp_path, capsys, monkeypatch, flag):
        monkeypatch.chdir(tmp_path)  # an empty path used as one would name this directory
        stacks_dir = tmp_path / "stacks"
        stacks_dir.mkdir()
        write_pfm(stacks_dir / "000000000001.pfm", np.full((32, 32, 3), 0.5, dtype=np.float32))
        paths = {"--stacks": str(stacks_dir), "--out": str(tmp_path / "d"), flag: ""}
        assert main(["fusion", "run", *(f"{k}={v}" for k, v in paths.items())]) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument {flag}: an empty path names no file\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stacks"]

    @pytest.mark.parametrize("layout", ["tencode", "voxel"])
    def test_fusion_run_writes_the_depths_of_run_sequence(self, tmp_path, capsys, layout):
        stream = make_random_stream(np.random.default_rng(6), width=32, height=16, n_events=3000)
        stacks_dir = tmp_path / "stacks"
        stacks_dir.mkdir()
        for t_d in (300 * MS, 600 * MS, 900 * MS):
            stack = encode(slice_sbt(stream, t_d, 300 * MS), StackLayout(layout))
            save_stack_pfm(stack, stacks_dir / f"{t_d:012d}.pfm")
        assert main(["fusion", "run", "--stacks", str(stacks_dir), "--out", str(tmp_path / "d"),
                     "--seed", "3"]) == 0
        params = make_model_params(seed=3)
        stems, values = zip(*load_stack_pfms(stacks_dir))
        depths = run_sequence(list(values), lambda a: toy_extractor(a, seed=3), params)
        for stem, depth in zip(stems, depths, strict=True):
            save_depth_pfm(tmp_path / "want.pfm", depth)
            got = tmp_path / "d" / f"{stem}.depth.pfm"
            assert got.read_bytes() == (tmp_path / "want.pfm").read_bytes()

    def test_fusion_run_memory_is_flat_in_sequence_length(self, tmp_path, capsys):
        # each 128x128x3 stack is 393 kB in float64; reading every stack
        # before the first step grows the peak by that much per stack
        stack_bytes = 128 * 128 * 3 * 8
        peaks = []
        for n in (2, 2, 10):
            stacks_dir = tmp_path / f"stacks{n}"
            stacks_dir.mkdir(exist_ok=True)
            rng = np.random.default_rng(n)
            for k in range(n):
                write_pfm(stacks_dir / f"{k:012d}.pfm",
                          rng.random((128, 128, 3)).astype(np.float32))
            tracemalloc.start()
            try:
                assert main(["fusion", "run", "--stacks", str(stacks_dir),
                             "--out", str(tmp_path / f"d{len(peaks)}")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] - peaks[1] < stack_bytes, [p / stack_bytes for p in peaks]

    def test_fusion_run_on_malformed_pfm_is_data_error(self, tmp_path, capsys):
        stacks_dir = tmp_path / "stacks"
        stacks_dir.mkdir()
        (stacks_dir / "000000000001.pfm").write_bytes(b"PF\nwide 32\n-1.0\n" + bytes(64))
        assert main(["fusion", "run", "--stacks", str(stacks_dir),
                     "--out", str(tmp_path / "depth")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_fusion_run_on_stem_in_two_suffix_cases_is_data_error(self, tmp_path, capsys):
        stacks_dir = tmp_path / "stacks"
        stacks_dir.mkdir()
        write_pfm(stacks_dir / "000.pfm", np.zeros((32, 32, 3)))
        write_pfm(stacks_dir / "000.PFM", np.ones((32, 32, 3)))
        assert main(["fusion", "run", "--stacks", str(stacks_dir),
                     "--out", str(tmp_path / "depth")]) == 2
        err = capsys.readouterr().err
        assert "ambiguous stack files for '000'" in err
        assert "000.PFM" in err and "000.pfm" in err
        assert not (tmp_path / "depth").exists()

    @pytest.mark.parametrize(
        "mutation",
        [
            "{not json",
            "[]",
            lambda m: m.pop("version"),
            lambda m: m.pop("tensors"),
            lambda m: m.update(tensors={"name": "head.bias"}),
            lambda m: m["tensors"][0].update(offset=-8),
            lambda m: m["tensors"][0].update(shape=[3, "3", 32, 64]),
            lambda m: m["tensors"][0].update(name=None),
            lambda m: m.update(scales=[4, 8, "16"]),
            lambda m: m.update(scales=True),
            lambda m: m.update(channels=[16, 32]),
            lambda m: m["tensors"][-1].update(shape=[]),
            lambda m: m["tensors"][-1].update(shape=[0, 2**62]),
        ],
        ids=[
            "invalid-json", "not-an-object", "no-version", "no-tensors", "tensors-not-list",
            "negative-offset", "text-dim", "no-name", "text-scale", "bool-scales",
            "short-channels", "scalar-head-bias", "empty-tensor-huge-side",
        ],
    )
    def test_malformed_params_manifest_is_data_error(self, tmp_path, capsys, mutation):
        stacks_dir = tmp_path / "stacks"
        stacks_dir.mkdir()
        write_pfm(stacks_dir / "000000000001.pfm", np.zeros((32, 32, 3)))
        bin_path = tmp_path / "model.bin"
        save_model_params(make_model_params(seed=0), bin_path)
        json_path = bin_path.with_suffix(".json")
        if isinstance(mutation, str):
            json_path.write_text(mutation)
        else:
            manifest = json.loads(json_path.read_text())
            mutation(manifest)
            json_path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError):
            load_model_params(bin_path)
        assert main(["fusion", "run", "--stacks", str(stacks_dir), "--out", str(tmp_path / "d"),
                     "--params", str(bin_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize("bias, message", [
        (math.inf, "error: step 0: depth is not finite"),
        (1e300, "error: {out}: a finite value past float32 range"),
    ], ids=["inf", "past-float32"])
    def test_fusion_run_to_a_depth_pfm_cannot_hold_is_data_error(self, tmp_path, capsys, bias,
                                                                message):
        stacks_dir = tmp_path / "stacks"
        stacks_dir.mkdir()
        write_pfm(stacks_dir / "000000000001.pfm", np.full((32, 32, 3), 0.5))
        params = dataclasses.replace(make_model_params(seed=0), head_bias=bias)
        save_model_params(params, tmp_path / "model.bin")
        assert main(["fusion", "run", "--stacks", str(stacks_dir), "--out", str(tmp_path / "d"),
                     "--params", str(tmp_path / "model.bin")]) == 2
        out = tmp_path / "d" / "000000000001.depth.pfm"
        err = capsys.readouterr().err
        assert err.startswith(message.format(out=out)) and err.count("\n") == 1
        assert not out.exists()

    def test_fusion_run_writes_params_out_only_after_its_first_step(self, tmp_path, capsys):
        stacks_dir = tmp_path / "stacks"
        stacks_dir.mkdir()
        write_pfm(stacks_dir / "000000000001.pfm", np.zeros((24, 32, 3)))
        params_out = tmp_path / "p" / "p.bin"
        assert main(["fusion", "run", "--stacks", str(stacks_dir), "--out", str(tmp_path / "d"),
                     "--params-out", str(params_out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: stack dims 24x32 not divisible by scale 16\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stacks"]

    def test_fusion_run_writes_params_out_with_its_first_depth(self, tmp_path):
        stacks_dir = tmp_path / "stacks"
        stacks_dir.mkdir()
        write_pfm(stacks_dir / "000000000001.pfm", np.zeros((32, 32, 3)))
        params_out = tmp_path / "p" / "p.bin"
        assert main(["fusion", "run", "--stacks", str(stacks_dir), "--out", str(tmp_path / "d"),
                     "--params-out", str(params_out), "--seed", "5"]) == 0
        loaded = load_model_params(params_out)
        assert np.array_equal(loaded.head_weight, make_model_params(seed=5).head_weight)
        assert (tmp_path / "d" / "000000000001.depth.pfm").is_file()

    def _manifest(self, tmp_path, events_file):
        frames, proxies = self._build_dataset(tmp_path, events_file)
        manifest_path = tmp_path / "manifest.json"
        assert main(["dataset", "build", "--events", str(events_file), "--frames", str(frames),
                     "--proxy", str(proxies), "--out", str(manifest_path)]) == 0
        return manifest_path

    @pytest.mark.parametrize("fault, code", [("removed", 3), ("truncated", 2)])
    def test_export_makes_out_with_its_first_stack(self, tmp_path, events_file, capsys, fault,
                                                    code):
        manifest_path = self._manifest(tmp_path, events_file)
        if fault == "removed":
            events_file.unlink()
        else:
            events_file.write_bytes(events_file.read_bytes()[:100])
        capsys.readouterr()
        out = tmp_path / "stacks"
        assert main(["dataset", "export", "--manifest", str(manifest_path),
                     "--out", str(out)]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    def test_export_of_no_records_makes_an_empty_out(self, tmp_path, events_file, capsys):
        manifest_path = self._manifest(tmp_path, events_file)
        payload = json.loads(manifest_path.read_text())
        payload["records"] = []
        manifest_path.write_text(json.dumps(payload))
        out = tmp_path / "stacks"
        assert main(["dataset", "export", "--manifest", str(manifest_path),
                     "--out", str(out)]) == 0
        assert out.is_dir() and list(out.iterdir()) == []

    def test_build_with_a_frame_missing_its_mask(self, tmp_path, events_file, capsys):
        frames, proxies = self._build_dataset(tmp_path, events_file)
        masks = tmp_path / "mask"
        masks.mkdir()
        stems = sorted(p.stem for p in frames.iterdir())
        for stem in stems[1:]:
            write_pgm(masks / f"{stem}.pgm", np.full((12, 16), 255, dtype=np.uint8))
        assert main(["dataset", "build", "--events", str(events_file), "--frames", str(frames),
                     "--proxy", str(proxies), "--mask", str(masks),
                     "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: missing proxy/mask files for frames: {stems[0]} "
                       f"(t_d={int(stems[0])}, mask)\n")
        assert not (tmp_path / "m.json").exists()


class TestBench:
    def test_bench_reports_throughput_and_hashes(self, tmp_path, events_file, capsys):
        out_json = tmp_path / "bench.json"
        assert main(["bench", "--events", str(events_file), "--repetitions", "3",
                     "--out", str(out_json), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_events"] == 3000
        for layout in ("voxel", "imagelike", "tencode"):
            entry = payload["layouts"][layout]
            assert len(entry["times_s"]) == 3
            assert entry["events_per_s"] > 0
            assert len(entry["hash"]) == 16
        assert payload["peak_rss_kb"] > 0
        assert json.loads(out_json.read_text()) == payload

    def test_baseline_comparison_is_non_gating(self, tmp_path, events_file, capsys):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(
            {"layouts": {"tencode": {"events_per_s": 1e12}}}
        ))
        assert main(["bench", "--events", str(events_file), "--layouts", "tencode",
                     "--repetitions", "1", "--baseline", str(baseline)]) == 0
        assert "REGRESSION" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", ["not json", "[1,2]", '{"layouts": [1]}', '{"layouts": {"tencode": 1}}',
                 '{"layouts": {"tencode": {"events_per_s": "fast"}}}',
                 '{"layouts": {"tencode": {"events_per_s": 0}}}',
                 '{"layouts": {"tencode": {"events_per_s": 1' + "0" * 400 + '}}}'],
        ids=["invalid-json", "list", "layouts-list", "entry-number", "rate-text", "rate-zero",
             "rate-past-float-range"],
    )
    def test_malformed_baseline_is_data_error(self, tmp_path, events_file, capsys, text):
        baseline = tmp_path / "base.json"
        baseline.write_text(text)
        assert main(["bench", "--events", str(events_file), "--layouts", "tencode",
                     "--repetitions", "1", "--baseline", str(baseline)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {baseline}: not a bench report")

    def test_unknown_layout_is_usage_error(self, events_file):
        assert main(["bench", "--events", str(events_file), "--layouts", "hexgrid"]) == 1


class TestStackRulesBeforeFiles:
    """A stack command's bad flag is found before a directory is made or a
    recording is opened: the same exit code and one ``error:`` line whether
    the recording is there or has moved."""

    CASES = {
        "encode-voxel-ppm": (["encode", "--events", "{ev}", "--td-us", "500000",
                              "--layout", "voxel", "--out", "{out}.ppm"], 2),
        "export-voxel-ppm": (["dataset", "export", "--manifest", "{manifest}", "--format", "ppm",
                              "--out", "{out}"], 2),
        "encode-tencode-bins": (["encode", "--events", "{ev}", "--td-us", "500000",
                                 "--layout", "tencode", "--bins", "0", "--out", "{out}.pfm"], 1),
        "bench-tencode-bins": (["bench", "--events", "{ev}", "--layouts", "tencode",
                                "--bins", "0", "--out", "{out}.json"], 1),
        "bench-zero-repetitions": (["bench", "--events", "{ev}", "--repetitions", "0",
                                    "--out", "{out}.json"], 2),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_one_exit_code_with_or_without_the_recording(self, tmp_path, events_file, capsys,
                                                         case):
        frames, proxies = tmp_path / "frames", tmp_path / "proxy"
        frames.mkdir()
        proxies.mkdir()
        for t_ms in (300, 600):
            write_pgm(frames / f"{t_ms * MS:09d}.pgm", np.full((12, 16), 100, dtype=np.uint8))
            save_depth_pfm(proxies / f"{t_ms * MS:09d}.pfm", np.full((12, 16), 2.0))
        manifest = tmp_path / "manifest.json"
        assert main(["dataset", "build", "--events", str(events_file), "--frames", str(frames),
                     "--proxy", str(proxies), "--layout", "voxel", "--out", str(manifest)]) == 0
        capsys.readouterr()
        argv, code = self.CASES[case]
        argv = [a.format(ev=events_file, manifest=manifest, out=tmp_path / "out") for a in argv]
        runs = []
        for moved in (False, True):
            if moved:
                events_file.rename(tmp_path / "moved.evb")
            got = main(argv)
            err = capsys.readouterr().err
            runs.append((got, err.startswith("error: "), err.count("\n")))
            assert list(tmp_path.glob("out*")) == []
        assert runs == [(code, True, 1)] * 2


class TestNumericFlags:
    INTS = ["-1", "0", "1", str(2**63 - 1), str(2**63), str(-(2**63) - 1), str(10**30)]
    FLOATS = ["nan", "inf", "-inf", "-1", "0", "1e308", "1e-320"]

    def test_no_value_raises_out_of_main(self, tmp_path, capsys):
        """Every int and float flag of every subcommand, at the edges of its
        type, ends in an exit code (an error is one line on stderr), never in
        an exception out of ``main``. ``--repetitions`` runs on an empty
        recording, which bench rejects before its loop: a valid count of
        2**63 - 1 would encode that many times."""
        # an 8x6 sensor: one event every 10 us up to 110 us, three frames with
        # proxy and ground-truth depth, and a 16x16 stack
        stream = make_random_stream(np.random.default_rng(8), width=8, height=6, n_events=12,
                                    t_max=110)
        write_events(stream, tmp_path / "e.evb")
        write_events(EventStream.empty(8, 6), tmp_path / "empty.evb")
        for d in ("frames", "proxy", "gt", "stacks"):
            (tmp_path / d).mkdir()
        for k, t in enumerate((40, 80, 110)):
            write_pgm(tmp_path / "frames" / f"{t:09d}.pgm", np.full((6, 8), 60 + 40 * k))
            save_depth_pfm(tmp_path / "proxy" / f"{t:09d}.pfm", np.full((6, 8), 2.0 + k))
            save_depth_pfm(tmp_path / "gt" / f"{t:09d}.pfm", np.linspace(1, 9, 48).reshape(6, 8))
        write_pfm(tmp_path / "stacks" / "0.pfm", np.full((16, 16, 3), 0.5, dtype=np.float32))
        (tmp_path / "base.json").write_text('{"layouts": {"tencode": {"events_per_s": 1e6}}}')
        ev, out = str(tmp_path / "e.evb"), str(tmp_path / "out")
        cut = ["--events", ev, "--out", out + ".pfm"]
        build = ["dataset", "build", "--events", ev, "--frames", str(tmp_path / "frames"),
                 "--proxy", str(tmp_path / "proxy"), "--out", out + ".json"]
        bench = ["bench", "--layouts", "tencode", "--baseline", str(tmp_path / "base.json")]
        cases = [
            (["simulate", "--frames", str(tmp_path / "frames"), "--out", out + ".evb"],
             "--contrast", self.FLOATS),
            (["slice", *cut, "--dt-us", "30"], "--td-us", self.INTS),
            (["slice", *cut, "--td-us", "80"], "--dt-us", self.INTS),
            (["slice", *cut, "--td-us", "80"], "--count", self.INTS),
            (["encode", *cut, "--dt-us", "30"], "--td-us", self.INTS),
            (["encode", *cut, "--td-us", "80"], "--dt-us", self.INTS),
            (["encode", *cut, "--td-us", "80"], "--count", self.INTS),
            (["encode", *cut, "--td-us", "80", "--layout", "voxel"], "--bins", self.INTS),
            (["evaluate", "--pred-dir", str(tmp_path / "proxy"), "--gt-dir", str(tmp_path / "gt")],
             "--clamp-min", self.FLOATS),
            (["evaluate", "--pred-dir", str(tmp_path / "proxy"), "--gt-dir", str(tmp_path / "gt")],
             "--clamp-max", self.FLOATS),
            (build, "--dt-us", self.INTS),
            ([*build, "--mode", "sbn"], "--count", self.INTS),
            ([*build, "--layout", "voxel"], "--bins", self.INTS),
            (build, "--k-scales", self.INTS),
            (build, "--lam", self.FLOATS),
            (["fusion", "run", "--stacks", str(tmp_path / "stacks"), "--out", out],
             "--seed", self.INTS),
            ([*bench, "--events", str(tmp_path / "empty.evb")], "--repetitions", self.INTS),
            ([*bench, "--events", ev, "--repetitions", "1", "--layouts", "voxel"], "--bins",
             self.INTS),
            ([*bench, "--events", ev, "--repetitions", "1"], "--tolerance", self.FLOATS),
        ]
        escaped, bad_errors = [], []
        for argv, flag, values in cases:
            for value in values:
                try:
                    code = main([*argv, f"{flag}={value}"])
                except BaseException as exc:  # noqa: BLE001 -- the contract is that none escapes
                    escaped.append((argv[0], flag, value, repr(exc)))
                    continue
                err = capsys.readouterr().err
                if code == 2 and not (err.startswith("error: ") and err.count("\n") == 1):
                    bad_errors.append((argv[0], flag, value, err))
        assert escaped == [] and bad_errors == []


class TestThreadsEnv:
    def test_env_var_caps_workers(self, monkeypatch):
        """The count is capped at the usable CPUs; a huge value is only
        returned here, no pool is started with it."""
        cpus = len(os.sched_getaffinity(0))
        monkeypatch.setenv(config.THREADS_ENV_VAR, "2")
        assert config.max_threads() == min(2, cpus)
        monkeypatch.setenv(config.THREADS_ENV_VAR, str(10**30))
        assert config.max_threads() == cpus
        monkeypatch.delenv(config.THREADS_ENV_VAR)
        assert config.max_threads() == min(8, cpus)

    @pytest.mark.parametrize("value", ["not-a-number", "0", "-1", "2.5", "", "1" * 5000])
    def test_a_bad_value_is_a_parameter_error(self, monkeypatch, value):
        monkeypatch.setenv(config.THREADS_ENV_VAR, value)
        with pytest.raises(ParameterError, match="EVDEPTH_THREADS must be an integer >= 1"):
            config.max_threads()


class TestEvaluateNamesTheFrame:
    def _dirs(self, tmp_path, pred_shape=(6, 8)):
        pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        rng = np.random.default_rng(5)
        for k in range(3):
            save_depth_pfm(gt_dir / f"f{k}.pfm", rng.uniform(1, 10, (6, 8)))
            shape = pred_shape if k == 1 else (6, 8)
            save_depth_pfm(pred_dir / f"f{k}.pfm", rng.uniform(1, 10, shape))
        return pred_dir, gt_dir

    def test_non_finite_prediction_names_its_frame(self, tmp_path, capsys):
        pred_dir, gt_dir = self._dirs(tmp_path)
        pred = read_pfm(pred_dir / "f1.pfm")
        pred[2, 3] = np.nan
        save_depth_pfm(pred_dir / "f1.pfm", pred)
        assert main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir)]) == 2
        err = capsys.readouterr().err
        assert err == "error: frame f1: prediction must be finite on the valid mask\n"

    def test_shape_mismatch_names_its_frame(self, tmp_path, capsys):
        pred_dir, gt_dir = self._dirs(tmp_path, pred_shape=(6, 9))
        assert main(["evaluate", "--pred-dir", str(pred_dir), "--gt-dir", str(gt_dir)]) == 2
        err = capsys.readouterr().err
        assert err == "error: frame f1: shape mismatch: pred (6, 9) vs target (6, 8)\n"


class TestErrorBranches:
    """One row per error branch that no other test reaches."""

    def test_build_with_no_frames(self, tmp_path, events_file, capsys):
        (tmp_path / "frames").mkdir()
        (tmp_path / "proxy").mkdir()
        assert main(["dataset", "build", "--events", str(events_file),
                     "--frames", str(tmp_path / "frames"), "--proxy", str(tmp_path / "proxy"),
                     "--out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == f"error: no frames found under {tmp_path / 'frames'}\n"

    def test_evaluate_with_empty_directories(self, tmp_path, capsys):
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        assert main(["evaluate", "--pred-dir", str(tmp_path / "pred"),
                     "--gt-dir", str(tmp_path / "gt")]) == 2
        assert capsys.readouterr().err == f"error: no depth files under {tmp_path / 'pred'}\n"

    def test_fusion_run_with_no_stacks(self, tmp_path, capsys):
        (tmp_path / "stacks").mkdir()
        (tmp_path / "stacks" / "notes.txt").write_text("not a stack\n")
        assert main(["fusion", "run", "--stacks", str(tmp_path / "stacks"),
                     "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == f"error: no .pfm stacks under {tmp_path / 'stacks'}\n"
        assert not (tmp_path / "d").exists()

    def test_align_with_a_colour_prediction(self, tmp_path, capsys):
        write_pfm(tmp_path / "pred.pfm", np.ones((4, 5, 3)))
        save_depth_pfm(tmp_path / "target.pfm", np.ones((4, 5)))
        assert main(["align", "--pred", str(tmp_path / "pred.pfm"),
                     "--target", str(tmp_path / "target.pfm")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'pred.pfm'}: depth PFM must be single-channel\n"
