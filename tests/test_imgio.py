import math
import warnings

import numpy as np
import pytest

from evdepth import imgio
from evdepth.errors import DomainError, FormatError, ParameterError
from evdepth.imgio import (
    depth_valid_mask,
    load_depth,
    load_depth_pgm16,
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


class TestPfm:
    def test_gray_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.uniform(0.1, 50.0, (13, 9)).astype(np.float32).astype(np.float64)
        p = tmp_path / "d.pfm"
        write_pfm(p, data)
        assert np.array_equal(read_pfm(p), data)

    def test_color_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.uniform(-2.0, 2.0, (5, 7, 3)).astype(np.float32).astype(np.float64)
        p = tmp_path / "c.pfm"
        write_pfm(p, data)
        assert np.array_equal(read_pfm(p), data)

    @pytest.mark.parametrize("value", [3.5e38, -1e300])
    def test_finite_value_past_float32_is_domain_error(self, tmp_path, value):
        p = tmp_path / "d.pfm"
        with pytest.raises(DomainError, match="past float32 range"):
            write_pfm(p, np.array([[1.0, value]]))
        assert not p.exists()

    def test_non_finite_values_are_written_as_they_are(self, tmp_path):
        p = tmp_path / "d.pfm"
        write_pfm(p, np.array([[np.inf, -np.inf, np.nan, 3.4e38]]))
        got = read_pfm(p)
        assert got[0, :2].tolist() == [np.inf, -np.inf] and np.isnan(got[0, 2])

    def test_header_is_little_endian_negative_scale(self, tmp_path):
        p = tmp_path / "d.pfm"
        write_pfm(p, np.zeros((2, 3)))
        head = p.read_bytes().split(b"\n", 3)
        assert head[0] == b"Pf"
        assert head[1] == b"3 2"  # width height
        assert float(head[2]) < 0

    def test_scanlines_bottom_to_top(self, tmp_path):
        # first stored scanline must be the bottom image row
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = tmp_path / "d.pfm"
        write_pfm(p, data)
        raw = p.read_bytes()
        body = raw.split(b"\n", 3)[3]
        first_row = np.frombuffer(body[:8], dtype="<f4")
        assert list(first_row) == [3.0, 4.0]

    @pytest.mark.parametrize("layout", ["c", "fortran", "strided", "float32", "color-t"])
    def test_any_memory_layout_writes_row_major_bytes(self, tmp_path, layout):
        rng = np.random.default_rng(2)
        base = rng.uniform(-5.0, 5.0, (12, 10, 3))
        values = {
            "c": base[:, :, 0],
            "fortran": np.asfortranarray(base[:, :, 1]),
            "strided": base[::2, ::-3, 2],
            "float32": base[:, :, 0].astype(np.float32),
            "color-t": base.transpose(1, 0, 2),
        }[layout]
        p = tmp_path / "d.pfm"
        write_pfm(p, values)
        h, w = values.shape[:2]
        ident = b"Pf" if values.ndim == 2 else b"PF"
        expected = ident + f"\n{w} {h}\n-1.0\n".encode() + np.flipud(values).astype("<f4").tobytes()
        assert p.read_bytes() == expected

    def test_rejects_bad_identifier(self, tmp_path):
        p = tmp_path / "d.pfm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(FormatError):
            read_pfm(p)

    def test_rejects_truncated_raster(self, tmp_path):
        p = tmp_path / "d.pfm"
        write_pfm(p, np.zeros((4, 4)))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FormatError, match="truncated"):
            read_pfm(p)

    def test_big_endian_read(self, tmp_path):
        p = tmp_path / "d.pfm"
        data = np.arange(6, dtype=">f4").reshape(2, 3)
        p.write_bytes(b"Pf\n3 2\n1.0\n" + np.flipud(data).tobytes())
        assert np.array_equal(read_pfm(p), data.astype(np.float64))

    @pytest.mark.parametrize("order, scale", [("<", b"-1.0"), (">", b"2.5")], ids=["le", "be"])
    def test_signaling_nan_reads_as_nan_without_warning(self, tmp_path, order, scale):
        # 0x7f800001 and 0xff800001 are signaling NaNs: casting them to float64
        # raises the invalid flag, which the suite turns into an error
        bits = np.array([0x7F800001, 0x3FC00000, 0xFF800001, 0x7FC00000], dtype=order + "u4")
        p = tmp_path / "d.pfm"
        p.write_bytes(b"Pf\n2 2\n" + scale + b"\n" + bits.tobytes())
        depth = load_depth(p)
        factor = abs(float(scale))
        assert np.isnan(depth).tolist() == [[True, True], [True, False]]
        assert depth[1, 1] == 1.5 * factor  # rows are stored bottom row first
        assert not depth_valid_mask(depth)[0, 0]

    def test_scale_past_float64_reads_as_inf_without_warning(self, tmp_path):
        p = tmp_path / "d.pfm"
        samples = np.array([3e38, 1.0], dtype="<f4")
        p.write_bytes(b"Pf\n2 1\n-1e300\n" + samples.tobytes())
        assert read_pfm(p).tolist() == [[np.inf, 1e300]]


class TestPgmPpm:
    def test_pgm8_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        data = rng.integers(0, 256, (11, 6)).astype(np.uint8)
        p = tmp_path / "g.pgm"
        write_pgm(p, data)
        out, maxval = read_pgm(p)
        assert maxval == 255
        assert np.array_equal(out, data)

    def test_pgm16_round_trip_big_endian(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 65536, (4, 5)).astype(np.uint16)
        p = tmp_path / "g.pgm"
        write_pgm(p, data, maxval=65535)
        out, maxval = read_pgm(p)
        assert maxval == 65535
        assert np.array_equal(out, data)
        # sample bytes are most-significant first
        raw = p.read_bytes()
        body = raw.split(b"\n", 3)[3]
        assert int.from_bytes(body[:2], "big") == data[0, 0]

    def test_pgm_header_comments(self, tmp_path):
        p = tmp_path / "g.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n255\n\x07\x08")
        out, _ = read_pgm(p)
        assert out.tolist() == [[7, 8]]

    def test_comments_between_every_header_field(self, tmp_path):
        p = tmp_path / "r.img"
        fields = b"\n#a\n 2 #b\n\t#c\n1 #d #e\n\n"
        p.write_bytes(b"P5" + fields + b"255\n\x07#")
        assert read_pgm(p)[0].tolist() == [[7, 35]]
        p.write_bytes(b"P6" + fields + b"255\n" + bytes(range(6)))
        assert read_ppm(p).tolist() == [[[0, 1, 2], [3, 4, 5]]]
        p.write_bytes(b"Pf" + fields + b"-1.0\n" + np.array([1.5, 2.5], "<f4").tobytes())
        assert read_pfm(p).tolist() == [[1.5, 2.5]]

    @pytest.mark.parametrize(
        "reader, raw",
        [(read_pfm, b"P5\n1 1\n255\n\x00"), (read_pgm, b"Pf\n1 1\n-1.0\n" + bytes(4)),
         (read_pgm, b"P6\n1 1\n255\n" + bytes(3)), (read_ppm, b"P5\n1 1\n255\n\x00")],
        ids=["pfm", "pgm-pfm", "pgm-ppm", "ppm"],
    )
    def test_wrong_identifier_names_the_expected_ones(self, tmp_path, reader, raw):
        p = tmp_path / "r.img"
        p.write_bytes(raw)
        with pytest.raises(FormatError, match="bad identifier .*, expected one of"):
            reader(p)

    @pytest.mark.parametrize(
        "reader, raw, message",
        [(read_pgm, b"P5\n1 1\n0\n\x00", "bad maxval 0"),
         (read_pgm, b"P5\n1 1\n65536\n\x00\x00", "bad maxval 65536"),
         (read_ppm, b"P6\n1 1\n254\n\x00\x00\x00", "only 8-bit PPM supported, maxval 254")],
        ids=["pgm-zero", "pgm-past-16-bit", "ppm-not-255"],
    )
    def test_maxval_rules(self, tmp_path, reader, raw, message):
        p = tmp_path / "r.img"
        p.write_bytes(raw)
        with pytest.raises(FormatError, match=message):
            reader(p)

    def test_ppm_round_trip_and_half_up_rounding(self, tmp_path):
        p = tmp_path / "c.ppm"
        vals = np.array([[[0.0, 1.0, 0.5], [1 / 510, 0.998, 0.25]]])
        write_ppm(p, vals)
        out = read_ppm(p)
        # 0.5*255 = 127.5 -> 128 (half-up); 1/510*255 = 0.5 -> 1
        assert out.tolist() == [[[0, 255, 128], [1, 254, 64]]]

    def test_ppm_requires_three_channels(self, tmp_path):
        with pytest.raises(ParameterError):
            write_ppm(tmp_path / "c.ppm", np.zeros((2, 2)))

    def test_pgm_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ParameterError):
            write_pgm(tmp_path / "g.pgm", np.array([[300]]), maxval=255)

    # 10**5000 has more digits than str() converts: the message gives its bit length
    @pytest.mark.parametrize("maxval", [255.5, True, 0, 65536, "255", 10**5000],
                             ids=["float", "bool", "zero", "65536", "text", "5001-digits"])
    def test_pgm_maxval_that_is_not_an_integer_in_range_is_parameter_error(self, tmp_path, maxval):
        with pytest.raises(ParameterError, match=r"maxval must be an integer in \[1, 65535\]"):
            write_pgm(tmp_path / "g.pgm", np.zeros((2, 2)), maxval=maxval)
        assert not (tmp_path / "g.pgm").exists()


class TestRasterHeaderFields:
    @pytest.mark.parametrize(
        "reader, header",
        [
            (read_pfm, b"Pf\nabc 2\n-1.0\n"),
            (read_pfm, b"Pf\n2 -2\n-1.0\n"),
            (read_pfm, b"Pf\n2 2\nnan\n"),
            (read_pfm, b"Pf\n2 2\n-inf\n"),
            (read_pfm, b"Pf\n2 2\n0.0\n"),
            (read_pgm, b"P5\n2x 2\n255\n"),
            (read_pgm, b"P5\n-2 -2\n255\n"),
            (read_pgm, b"P5\n2 2\n-255\n"),
            (read_ppm, b"P6\n2 two\n255\n"),
            (read_ppm, b"P6\n-2 -2\n255\n"),
            (read_ppm, b"P6\n2 2\n2.5e2\n"),
        ],
        ids=[
            "pfm-width-text", "pfm-height-negative", "pfm-scale-nan", "pfm-scale-inf",
            "pfm-scale-zero", "pgm-width-text", "pgm-dims-negative", "pgm-maxval-negative",
            "ppm-height-text", "ppm-dims-negative", "ppm-maxval-float",
        ],
    )
    def test_bad_field_is_format_error(self, tmp_path, reader, header):
        p = tmp_path / "r.img"
        p.write_bytes(header + bytes(64))
        with pytest.raises(FormatError, match="header"):
            reader(p)

    @pytest.mark.parametrize(
        "reader, header",
        [(read_pfm, b"Pf\n100000000 100000000\n-1.0\n"),
         (read_pgm, b"P5\n100000000 100000000\n255\n"),
         (read_ppm, b"P6\n100000000 100000000\n255\n")],
        ids=["pfm", "pgm", "ppm"],
    )
    def test_dims_past_the_file_are_truncation(self, tmp_path, reader, header):
        # the raster would need petabytes: nothing that size may be allocated
        p = tmp_path / "r.img"
        p.write_bytes(header + bytes(64))
        with pytest.raises(FormatError, match="truncated raster.* got 64$"):
            reader(p)


    @pytest.mark.parametrize(
        "reader, header",
        [(read_pfm, b"Pf\n100000000000000000000 0\n-1.0\n"),
         (read_pgm, b"P5\n0 9223372036854775808\n255\n"),
         (read_ppm, b"P6\n4611686018427387904 0\n255\n")],
        ids=["pfm", "pgm", "ppm"],
    )
    def test_no_samples_but_a_side_past_any_array_is_format_error(self, tmp_path, reader,
                                                                  header):
        p = tmp_path / "r.img"
        p.write_bytes(header)
        with pytest.raises(FormatError, match="raster dimensions .* out of range"):
            reader(p)


class TestDepthConventions:
    def test_depth_pfm_round_trip(self, tmp_path):
        depth = np.array([[1.5, 2.5], [0.25, 8.0]])
        p = tmp_path / "d.pfm"
        save_depth_pfm(p, depth)
        assert np.array_equal(load_depth(p), depth)

    @pytest.mark.parametrize("scale, stores", [(1e-320, "6.55343e-316"), (1e-6, "0.065535")],
                             ids=["subnormal", "too-fine"])
    def test_pgm16_scale_too_fine_for_the_depths_is_parameter_error(self, tmp_path, scale,
                                                                     stores):
        # every valid depth would need more than 65535 units; the file is not written
        p = tmp_path / "d.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ParameterError) as info:
                save_depth_pgm16(p, np.array([[3.0, 0.0], [1.0, np.nan]]), scale_m_per_unit=scale)
        assert str(info.value) == (f"scale_m_per_unit {scale} stores depths up to {stores} m, "
                                   "but the largest valid depth is 3 m")
        assert not p.exists() and not (tmp_path / "d.pgm.json").exists()

    def test_pgm16_largest_storable_depth_round_trips(self, tmp_path):
        p = tmp_path / "d.pgm"
        save_depth_pgm16(p, np.array([[65535.0, 1.0]]), scale_m_per_unit=1.0)
        assert np.array_equal(load_depth_pgm16(p), [[65535.0, 1.0]])

    def test_pgm16_sidecar_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(4)
        depth = rng.uniform(0.5, 60.0, (9, 9))
        p = tmp_path / "d.pgm"
        save_depth_pgm16(p, depth, scale_m_per_unit=0.001)
        assert (tmp_path / "d.pgm.json").is_file()
        out = load_depth_pgm16(p)
        assert np.abs(out - depth).max() <= 0.0005 + 1e-12  # half a quantum

    @pytest.mark.parametrize(
        "sidecar",
        [
            b"{not json",
            b'{"scale_m_per_unit": 0.001, "note": "\xff"}',
            b"[0.001]",
            b"{}",
            b'{"scale_m_per_unit": "0.001"}',
            b'{"scale_m_per_unit": true}',
            b'{"scale_m_per_unit": null}',
            b'{"scale_m_per_unit": NaN}',
            b'{"scale_m_per_unit": Infinity}',
            b'{"scale_m_per_unit": 0}',
            b'{"scale_m_per_unit": -0.001}',
            b'{"scale_m_per_unit": 1' + b"0" * 400 + b"}",
            b'{"scale_m_per_unit": 1e305}',
            b"[" * 100_000 + b"]" * 100_000,
        ],
        ids=["invalid-json", "non-ascii", "not-an-object", "no-scale", "text-scale",
             "bool-scale", "null-scale", "nan-scale", "inf-scale", "zero-scale",
             "negative-scale", "int-past-float-range", "inf-at-65535-units", "nested-too-deep"],
    )
    def test_malformed_pgm16_sidecar_is_format_error(self, tmp_path, sidecar):
        p = tmp_path / "d.pgm"
        save_depth_pgm16(p, np.full((2, 2), 3.0))
        (tmp_path / "d.pgm.json").write_bytes(sidecar)
        with pytest.raises(FormatError, match="d.pgm.json"):
            load_depth_pgm16(p)

    def test_pgm16_save_cut_off_before_the_sidecar_leaves_no_stale_scale(self, tmp_path,
                                                                        monkeypatch):
        p = tmp_path / "d.pgm"
        save_depth_pgm16(p, np.full((3, 4), 10.0))

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(imgio, "_write_json", disk_full)
        with pytest.raises(OSError):
            save_depth_pgm16(p, np.full((3, 4), 40.0))
        monkeypatch.undo()
        assert read_pgm(p)[0].tolist() == [[65535] * 4] * 3  # the new raster
        assert sorted(tmp_path.iterdir()) == [p]
        with pytest.raises(FileNotFoundError):  # not 10.0 read back as 40.0's scale
            load_depth(p)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -0.001])
    def test_pgm16_scale_must_be_finite_and_positive(self, tmp_path, scale):
        with pytest.raises(ParameterError, match="scale_m_per_unit"):
            save_depth_pgm16(tmp_path / "d.pgm", np.full((2, 2), 3.0), scale_m_per_unit=scale)
        assert list(tmp_path.iterdir()) == []

    def test_pgm16_scale_past_float_range_is_parameter_error(self, tmp_path):
        with pytest.raises(ParameterError, match="scale_m_per_unit"):
            save_depth_pgm16(tmp_path / "d.pgm", np.full((2, 2), 3.0), scale_m_per_unit=10**400)
        assert list(tmp_path.iterdir()) == []

    def test_pgm16_invalid_pixels_stay_zero(self, tmp_path):
        depth = np.array([[1.0, 0.0], [np.nan, np.inf]])
        p = tmp_path / "d.pgm"
        save_depth_pgm16(p, depth)
        out = load_depth_pgm16(p)
        assert out[0, 1] == 0.0 and out[1, 0] == 0.0 and out[1, 1] == 0.0

    def test_valid_mask_convention(self):
        depth = np.array([[1.0, 0.0], [-1.0, np.nan]])
        assert depth_valid_mask(depth).tolist() == [[True, False], [False, False]]

    def test_mask_pgm_round_trip(self, tmp_path):
        mask = np.array([[True, False], [False, True]])
        p = tmp_path / "m.pgm"
        save_mask_pgm(p, mask)
        assert np.array_equal(load_mask_pgm(p), mask)
