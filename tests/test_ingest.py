import re
import struct

import numpy as np
import pytest

from kernelpipe import fixtures
from kernelpipe.ingest import (
    INPUT_SHAPE,
    FileFormatError,
    IdxFormatError,
    load_config,
    load_image_text,
    load_mnist_idx,
    load_weights_text,
    read_results_csv,
    read_sweep_csv,
    write_accel_csv,
    write_image_text,
    write_results_csv,
    write_sweep_csv,
    write_weights_text,
)
from kernelpipe.perf import AccelRecord, BenchRecord
from kernelpipe.sweep import SweepResult
from kernelpipe.tensors import QFormat
from kernelpipe.weights import WEIGHT_SHAPES, zero_weights


class TestWeightsText:
    def test_zero_store_roundtrip(self, tmp_path):
        path = tmp_path / "w.txt"
        write_weights_text(zero_weights(), path)
        store = load_weights_text(path)
        assert not store.conv1_w.any()
        assert store.ip1_w.shape == (500, 800)

    def test_values_roundtrip_exactly(self, tmp_path, store42):
        path = tmp_path / "w.txt"
        write_weights_text(store42, path)
        loaded = load_weights_text(path)
        for name in WEIGHT_SHAPES:
            assert np.array_equal(getattr(loaded, name), getattr(store42, name)), name

    def test_fixed_store_rejected(self, tmp_path, fixed42):
        path = tmp_path / "w.txt"
        with pytest.raises(ValueError, match="float64"):
            write_weights_text(fixed42, path)
        assert not path.exists()

    def test_write_read_write_is_byte_identical(self, tmp_path, store42):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_weights_text(store42, p1)
        write_weights_text(load_weights_text(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_block_named(self, tmp_path, store42):
        path = tmp_path / "w.txt"
        write_weights_text(store42, path)
        lines = path.read_text().splitlines(keepends=True)
        start = next(i for i, l in enumerate(lines) if l.startswith("ip2_b"))
        path.write_text("".join(lines[:start]))
        with pytest.raises(FileFormatError, match="ip2_b"):
            load_weights_text(path)

    def test_malformed_number_names_line(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("conv1_b 20\n0.0 0.0 oops 0.0\n")
        with pytest.raises(FileFormatError, match=r"w\.txt:2.*'oops'"):
            load_weights_text(path)

    def test_unknown_block_rejected(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("conv3_w 2 2\n0 0 0 0\n")
        with pytest.raises(FileFormatError, match="conv3_w"):
            load_weights_text(path)

    def test_wrong_shape_reports_expected_and_actual(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("conv1_b 19\n" + " ".join(["0"] * 19) + "\n")
        with pytest.raises(FileFormatError, match=r"\(19,\).*\(20,\)"):
            load_weights_text(path)

    def test_truncated_block(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("conv1_b 20\n0.0 0.0\n")
        with pytest.raises(FileFormatError, match="truncated"):
            load_weights_text(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_names_line(self, tmp_path, token):
        path = tmp_path / "w.txt"
        path.write_text(f"conv1_b 20\n0.0 0.0 0.0\n0.0 {token} 0.0\n")
        with pytest.raises(FileFormatError, match=rf"w\.txt:3: .*finite.*'{token}'"):
            load_weights_text(path)

    def test_duplicate_block(self, tmp_path):
        body = "conv1_b 20\n" + " ".join(["0"] * 20) + "\n"
        path = tmp_path / "w.txt"
        path.write_text(body + body)
        with pytest.raises(FileFormatError, match="duplicate"):
            load_weights_text(path)


class TestImageText:
    def test_roundtrip(self, tmp_path, images42):
        path = tmp_path / "img.txt"
        write_image_text(images42[0], path)
        loaded = load_image_text(path)
        assert isinstance(loaded, np.ndarray)
        assert loaded.dtype == np.float64 and loaded.shape == INPUT_SHAPE.dims
        assert np.array_equal(loaded, images42[0])

    def test_wrong_pixel_count(self, tmp_path):
        path = tmp_path / "img.txt"
        path.write_text("0.5 0.5\n")
        with pytest.raises(FileFormatError, match="784"):
            load_image_text(path)

    def test_range_enforced(self, tmp_path):
        path = tmp_path / "img.txt"
        write_image_text(np.full((1, 28, 28), 0.5), path)
        load_image_text(path)
        path.write_text(" ".join(["2.0"] * 784))
        with pytest.raises(FileFormatError, match=r"\[0, 1\]"):
            load_image_text(path)

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_pixel_names_line(self, tmp_path, token):
        # nan compares false against both range ends, so the [0, 1] check
        # alone would let it through
        path = tmp_path / "img.txt"
        write_image_text(np.full((1, 28, 28), 0.5), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[4] = lines[4].replace("0.5", token, 1)
        path.write_text("".join(lines))
        with pytest.raises(FileFormatError, match=rf"img\.txt:5: .*finite.*'{token}'"):
            load_image_text(path)


def write_idx_pair(tmp_path, count=3, rows=28, cols=28, image_magic=2051,
                   label_magic=2049, truncate_images=False):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, (count, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 10, count, dtype=np.uint8)
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    img_bytes = struct.pack(">iiii", image_magic, count, rows, cols) + pixels.tobytes()
    if truncate_images:
        img_bytes = img_bytes[:-100]
    img_path.write_bytes(img_bytes)
    lab_path.write_bytes(struct.pack(">ii", label_magic, count) + labels.tobytes())
    return img_path, lab_path, pixels, labels


class TestIdx:
    def test_header_fields(self, tmp_path):
        # a 10-image 28x28 header admits exactly 10 images of that shape
        img_path, lab_path, _, _ = write_idx_pair(tmp_path, count=10)
        pairs = load_mnist_idx(img_path, lab_path, 10)
        assert [image.shape for image, _ in pairs] == [(1, 28, 28)] * 10
        with pytest.raises(IdxFormatError, match="file has 10"):
            load_mnist_idx(img_path, lab_path, 11)

    def test_load_normalizes(self, tmp_path):
        img_path, lab_path, pixels, labels = write_idx_pair(tmp_path)
        pairs = load_mnist_idx(img_path, lab_path, 3)
        assert len(pairs) == 3
        for i, (image, label) in enumerate(pairs):
            assert label == labels[i]
            assert isinstance(image, np.ndarray)
            assert image.dtype == np.float64 and image.shape == INPUT_SHAPE.dims
            assert np.array_equal(image[0], pixels[i] / 255.0)

    def test_count_zero_gives_empty(self, tmp_path):
        img_path, lab_path, _, _ = write_idx_pair(tmp_path)
        assert load_mnist_idx(img_path, lab_path, 0) == []

    def test_image_magic_in_label_slot(self, tmp_path):
        img_path, _, _, _ = write_idx_pair(tmp_path)
        with pytest.raises(IdxFormatError, match="label magic"):
            load_mnist_idx(img_path, img_path, 1)

    def test_bad_image_magic(self, tmp_path):
        img_path, lab_path, _, _ = write_idx_pair(tmp_path, image_magic=2049)
        with pytest.raises(IdxFormatError, match="image magic"):
            load_mnist_idx(img_path, lab_path, 1)

    def test_count_overflow(self, tmp_path):
        img_path, lab_path, _, _ = write_idx_pair(tmp_path, count=3)
        with pytest.raises(IdxFormatError, match="file has 3"):
            load_mnist_idx(img_path, lab_path, 5)

    def test_truncated_pixels(self, tmp_path):
        img_path, lab_path, _, _ = write_idx_pair(tmp_path, truncate_images=True)
        with pytest.raises(IdxFormatError, match="truncated"):
            load_mnist_idx(img_path, lab_path, 3)

    def test_wrong_dims(self, tmp_path):
        img_path, lab_path, _, _ = write_idx_pair(tmp_path, rows=27)
        with pytest.raises(IdxFormatError, match="28x28"):
            load_mnist_idx(img_path, lab_path, 1)


def sample_records():
    return [
        ("virtex7_690t_7v3", BenchRecord("conv_pool1", (3.63, 1.96, 1.96),
                                         (4.9, 6.2, 5.1), (11, 11, 11), (180, 216, 216))),
        ("virtex7_690t_7v3", BenchRecord("conv2", (7.62, 4.92, 4.92),
                                         (4.8, 4.8, 4.9), (11, 11, 11), (108, 144, 144))),
    ]


class TestResultsCsv:
    def test_one_record_three_rows(self, tmp_path):
        path = tmp_path / "bench.csv"
        write_results_csv(sample_records()[:1], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "kernel,platform,mode,time_ms,logic_k,dsp,bram_kb"
        assert len(lines) == 4
        assert lines[1].startswith("conv_pool1,virtex7_690t_7v3,none,3.63")

    def test_empty_gives_header_only(self, tmp_path):
        path = tmp_path / "bench.csv"
        write_results_csv([], path)
        assert path.read_text() == "kernel,platform,mode,time_ms,logic_k,dsp,bram_kb\n"

    def test_roundtrip_reproduces_records(self, tmp_path):
        path = tmp_path / "bench.csv"
        write_results_csv(sample_records(), path)
        assert read_results_csv(path) == sample_records()

    def test_write_read_write_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(sample_records(), p1)
        write_results_csv(read_results_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "bench.csv"
        write_results_csv(sample_records(), path)
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_missing_mode_rejected(self, tmp_path):
        path = tmp_path / "bench.csv"
        write_results_csv(sample_records()[:1], path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")  # drop the simd row
        with pytest.raises(ValueError, match="simd"):
            read_results_csv(path)

    @pytest.mark.parametrize("token", ["inf", "nan"])
    def test_non_finite_value_rejected(self, token, tmp_path):
        path = tmp_path / "bench.csv"
        write_results_csv(sample_records()[:1], path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("1.96", token)  # the unroll row's time
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"bench\.csv:3: .*{token}"):
            read_results_csv(path)

    def test_duplicate_row_rejected(self, tmp_path):
        path = tmp_path / "bench.csv"
        write_results_csv(sample_records()[:1], path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[1]]) + "\n")  # the none row again
        with pytest.raises(ValueError, match=r"bench\.csv:5: duplicate row .*'none'"):
            read_results_csv(path)

    def test_unknown_mode_rejected(self, tmp_path):
        # the three valid modes are all present, so only the extra row is at fault
        path = tmp_path / "bench.csv"
        write_results_csv(sample_records()[:1], path)
        lines = path.read_text().splitlines()
        fast = lines[1].split(",")[:2] + ["fast", "1", "0", "0", "0"]
        path.write_text("\n".join(lines + [",".join(fast)]) + "\n")
        with pytest.raises(ValueError, match=r"bench\.csv:5: unknown mode 'fast'; "
                                             r"expected none/unroll/simd"):
            read_results_csv(path)


class TestOtherCsv:
    def test_accel_csv(self, tmp_path):
        path = tmp_path / "accel.csv"
        write_accel_csv([AccelRecord("conv2", (1.92, 1.24, 1.15), (92, 24, 15))], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "kernel,mode,ratio,percent"
        assert lines[1] == "conv2,none,1.92,92"
        assert len(lines) == 4

    def test_sweep_csv_roundtrip(self, tmp_path):
        results = [
            SweepResult(QFormat(16, 8), 0.125, 0.03125, 0.97, 100),
            SweepResult(QFormat(8, 4), 2.5, 1.25, 0.41, 100),
        ]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(results, p1)
        loaded = read_sweep_csv(p1)
        assert loaded == results
        write_sweep_csv(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == "total_bits,frac_bits,max_err,mean_err,agreement,n"

    @pytest.mark.parametrize("row, message", [
        ("16,8,0.5,0.25", "malformed row"),
        ("16,8,nan,inf,2.5,-3", "finite decimal float, got 'nan'"),
        ("16,8,0.5,0.25,1.0,many", "invalid literal for int() with base 10: 'many'"),
        ("16,16,0.5,0.25,1.0,3", "frac_bits must be in 0..total_bits-1"),
    ])
    def test_bad_sweep_row_names_file_and_line(self, row, message, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv([SweepResult(QFormat(16, 8), 0.125, 0.03125, 0.97, 100)], path)
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(ValueError, match=rf"sweep\.csv:3: .*{re.escape(message)}"):
            read_sweep_csv(path)


class TestFileFormatError:
    """Weight, image and CSV parse errors are one kind of error, none of
    them a weight-format error."""

    def test_sweep_csv_cell(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv([SweepResult(QFormat(16, 8), 0.125, 0.03125, 0.97, 100)], path)
        path.write_text(path.read_text() + "16,8,nan,inf,2.5,-3\n")
        with pytest.raises(FileFormatError) as info:
            read_sweep_csv(path)
        assert (info.value.path, info.value.line) == (str(path), 3)

    def test_results_csv_cell(self, tmp_path):
        path = tmp_path / "bench.csv"
        write_results_csv(sample_records()[:1], path)
        path.write_text(path.read_text().replace("1.96", "inf"))
        with pytest.raises(FileFormatError, match=r"bench\.csv:3: .*'inf'"):
            read_results_csv(path)

    @pytest.mark.parametrize("reader", [read_results_csv, read_sweep_csv])
    def test_csv_header(self, reader, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n")
        with pytest.raises(FileFormatError, match=r"x\.csv:1: expected header"):
            reader(path)

    def test_image_pixel(self, tmp_path):
        path = tmp_path / "img.txt"
        path.write_text("0.5 x\n")
        with pytest.raises(FileFormatError, match=r"img\.txt:1: .*'x'"):
            load_image_text(path)


class TestConfig:
    def test_parse(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text(
            "# platform overrides\n"
            "platform.stratixV_gxa7_de5.compute_clock_hz = 3.1e8\n"
            "\n"
            "coeff.pool2.dsp.base = 5  # trailing comment\n")
        assert load_config(path) == {
            "platform.stratixV_gxa7_de5.compute_clock_hz": "3.1e8",
            "coeff.pool2.dsp.base": "5",
        }

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ValueError, match="key=value"):
            load_config(path)

    def test_malformed_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("a = 1\njust a line\n")
        with pytest.raises(FileFormatError, match=r"model\.cfg:2: expected key=value"):
            load_config(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("a.b = 1\n# comment\nc = 2\n a.b= 3\n")
        with pytest.raises(FileFormatError,
                           match=r"model\.cfg:4: key 'a\.b' already set on line 1") as exc:
            load_config(path)
        assert exc.value.line == 4


class TestFixtureFiles:
    def test_write_fixture_files(self, tmp_path):
        written = fixtures.write_fixture_files(tmp_path, seed=7, count=2)
        store = load_weights_text(written["weights"][0])
        assert store.ip1_w.shape == (500, 800)
        assert len(written["images"]) == 2
        img = load_image_text(written["images"][0])
        assert np.array_equal(img, fixtures.synthetic_images(7, 2)[0])
