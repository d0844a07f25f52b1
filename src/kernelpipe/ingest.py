"""File ingestion and emission.

Three file families: the text weight/image exchange format (named tensor
blocks with dimension headers -- self-describing and diffable), standard IDX
digit-image files, and the result CSVs.  Everything is ASCII with LF line
endings and '.' decimal points; parse errors always name the file, the line,
and what was expected there.
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

import numpy as np

from .netdef import lenet5_spec
from .perf import MODE_ORDER, AccelRecord, BenchRecord
from .sweep import SweepResult
from .tensors import QFormat
from .weights import WEIGHT_SHAPES, WeightStore

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049

BENCH_CSV_HEADER = ["kernel", "platform", "mode", "time_ms", "logic_k", "dsp", "bram_kb"]
ACCEL_CSV_HEADER = ["kernel", "mode", "ratio", "percent"]
SWEEP_CSV_HEADER = ["total_bits", "frac_bits", "max_err", "mean_err", "agreement", "n"]

#: The network's input (channels, height, width): the shape of every image.
INPUT_SHAPE = lenet5_spec().input_shape


class FileFormatError(ValueError):
    """A weight, image, CSV or config text file that does not parse; the
    message names the file and the line (0 for the file as a whole)."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class IdxFormatError(ValueError):
    pass


def _parse_float(tok: str, path, lineno: int) -> float:
    """One finite decimal float token; anything else names the file and line."""
    try:
        value = float(tok)
    except ValueError:
        raise FileFormatError(path, lineno,
                              f"expected a decimal float, got {tok!r}") from None
    if not math.isfinite(value):
        raise FileFormatError(path, lineno, f"expected a finite decimal float, got {tok!r}")
    return value


# -- text weight files ---------------------------------------------------------


def load_weights_text(path) -> WeightStore:
    """Parse the text weight format: per block, a header line
    ``name d0 d1 ... dk`` followed by exactly prod(d) decimal floats.

    All eight canonical blocks must be present with their exact shapes; any
    unknown block is rejected.
    """
    path = Path(path)
    blocks: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="ascii") as f:
        lines = f.readlines()

    lineno = 0
    n_lines = len(lines)
    while True:
        # find the next header line
        while lineno < n_lines and not lines[lineno].strip():
            lineno += 1
        if lineno >= n_lines:
            break
        header_line = lineno + 1
        fields = lines[lineno].split()
        lineno += 1
        name, dim_tokens = fields[0], fields[1:]
        if name not in WEIGHT_SHAPES:
            raise FileFormatError(path, header_line,
                                  f"unknown block {name!r}; expected one of "
                                  f"{sorted(WEIGHT_SHAPES)}")
        if name in blocks:
            raise FileFormatError(path, header_line, f"duplicate block {name!r}")
        try:
            dims = tuple(int(tok) for tok in dim_tokens)
        except ValueError:
            raise FileFormatError(path, header_line,
                                  f"expected integer dimensions after {name!r}") from None
        expected = WEIGHT_SHAPES[name]
        if dims != expected:
            raise FileFormatError(
                path, header_line,
                f"block {name!r} has shape {dims} ({int(np.prod(dims)) if dims else 0} "
                f"values); expected {expected} ({int(np.prod(expected))} values)")

        count = int(np.prod(expected))
        values = np.empty(count)
        filled = 0
        while filled < count:
            if lineno >= n_lines:
                raise FileFormatError(path, n_lines,
                                      f"block {name!r} truncated: got {filled} of "
                                      f"{count} values before end of file")
            for tok in lines[lineno].split():
                if filled >= count:
                    raise FileFormatError(path, lineno + 1,
                                          f"block {name!r} has more than {count} values")
                values[filled] = _parse_float(tok, path, lineno + 1)
                filled += 1
            lineno += 1
        blocks[name] = values.reshape(expected)

    missing = sorted(set(WEIGHT_SHAPES) - set(blocks))
    if missing:
        raise FileFormatError(path, n_lines,
                              f"missing block(s): {', '.join(missing)}")
    return WeightStore(**blocks)


def write_weights_text(store: WeightStore, path):
    """Write all blocks of a float64 store with 17 significant digits
    (lossless)."""
    if store.is_fixed:
        raise ValueError("only a float64 weight store can be written")
    with open(path, "w", encoding="ascii", newline="\n") as f:
        for name, shape in WEIGHT_SHAPES.items():
            f.write(name + " " + " ".join(str(d) for d in shape) + "\n")
            flat = getattr(store, name).ravel()
            for start in range(0, len(flat), 8):
                f.write(" ".join("%.17g" % v for v in flat[start:start + 8]) + "\n")


# -- text image files -----------------------------------------------------------


def load_image_text(path) -> np.ndarray:
    """One float64 image of :data:`INPUT_SHAPE` from whitespace-separated
    floats (784 for the 28x28 input), already normalized to [0, 1]."""
    path = Path(path)
    values = []
    with open(path, "r", encoding="ascii") as f:
        for lineno, line in enumerate(f, start=1):
            values.extend(_parse_float(tok, path, lineno) for tok in line.split())
    pixels = INPUT_SHAPE.element_count
    if len(values) != pixels:
        raise FileFormatError(path, 0, f"expected {pixels} pixels, got {len(values)}")
    arr = np.array(values).reshape(INPUT_SHAPE.dims)
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise FileFormatError(path, 0, "pixel values must lie in [0, 1]")
    return arr


def write_image_text(image: np.ndarray, path):
    """One image per file, one pixel row per line."""
    flat = np.asarray(image, dtype=np.float64).ravel()
    pixels, width = INPUT_SHAPE.element_count, INPUT_SHAPE.dims[-1]
    if flat.size != pixels:
        raise ValueError(f"image must have {pixels} pixels, got {flat.size}")
    with open(path, "w", encoding="ascii", newline="\n") as f:
        for start in range(0, pixels, width):
            f.write(" ".join("%.17g" % v for v in flat[start:start + width]) + "\n")


# -- IDX digit files --------------------------------------------------------------


def _read_be32(f, path, what) -> int:
    data = f.read(4)
    if len(data) != 4:
        raise IdxFormatError(f"{path}: truncated file while reading {what}")
    return struct.unpack(">i", data)[0]


def load_mnist_idx(images_path, labels_path, count: int) -> list[tuple[np.ndarray, int]]:
    """Load ``count`` (image, label) pairs from the standard IDX pair, each
    image a float64 array of :data:`INPUT_SHAPE`.

    Pixels are normalized to [0, 1] by dividing by 255; image dims must be
    the input's height x width (28x28) and labels must be digits.
    """
    height, width = INPUT_SHAPE.dims[1:]
    with open(images_path, "rb") as f:
        magic = _read_be32(f, images_path, "magic")
        if magic != IDX_IMAGE_MAGIC:
            raise IdxFormatError(
                f"{images_path}: bad image magic {magic} (expected {IDX_IMAGE_MAGIC})")
        n = _read_be32(f, images_path, "count")
        rows = _read_be32(f, images_path, "rows")
        cols = _read_be32(f, images_path, "cols")
        if (rows, cols) != (height, width):
            raise IdxFormatError(
                f"{images_path}: expected {height}x{width} images, got {rows}x{cols}")
        if count > n:
            raise IdxFormatError(f"{images_path}: requested {count} images, file has {n}")
        data = f.read(count * rows * cols)
        if len(data) != count * rows * cols:
            raise IdxFormatError(f"{images_path}: truncated pixel data")
        pixels = np.frombuffer(data, dtype=np.uint8).reshape(count, rows, cols)

    with open(labels_path, "rb") as f:
        magic = _read_be32(f, labels_path, "magic")
        if magic != IDX_LABEL_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: bad label magic {magic} (expected {IDX_LABEL_MAGIC})")
        n_labels = _read_be32(f, labels_path, "count")
        if count > n_labels:
            raise IdxFormatError(f"{labels_path}: requested {count} labels, file has {n_labels}")
        data = f.read(count)
        if len(data) != count:
            raise IdxFormatError(f"{labels_path}: truncated label data")
        labels = np.frombuffer(data, dtype=np.uint8)

    pairs = []
    for i in range(count):
        image = pixels[i].astype(np.float64).reshape(INPUT_SHAPE.dims) / 255.0
        label = int(labels[i])
        if not 0 <= label <= 9:
            raise IdxFormatError(f"{labels_path}: label {label} out of range 0..9")
        pairs.append((image, label))
    return pairs


# -- result CSVs -------------------------------------------------------------------


def write_results_csv(records, path):
    """``records`` is an iterable of (platform_name, BenchRecord); one CSV row
    per (kernel, platform, mode)."""
    with open(path, "w", encoding="ascii", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(BENCH_CSV_HEADER)
        for platform, rec in records:
            for i, mode in enumerate(MODE_ORDER):
                writer.writerow([rec.kernel, platform, mode,
                                 repr(rec.times_ms[i]), repr(rec.logic_k[i]),
                                 repr(rec.dsp[i]), repr(rec.bram_kb[i])])


def read_results_csv(path) -> list[tuple[str, BenchRecord]]:
    """Inverse of :func:`write_results_csv`; rows for one (kernel, platform)
    must cover exactly the three modes, once each, with finite values."""
    groups: dict[tuple[str, str], dict[str, tuple]] = {}
    with open(path, "r", encoding="ascii", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != BENCH_CSV_HEADER:
            raise FileFormatError(path, 1, f"expected header {','.join(BENCH_CSV_HEADER)}")
        for row in reader:
            line = reader.line_num
            if len(row) != 7:
                raise FileFormatError(path, line, f"malformed row {row!r}")
            kernel, platform, mode = row[0], row[1], row[2]
            if mode not in MODE_ORDER:
                raise FileFormatError(path, line, f"unknown mode {mode!r}; "
                                      f"expected {'/'.join(MODE_ORDER)}")
            modes = groups.setdefault((platform, kernel), {})
            if mode in modes:
                raise FileFormatError(path, line, f"duplicate row for kernel {kernel!r} "
                                      f"on {platform!r} in mode {mode!r}")
            modes[mode] = tuple(_parse_float(v, path, line) for v in row[3:])
    records = []
    for (platform, kernel), modes in groups.items():
        if set(modes) != set(MODE_ORDER):
            raise FileFormatError(path, 0, f"kernel {kernel!r} on {platform!r} lacks modes "
                                           f"{sorted(set(MODE_ORDER) - set(modes))}")
        cols = list(zip(*(modes[m] for m in MODE_ORDER)))
        records.append((platform, BenchRecord(
            kernel=kernel, times_ms=cols[0], logic_k=cols[1],
            dsp=cols[2], bram_kb=cols[3])))
    return records


def write_accel_csv(records: list[AccelRecord], path):
    with open(path, "w", encoding="ascii", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(ACCEL_CSV_HEADER)
        for rec in records:
            for i, mode in enumerate(MODE_ORDER):
                writer.writerow([rec.kernel, mode, repr(rec.ratios[i]), rec.percents[i]])


def write_sweep_csv(results: list[SweepResult], path):
    with open(path, "w", encoding="ascii", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(SWEEP_CSV_HEADER)
        for r in results:
            writer.writerow([r.qformat.total_bits, r.qformat.frac_bits,
                             repr(r.max_abs_logit_error), repr(r.mean_abs_logit_error),
                             repr(r.argmax_agreement), r.n_samples])


def read_sweep_csv(path) -> list[SweepResult]:
    results = []
    with open(path, "r", encoding="ascii", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != SWEEP_CSV_HEADER:
            raise FileFormatError(path, 1, f"expected header {','.join(SWEEP_CSV_HEADER)}")
        for row in reader:
            line = reader.line_num
            if len(row) != len(SWEEP_CSV_HEADER):
                raise FileFormatError(path, line, f"malformed row {row!r}")
            try:
                qformat, n = QFormat(int(row[0]), int(row[1])), int(row[5])
            except ValueError as exc:
                raise FileFormatError(path, line, str(exc)) from None
            max_err, mean_err, agreement = (_parse_float(v, path, line) for v in row[2:5])
            results.append(SweepResult(qformat, max_err, mean_err, agreement, n))
    return results


# -- key=value config files ----------------------------------------------------------


def load_config(path) -> dict[str, str]:
    """Flat ``key = value`` file, one per line, '#' comments; a key may be
    set only once."""
    config, lines = {}, {}
    with open(path, "r", encoding="ascii") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FileFormatError(path, lineno, f"expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in lines:
                raise FileFormatError(path, lineno,
                                      f"key {key!r} already set on line {lines[key]}")
            config[key], lines[key] = value, lineno
    return config
