"""File ingestion and emission.

Four file families, one parse path each: the text weight/image exchange
format (named tensor blocks with dimension headers -- self-describing and
diffable), standard IDX digit-image files, the result CSVs, and key=value
config files, whose keys :func:`perf.apply_config` interprets.  Everything
is ASCII with LF line endings and '.' decimal points; parse errors always
name the file, the line, and what was expected there.
"""

from __future__ import annotations

import csv
import math
import re
import struct
from pathlib import Path

import numpy as np

from .netdef import lenet5_spec
from .perf import MODE_ORDER, AccelRecord, BenchRecord, apply_config
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


def _read_lines(path, newline=None) -> list[str]:
    """Every line of an ASCII text file, decoded once; ``newline`` as for
    :func:`open`.  A non-ASCII byte raises FileFormatError naming its line."""
    try:
        with open(path, "r", encoding="ascii", newline=newline) as f:
            return f.readlines()
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
    start = re.search(rb"[\x80-\xff]", data).start()
    # bytes.splitlines breaks lines where universal newlines do
    raise FileFormatError(path, len(data[:start + 1].splitlines()),
                          f"non-ASCII byte 0x{data[start]:02x}; the format is ASCII")


# -- text weight files ---------------------------------------------------------


def load_weights_text(path) -> WeightStore:
    """Parse the text weight format: per block, a header line
    ``name d0 d1 ... dk`` followed by exactly prod(d) decimal floats.

    All eight canonical blocks must be present with their exact shapes; any
    unknown block is rejected.
    """
    path = Path(path)
    blocks: dict[str, np.ndarray] = {}
    lines = _read_lines(path)
    name = None  # the block whose values are being read, if any
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if name is not None:
            for tok in tokens:
                if filled == count:
                    raise FileFormatError(path, lineno,
                                          f"block {name!r} has more than {count} values")
                values[filled] = _parse_float(tok, path, lineno)
                filled += 1
            if filled == count:
                blocks[name], name = values.reshape(expected), None
        elif tokens:
            name, dim_tokens = tokens[0], tokens[1:]
            if name not in WEIGHT_SHAPES:
                raise FileFormatError(path, lineno,
                                      f"unknown block {name!r}; expected one of "
                                      f"{sorted(WEIGHT_SHAPES)}")
            if name in blocks:
                raise FileFormatError(path, lineno, f"duplicate block {name!r}")
            try:
                dims = tuple(int(tok) for tok in dim_tokens)
            except ValueError:
                raise FileFormatError(path, lineno,
                                      f"expected integer dimensions after {name!r}") from None
            expected = WEIGHT_SHAPES[name]
            count = math.prod(expected)
            if dims != expected:
                raise FileFormatError(
                    path, lineno,
                    f"block {name!r} has shape {dims} ({int(np.prod(dims)) if dims else 0} "
                    f"values); expected {expected} ({count} values)")
            values, filled = np.empty(count), 0

    if name is not None:
        raise FileFormatError(path, len(lines),
                              f"block {name!r} truncated: got {filled} of "
                              f"{count} values before end of file")
    missing = sorted(set(WEIGHT_SHAPES) - set(blocks))
    if missing:
        raise FileFormatError(path, len(lines),
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
    for lineno, line in enumerate(_read_lines(path), start=1):
        values.extend(_parse_float(tok, path, lineno) for tok in line.split())
    pixels = math.prod(INPUT_SHAPE)
    if len(values) != pixels:
        raise FileFormatError(path, 0, f"expected {pixels} pixels, got {len(values)}")
    arr = np.array(values).reshape(INPUT_SHAPE)
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise FileFormatError(path, 0, "pixel values must lie in [0, 1]")
    return arr


def write_image_text(image: np.ndarray, path):
    """One image per file, one pixel row per line."""
    flat = np.asarray(image, dtype=np.float64).ravel()
    pixels, width = math.prod(INPUT_SHAPE), INPUT_SHAPE[-1]
    if flat.size != pixels:
        raise ValueError(f"image must have {pixels} pixels, got {flat.size}")
    with open(path, "w", encoding="ascii", newline="\n") as f:
        for start in range(0, pixels, width):
            f.write(" ".join("%.17g" % v for v in flat[start:start + width]) + "\n")


# -- IDX digit files --------------------------------------------------------------


def _read_idx(path, magic: int, kind: str, count: int, item_dims: tuple) -> np.ndarray:
    """The first ``count`` items of an IDX file as ``uint8`` of shape
    ``(count, *item_dims)``; ``kind`` names the items in errors."""
    fields = ("magic", "count", "rows", "cols")[:2 + len(item_dims)]
    with open(path, "rb") as f:
        header = f.read(4 * len(fields))
        got = struct.unpack(f">{len(header) // 4}i", header[:len(header) // 4 * 4])
        if got and got[0] != magic:
            raise FileFormatError(path, 0, f"bad {kind} magic {got[0]} (expected {magic})")
        if len(got) < len(fields):
            raise FileFormatError(path, 0, f"truncated file while reading {fields[len(got)]}")
        n, dims = got[1], got[2:]
        if dims != item_dims:
            raise FileFormatError(path, 0, f"expected {'x'.join(map(str, item_dims))} "
                                           f"{kind}s, got {'x'.join(map(str, dims))}")
        if count > n:
            raise FileFormatError(path, 0, f"requested {count} {kind}s, file has {n}")
        size = count * math.prod(item_dims)
        data = f.read(size)
    if len(data) != size:
        raise FileFormatError(path, 0, f"truncated {kind} data")
    return np.frombuffer(data, dtype=np.uint8).reshape(count, *item_dims)


def load_mnist_idx(images_path, labels_path, count: int) -> list[tuple[np.ndarray, int]]:
    """Load ``count`` (image, label) pairs from the standard IDX pair, each
    image a float64 array of :data:`INPUT_SHAPE`.

    Pixels are normalized to [0, 1] by dividing by 255; image dims must be
    the input's height x width (28x28) and labels must be digits.
    """
    pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, "image", count, INPUT_SHAPE[1:])
    labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "label", count, ())
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        raise FileFormatError(labels_path, 0, f"label {labels[bad[0]]} out of range 0..9")
    return list(zip(pixels.reshape(count, *INPUT_SHAPE) / 255.0, labels.tolist()))


# -- result CSVs -------------------------------------------------------------------


def _write_csv(path, header: list[str], rows):
    """``header`` then ``rows``, in ASCII with LF line endings."""
    with open(path, "w", encoding="ascii", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path, header: list[str]):
    """Yield ``(line, row)`` for each row after ``header``; a different header
    or a row of another width names the file and line."""
    reader = csv.reader(_read_lines(path, newline=""))
    if next(reader, None) != header:
        raise FileFormatError(path, 1, f"expected header {','.join(header)}")
    for row in reader:
        if len(row) != len(header):
            raise FileFormatError(path, reader.line_num, f"malformed row {row!r}")
        yield reader.line_num, row


def write_results_csv(records, path):
    """``records`` is an iterable of (platform_name, BenchRecord); one CSV row
    per (kernel, platform, mode)."""
    _write_csv(path, BENCH_CSV_HEADER, (
        [rec.kernel, platform, mode, repr(rec.times_ms[i]), repr(rec.logic_k[i]),
         repr(rec.dsp[i]), repr(rec.bram_kb[i])]
        for platform, rec in records for i, mode in enumerate(MODE_ORDER)))


def read_results_csv(path) -> list[tuple[str, BenchRecord]]:
    """Inverse of :func:`write_results_csv`; rows for one (kernel, platform)
    must cover exactly the three modes, once each, with finite values, a
    positive time and no negative resource count."""
    groups: dict[tuple[str, str], dict[str, tuple]] = {}
    for line, row in _read_csv(path, BENCH_CSV_HEADER):
        kernel, platform, mode = row[0], row[1], row[2]
        if mode not in MODE_ORDER:
            raise FileFormatError(path, line, f"unknown mode {mode!r}; "
                                  f"expected {'/'.join(MODE_ORDER)}")
        modes = groups.setdefault((platform, kernel), {})
        if mode in modes:
            raise FileFormatError(path, line, f"duplicate row for kernel {kernel!r} "
                                  f"on {platform!r} in mode {mode!r}")
        modes[mode] = tuple(_parse_float(v, path, line) for v in row[3:])
        if modes[mode][0] <= 0:
            raise FileFormatError(path, line, f"time_ms must be positive, got {row[3]!r}")
        for column, value, token in zip(BENCH_CSV_HEADER[4:], modes[mode][1:], row[4:]):
            if value < 0:
                raise FileFormatError(path, line, f"{column} must not be negative, got {token!r}")
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
    _write_csv(path, ACCEL_CSV_HEADER, (
        [rec.kernel, mode, repr(rec.ratios[i]), rec.percents[i]]
        for rec in records for i, mode in enumerate(MODE_ORDER)))


def write_sweep_csv(results: list[SweepResult], path):
    _write_csv(path, SWEEP_CSV_HEADER, (
        [r.qformat.total_bits, r.qformat.frac_bits, repr(r.max_abs_logit_error),
         repr(r.mean_abs_logit_error), repr(r.argmax_agreement), r.n_samples]
        for r in results))


def read_sweep_csv(path) -> list[SweepResult]:
    results = []
    for line, row in _read_csv(path, SWEEP_CSV_HEADER):
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
    set only once.  Each key is checked with :func:`perf.apply_config`, so
    a key or value it rejects names its line."""
    config, lines = {}, {}
    for lineno, line in enumerate(_read_lines(path), start=1):
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
    for key, value in config.items():
        try:
            apply_config({key: value})
        except (KeyError, ValueError) as exc:  # a KeyError's str() is its message's repr
            raise FileFormatError(path, lines[key], exc.args[0]) from None
    return config
