"""Shape-tagged fixed-point tensors and deterministic fixed-point arithmetic.

Values are signed fixed-point Q(total, frac) raws held in int64; float64
data (images, float weight stores, reference outputs) stays in plain numpy
arrays.  Fixed arithmetic is exact: products and sums are carried in wide
integer accumulators with no intermediate rounding, and one
round-to-nearest-even narrowing step per output element.  Because the
accumulation is exact integer math, any summation order produces the same
raw value; the documented canonical order (input-channel outer, kernel row,
kernel column) is what every implementation in this package follows.

Layout convention everywhere: row-major with channel as the outermost axis
(numpy C order on (channels, height, width) arrays).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ELEMENT_COUNT = 2**63 - 1

# Guard bits on top of the 2*total_bits product width; 25-tap and 800-tap
# dot products stay far inside this for every supported format.
ACCUMULATOR_GUARD_BITS = 16


class FixedPointOverflowError(ArithmeticError):
    """Accumulator exceeded its modeled width: the accumulator is mis-sized."""


@dataclass(frozen=True)
class Shape:
    """Positive integer extents, 1 to 4 dims, channel-outermost."""

    dims: tuple[int, ...]

    def __init__(self, *dims: int):
        if len(dims) == 1 and isinstance(dims[0], (tuple, list)):
            dims = tuple(dims[0])
        if not 1 <= len(dims) <= 4:
            raise ValueError(f"shape must have 1..4 dims, got {len(dims)}")
        for d in dims:
            if not isinstance(d, (int, np.integer)) or d < 1:
                raise ValueError(f"shape extents must be positive integers, got {dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        if self.element_count > MAX_ELEMENT_COUNT:
            raise ValueError("shape element count exceeds 64-bit range")

    @property
    def element_count(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def __iter__(self):
        return iter(self.dims)

    def __len__(self):
        return len(self.dims)


@dataclass(frozen=True)
class QFormat:
    """Signed fixed-point format: ``total_bits`` wide, scale ``2**frac_bits``."""

    total_bits: int
    frac_bits: int
    signed: bool = True

    def __post_init__(self):
        if not 8 <= self.total_bits <= 32:
            raise ValueError(f"total_bits must be in 8..32, got {self.total_bits}")
        if not 0 <= self.frac_bits <= self.total_bits - 1:
            raise ValueError(f"frac_bits must be in 0..total_bits-1, got {self.frac_bits}")
        if not self.signed:
            raise ValueError("only signed formats are supported")

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def element_bytes(self) -> int:
        """Storage width per element, rounded up to whole bytes."""
        return (self.total_bits + 7) // 8

    @property
    def accumulator_bits(self) -> int:
        return 2 * self.total_bits + ACCUMULATOR_GUARD_BITS

    def __str__(self):
        return f"Q{self.total_bits}.{self.frac_bits}"


#: Documented default: the precision-reduction sweep lets callers pick, this
#: is what the pipeline uses when nothing else is requested.
DEFAULT_QFORMAT = QFormat(16, 8)


def quantize_array(x: np.ndarray, q: QFormat) -> np.ndarray:
    """Round-to-nearest-even of x * 2**frac_bits, saturated to the raw
    range; returns int64 raws."""
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValueError("cannot quantize NaN")
    raw = np.rint(x * q.scale)
    return np.clip(raw, q.raw_min, q.raw_max).astype(np.int64)


def dequantize_array(raw: np.ndarray, q: QFormat) -> np.ndarray:
    """Exact raw / 2**frac_bits (power-of-two division is lossless in float64)."""
    return np.asarray(raw, dtype=np.float64) / q.scale


def rshift_round_even_array(values: np.ndarray, shift: int) -> np.ndarray:
    """Arithmetic right shift of int64 values with round-half-to-even
    (symmetric about zero)."""
    if shift == 0:
        return np.asarray(values, dtype=np.int64)
    v = np.asarray(values, dtype=np.int64)
    sign = np.where(v < 0, -1, 1)
    mag = np.abs(v)
    quot = mag >> shift
    rem = mag & ((1 << shift) - 1)
    half = 1 << (shift - 1)
    quot = quot + ((rem > half) | ((rem == half) & (quot & 1 == 1)))
    return sign * quot


def narrow_array(acc: np.ndarray, q: QFormat) -> np.ndarray:
    """Accumulators at scale 2**(2*frac) to saturated raws of ``q``: one
    round-to-nearest-even right shift by ``frac_bits``, then clamping."""
    return np.clip(rshift_round_even_array(acc, q.frac_bits), q.raw_min, q.raw_max)


def accumulator_limit(q: QFormat) -> int:
    """Magnitude the engine's accumulators must stay below.

    The modeled width is 2*total_bits + 16 guard bits; the engine and the
    vectorized reference accumulate in 64-bit integer lanes, so wide formats
    are capped there.
    """
    return min(1 << (q.accumulator_bits - 1), 1 << 62)


def accumulation_is_static_safe(taps: int, weight_max: int, bias_max: int,
                                q: QFormat) -> bool:
    """True when a ``taps``-term dot product cannot overflow even with every
    activation saturated; callers must guard actual magnitudes otherwise."""
    bound = taps * q.raw_max * int(weight_max) + (int(bias_max) << q.frac_bits)
    return bound < accumulator_limit(q)


def check_accumulation_bound(taps: int, activation_max: int, weight_max: int,
                             bias_max: int, q: QFormat):
    """Hard error when a dot product over values of the given magnitudes
    could exceed the accumulator: it signals a mis-sized accumulator, never
    a representable result."""
    bound = taps * int(activation_max) * int(weight_max) + (int(bias_max) << q.frac_bits)
    if bound >= accumulator_limit(q):
        raise FixedPointOverflowError(
            f"accumulation of {taps} taps with |a|<={activation_max}, "
            f"|w|<={weight_max} can exceed the accumulator for {q}"
        )


def div_round_even_array(values: np.ndarray, denom: int) -> np.ndarray:
    """Integer division of int64 values with round-half-to-even, symmetric
    about zero."""
    if denom <= 0:
        raise ValueError("denominator must be positive")
    v = np.asarray(values, dtype=np.int64)
    quot, rem = np.divmod(np.abs(v), denom)
    quot = quot + ((2 * rem > denom) | ((2 * rem == denom) & (quot & 1 == 1)))
    return np.where(v < 0, -quot, quot)


@dataclass(frozen=True)
class Tensor:
    """Shape-tagged int64 raws of one QFormat.

    Immutable after construction; the backing array is set non-writeable so
    instances can be handed across threads.
    """

    shape: Shape
    values: np.ndarray
    qformat: QFormat

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.size != self.shape.element_count:
            raise ValueError(
                f"element count {values.size} does not match shape {self.shape.dims}"
            )
        values = values.astype(np.int64).reshape(self.shape.dims)
        if values.size and (
            values.min() < self.qformat.raw_min or values.max() > self.qformat.raw_max
        ):
            raise ValueError(f"raw values outside {self.qformat} range")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
