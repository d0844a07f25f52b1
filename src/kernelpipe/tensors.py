"""Fixed-point tensors and deterministic fixed-point arithmetic.

Values are signed fixed-point Q(total, frac) raws held in int64; float64
data (images, float weight stores, reference outputs) stays in plain numpy
arrays.  Fixed arithmetic is exact: products and sums carry no intermediate
rounding, and each output element takes one rounding step,
:func:`div_round_even_array` (floor division, then round half to even), the
only integer rounding primitive.  Accumulators are int64.  A dot product
may run in float64 instead, limb by limb, since float64 holds every integer
below 2**53 exactly: :func:`float_limb_bits` picks a limb width for its
activations so that every partial sum of each limb's dot is an integer
below 2**53, :func:`split_limbs` cuts the activations into those limbs and
:func:`join_limbs` recombines the limbs' dots in int64 (the error-free
splitting of Ozaki, Ogita, Oishi and Rump, 2012, in integer form).  Because
the accumulation is exact, any summation order produces the same raw value;
the documented canonical order (input-channel outer, kernel row, kernel
column) is what every implementation in this package follows.

Layout convention everywhere: row-major with channel as the outermost axis
(numpy C order on (channels, height, width) arrays).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Guard bits on top of the 2*total_bits product width; 25-tap and 800-tap
# dot products stay far inside this for every supported format.
ACCUMULATOR_GUARD_BITS = 16

#: float64 represents every integer of smaller magnitude exactly.
FLOAT64_EXACT_LIMIT = 1 << 53


class FixedPointOverflowError(ArithmeticError):
    """Accumulator exceeded its modeled width: the accumulator is mis-sized."""


@dataclass(frozen=True)
class QFormat:
    """Signed fixed-point format: ``total_bits`` wide, scale ``2**frac_bits``."""

    total_bits: int
    frac_bits: int

    def __post_init__(self):
        if not 8 <= self.total_bits <= 32:
            raise ValueError(f"total_bits must be in 8..32, got {self.total_bits}")
        if not 0 <= self.frac_bits <= self.total_bits - 1:
            raise ValueError(f"frac_bits must be in 0..total_bits-1, got {self.frac_bits}")

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


#: The default fixed-point format: the CLI's ``--qbits``/``--qfrac`` default.
DEFAULT_QFORMAT = QFormat(16, 8)


def quantize_array(x: np.ndarray, q: QFormat) -> np.ndarray:
    """Round-to-nearest-even of x * 2**frac_bits, saturated to the raw
    range; returns int64 raws."""
    x = np.asarray(x, dtype=np.float64)
    raw = np.multiply(x, q.scale, out=np.empty_like(x))  # NaN exactly where x is
    if np.isnan(raw).any():
        raise ValueError("cannot quantize NaN")
    np.rint(raw, out=raw)
    np.clip(raw, q.raw_min, q.raw_max, out=raw)
    return raw.astype(np.int64)


def dequantize_array(raw: np.ndarray, q: QFormat) -> np.ndarray:
    """Exact raw / 2**frac_bits (power-of-two division is lossless in float64)."""
    return np.asarray(raw, dtype=np.float64) / q.scale


def div_round_even_array(values: np.ndarray, denom: int) -> np.ndarray:
    """int64 values over a positive ``denom``, rounded half to even: the
    floor quotient steps up when the remainder exceeds half of ``denom``,
    or equals it and the quotient is odd."""
    if denom <= 0:
        raise ValueError("denominator must be positive")
    quot, rem = np.divmod(np.asarray(values, dtype=np.int64), denom)
    return quot + ((2 * rem > denom) | ((2 * rem == denom) & (quot & 1 == 1)))


def narrow_array(acc: np.ndarray, q: QFormat) -> np.ndarray:
    """Accumulators at scale 2**(2*frac) to saturated raws of ``q``: one
    round-to-nearest-even division by ``q.scale``, then clamping."""
    return np.clip(div_round_even_array(acc, q.scale), q.raw_min, q.raw_max)


def accumulator_limit(q: QFormat) -> int:
    """Magnitude the engine's accumulators must stay below.

    The modeled width is 2*total_bits + 16 guard bits; the engine and the
    vectorized reference accumulate in 64-bit integer lanes, so wide formats
    are capped there.
    """
    return min(1 << (q.accumulator_bits - 1), 1 << 62)


def _accumulation_bound(taps: int, activation_max: int, weight_max: int,
                        bias_max: int, q: QFormat) -> int:
    """Worst-case accumulator magnitude of a dot product plus bias."""
    return taps * int(activation_max) * int(weight_max) + (int(bias_max) << q.frac_bits)


def accumulation_is_static_safe(taps: int, weight_max: int, bias_max: int,
                                q: QFormat) -> bool:
    """True when a ``taps``-term dot product cannot overflow for any
    activation of ``q``, whose largest magnitude is ``-q.raw_min``;
    callers must guard actual magnitudes otherwise."""
    return _accumulation_bound(taps, -q.raw_min, weight_max, bias_max, q) < accumulator_limit(q)


def float_limb_bits(taps: int, weight_max: int, q: QFormat) -> int:
    """Activation limb width ``s`` for ``taps``-term dot products of weights
    up to ``weight_max`` with activations of ``q`` that the overflow check
    admits, such that each limb's dot (:func:`split_limbs`) is exact in
    float64, in any summation order.

    Every partial sum is bounded by the sum of the terms' magnitudes, and
    float64 holds every integer below 2**53 exactly.  The whole raw is one
    limb (``s`` is ``q.total_bits``) when that sum with ``q``'s largest
    activation, ``-q.raw_min``, stays below 2**53, or when the accumulator
    limit does: the static skip or the guard keeps every admitted sum below
    it.  Otherwise ``s`` is the largest width with
    ``taps * weight_max * 2**s < 2**53``: every limb's magnitude is at most
    ``2**s``.  The bias is not part of the float sum.  Raises ValueError when
    no width of at least one bit exists.
    """
    bound = taps * int(weight_max)
    if bound * -q.raw_min < FLOAT64_EXACT_LIMIT or accumulator_limit(q) <= FLOAT64_EXACT_LIMIT:
        return q.total_bits
    if 2 * bound >= FLOAT64_EXACT_LIMIT:
        raise ValueError(f"no float64 limb width for {taps} taps with |w|<={weight_max} in {q}")
    return ((FLOAT64_EXACT_LIMIT - 1) // bound).bit_length() - 1


def limb_count(s: int, total_bits: int) -> int:
    """The fewest ``s``-bit limbs of a ``total_bits`` raw whose signed top
    limb stays within ``[-2**s, 2**s)``: one for ``s >= total_bits - 1``."""
    return -(-(total_bits - 1) // s)


def split_limbs(x: np.ndarray, s: int, total_bits: int) -> np.ndarray:
    """int64 raws of ``total_bits`` bits as their :func:`limb_count` limbs,
    stacked along a new leading axis, ``x == sum(parts[j] << (s * j))``:
    each low limb is ``(x >> s*j) & (2**s - 1)`` and the top limb is the
    signed rest ``x >> s*(n-1)``.  One limb is a view of ``x``."""
    x = np.asarray(x, dtype=np.int64)
    top = s * (limb_count(s, total_bits) - 1)
    if not top:
        return x[None]
    mask = (1 << s) - 1
    return np.stack([(x >> shift) & mask for shift in range(0, top, s)] + [x >> top])


def join_limbs(parts: np.ndarray, s: int) -> np.ndarray:
    """Inverse of :func:`split_limbs` along the leading axis, in int64, and
    so also the recombination of each limb's exact dot with the same
    weights: Horner's rule from the top limb down.  The running value after
    limb j is the dot with ``x >> s*j``; shifted up it stays below the dot's
    bound over ``|x|`` plus one limb's bound, so below 2**63 whenever the
    first is below 2**62 (the overflow check) and the second below 2**53."""
    acc = parts[-1]
    for part in parts[-2::-1]:
        acc = (acc << s) + part
    return acc


def check_accumulation_bound(taps: int, activation_max: int, weight_max: int,
                             bias_max: int, q: QFormat):
    """Hard error when a dot product over values of the given magnitudes
    could exceed the accumulator: it signals a mis-sized accumulator, never
    a representable result."""
    if _accumulation_bound(taps, activation_max, weight_max, bias_max, q) >= accumulator_limit(q):
        raise FixedPointOverflowError(
            f"accumulation of {taps} taps with |a|<={activation_max}, "
            f"|w|<={weight_max} can exceed the accumulator for {q}"
        )


@dataclass(frozen=True)
class Tensor:
    """int64 raws of one QFormat; its shape is the raws' shape.

    Immutable after construction; the backing array is set non-writeable so
    instances can be handed across threads.
    """

    values: np.ndarray
    qformat: QFormat

    def __post_init__(self):
        values = np.asarray(self.values).astype(np.int64)
        if values.size and (
            values.min() < self.qformat.raw_min or values.max() > self.qformat.raw_max
        ):
            raise ValueError(f"raw values outside {self.qformat} range")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape
