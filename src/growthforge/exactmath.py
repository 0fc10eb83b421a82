"""Exact integer and rational arithmetic primitives.

Everything here returns integers or Fractions whose correctness does not
depend on floating point. Irrational quantities (log2, q-th roots in an
exponent) are handled by certified bracketing: the returned bracket provably
contains the true value, and precision grows until the consumer's question
(usually a ceiling) is unambiguous.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", decimal, or integer syntax into an exact Fraction."""
    return Fraction(text.strip())


def ceil_frac(x: Fraction) -> int:
    """Exact ceiling of a rational."""
    return -((-x.numerator) // x.denominator)


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b for positive integers."""
    return -((-a) // b)


def ceil_log2(n: int) -> int:
    """Smallest k with 2^k >= n, for n >= 1."""
    return (n - 1).bit_length()


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer, exactly."""
    if n < 0:
        raise ValueError("iroot of negative number")
    if k <= 0:
        raise ValueError("root degree must be positive")
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        return isqrt(n)
    x = 1 << (ceil_div(n.bit_length(), k))
    # Newton iteration on integers; converges from above.
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def decimal_string(x: Fraction, digits: int) -> str:
    """Round-half-even decimal rendering of a nonnegative rational."""
    if x < 0:
        raise ValueError("decimal_string expects a nonnegative value")
    scale = 10 ** digits
    num = x.numerator * scale
    den = x.denominator
    q, r = divmod(num, den)
    double = 2 * r
    if double > den or (double == den and q % 2 == 1):
        q += 1
    whole, frac = divmod(q, scale)
    return f"{whole}.{frac:0{digits}d}" if digits else str(whole)


def nth_root_floor_scaled(value: int, degree: int, digits: int) -> Fraction:
    """Lower bracket of value^(1/degree) with 10^-digits resolution.

    The returned Fraction q satisfies q <= value^(1/degree) < q + 10^-digits.
    """
    if value < 0:
        raise ValueError("root of negative value")
    scale = 10 ** digits
    root = iroot(value * scale ** degree, degree)
    return Fraction(root, scale)


def sqrt_bracket(x: Fraction, digits: int = 9) -> tuple[Fraction, Fraction]:
    """Bracket sqrt(x) within 10^-digits for a nonnegative rational."""
    scale = 10 ** digits
    lo = isqrt(x.numerator * scale * scale // x.denominator)
    return Fraction(lo, scale), Fraction(lo + 2, scale)


def log2_bracket(x: Fraction, bits: int = 24) -> tuple[Fraction, Fraction]:
    """Bracket log2(x) for rational x > 0 within 2^-bits.

    Fixed-point square-and-renormalize with directed rounding on both ends;
    the returned dyadic rationals provably enclose log2(x). A rational x that
    is not a power of two has irrational log2, so the bit extraction always
    resolves at some precision; exact powers of two return a zero-width
    bracket immediately.
    """
    if x <= 0:
        raise ValueError("log2 of nonpositive value")
    k = 0
    norm = x
    while norm >= 2:
        norm /= 2
        k += 1
    while norm < 1:
        norm *= 2
        k -= 1
    if norm == 1:
        return Fraction(k), Fraction(k)
    p, q = norm.numerator, norm.denominator
    guard = bits + 64
    while True:
        one = 1 << guard
        two = 2 << guard
        ylo = (p << guard) // q
        yhi = ylo + 1
        acc = 0
        resolved = True
        for _ in range(bits):
            ylo = (ylo * ylo) >> guard
            yhi = ((yhi * yhi) >> guard) + 1
            if ylo >= two:
                acc = (acc << 1) | 1
                ylo >>= 1
                yhi = (yhi >> 1) + (yhi & 1)
            elif yhi < two:
                acc = acc << 1
            else:
                resolved = False
                break
            if yhi >= (one << 2):
                # Error band blew past [1, 4); precision is exhausted.
                resolved = False
                break
        if resolved:
            denom = 1 << bits
            return Fraction(k * denom + acc, denom), Fraction(k * denom + acc + 1, denom)
        guard *= 2


def pow2_of_root_ceil(m: int, q: int) -> int:
    """Exact ceiling of 2^(m^(1/q)) for integers m >= 1, q >= 1.

    If m is a perfect q-th power the result is an exact power of two.
    Otherwise the exponent is irrational, 2^(m^(1/q)) is transcendental and
    in particular never an integer, so a certified bracket of increasing
    precision always resolves the ceiling.
    """
    if m < 1 or q < 1:
        raise ValueError("pow2_of_root_ceil needs m >= 1, q >= 1")
    a = iroot(m, q)
    if a ** q == m:
        return 1 << a
    s = 16
    while True:
        # X/2^s <= m^(1/q) < (X+1)/2^s
        x_scaled = iroot(m << (q * s), q)
        guard = s + 32
        ceil_lo = _pow2_scaled_ceil(x_scaled, s, guard, round_up=False)
        ceil_hi = _pow2_scaled_ceil(x_scaled + 1, s, guard, round_up=True)
        if ceil_lo == ceil_hi:
            return ceil_lo
        s *= 2


def _pow2_scaled_ceil(x_scaled: int, s: int, guard: int, round_up: bool) -> int:
    """Ceiling of a directed fixed-point bound for 2^(x_scaled / 2^s)."""
    int_part = x_scaled >> s
    mant = _pow2_frac_fixed(x_scaled - (int_part << s), s, guard, round_up)
    return -((-(mant << int_part)) >> guard)


def _pow2_frac_fixed(frac: int, s: int, guard: int, round_up: bool) -> int:
    """Fixed-point 2^(frac/2^s) * 2^guard with directed rounding, frac in [0, 2^s)."""
    one = 1 << guard
    # Chain c[i] ~ 2^(1/2^i) with one-sided rounding in the requested direction.
    result = one
    c = 2 * one  # represents 2.0
    for i in range(1, s + 1):
        root = isqrt(c << guard)
        c = root + 1 if round_up else root
        if frac >> (s - i) & 1:
            prod = result * c
            result = (prod >> guard) + 1 if round_up else prod >> guard
    return result
