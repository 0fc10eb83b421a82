"""Free-subalgebra certification for power-monomial systems.

With entropy H = 1 + eps, two elements supported in degrees <= d can only
generate a free subalgebra if d >= 1/log2(1+eps). The power-monomial builder
achieves degree 2^t with t = ceil(-log2 log2(1+eps)) + 1, within a factor
of four of that bound. This module decides t, the band and the bound on
log2 brackets of growing precision, without floating point (the bracket is
exact at eps = 1 and log2(1+eps) is irrational otherwise, so each settles), and certifies
freeness on a finite range: the two generators are equal-length words on
distinct letters, so distinct products substitute to distinct strings, and
the absence of monomial relations up to a product length is exactly the
presence of every substituted string in the factor sets, tested as codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .codes import limb_count, product_codes
from .construction import FreeParams, LevelSystem, _json_fields
from .exactmath import ceil_frac, ceil_log2, log2_bracket
from . import analyzer


def _refined(eps: Fraction, decide):
    """decide(lo, hi) on log2_bracket(1 + eps, bits) for bits = 24, 48, ... until not None."""
    bits = 24
    while (answer := decide(*log2_bracket(1 + eps, bits))) is None:
        bits *= 2
    return answer


def compute_t(eps: Fraction | str | int) -> int:
    """Smallest m with 2^m log2(1+eps) >= 1, i.e. (1+eps)^(2^m) >= 2, plus one.

    Equals ceil(-log2 log2(1+eps)) + 1 and guarantees (1+eps)^(2^t) > 2,
    i.e. 2^t > 1/log2(1+eps). Decided on log2 brackets, no float and no powers.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    def least(lo, hi):   # 2^m log2(1+eps) >= 1 needs 2^m hi >= 1, and 2^m lo >= 1 is enough
        m = ceil_log2(ceil_frac(1 / hi))
        return m + 1 if lo * (1 << m) >= 1 else None
    return _refined(eps, least)


def degree_lower_bound(eps: Fraction | str | int, tol: Fraction = Fraction(1, 10 ** 6)) -> Fraction:
    """1/log2(1+eps) as a rational within tol of the true value.

    Bracketed by exact dyadic bounds on log2; precision grows until the
    reciprocal bracket is narrower than tol.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    return _refined(eps, lambda lo, hi: (
        (1 / hi + 1 / lo) / 2 if lo > 0 and 1 / lo - 1 / hi <= tol else None))


@dataclass
class OptimalityReport:
    """Achieved generator degree versus the entropy lower bound."""

    epsilon: Fraction
    t: int
    degree: int
    lower_bound: tuple[Fraction, Fraction]       # 1/log2(1+eps), bracketed
    optimality_ratio: tuple[Fraction, Fraction]  # degree * log2(1+eps), bracketed
    ratio_in_band: bool     # ratio in (1, 4], decided on log2 brackets

    def to_dict(self) -> dict:
        return _json_fields(self)


def optimality_report(eps: Fraction | str | int) -> OptimalityReport:
    """Ratio 2^t log2(1+eps) between achieved degree and the lower bound.

    The band membership (1, 4] is decided exactly, on log2 brackets refined
    until neither end of the band lies inside degree * bracket.
    """
    eps = Fraction(eps)
    t = compute_t(eps)
    degree = 1 << t
    def band(lo, hi):   # settled once each end c of (1, 4] lies outside degree * [lo, hi]
        above = [(degree * lo > c, degree * hi > c) for c in (1, 4)]
        return None if any(a != b for a, b in above) else above[0][0] and not above[1][0]
    lo, hi = log2_bracket(1 + eps, 40)
    return OptimalityReport(
        epsilon=eps, t=t, degree=degree,
        lower_bound=(1 / hi, 1 / lo) if lo > 0 else (Fraction(0), Fraction(0)),
        optimality_ratio=(degree * lo, degree * hi),
        ratio_in_band=_refined(eps, band),
    )


@dataclass
class FreenessReport:
    """Finite-range freeness certificate for the two power generators."""

    params: FreeParams
    max_products_len: int
    products_checked: int
    missing: list[str]                      # substituted strings absent from factor sets
    capacity_checks: list[tuple[int, int, int]]  # (level, required 2^(2^r), actual |C|)
    depth: int

    @property
    def capacity_ok(self) -> bool:
        return all(actual >= req for _, req, actual in self.capacity_checks)

    @property
    def passed(self) -> bool:
        return not self.missing and self.capacity_ok

    def to_dict(self) -> dict:
        return _json_fields(self, passed=self.passed)


def verify_free_generators(
    system: LevelSystem,
    params: FreeParams,
    max_products_len: int,
) -> FreenessReport:
    """Check that every product of the generators up to a length is a factor.

    Each generator is a letter repeated 2^t times, its code the letter's
    doubled t times. The products of each length are codes in product order,
    those of the length before each followed by X, then Y, tested together
    for membership in the exact factor set of that length without building
    it; only the missing ones are decoded, and `missing` keeps their order.
    Distinct products give distinct strings (equal-length code), so full
    presence certifies no monomial relation up to the bound.
    """
    if max_products_len < 1:
        raise ValueError("max_products_len must be >= 1")
    degree = params.degree
    if max_products_len * degree > 1 << (system.depth - 1):
        raise ValueError(
            f"products of length {max_products_len} need factor length "
            f"{max_products_len * degree} > certified maximum {1 << (system.depth - 1)}")
    letters, words = system.alphabet.letters, (params.x_word, params.y_word)
    picks = [letters.find(word[:1]) for word in words]
    if any(word != letters[i] * (1 << params.t) for i, word in zip(picks, words)):
        raise ValueError(f"generators {words} must be letters of {letters!r} repeated 2^t times")
    engine = analyzer._engine_for(system)
    gens = engine._letters[picks]
    for l in range(1, params.t + 1):
        gens = engine._join(gens, gens, l)
    products, missing, checked = gens, [], 0
    for length in range(1, max_products_len + 1):
        n = length << params.t
        if length > 1:
            products = product_codes((products, engine.bits << params.t, gens),
                                     limb_count(n, engine.bits))
        missing += engine.decode(products[~engine.held(products, n)], n)
        checked += len(products)
    capacity = [(level, params.forced(level), len(system.csets[level]))
                for level in range(params.t + 1, system.depth)]
    return FreenessReport(
        params=params,
        max_products_len=max_products_len,
        products_checked=checked,
        missing=missing,
        capacity_checks=capacity,
        depth=system.depth,
    )
