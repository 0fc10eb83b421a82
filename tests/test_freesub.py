import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from growthforge import analyzer
from growthforge.analyzer import factor_set_bruteforce
from growthforge.construction import FreeParams, build_free_power_system
from growthforge.freesub import (
    compute_t,
    degree_lower_bound,
    optimality_report,
    verify_free_generators,
)


class TestComputeT:
    def test_hand_values(self):
        assert compute_t(1) == 1
        assert compute_t(Fraction(1, 2)) == 2
        assert compute_t(Fraction(1, 10)) == 4
        assert compute_t(Fraction(1, 100)) == 8

    def test_matches_ceiling_formula(self):
        for num in range(1, 50):
            eps = Fraction(num, 50)
            expected = math.ceil(-math.log2(math.log2(1 + num / 50))) + 1 if num < 50 else 1
            assert compute_t(eps) == expected, eps

    def test_defining_inequalities(self):
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 10), Fraction(3, 7),
                    Fraction(99, 100), Fraction(1, 64)):
            t = compute_t(eps)
            base = 1 + eps
            # 2^t > 1/log2(1+eps) >= 2^(t-2), in exact powers.
            assert base ** (1 << t) > 2
            assert base ** (1 << (t - 1)) >= 2
            if t >= 2:
                assert base ** (1 << (t - 2)) < 2

    def test_range_validation(self):
        with pytest.raises(ValueError):
            compute_t(0)
        with pytest.raises(ValueError):
            compute_t(Fraction(3, 2))


def squaring_t(eps: Fraction) -> int:
    """compute_t by its first definition: square 1 + eps exactly until it reaches 2."""
    power, m = 1 + eps, 0
    while power < 2:
        power *= power
        m += 1
    return m + 1


@given(st.integers(1, 50), st.integers(50, 5000))
@example(50, 50)
@settings(max_examples=150, deadline=None)
def test_brackets_match_exact_squaring(p, q):
    # t and the band (1, 4] of 2^t log2(1+eps), decided on log2 brackets, against
    # exact powers of 1 + eps: ratio > 1 iff (1+eps)^(2^t) > 2, <= 4 iff <= 16.
    eps = Fraction(p, q)
    t = squaring_t(eps)
    power = (1 + eps) ** (1 << t)
    assert compute_t(eps) == t
    assert optimality_report(eps).ratio_in_band == (2 < power <= 16)


class TestDegreeLowerBound:
    @pytest.mark.parametrize("eps,expected,tol", [
        (Fraction(1), 1.0, 1e-9),
        (Fraction(1, 2), 1.7095, 1e-4),
        (Fraction(1, 10), 7.2725, 1e-3),
    ])
    def test_hand_values(self, eps, expected, tol):
        bound = degree_lower_bound(eps, tol=Fraction(1, 10 ** 8))
        assert abs(float(bound) - expected) <= tol

    def test_against_float_oracle(self):
        for num in (1, 3, 7, 25, 50, 100):
            eps = Fraction(num, 100)
            truth = 1 / math.log2(1 + num / 100)
            assert abs(float(degree_lower_bound(eps)) - truth) < 1e-5


class TestOptimality:
    def test_hand_ratios(self):
        assert float(optimality_report(1).optimality_ratio[0]) == pytest.approx(2.0, abs=1e-6)
        rep_half = optimality_report(Fraction(1, 2))
        assert float(rep_half.optimality_ratio[0]) == pytest.approx(2.3399, abs=1e-3)
        rep_tenth = optimality_report(Fraction(1, 10))
        assert float(rep_tenth.optimality_ratio[0]) == pytest.approx(2.2001, abs=1e-3)

    def test_band_exact_over_sweep(self):
        for num in range(1, 101):
            rep = optimality_report(Fraction(num, 100))
            assert rep.ratio_in_band  # ratio in (1, 4], decided by exact powers
            lo, hi = rep.optimality_ratio
            assert 1 < float(lo) + 1e-9 and float(hi) <= 4 + 1e-9


class TestVerifyGenerators:
    def test_eps1_full_certificate(self, free_system_eps1):
        system, params = free_system_eps1
        report = verify_free_generators(system, params, 4)
        assert report.passed
        assert report.products_checked == 2 + 4 + 8 + 16
        assert report.missing == []
        assert report.capacity_checks == [(2, 4, 16), (3, 16, 256)]

    def test_degenerate_length_one(self, free_system_eps1):
        system, params = free_system_eps1
        report = verify_free_generators(system, params, 1)
        assert report.passed and report.products_checked == 2

    def test_monotone_in_length(self, free_system_eps1):
        system, params = free_system_eps1
        for length in (1, 2, 3, 4):
            assert verify_free_generators(system, params, length).passed

    def test_eps_half_products(self):
        system, params = build_free_power_system(Fraction(1, 2), 5)
        report = verify_free_generators(system, params, 2)  # products up to 8 letters
        assert report.passed

    # Generators aa and bb on the lex poly system, which forbids bbbb, and the
    # free systems of t = 1 and t = 2 (degree-4 generators).
    @pytest.mark.parametrize("name, first_missing", [
        ("free_system_eps1", None), ("free_half5", None), ("poly_plain5", "bbbb")],
        ids=["free_system_eps1", "free_half5", "poly_plain5"])
    def test_missing_products_in_product_order(self, request, monkeypatch, name, first_missing):
        # The products absent from the factor sets are reported shortest first,
        # then in the order of their words over {X, Y}: the substituted strings
        # of itertools.product, looked up in the brute-force factor set of the
        # longest product. Every shorter factor lies in one of that length, as
        # an element of W(2^j) is a suffix of one of W(2^(j+1)).
        monkeypatch.setenv("GROWTHFORGE_BUDGET", "25000000")   # free_half5 expands 21.9M letters
        if name == "free_half5":
            system, params = build_free_power_system(Fraction(1, 2), 5)
        elif name == "poly_plain5":
            system, params = request.getfixturevalue(name), FreeParams(
                Fraction(1), 1, 2, "aa", "bb", 0)
        else:
            system, params = request.getfixturevalue(name)
        length = (1 << (system.depth - 1)) >> params.t   # the longest the depth certifies
        report = verify_free_generators(system, params, length)
        oracle = factor_set_bruteforce(system, length << params.t)
        words = [w for k in range(1, length + 1)
                 for w in map("".join, product((params.x_word, params.y_word), repeat=k))]
        assert report.missing == [w for w in words if not any(w in f for f in oracle)]
        assert report.products_checked == len(words) == (2 << length) - 2
        assert report.missing[:1] == ([first_missing] if first_missing else [])
        assert report.passed == (first_missing is None)

    @pytest.mark.parametrize("x_word", ["ab", "a", "aaa", "zz", ""])
    def test_generator_not_a_letter_power_refused(self, poly_plain5, x_word):
        # Products are made from the letter codes, so a generator must be a
        # letter of the system repeated 2^t times.
        params = FreeParams(Fraction(1), 1, 2, x_word, "bb", 0)
        with pytest.raises(ValueError, match=r"letters of 'ab' repeated 2\^t times"):
            verify_free_generators(poly_plain5, params, 2)

    def test_held_tables_of_free_e1(self):
        # `free --epsilon 1 --depth 5 --products-len 8` keeps four cut tables
        # beside the letters and the five member tables: only those some
        # product reaches, and no prefix product.
        system, params = build_free_power_system(1, 5)
        assert verify_free_generators(system, params, 8).passed
        engine = analyzer._engine_for(system)
        assert sorted(engine._tables) == [(field,) for field in [
            (-1, 0, 1), (0, 0, 1), (1, 0, 2), (2, 0, 2), (2, 0, 4), (3, 0, 2), (3, 0, 4), (3, 0, 6),
            (3, 0, 8), (4, 0, 16)]]
        assert engine._held == 88

    def test_range_precondition(self, free_system_eps1):
        system, params = free_system_eps1
        with pytest.raises(ValueError):
            verify_free_generators(system, params, 5)  # 5 * 2 > 2^(4-1)
