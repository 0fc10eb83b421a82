from fractions import Fraction

import pytest

from growthforge.errors import HorizonTooSmall, UncoveredArgument
from growthforge.growth import (
    check_basic,
    check_capture_conditions,
    check_rapid_growth,
    compute_mu,
    exp_power,
    geometric,
    poly_geometric,
    sharp_paper,
    spec_from_dict,
    table_spec,
    verify_hypotheses,
)

POLY = poly_geometric("1/10")


def brute_poly(n):
    # Independent oracle: exact rational power, manual ceiling.
    v = n * Fraction(11, 10) ** n
    return -((-v.numerator) // v.denominator)


class TestEval:
    def test_geometric(self):
        assert geometric(1).value(3) == 8

    def test_poly_geometric_exact_ceilings(self):
        assert POLY.value(32) == 676
        for n in (1, 2, 3, 7, 16, 33, 100):
            assert POLY.value(n) == brute_poly(n)

    def test_sharp_paper(self):
        assert sharp_paper(1).value(4) == 4  # ceil(16/4)

    def test_exp_power(self):
        assert exp_power(2).value(3) == 2 ** 9
        assert exp_power("1/2").value(4) == 4       # 2^sqrt(4)
        assert exp_power("1/2").value(2) == 3       # ceil(2^1.414) frozen from oracle
        assert exp_power("3/2").value(2) == 8       # ceil(2^2.828)

    def test_value_sized_before_it_is_computed(self, monkeypatch):
        # (11/10)^n takes n (4 + 4) bits and 2^(n^(1/2)) takes ceil(n^(1/2)); an f(n)
        # over the budget is refused before it is computed, however large n is.
        with pytest.raises(ValueError, match=(
                r"^f\(1048576\) of poly_geometric is too large to compute: it needs 8388608 "
                r"bits, budget is 5000000 \(deficit 3388608\)$")):
            poly_geometric("1/10").value(1 << 20)
        with pytest.raises(ValueError, match=r"needs 55340232221128654848 bits"):   # 3 * 2^64
            geometric(1).value(1 << 64)
        with pytest.raises(ValueError, match=r"needs 1267650600228229401496703205376 bits"):
            exp_power("1/2").value(1 << 200)   # 2^100 bits
        # 2^10000 bits has 3,011 digits, stated as a power of two.
        with pytest.raises(ValueError, match=r"needs at least 2\^10000 bits, budget is 5000000$"):
            exp_power(10000).value(2)
        # 2^21 has the square root 1448.15...: 1449 bits, refused one bit below them.
        monkeypatch.setenv("GROWTHFORGE_BUDGET", "1449")
        assert exp_power("1/2").value(1 << 21).bit_length() == 1449
        assert exp_power("1/2").value(1 << 20) == 1 << 1024
        monkeypatch.setenv("GROWTHFORGE_BUDGET", "1448")
        with pytest.raises(ValueError, match=r"needs 1449 bits, budget is 1448 \(deficit 1\)"):
            exp_power("1/2").value(1 << 21)
        # A table value is stored, not computed.
        monkeypatch.setenv("GROWTHFORGE_BUDGET", "1")
        assert table_spec({1: 2, 2: 2 ** 100}).value(2) == 2 ** 100

    def test_table_uncovered(self):
        spec = table_spec({1: 2, 2: 4})
        assert spec.value(2) == 4
        with pytest.raises(UncoveredArgument):
            spec.value(3)

    def test_memo_observationally_equivalent(self):
        a = poly_geometric("1/10")
        b = poly_geometric("1/10")
        v1 = a.value(40)
        v2 = a.value(40)  # memo hit
        assert v1 == v2 == b.value(40)

    def test_describe_roundtrip(self):
        for spec in (POLY, geometric(1), exp_power("1/2"), table_spec({1: 2, 2: 4})):
            clone = spec_from_dict(spec.describe())
            assert clone == spec
            assert clone.value(2) == spec.value(2)


class TestRatio:
    def test_examples(self):
        assert geometric(1).ratio(1) == 4        # ceil(16/4)
        assert POLY.ratio(4) == 10               # ceil(676/74)
        assert POLY.ratio(6) == 892              # ceil(25437456/28531)

    def test_poly_dyadic_values(self):
        assert [POLY.value(1 << i) for i in range(8)] == [2, 3, 6, 18, 74, 676, 28531, 25437456]

    def test_ceiling_characterization(self):
        for spec in (POLY, geometric("1/2")):
            for i in range(6):
                r = spec.ratio(i)
                assert r >= 1
                assert r * spec.value(1 << i) >= spec.value(1 << (i + 1))
                assert (r - 1) * spec.value(1 << i) < spec.value(1 << (i + 1))


class TestBasic:
    def test_toy_table_ok(self):
        rep = check_basic(table_spec({1: 2, 2: 4, 4: 8, 8: 16}), 8)
        assert rep.monotone_ok and rep.submultiplicative_ok
        assert not rep.strictness_warnings

    def test_geometric_small_eps_plateau_warning(self):
        rep = check_basic(geometric("1/10"), 16)
        assert rep.monotone_ok  # plateaus downgrade to warnings
        assert rep.strictness_warnings[0][:2] == (1, 2)  # f(1) = f(2) = 2
        assert rep.submultiplicative_ok

    def test_geometric_eps1_all_ok(self):
        rep = check_basic(geometric(1), 32)
        assert rep.monotone_ok and rep.submultiplicative_ok and not rep.strictness_warnings

    def test_decreasing_table_hard_violation(self):
        rep = check_basic(table_spec({1: 4, 2: 2, 4: 8}), 4)
        assert not rep.monotone_ok
        assert rep.monotone_violation == (1, 4, 2, 2)


class TestRapidGrowth:
    def test_geometric_alpha_two(self):
        assert check_rapid_growth(geometric(1), 32).alpha == 2

    def test_linear_table_fails(self):
        values = {1 << i: 2 << i for i in range(11)}  # f(n) = 2n at dyadics
        rep = check_rapid_growth(table_spec(values), 1024, alpha_max=8)
        assert rep.alpha is None
        assert rep.best_failure is not None
        # Odd alphas have no dyadic point with alpha*n dyadic: vacuous, not witnesses.
        assert 3 in rep.vacuous and 2 not in rep.vacuous

    def test_poly_smallest_witness_is_three(self):
        # alpha = 2 fails: 3 f(3) = 12 > f(6) = 11 (exact oracle); alpha = 3 holds.
        rep = check_rapid_growth(POLY, 64)
        assert rep.alpha == 3
        assert any(a == 2 and n == 3 for a, n, _ in rep.failures)
        assert 3 * brute_poly(3) > brute_poly(6)


class TestCaptureConditions:
    def test_geometric_eps1_no_beta_threshold(self):
        rep = check_capture_conditions(geometric(1), [2], 10)
        assert rep.beta_table == [(Fraction(2), None)]
        # f(2^(n+1)) = f(2^n)^2 exactly: margin stays 1.
        assert all(m == 1 for _, m in rep.margins)

    def test_poly_beta100_threshold_eight(self):
        rep = check_capture_conditions(POLY, [100], 12)
        assert rep.beta_table == [(Fraction(100), 8)]
        margins = dict(rep.margins)
        assert margins[5] == Fraction(676 ** 2, 28531)          # 16.016...
        assert margins[6] == Fraction(28531 ** 2, 25437456)     # 32.0008...

    def test_poly_margin_tracks_half_powers(self):
        rep = check_capture_conditions(POLY, [2], 10)
        for n, margin in rep.margins:
            if n >= 4:
                assert Fraction(1 << (n - 1), 2) <= margin <= Fraction(1 << n)

    def test_geometric_margins_bounded(self):
        rep = check_capture_conditions(geometric("1/10"), [2], 10)
        for _, margin in rep.margins:
            assert Fraction(1, 2) <= margin <= 2

    def test_partial_product_value(self):
        rep = check_capture_conditions(POLY, [2], 12)
        # Six factors: (1+2/3)(1+1/2)(1+1/3)(1+18/74)(1+74/676)(1+676/28531).
        assert rep.product_partials[6] == Fraction(839701250, 178404343)
        assert abs(float(rep.product_partials[6]) - 4.7067) < 5e-3
        assert rep.product_tail_estimate is not None
        partials = rep.product_partials
        assert all(a <= b for a, b in zip(partials, partials[1:]))

    def test_tail_estimate_bounds_partials(self):
        rep = check_capture_conditions(POLY, [2], 12)
        assert rep.product_tail_estimate >= rep.product_partials[-1]

    def test_ceiling_slack_below_product(self):
        # Each factor ceil(rho)/rho is at most 1 + 1/rho = 1 + f(2^n)/f(2^(n+1)),
        # so the slack partials are bounded by the convergence partials.
        rep = check_capture_conditions(POLY, [2], 12)
        for slack, prod in zip(rep.ceiling_slack_partials, rep.product_partials):
            assert 1 <= slack <= prod


class TestComputeMu:
    def test_poly_witnesses(self):
        assert compute_mu(POLY, 2, 0, 12) == 4
        assert compute_mu(POLY, 0, 0, 12) == 1

    def test_geometric_eps1_fails_everywhere(self):
        for t in range(5):
            with pytest.raises(HorizonTooSmall):
                compute_mu(geometric(1), t, 0, 12)

    def test_monotone_in_offset(self):
        values = [compute_mu(POLY, 2, off, 14) for off in range(4)]
        assert values == sorted(values)
        assert all(values[k] > 2 + k for k in range(4))

    def test_horizon_exhausted(self):
        with pytest.raises(HorizonTooSmall):
            compute_mu(POLY, 3, 0, 3)


def test_verify_hypotheses_aggregate():
    rep = verify_hypotheses(POLY, 12)
    assert rep.all_pass
    assert dict(rep.mu_table)[2] == 4

    rep2 = verify_hypotheses(geometric(1), 10)
    assert not rep2.all_pass
    v = rep2.verdicts()
    assert v["capture_beta"] == "fail" and v["mu_exists"] == "fail"
    assert v["rapid_growth"] == "pass"
