"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Shared fixtures keep the expensive depth-7 build and its dimension series
computed once per session.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import member_rows, member_words

from growthforge import analyzer, persist
from growthforge.analyzer import (
    FactorEngine,
    check_growth_sandwich,
    check_nonperiodicity,
    factor_set_bruteforce,
    verify_recurrence_gaps,
)
from growthforge.cli import main
from growthforge.construction import build_plain, build_uniformly_recurrent
from growthforge.errors import HorizonTooSmall
from growthforge.freesub import (
    compute_t,
    degree_lower_bound,
    optimality_report,
    verify_free_generators,
)
from growthforge.growth import compute_mu, geometric, poly_geometric, table_spec

from conftest import factor_words


def _verdict(num: int, title: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {title}")
    assert ok, f"criterion {num} failed: {title}"


# 1 ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence(toy_system, poly_plain5):
    ok = True
    toy, poly = FactorEngine(toy_system), FactorEngine(poly_plain5)
    for n in range(1, 5):
        ok &= factor_words(toy, n) == factor_set_bruteforce(toy_system, n)
    for n in range(1, 17):
        ok &= factor_words(poly, n) == factor_set_bruteforce(poly_plain5, n)
    _verdict(1, "structural factor sets equal brute force (toy depth 3, poly depth 5)", ok)


# 2 ---------------------------------------------------------------------------


def test_criterion_2_counting_identities(toy_system, captured4, captured7, free_system_eps1):
    ok = True
    # Full expansion at depth <= 4: counts match d * prod r_j and words are distinct.
    # A level's words are the member words of the level below, each followed
    # by every word of that level, in ref order; `expand` is checked on a sample.
    for system in (toy_system, captured4, free_system_eps1[0]):
        members, words = member_words(system), list(system.alphabet.letters)
        for level in range(system.depth + 1):
            if level:
                words = [m + w for m in members[level - 1] for w in words]
            expected = system.alphabet.size
            for j in range(level):
                expected *= len(system.csets[j])
            ok &= len(words) == system.level_word_count(level) == expected
            ok &= len(set(words)) == len(words)
            total = len(words)
            for rank in {*range(0, total, max(1, total // 16)), total - 1}:
                ok &= system.expand(system.ref_from_rank(level, rank)) == words[rank]
    # Choice-set sizes equal the ceiled ratios at every level of every build.
    for system in (toy_system, captured4, captured7, free_system_eps1[0]):
        for level, cs in enumerate(system.csets):
            ok &= len(cs) == system.spec.ratio(level)
    _verdict(2, "level word counts and choice-set sizes are exact", ok)


# 3 ---------------------------------------------------------------------------


def test_criterion_3_growth_sandwich(captured7):
    ok = True
    soft_results = {}
    for n in range(1, 6):
        rep = check_growth_sandwich(captured7, n)
        ok &= rep.hard_ok
        soft_results[n] = rep.soft_ok
        if n <= 4:
            ok &= rep.soft_ok
    print(f"  soft lower-bound comparison: {soft_results}")
    _verdict(3, "dyadic dims within [prod r_i, 2^(2n+3) f(2^(n+1))] for n=1..5", ok)


# 4 ---------------------------------------------------------------------------


def test_criterion_4_capture_correctness(captured7):
    ok = len(captured7.capture_log) >= 2
    for entry in captured7.capture_log:
        cs = captured7.csets[entry.capture_level]
        for row in member_rows(cs):
            ok &= entry.target_word in captured7.expand(row)
    report = verify_recurrence_gaps(captured7)
    ok &= report.passed
    for entry in report.entries:
        ok &= entry.violations == 0
        print(f"  target {entry.target_word!r}: max gap {entry.max_gap} <= {entry.gap_bound}, "
              f"{entry.elements_scanned} elements scanned")
    _verdict(4, "captured targets occur in every choice-set member and recur within bounds", ok)


# 5 ---------------------------------------------------------------------------


def test_criterion_5_mu_witnesses():
    ok = compute_mu(poly_geometric("1/10"), 2, 0, 12) == 4
    for t in range(6):
        try:
            compute_mu(geometric(1), t, 0, 12)
            ok = False
        except HorizonTooSmall:
            pass
    _verdict(5, "mu(2)=4 for poly_geometric(0.1); mu fails at every t for geometric(1)", ok)


# 6 ---------------------------------------------------------------------------


def test_criterion_6_aperiodicity_and_minimality(captured7):
    ap = check_nonperiodicity(captured7, 32)
    rec = verify_recurrence_gaps(captured7)
    ok = ap.passed and rec.passed
    _verdict(6, "p(n) >= n+1 for n <= 32 and recurrence holds on the captured system", ok)


# 7 ---------------------------------------------------------------------------


def test_criterion_7_entropy_band(captured7, captured7_dims):
    h = {n: captured7_dims.rows[n - 1].entropy_partial for n in (8, 16, 32, 64)}
    band = analyzer.entropy_report(captured7, captured7_dims).power_band
    print(f"  h(2^k) for k=3..6: {[f'{float(h[n]):.4f}' for n in (8, 16, 32, 64)]}; "
          f"band [sqrt(1.1), 1.21] = [{float(band[0]):.4f}, {float(band[1]):.4f}]")
    ok = Fraction(1) <= h[64] <= Fraction(14, 10)
    _verdict(7, "entropy partial h(64) lies in [1.0, 1.4]", ok)


# 8 ---------------------------------------------------------------------------


def test_criterion_8_free_subalgebra(free_system_eps1):
    system, params = free_system_eps1
    ok = compute_t(1) == 1
    report = verify_free_generators(system, params, 4)
    ok &= report.passed and report.products_checked == 30
    ok &= report.capacity_checks == [(2, 4, 16), (3, 16, 256)]
    hand = {Fraction(1, 10): 7.2725, Fraction(1, 2): 1.7095, Fraction(1): 1.0}
    for eps, expected in hand.items():
        bound = degree_lower_bound(eps, tol=Fraction(1, 10 ** 8))
        ok &= abs(float(bound) - expected) <= 1e-3
        ok &= optimality_report(eps).in_band
    _verdict(8, "free generators certified at eps=1 depth 4; bounds and ratios match", ok)


# 9 ---------------------------------------------------------------------------


def _strip_timestamp(path: Path) -> str:
    doc = json.loads(path.read_text())
    doc.pop("generated_at", None)
    return json.dumps(doc, sort_keys=True)


def test_criterion_9_determinism(tmp_path, monkeypatch):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[growth]\nfamily = poly_geometric\nepsilon = 1/10\nhorizon = 12\n"
        "[build]\nmode = recurrent\ndepth = 5\ncaptures = 2\nmu_offset = 0\n"
        "chooser = lex\nseed = 0\n"
        "[analyze]\nnmax = 8\nforbidden_max = 5\n")
    outputs = []
    # Identical configs including relative output paths; only the working
    # directory differs between the two runs.
    for run in ("one", "two"):
        base = tmp_path / run
        base.mkdir()
        monkeypatch.chdir(base)
        assert main(["validate", "--config", str(cfg), "--out", "val.json"]) == 0
        assert main(["build", "--config", str(cfg), "--out", "sys.json"]) == 0
        assert main(["analyze", "sys.json", "--config", str(cfg),
                     "--out", "an.json", "--csv", "dims.csv"]) == 0
        outputs.append(base)
    one, two = outputs
    ok = (one / "sys.json").read_bytes() == (two / "sys.json").read_bytes()
    ok &= (one / "dims.csv").read_bytes() == (two / "dims.csv").read_bytes()
    ok &= _strip_timestamp(one / "an.json") == _strip_timestamp(two / "an.json")
    ok &= _strip_timestamp(one / "val.json") == _strip_timestamp(two / "val.json")
    _verdict(9, "two identical runs produce byte-identical systems and reports", ok)


# 10 --------------------------------------------------------------------------


def _chunk_property_holds(system) -> bool:
    """Aligned block pairs of W(2^m) elements lie in C(2^n)W(2^n) or W(2^n)C(2^n)."""
    w_strings = {
        level: {system.expand(ref) for ref in system.iter_refs(level)}
        for level in range(system.depth + 1)
    }
    for m in range(1, system.depth + 1):
        for ref in system.iter_refs(m):
            u = system.expand(ref)
            for n in range(0, m):
                size = 1 << n
                blocks = [u[i:i + size] for i in range(0, len(u), size)]
                c_strings = {system.expand(row) for row in member_rows(system.csets[n])}
                for left, right in zip(blocks, blocks[1:]):
                    in_cw = left in c_strings and right in w_strings[n]
                    in_wc = left in w_strings[n] and right in c_strings
                    if not (in_cw or in_wc):
                        return False
    return True


def test_criterion_10_invariant_suite(toy_system, captured4):
    ok = True
    for system in (toy_system, captured4):
        engine = FactorEngine(system)
        n_top = 1 << (system.depth - 1)
        sets = {n: factor_words(engine, n) for n in range(1, n_top + 1)}
        # Factorial closedness.
        for n in range(2, n_top + 1):
            for w in sets[n]:
                ok &= w[:-1] in sets[n - 1] and w[1:] in sets[n - 1]
        # Submultiplicativity of dims.
        dims = {n: len(sets[n]) for n in sets}
        for n in range(1, n_top + 1):
            for m in range(1, n_top - n + 1):
                ok &= dims[n + m] <= dims[n] * dims[m]
        # Chunk property at depth <= 4.
        ok &= _chunk_property_holds(system)
    # Depth monotonicity: same configuration one level deeper.
    toy_deeper = build_plain(table_spec({1: 2, 2: 4, 4: 8, 8: 16, 16: 32}), "lex", 4)
    cap_deeper = build_uniformly_recurrent(
        poly_geometric("1/10"), depth=5, capture_budget=2, mu_offset=0, horizon=12)
    for shallow, deeper in ((toy_system, toy_deeper), (captured4, cap_deeper)):
        shallow, deeper = FactorEngine(shallow), FactorEngine(deeper)
        for n in range(1, (1 << (shallow.depth - 1)) + 1):
            ok &= factor_words(shallow, n) <= factor_words(deeper, n)
    _verdict(10, "factorial closedness, submultiplicativity, depth monotonicity, chunk property", ok)
