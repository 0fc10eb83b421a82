import dataclasses
from fractions import Fraction
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from growthforge.errors import BudgetExceeded, DepthTooShallow
from growthforge import analyzer, codes, persist
from growthforge.analyzer import (
    FactorEngine,
    check_growth_sandwich,
    check_nonperiodicity,
    dim_series,
    entropy_partial,
    factor_set_bruteforce,
    minimal_forbidden_words,
    PAIR_SIDE,
    scan_occurrences,
    verify_recurrence_gaps,
    _concat,
    _member_summaries,
    _summary,
)
from growthforge.construction import (
    CHUNK_ROWS, CaptureEntry, LevelSystem, _fold_members, build_plain,
    build_uniformly_recurrent,
)
from growthforge.growth import exp_power, poly_geometric, table_spec

from conftest import code_ints, encoded, factor_words, member_words


@pytest.fixture(scope="module")
def long_members_d3():
    """d = 3 at depth 14: level-13 members hold 8192 letters."""
    values = {1: 3, 2: 6, 4: 12, 8: 12, 16: 24, 32: 24, 64: 24}
    values.update({1 << k: 48 for k in range(7, 15)})
    return build_plain(table_spec(values), "seeded", 14, seed=5)


WIDE_CASES = [
    # d = 2, depth 8: n = 65..128 have codes wider than 64 bits.
    ({1: 2, 2: 4, 4: 8, 8: 8, 16: 16, 32: 16, 64: 16, 128: 32, 256: 32}, 8,
     (65, 66, 97, 128)),
    # d = 3, depth 7: 3^41 > 2^64.
    ({1: 3, 2: 6, 4: 12, 8: 12, 16: 24, 32: 24, 64: 24, 128: 48}, 7,
     (41, 42, 64)),
]


def wide_system(values: dict, depth: int):
    # Seeded, so that member codes are not the all-'a' words of lex.
    return build_plain(table_spec(values), "seeded", depth, seed=5)


class TestFactorSets:
    def test_window_totals_summed_once(self, poly_spec, monkeypatch):
        # The budget check and the counts share one sum over each n's
        # straddles; counting walks them once more to fill its parts (n = 1
        # has none: its one block is the letters).
        walked = []
        straddles = FactorEngine._straddles
        monkeypatch.setattr(FactorEngine, "_straddles",
                            lambda self, n: walked.append(n) or straddles(self, n))
        system = build_uniformly_recurrent(poly_spec, depth=5, capture_budget=2, horizon=12)
        analyzer.check_window_budget(system, 16)
        engine = analyzer._engine_for(system)
        assert sorted(walked) == list(range(2, 17))
        # Every n here fits one part, which the plan sizes as all its codes.
        assert [sum(engine._parts(n, lambda codes, _: len(codes))) for n in range(2, 17)] == [
            engine._plans[n][2] for n in range(2, 17)]
        assert sorted(walked) == sorted([*range(2, 17), *range(2, 17)])

    def test_toy_small_n(self, toy_system):
        assert factor_set_bruteforce(toy_system, 1) == frozenset("ab")
        assert factor_words(FactorEngine(toy_system), 1) == frozenset("ab")
        f2 = factor_set_bruteforce(toy_system, 2)
        assert f2 == frozenset({"aa", "ab", "ba", "bb"})
        f3 = factor_set_bruteforce(toy_system, 3)
        assert len(f3) == 8

    def test_structural_equals_bruteforce_toy(self, toy_system):
        engine = FactorEngine(toy_system)
        for n in range(1, 5):
            assert factor_words(engine, n) == factor_set_bruteforce(toy_system, n)

    def test_structural_equals_bruteforce_captured(self, captured4):
        engine = FactorEngine(captured4)
        for n in range(1, 9):
            assert factor_words(engine, n) == factor_set_bruteforce(captured4, n)

    def test_structural_equals_bruteforce_seeded_and_exp_power(self):
        from growthforge.construction import build_uniformly_recurrent
        from growthforge.growth import exp_power, poly_geometric
        seeded = build_uniformly_recurrent(poly_geometric("1/10"), depth=4,
                                           capture_budget=2, chooser="seeded",
                                           seed=11, horizon=12)
        rooted = build_uniformly_recurrent(exp_power("1/2"), depth=5,
                                           capture_budget=2, horizon=12)
        for system, top in ((seeded, 8), (rooted, 16)):
            engine = FactorEngine(system)
            for n in range(1, top + 1):
                assert factor_words(engine, n) == factor_set_bruteforce(system, n)
            assert verify_recurrence_gaps(system).passed

    def test_python_and_numpy_paths_agree(self, captured4):
        # count() and distinct() read the same sorted uint64 window codes
        # here (d^n <= 2^64); both must match the brute-force oracle.
        engine = FactorEngine(captured4)
        for n in range(1, 9):
            oracle = factor_set_bruteforce(captured4, n)
            assert engine.count(n) == len(oracle)
            assert factor_words(engine, n) == oracle

    def test_depth_cap(self, toy_system):
        with pytest.raises(DepthTooShallow):
            FactorEngine(toy_system).distinct(5)  # > 2^(D-1) = 4

    def test_budget(self, captured7):
        with pytest.raises(BudgetExceeded):
            factor_set_bruteforce(captured7, 4, budget=1000)

    def test_budget_env_var(self, toy_system, monkeypatch):
        monkeypatch.setenv("GROWTHFORGE_BUDGET", "10")
        with pytest.raises(BudgetExceeded):
            factor_set_bruteforce(toy_system, 2)
        monkeypatch.setenv("GROWTHFORGE_BUDGET", "100000")
        assert len(factor_set_bruteforce(toy_system, 2)) == 4

    @pytest.mark.parametrize("raw", ["abc", "1e6", "0", "-5"])
    def test_budget_env_var_rejects_bad_values(self, toy_system, monkeypatch, raw):
        monkeypatch.setenv("GROWTHFORGE_BUDGET", raw)
        with pytest.raises(ValueError, match="GROWTHFORGE_BUDGET"):
            factor_set_bruteforce(toy_system, 2)

    @pytest.mark.parametrize("values, depth, lengths", WIDE_CASES)
    def test_wide_codes_match_bruteforce(self, values, depth, lengths):
        system = wide_system(values, depth)
        engine = FactorEngine(system)
        for n in lengths:
            assert system.alphabet.size ** n > 1 << 64
            oracle = factor_set_bruteforce(system, n)
            assert engine.count(n) == len(oracle)
            assert factor_words(engine, n) == oracle
            assert all(engine.contains(w) for w in oracle)

    def test_long_members_d3(self, long_members_d3):
        # Level-13 members hold more base-3 digits than Python's
        # int-from-string limit of 4300.
        system = long_members_d3
        assert len(system.expand(system.csets[13].rows(0, 1)[0].tolist())) == 8192
        engine = FactorEngine(system)
        for n in (5, 64):
            oracle = factor_set_bruteforce(system, n)
            assert engine.count(n) == len(oracle)
            assert factor_words(engine, n) == oracle
        words = [system.expand(ref) for j in (13, 14) for ref in system.iter_refs(j)]
        letters = system.alphabet.letters
        rejected = 0
        for start in (0, 777, 8000):
            w = words[-1][start:start + 4400]
            assert engine.contains(w)
            for z in letters:
                present = any(w + z in x for x in words)
                assert engine.contains(w + z) == present
                rejected += not present
        assert rejected > 0

    def test_encode_decode_roundtrip(self, captured4):
        eng = FactorEngine(captured4)
        for word in ("a", "ab", "abba", "babbab"):
            assert eng.decode(encoded(eng, [word]), len(word)) == [word]


PART_SYSTEMS = {
    "wide_d2": lambda request: (wide_system(*WIDE_CASES[0][:2]), WIDE_CASES[0][2]),
    "wide_d3": lambda request: (wide_system(*WIDE_CASES[1][:2]), WIDE_CASES[1][2]),
    "captured4": lambda request: (request.getfixturevalue("captured4"), range(1, 9)),
    "captured7": lambda request: (request.getfixturevalue("captured7"), (8, 16, 20)),
    "seeded": lambda request: (build_uniformly_recurrent(
        poly_geometric("1/10"), depth=4, capture_budget=2, chooser="seeded", seed=11,
        horizon=12), range(1, 9)),
    "exp_power": lambda request: (build_uniformly_recurrent(
        exp_power("1/2"), depth=5, capture_budget=2, horizon=12), range(1, 17)),
}


@pytest.mark.parametrize("part_bytes", [64, 256])
@pytest.mark.parametrize("name", sorted(PART_SYSTEMS))
def test_parts_match_one_part(request, monkeypatch, name, part_bytes):
    # Parts of one to a few dozen codes, cut at samples of every code or
    # every few: the counts and the distinct codes must not depend on the cuts.
    system, lengths = PART_SYSTEMS[name](request)
    whole = FactorEngine(system)
    expected = {n: (whole.count(n), code_ints(whole.distinct(n))) for n in lengths}
    monkeypatch.setattr(codes, "PART_BYTES", part_bytes)
    engine = FactorEngine(system)
    for n in lengths:
        assert engine.count(n) == expected[n][0]
        assert code_ints(engine.distinct(n)) == expected[n][1]
        if name != "captured7":     # too large for the oracle
            assert expected[n][0] == len(factor_set_bruteforce(system, n))
    assert len(engine._parts(max(lengths), lambda codes, new: None)) > 1


@pytest.mark.parametrize("budget, what, needed, unit", [
    (560, "prefix product (6, 64) with the tables held", 572, "8-byte words"),
    (640, "factor length 65 part (129 window codes)", 645, "8-byte sort words"),
    (690, "factor length 65 samples (140 window codes)", 700, "8-byte sort words"),
])
def test_each_size_refused_over_budget(monkeypatch, budget, what, needed, unit):
    # The d = 2 wide system with parts of 64 bytes: the tables held after
    # n = 64 (556 words), then n = 65's tables, its largest part and its
    # samples each pass the budget that refuses the next.
    monkeypatch.setattr(codes, "PART_BYTES", 64)
    monkeypatch.setenv("GROWTHFORGE_BUDGET", str(budget))
    engine = FactorEngine(wide_system(*WIDE_CASES[0][:2]))
    for n in range(1, 65):
        engine._plan(n)
    with pytest.raises(BudgetExceeded) as info:
        engine._plan(65)
    assert str(info.value) == f"{what} needs {needed} {unit}, budget is {budget} (deficit {needed - budget})"


@st.composite
def limb_boundary_systems(draw):
    """A seeded table_spec system over d = 2, 3 or 5 letters (1, 2 or 3 bits each).

    Its depth certifies lengths just past 128/bits; the ratios are 1 or 2,
    with at most eight-fold growth in all, so the oracle stays small.
    """
    d = draw(st.sampled_from([2, 3, 5]))
    bits = (d - 1).bit_length()
    depth = (128 // bits).bit_length() + 1
    values, v = {1: d}, d
    for i in range(depth):
        v *= draw(st.integers(1, 2)) if v < 8 * d else 1
        values[1 << (i + 1)] = v
    system = build_plain(table_spec(values), "seeded", depth, seed=draw(st.integers(0, 2 ** 16)))
    return system, bits


@given(limb_boundary_systems())
@settings(max_examples=12, deadline=None)
def test_limb_boundaries_match_bruteforce(system_bits):
    # n on both sides of 64/bits and 128/bits letters: one, two and three limbs.
    system, bits = system_bits
    engine = FactorEngine(system)
    letters = system.alphabet.letters
    for n in (64 // bits, 64 // bits + 1, 128 // bits, 128 // bits + 1):
        oracle = sorted(factor_set_bruteforce(system, n))
        assert engine.count(n) == len(oracle)
        assert engine.decode(engine.distinct(n), n) == oracle   # code order is string order
        sample = oracle[::max(1, len(oracle) // 8)]
        assert all(engine.contains(w) for w in sample)
        absent = {w[1:] + z for w in sample for z in letters} - set(oracle)
        assert not any(engine.contains(w) for w in absent)


@pytest.mark.parametrize("name, n", [("captured7", 64), ("long_members_d3", 64)])
def test_code_arrays_are_uint64(request, name, n):
    # Wide codes are uint64 limb rows: no table, member or part array
    # holds Python ints.
    engine = FactorEngine(request.getfixturevalue(name))
    for m in range(n - 2, n + 1):
        engine.count(m)
    parts = engine._parts(n, lambda codes, _: codes.copy())
    arrays = [*engine._members, *engine._tables.values(), *engine._prefixes.values(), *parts]
    assert all(a.dtype == np.uint64 for a in arrays)
    if name == "long_members_d3":
        assert parts[0].shape[1] == 2 and engine._members[13].shape[1] == 256


class TestContains:
    # The free eps = 1 system holds every binary word, so it rejects nothing;
    # its brute-force expansion is slow, so only the top length is checked.
    @pytest.mark.parametrize("name, lengths, rejects", [
        ("captured4", range(2, 9), True),
        ("free_system_eps1", (8,), False),
    ])
    def test_matches_bruteforce(self, request, name, lengths, rejects):
        system = request.getfixturevalue(name)
        system = system[0] if isinstance(system, tuple) else system
        engine = FactorEngine(system)
        letters = system.alphabet.letters
        assert all(engine.contains(z) for z in letters)
        rejected = 0
        for n in lengths:
            prev = factor_set_bruteforce(system, n - 1)
            cur = factor_set_bruteforce(system, n)
            assert all(engine.contains(w) for w in cur)
            for w in prev:
                for z in letters:
                    if w + z not in cur:
                        assert not engine.contains(w + z)
                        rejected += 1
        assert (rejected > 0) == rejects

    def test_foreign_letter_and_depth(self, captured4):
        engine = FactorEngine(captured4)
        assert not engine.contains("az")
        with pytest.raises(DepthTooShallow):
            engine.contains("a" * 9)


class TestConsecutiveDims:
    # |F(n+1)| = sum over w in F(n) of its right extensions: Cassaigne's
    # identity without assuming every factor extends to the right.
    @pytest.mark.parametrize("name, n_top", [("captured4", 7), ("captured7", 16)])
    def test_dims_count_right_extensions(self, request, name, n_top):
        system = request.getfixturevalue(name)
        engine = FactorEngine(system)
        letters = system.alphabet.letters
        for n in range(1, n_top + 1):
            extensions = sum(engine.contains(w + z) for w in factor_words(engine, n)
                             for z in letters)
            assert engine.count(n + 1) == extensions


class TestDimSeries:
    def test_toy_dims(self, toy_system):
        rep = dim_series(toy_system, 3)
        assert [r.dim for r in rep.rows] == [2, 4, 8]
        assert [r.cumulative for r in rep.rows] == [2, 6, 14]
        assert rep.rows[0].entropy_str == "2.000000"  # g(1)^(1/1) = dim_1

    def test_submultiplicative(self, captured4):
        rep = dim_series(captured4, 8)
        assert rep.submultiplicative_violations() == []

    def test_factorial_closedness(self, captured4):
        engine = FactorEngine(captured4)
        prev = factor_words(engine, 1)
        for n in range(2, 9):
            cur = factor_words(engine, n)
            for w in cur:
                assert w[:-1] in prev and w[1:] in prev
            prev = cur

    def test_csv_shape(self, toy_system):
        csv = dim_series(toy_system, 3).to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "n,dim,cumulative,entropy_partial,depth"
        assert lines[1] == "1,2,2,2.000000,3"
        assert lines[2].startswith("2,4,6,")
        assert lines[3].startswith("3,8,14,")


class TestSandwich:
    def test_toy_level1(self, toy_system):
        rep = check_growth_sandwich(toy_system, 1)
        assert rep.dim == 4 and rep.hard_lower == 2
        assert rep.hard_upper == (1 << 5) * 8
        assert rep.hard_ok and rep.soft_ok

    def test_out_of_range(self, toy_system):
        with pytest.raises(DepthTooShallow):
            check_growth_sandwich(toy_system, 3)

    def test_captured_depth7(self, captured7):
        for n in range(1, 6):
            rep = check_growth_sandwich(captured7, n)
            assert rep.hard_ok, rep.to_dict()
        rep5 = check_growth_sandwich(captured7, 5)
        assert rep5.hard_lower == 600
        assert rep5.hard_upper == (1 << 13) * 28531


class TestRecurrence:
    def test_scan_occurrences(self):
        assert scan_occurrences("abab", "ab") == [0, 2]
        assert scan_occurrences("aaaa", "aa") == [0, 1, 2]
        assert scan_occurrences("abbb", "a") == [0]
        assert scan_occurrences("bbbb", "a") == []

    def test_toy_synthetic_capture(self, toy_system):
        # Toy C(2) = {aa, ab}: every member contains "a", so gaps of "a" in
        # all longer elements stay within 4.
        toy_system.capture_log = [CaptureEntry(
            target_level=0, target_choices=(0,), target_word="a",
            capture_level=1, gap_bound=4, m_before=-1,
            filled_levels=[], retries=[])]
        try:
            rep = verify_recurrence_gaps(toy_system)
            entry = rep.entries[0]
            assert entry.passed
            assert entry.max_gap <= 4 and entry.max_first_occurrence <= 4
            assert entry.max_tail <= 4
        finally:
            toy_system.capture_log = []

    def test_empty_log(self, poly_plain5):
        rep = verify_recurrence_gaps(poly_plain5)
        assert rep.entries == [] and rep.passed

    def test_captured7_zero_violations(self, captured7):
        rep = verify_recurrence_gaps(captured7)
        assert rep.passed and "exhaustive" in rep.certification
        for entry in rep.entries:
            c, p = entry.gap_bound, len(entry.target_word)
            # The window form: every length-c window holds the target.
            assert entry.max_first_occurrence <= c - p
            assert entry.max_gap <= c - p + 1
            assert entry.max_tail <= c
            assert entry.elements_scanned == sum(
                captured7.level_word_count(m)
                for m in range(entry.capture_level + 1, captured7.depth + 1))

    def test_violation_detected_on_fake_bound(self, captured7):
        # Shrinking the recorded bound must produce violations: the scan is
        # not vacuous.
        entry = captured7.capture_log[1]
        original = entry.gap_bound
        entry.gap_bound = 1
        try:
            rep = verify_recurrence_gaps(captured7)
            assert not rep.entries[1].passed
        finally:
            entry.gap_bound = original


def window_oracle(system) -> list[tuple[int, int, int, int, int]]:
    """(max first, max gap, max tail, elements, violations) per capture, by brute force.

    Expands every element of every level above the capture level and checks
    every length-c window; a word without the target counts first = tail = |u|.
    """
    out = []
    for log in system.capture_log:
        w, c = log.target_word, log.gap_bound
        firsts, gaps, tails = [0], [0], [0]
        scanned = violations = 0
        for m in range(log.capture_level + 1, system.depth + 1):
            for ref in system.iter_refs(m):
                u = system.expand(ref)
                occ = [i for i in range(len(u)) if u.startswith(w, i)]
                scanned += 1
                firsts.append(occ[0] if occ else len(u))
                tails.append(len(u) - occ[-1] if occ else len(u))
                gaps.extend(b - a for a, b in zip(occ, occ[1:]))
                violations += any(w not in u[s:s + c] for s in range(len(u) - c + 1))
        out.append((max(firsts), max(gaps), max(tails), scanned, violations))
    return out


def summary_route(system) -> list[tuple[int, int, int, int, int]]:
    return [(e.max_first_occurrence, e.max_gap, e.max_tail, e.elements_scanned, e.violations)
            for e in verify_recurrence_gaps(system).entries]


class TestRecurrenceOracle:
    @pytest.mark.parametrize("shrink", [0, 1, 2])
    @pytest.mark.parametrize("build", [
        lambda: build_uniformly_recurrent(poly_geometric("1/10"), depth=4, capture_budget=2,
                                          horizon=12),
        lambda: build_uniformly_recurrent(poly_geometric("1/10"), depth=5, capture_budget=4,
                                          horizon=12),
        lambda: build_uniformly_recurrent(poly_geometric("1/10"), depth=4, capture_budget=2,
                                          chooser="seeded", seed=11, horizon=12),
        lambda: build_uniformly_recurrent(exp_power("1/2"), depth=5, capture_budget=2,
                                          horizon=12),
    ], ids=["captured4", "depth5-4-captures", "seeded", "exp_power"])
    def test_built_systems_match_window_oracle(self, build, shrink):
        system = build()
        system.capture_log = [dataclasses.replace(e, gap_bound=max(1, e.gap_bound >> shrink))
                              for e in system.capture_log]
        assert summary_route(system) == window_oracle(system)
        if shrink:
            # Shrunk bounds must be caught: the certificate is not vacuous.
            assert any(e.violations for e in verify_recurrence_gaps(system).entries)

    def test_captured4_exact_values(self, captured4):
        # Targets a (c = 4) and b (c = 8) over levels 2..4 and 3..4.
        assert summary_route(captured4) == [(1, 4, 3, 152, 0), (3, 8, 5, 144, 0)]


def draw_table(draw, depth):
    """A table_spec over d = 2 or 3 letters whose ratios 1-3 every level can fill."""
    d = draw(st.sampled_from([2, 3]))
    values, v, capacity = {1: d}, d, d
    for i in range(depth):
        r = min(draw(st.integers(1, 3)), capacity)
        v, capacity = v * r, capacity * r
        values[1 << (i + 1)] = v
    return table_spec(values)


@st.composite
def capture_systems(draw):
    """A small table_spec system (d = 2 or 3) carrying hand-set capture entries."""
    depth = draw(st.integers(2, 5))
    system = build_plain(draw_table(draw, depth), draw(st.sampled_from(["lex", "seeded"])),
                         depth, seed=draw(st.integers(0, 2 ** 16)))
    letters = system.alphabet.letters
    system.capture_log = [
        CaptureEntry(target_level=0, target_choices=(0,),
                     target_word=draw(st.text(alphabet=letters, min_size=1, max_size=5)),
                     capture_level=draw(st.integers(0, min(3, depth - 1))),
                     gap_bound=draw(st.integers(1, 20)), m_before=-1,
                     filled_levels=[], retries=[])
        for _ in range(draw(st.integers(1, 3)))]
    return system


@given(capture_systems())
@settings(max_examples=60, deadline=None)
def test_summaries_match_window_oracle(system):
    # Targets up to 5 letters from capture level 0 reach levels where
    # 2^m < |w| - 1. Bounds 1..20 include some below |w|, where every window
    # fails, and some above |u|, where an element has no window to check.
    assert summary_route(system) == window_oracle(system)


# -- folds over member references ---------------------------------------------------


def assert_folds_match_strings(system, words):
    """Member codes and occurrence summaries folded from choice rows equal the strings' ones."""
    d = system.alphabet.size
    engine = FactorEngine(system)
    bits = engine.bits
    strings = member_words(system)
    # Distinct members, hence distinct elements: what choose_cset relies on.
    assert all(len(set(level)) == len(level) for level in strings)
    codes = [[engine.encode(s) for s in level] for level in strings]
    folded = _fold_members(system, np.arange(d, dtype=object),
                           lambda head, tail, l: head << (bits << (l - 1)) | tail)
    assert [level.tolist() for level in folded] == codes
    # The engine's whole-member tables come from its own fold.
    assert [code_ints(engine.suffixes(j, 1 << j)) for j in range(system.depth)] == [
        sorted(level) for level in codes]
    for w in words:
        table, ids = _member_summaries(system, w)
        folded = [[table[i] for i in level.tolist()] for level in ids]
        assert folded == [[_summary(s, w) for s in level] for level in strings]


@st.composite
def fold_systems(draw):
    """A table_spec system (d = 2 or 3, depth 2-6) and target words.

    With captures, some levels take a lower-level element as the common
    suffix of all their members, as a capture does, and that element is a
    target; one arbitrary word of 1-4 letters is always a target.
    """
    depth = draw(st.integers(2, 6))
    system = LevelSystem(draw_table(draw, depth), draw(st.sampled_from(["lex", "seeded"])),
                         seed=draw(st.integers(0, 2 ** 16)))
    captures = draw(st.booleans())
    targets = [draw(st.text(alphabet=system.alphabet.letters, min_size=1, max_size=4))]
    for level in range(depth):
        suffix = None
        if captures and level:
            t = draw(st.integers(0, level - 1))
            ref = system.ref_from_rank(t, draw(st.integers(0, system.level_word_count(t) - 1)))
            if prod(system.radices(level, ref)) >= system.spec.ratio(level):
                suffix = ref
                targets.append(system.expand(ref))
        system.choose_cset(level, suffix=suffix)
    return system, targets


@given(fold_systems())
@settings(max_examples=60, deadline=None)
def test_fold_matches_member_strings(system_targets):
    assert_folds_match_strings(*system_targets)


def unique_member_summaries(system, word):
    """The summary fold with every step deduped by np.unique: the table, the
    per-level ids and each step's (table width, key count)."""
    table, ids, joined, steps = [], {}, {}, []

    def intern(summary):
        if summary not in ids:
            ids[summary] = len(table)
            table.append(summary)
        return ids[summary]

    def join(head, rest, _level):
        width = len(table)
        steps.append((width, len(head)))
        keys, inverse = np.unique(head * width + rest, return_inverse=True)
        out = []
        for key in keys.tolist():
            pair = divmod(key, width)
            if pair not in joined:
                joined[pair] = intern(_concat(table[pair[0]], table[pair[1]], word))
            out.append(joined[pair])
        return np.array(out, dtype=np.int64)[inverse]

    leaves = np.array([intern(_summary(ch, word)) for ch in system.alphabet.letters])
    return table, _fold_members(system, leaves, join), steps


class TestFold:
    def test_dense_and_unique_dedupe_agree(self):
        # The d8 system's 26,344-member top level folds in chunks of CHUNK_ROWS
        # rows. While the summary table has at most PAIR_SIDE entries, a step
        # reads the dense pair table kept across the fold; the multi-letter
        # "abba" grows the table past that, and its later steps take np.unique.
        system = build_uniformly_recurrent(poly_geometric("1/13"), depth=8, capture_budget=2,
                                           horizon=12)
        dense = {}
        for word in ["a", "b", "bab", "abba"]:
            table, ids = _member_summaries(system, word)
            expected_table, expected_ids, steps = unique_member_summaries(system, word)
            assert table == expected_table
            assert [level.tolist() for level in ids] == [level.tolist() for level in expected_ids]
            assert any(keys == CHUNK_ROWS for _, keys in steps)
            dense[word] = {width <= PAIR_SIDE for width, _ in steps}
        assert dense == {"a": {True}, "b": {True}, "bab": {True}, "abba": {True, False}}

    def test_free_eps1(self, free_system_eps1):
        assert_folds_match_strings(free_system_eps1[0], ["x", "yx", "xyy", "yxxy"])

    def test_long_members_d3(self, long_members_d3):
        assert_folds_match_strings(long_members_d3, ["a", "cb", "abc", "bcab"])

    def test_engine_and_certificate_read_no_member_strings(self, captured7, monkeypatch,
                                                           tmp_path):
        reference = FactorEngine(captured7)
        counts = [reference.count(n) for n in range(1, 17)]
        words = ["".join(w) for n in (1, 5, 9) for w in product("ab", repeat=n)]
        contained = [reference.contains(w) for w in words]
        expected = verify_recurrence_gaps(captured7).to_dict()
        persist.save_system(captured7, tmp_path / "c7.json")

        # Loading expands each capture target once; members get no expansion.
        expanded = []
        expand = LevelSystem.expand

        def counted(self, choices):
            expanded.append(choices)
            return expand(self, choices)

        monkeypatch.setattr(LevelSystem, "expand", counted)
        loaded = persist.load_system(tmp_path / "c7.json")
        assert len(expanded) <= len(captured7.capture_log)

        def unexpandable(self, choices):
            raise AssertionError("member expanded")

        monkeypatch.setattr(LevelSystem, "expand", unexpandable)
        engine = FactorEngine(captured7)
        assert [engine.count(n) for n in range(1, 17)] == counts
        assert [engine.contains(w) for w in words] == contained
        assert verify_recurrence_gaps(captured7).to_dict() == expected
        assert [FactorEngine(loaded).count(n) for n in range(1, 17)] == counts
        assert verify_recurrence_gaps(loaded).to_dict() == expected


class TestAperiodicity:
    def test_toy_passes(self, toy_system):
        rep = check_nonperiodicity(toy_system, 3)
        assert rep.passed and rep.dims == [2, 4, 8]

    def test_single_letter_fails_immediately(self):
        degenerate = build_plain(table_spec({1: 1, 2: 1, 4: 1}), "lex", 2)
        rep = check_nonperiodicity(degenerate, 2)
        assert not rep.passed and rep.first_stall == 1

    def test_captured7(self, captured7):
        rep = check_nonperiodicity(captured7, 32)
        assert rep.passed
        assert all(b > a for a, b in zip(rep.dims, rep.dims[1:]))


class TestMinimalForbidden:
    def test_toy_bbbb(self, toy_system):
        words, depth = minimal_forbidden_words(toy_system, 4)
        assert depth == 3
        assert "bbbb" in words
        assert all(len(w) >= 4 for w in words)  # toy has all 1..3-letter factors

    def test_length_one_empty(self, toy_system):
        words, _ = minimal_forbidden_words(toy_system, 1)
        assert words == []

    def test_one_letter_truncations_present(self, captured4):
        words, _ = minimal_forbidden_words(captured4, 6)
        engine = FactorEngine(captured4)
        for w in words:
            n = len(w)
            fset = factor_words(engine, n)
            prev = factor_words(engine, n - 1) if n > 1 else {""}
            assert w not in fset
            assert w[1:] in prev and w[:-1] in prev

    @pytest.mark.parametrize("values, depth, top", [
        # The seeded wide systems of test_wide_codes_match_bruteforce: codes
        # of the longest words are wider than 64 bits.
        ({1: 2, 2: 4, 4: 8, 8: 8, 16: 16, 32: 16, 64: 16, 128: 32, 256: 32}, 8, 66),
        ({1: 3, 2: 6, 4: 12, 8: 12, 16: 24, 32: 24, 64: 24, 128: 48}, 7, 42),
    ])
    def test_matches_bruteforce_both_ways(self, values, depth, top):
        system = build_plain(table_spec(values), "seeded", depth, seed=5)
        words, _ = minimal_forbidden_words(system, top)
        oracle = {n: factor_set_bruteforce(system, n) for n in range(1, top + 1)}
        oracle[0] = {""}
        # Every listed word is minimal forbidden ...
        for w in words:
            n = len(w)
            assert w not in oracle[n] and w[:-1] in oracle[n - 1] and w[1:] in oracle[n - 1]
        # ... and every minimal forbidden word, which extends a factor, is listed.
        expected = [u + z for n in range(1, top + 1) for u in oracle[n - 1]
                    for z in system.alphabet.letters
                    if u + z not in oracle[n] and (u + z)[1:] in oracle[n - 1]]
        assert words == sorted(expected, key=lambda w: (len(w), w))

    def test_string_order_beyond_26_letters(self):
        # Letters past "z" are "A".."D", which sort before "a" as strings but
        # after "z" as codes; the report lists words in string order.
        system = build_plain(table_spec({1: 30, 2: 60, 4: 120, 8: 240}), "lex", 3)
        words, _ = minimal_forbidden_words(system, 4)
        two = [w for w in words if len(w) == 2]
        assert len(two) == 30 * 30 - 60
        assert two == sorted(two) and two[0] == "AA"
        assert set(two) == {u + z for u in system.alphabet.letters
                            for z in system.alphabet.letters} - factor_set_bruteforce(system, 2)


class TestEntropy:
    def test_bands_eps1(self):
        from growthforge.growth import geometric
        from growthforge.construction import build_plain
        system = build_plain(geometric(1), "lex", 3)
        rep = entropy_partial(system, 4)
        lo, hi = rep.power_band
        assert abs(float(lo) - 2 ** 0.5) < 1e-6 and hi == 4
        assert rep.linear_band == (Fraction(4, 3), Fraction(4))

    def test_h1_equals_dim1(self, toy_system):
        rep = entropy_partial(toy_system, 2)
        assert rep.partials[0][1] == 2

    def test_full_binary_language_entropy_two(self):
        from growthforge.growth import geometric
        from growthforge.construction import build_plain
        system = build_plain(geometric(1), "lex", 4)
        rep = dim_series(system, 8)
        assert [r.dim for r in rep.rows] == [2 ** n for n in range(1, 9)]


class TestRightExtensions:
    def test_toy_has_dead_suffix_factors(self, toy_system):
        # "bbb" occurs only as a terminal suffix, so it never extends right;
        # this is expected of finite truncations.
        assert analyzer.is_factor(toy_system, "bbb")
        assert not any(analyzer.is_factor(toy_system, "bbb" + z) for z in "ab")

    def test_captured_targets_extend(self, captured4):
        # Captured targets sit inside choice-set members followed by the next
        # block, so they always extend right.
        engine = FactorEngine(captured4)
        for entry in captured4.capture_log:
            n = len(entry.target_word)
            nxt = factor_words(engine, n + 1)
            letters = captured4.alphabet.letters
            assert any(entry.target_word + z in nxt for z in letters)
