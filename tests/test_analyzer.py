import dataclasses
from collections import Counter
from fractions import Fraction
from itertools import groupby, product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from growthforge.errors import BudgetExceeded, DepthTooShallow
from growthforge import analyzer, codes, persist, summaries
from growthforge.analyzer import (
    FactorEngine,
    check_growth_sandwich,
    check_nonperiodicity,
    dim_series,
    entropy_report,
    factor_set_bruteforce,
    minimal_forbidden_words,
    verify_recurrence_gaps,
)
from growthforge.summaries import (
    level_counters,
    scan_occurrences,
    _concat,
    _member_histogram,
    _product,
    _summary,
    _SummaryTable,
)
from growthforge.construction import (
    CHUNK_ROWS, CaptureEntry, LevelSystem, _fold_members, build_free_power_system, build_plain,
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
        # The budget check walks each n's straddles (`_windows`) once, and
        # counting walks them once more: one list of blocks sizes its plan and
        # fills its parts (n = 1's one straddle is a letter).
        walked = Counter()
        windows = FactorEngine._windows
        monkeypatch.setattr(FactorEngine, "_windows",
                            lambda self, n: walked.update([n]) or windows(self, n))
        system = build_uniformly_recurrent(poly_spec, depth=5, capture_budget=2, horizon=12)
        analyzer.check_window_budget(system, 16)
        engine = analyzer._engine_for(system)
        assert walked == Counter(range(1, 17))
        totals = [sum(engine._parts(n, lambda codes, _: len(codes))) for n in range(1, 17)]
        assert walked == Counter({n: 2 for n in range(1, 17)})
        # Every n here fits one part, which the plan sizes as all its codes.
        assert totals == [codes.part_plan(engine._plan(n, engine._blocks(n))[0],
                                          codes.limb_count(n, engine.bits))[2] for n in range(1, 17)]

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
        engine = FactorEngine(toy_system)
        with pytest.raises(DepthTooShallow):
            engine.distinct(5)  # > 2^(D-1) = 4
        with pytest.raises(DepthTooShallow):
            engine.held(encoded(engine, ["a" * 5]), 5)

    def test_budget(self, captured7, monkeypatch):
        monkeypatch.setenv("GROWTHFORGE_BUDGET", "1000")
        with pytest.raises(BudgetExceeded, match="full expansion needs .* characters"):
            factor_set_bruteforce(captured7, 4)

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
        engine, member = FactorEngine(system), FactorEngine(system)
        for n in lengths:
            assert system.alphabet.size ** n > 1 << 64
            oracle = factor_set_bruteforce(system, n)
            assert engine.count(n) == len(oracle)
            assert factor_words(engine, n) == oracle
            assert member.held(encoded(member, sorted(oracle)), n).all()
        # Membership keeps no product and no table wider than 64 bits but the whole members.
        assert all(len(key) == 1 for key in member._tables)
        assert all(bits <= 64 or bits == member.bits << j for ((j, _, bits),) in member._tables)

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
            assert engine.held(encoded(engine, [w]), len(w)).all()
            present = [any(w + z in x for x in words) for z in letters]
            extended = encoded(engine, [w + z for z in letters])
            assert engine.held(extended, len(w) + 1).tolist() == present
            rejected += present.count(False)
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


LAYOUT_SYSTEMS = {
    "captured7": (lambda request: request.getfixturevalue("captured7"), range(1, 65)),
    # The analyze-wide system: n = 65 is its first count of two-limb codes, in many parts.
    "wide": (lambda request: build_uniformly_recurrent(
        poly_geometric("1/20"), depth=8, capture_budget=2, horizon=12), (64, 65)),
    "wide_d3": (lambda request: wide_system(*WIDE_CASES[1][:2]), WIDE_CASES[1][2]),
}


@pytest.mark.parametrize("name", sorted(LAYOUT_SYSTEMS))
def test_every_code_array_is_n_by_k_limbs(request, name):
    # Letters, member codes, tables, F(n), encoded words and the empty word's
    # code: each is N x k uint64 limbs, k = ceil(bits / 64) >= 1 for codes of
    # `bits` bits, whatever k is.
    make, lengths = LAYOUT_SYSTEMS[name]
    engine = FactorEngine(make(request))
    b = engine.bits

    def check(array, bits):
        assert array.dtype == np.uint64 and array.ndim == 2
        assert array.shape[1] == max(1, -(-bits // 64))

    check(codes.EMPTY, 0)
    for n in lengths:
        factors = engine.distinct(n)
        check(factors, b * n)
        words = engine.decode(factors[::max(1, len(factors) // 4)], n)
        check(encoded(engine, words), b * n)
        assert engine.held(encoded(engine, words), n).all()
    check(engine._letters, b)
    for j, members in enumerate(engine._members):
        check(members, b << j)
    for fields, table in engine._tables.items():
        check(table, sum(bits for _, _, bits in fields))


@pytest.mark.parametrize("budget, what, needed, unit", [
    (560, "prefix product (6, 64) with the tables held", 572, "8-byte words"),
    (1300, "factor length 65 part (262 window codes)", 1310, "8-byte sort words"),
])
def test_each_size_refused_over_budget(monkeypatch, budget, what, needed, unit):
    # The d = 2 wide system with parts of 64 bytes: the tables held after
    # n = 64 (556 words), then n = 65's tables (573 words) and its largest
    # part each pass the budget that refuses the next. n = 65 has 268 codes
    # in 128 blocks, so its part holds sqrt(2 * 128 * 268) codes, not the 64
    # bytes; its 140 samples are no more than a part and are not refused alone.
    monkeypatch.setattr(codes, "PART_BYTES", 64)
    monkeypatch.setenv("GROWTHFORGE_BUDGET", str(budget))
    engine = FactorEngine(wide_system(*WIDE_CASES[0][:2]))
    for n in range(1, 65):
        engine._plan(n, engine._blocks(n))
    with pytest.raises(BudgetExceeded) as info:
        engine._plan(65, engine._blocks(65))
    assert str(info.value) == f"{what} needs {needed} {unit}, budget is {budget} (deficit {needed - budget})"


@pytest.mark.parametrize("name", ["wide", "exp_power"])
def test_parts_balance_samples_and_edges(tmp_path, monkeypatch, name):
    # For every n, the samples that cut the parts and the blocks x (parts + 1)
    # edge matrix each fit one part's capacity. On the analyze-wide system a
    # part is 256 KiB of sort up to n = 64, a two-limb one from n = 65 and
    # sqrt(2BT) codes once that is more; every n of exp_power(1/2) at depth 7
    # is one part.
    if name == "wide":
        system = build_uniformly_recurrent(poly_geometric("1/20"), depth=8, capture_budget=2,
                                           horizon=12)
        assert persist.save_system(system, tmp_path / "wide.json") == (
            "sha256:8d43d5713b74ea53c73871a4449a3fc645ddceecf958202d80553933640ed41a")
    else:
        system = build_uniformly_recurrent(exp_power("1/2"), depth=7, capture_budget=2, horizon=12)
    engine = FactorEngine(system)
    sampled = []
    product_at = codes.product_at
    monkeypatch.setattr(codes, "product_at", lambda block, ranks, k: (
        sampled.append(len(ranks)) or product_at(block, ranks, k)))
    parts, floors = [], []
    for n in range(1, (1 << (system.depth - 1)) + 1):
        blocks = engine._blocks(n)
        sizes, capacity, stride = engine._plan(n, blocks)
        sampled.clear()
        k = codes.limb_count(n, engine.bits)
        edges = codes.part_edges(blocks, sizes, capacity, stride, k)
        assert sum(sampled) <= capacity and edges.size <= capacity
        parts.append(edges.shape[1] - 1)
        floors.append(capacity == codes.PART_BYTES // (8 * codes.sort_words(k)))
    if name == "wide":
        assert max(parts[:64]) > 1 and max(parts[64:]) > 1 and not all(floors)
    else:
        assert set(parts) == {1}


def test_sort_marked_keeps_ascending_rows():
    # Two-limb rows already in lex order are marked where they lie, not
    # copied; a low limb out of order under an equal high limb, or a high
    # limb out of order, sends them through np.lexsort.
    rows = np.array([[0, 5], [0, 7], [0, 7], [1, 0], [1 << 63, 1]], dtype=np.uint64)
    out, new = codes.sort_marked(rows)
    assert out is rows and new.tolist() == [True, True, False, True, True]
    for order in ([1, 0, 2, 3, 4], [4, 3, 2, 1, 0]):
        out, new = codes.sort_marked(rows[order])
        assert out.tolist() == rows.tolist() and new.tolist() == [True, True, False, True, True]


@pytest.mark.parametrize("chooser", ["lex", "seeded"])
def test_two_limb_member_levels_sort_only_when_unordered(monkeypatch, chooser):
    # The 1,031 top-level members of poly_geometric(1/20) at depth 8 hold 128
    # letters, two limbs. Chosen lex they fold in code order, and the engine
    # keeps the folded array; chosen seeded they fold in draw order and sort.
    system = build_uniformly_recurrent(poly_geometric("1/20"), depth=8, capture_budget=2,
                                       chooser=chooser, seed=3, horizon=12)
    folded = []
    fold = analyzer._fold_members
    monkeypatch.setattr(analyzer, "_fold_members", lambda *args: folded.append(fold(*args)) or folded[-1])
    top = FactorEngine(system)._members[-1]
    assert top.shape == (1031, 2)
    assert (top is folded[0][-1]) == (chooser == "lex")
    assert code_ints(top) == sorted(set(code_ints(folded[0][-1])))


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
        assert engine.held(encoded(engine, sample), n).all()
        absent = sorted({w[1:] + z for w in sample for z in letters} - set(oracle))
        assert not engine.held(encoded(engine, absent), n).any()


@pytest.mark.parametrize("name, lengths", [
    ("captured7", range(1, 65)),
    # Every n up to 2^13 would walk about 56 million tuples: the n next to each power of two.
    ("long_members_d3", sorted({n for k in range(14) for n in ((1 << k) - 1, 1 << k, (1 << k) + 1)}
                               - {0, 8193})),
])
def test_straddle_tuples_tile_each_window(request, monkeypatch, name, lengths):
    # A straddle of length n is fields (level, lo, bits) left to right: the
    # last a letters of a C_j member, then the first n - a letters of
    # W(2^j) = C_(j-1) ... C_0 W(1), whole members and then the first
    # letters of one, or a letter. Counting and membership read these tuples.
    system = request.getfixturevalue(name)
    engine = FactorEngine(system)
    b, held_field, tested = engine.bits, FactorEngine._held_field, []
    monkeypatch.setattr(FactorEngine, "_held_field",
                        lambda self, *args: tested.append(args[:3]) or held_field(self, *args))
    rng = np.random.default_rng(3)
    for n in lengths:
        straddles = list(engine._windows(n))
        windows = [engine._fields(j, a, n - a) for j, a in straddles]
        assert len(set(windows)) == len(windows)
        assert all(sum(bits for _, _, bits in fields) == b * n for fields in windows)
        if n == 1:
            assert straddles == [(0, 0)] and windows == [((-1, 0, b),)]
        else:
            for (j, lo, bits), *rest in windows:
                assert lo == 0 and 0 < bits <= b << j and j < system.depth and rest
                assert [l for l, _, _ in rest] == list(range(j - 1, j - 1 - len(rest), -1))
                assert all(f == (f[0], 0, b << f[0]) for f in rest[:-1])   # whole members
                l, lo, bits = rest[-1]
                assert (l, lo, bits) == (-1, 0, b) or (l >= 0 and bits and lo + bits == b << l)
        if n > 64:   # the d = 3 system's blocks of n = 4096 alone take seconds to build
            continue
        # A block is level j's cut table of a letters (a = 0: the empty word) over its prefix
        # table of n - a letters, placed below it: the tables of the tuple's first field and rest.
        for (j, a), fields, (head, at, tail) in zip(straddles, windows, engine._blocks(n),
                                                    strict=True):
            rest = fields[1:] if a else fields
            assert head is (engine._tables[fields[:1]] if a else codes.EMPTY)
            assert tail is engine._tables[rest] and at == b * (n - a) == sum(f[2] for f in rest)
        # Factors and random words: each straddle tested tests a prefix of its tuple, in order.
        factors = engine.distinct(n)
        words = engine.decode(factors[::max(1, len(factors) // 16)], n) + [
            "".join(w) for w in rng.choice(list(system.alphabet.letters), (8, n))]
        tested.clear()
        engine.held(encoded(engine, words), n)
        walk = iter(windows)
        while tested:
            fields = next(walk)
            assert tested[0] == fields[0]
            run = next((i for i, f in enumerate(tested[:len(fields)]) if f != fields[i]),
                       min(len(fields), len(tested)))
            del tested[:run]


@pytest.mark.parametrize("name, n", [("captured7", 64), ("long_members_d3", 64)])
def test_code_arrays_are_uint64(request, name, n):
    # Wide codes are uint64 limb rows: no table, member or part array
    # holds Python ints.
    engine = FactorEngine(request.getfixturevalue(name))
    for m in range(n - 2, n + 1):
        engine.count(m)
    parts = engine._parts(n, lambda codes, _: codes.copy())
    arrays = [*engine._members, *engine._tables.values(), *parts]
    assert all(a.dtype == np.uint64 for a in arrays)
    if name == "long_members_d3":
        assert parts[0].shape[1] == 2 and engine._members[13].shape[1] == 256


class TestHeld:
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
        assert engine.held(encoded(engine, list(letters)), 1).all()
        rejected = 0
        for n in lengths:
            prev = factor_set_bruteforce(system, n - 1)
            cur = factor_set_bruteforce(system, n)
            words = sorted(cur) + sorted({w + z for w in prev for z in letters} - cur)
            assert engine.held(encoded(engine, words), n).tolist() == [w in cur for w in words]
            rejected += len(words) - len(cur)
        assert (rejected > 0) == rejects


class TestConsecutiveDims:
    # |F(n+1)| = sum over w in F(n) of its right extensions: Cassaigne's
    # identity without assuming every factor extends to the right.
    @pytest.mark.parametrize("name, n_top", [("captured4", 7), ("captured7", 16)])
    def test_dims_count_right_extensions(self, request, name, n_top):
        system = request.getfixturevalue(name)
        engine = FactorEngine(system)
        letters = system.alphabet.letters
        for n in range(1, n_top + 1):
            words = [w + z for w in factor_words(engine, n) for z in letters]
            extended = encoded(engine, words)
            assert engine.count(n + 1) == np.count_nonzero(engine.held(extended, n + 1))

    @pytest.mark.parametrize("name, n", [("wide", 64), ("captured7", 43)])
    def test_both_extensions_count_above_the_oracle(self, request, name, n):
        # p(n+1) = #{(u, z) : uz in F(n+1)} = #{(z, u) : zu in F(n+1)}, u in F(n) and z
        # a letter. Membership searches the cut tables and shares no part, sample, fill
        # or sort with the count. The analyze-wide system's n + 1 = 65 has two-limb
        # codes, counted in many parts; the analyze-d7 system's 44 is one limb in 10 parts.
        engine = FactorEngine(LAYOUT_SYSTEMS[name][0](request))
        factors, b, k = engine.distinct(n), engine.bits, codes.limb_count(n + 1, engine.bits)
        assert len(engine._parts(n + 1, lambda *_: None)) > 1
        for block in ((factors, b, engine._letters), (engine._letters, b * n, factors)):
            extended = codes.product_codes(block, k)
            assert np.count_nonzero(engine.held(extended, n + 1)) == engine.count(n + 1)


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


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_concat_is_exact_under_any_bracketing(data):
    # _concat gives the exact summary of the joined word for pieces of every
    # length, the empty word and pieces shorter than |w| - 1 included, so a
    # block's summary s(u) joined onto the rest equals the member fold.
    letters = data.draw(st.sampled_from(["ab", "abc"]))
    word = data.draw(st.text(alphabet=letters, min_size=1, max_size=4))
    pieces = data.draw(st.lists(st.text(alphabet=letters, max_size=6), min_size=1, max_size=7))

    def bracketed(lo: int, hi: int) -> tuple:
        if hi - lo == 1:
            return _summary(pieces[lo], word)
        cut = data.draw(st.integers(lo + 1, hi - 1))
        return _concat(bracketed(lo, cut), bracketed(cut, hi), word)

    assert bracketed(0, len(pieces)) == _summary("".join(pieces), word)


# -- folds over member references ---------------------------------------------------


def member_summaries(system, word):
    """The summary table of word and every level's member ids, folded from the choice rows."""
    table = _SummaryTable(system, word)
    return table, _fold_members(system, table.leaves, table.join)


def assert_folds_match_strings(system, words):
    """Member codes and occurrence summaries folded from choice rows equal the strings' ones."""
    d = system.alphabet.size
    engine = FactorEngine(system)
    bits = engine.bits
    strings = member_words(system)
    # Distinct members, hence distinct elements: what choose_cset relies on.
    assert all(len(set(level)) == len(level) for level in strings)
    codes = [code_ints(encoded(engine, level)) for level in strings]
    folded = _fold_members(system, np.arange(d, dtype=object),
                           lambda head, tail, l: head << (bits << (l - 1)) | tail)
    assert [level.tolist() for level in folded] == codes
    # The engine's whole-member tables come from its own fold.
    assert [code_ints(engine.suffixes(j, 1 << j)) for j in range(system.depth)] == [
        sorted(level) for level in codes]
    for w in words:
        table, ids = member_summaries(system, w)
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


def assert_block_histograms_match_ids(system, words):
    """Each level's member Counter from its blocks equals the bincount of its folded member ids,
    and level_counters gives the Counters of W(2^m) that those member Counters build."""
    for word in words:
        table, ids = member_summaries(system, word)
        members = [Counter({table[i]: count for i, count in enumerate(np.bincount(level).tolist())
                            if count}) for level in ids]
        levels = [Counter(table[i] for i in table.leaves.tolist())]
        for j, cs in enumerate(system.csets):
            assert _member_histogram(cs, table, ids, members, levels) == members[j]
            levels.append(_product(members[j], levels[j], word))
        assert level_counters(system, word) == levels


@given(fold_systems())
@settings(max_examples=60, deadline=None)
def test_block_histograms_match_member_ids(system_targets):
    assert_block_histograms_match_ids(*system_targets)


@pytest.mark.parametrize("build", [
    # The top level, 4, is captured with target "ab" (t = 1).
    lambda: build_uniformly_recurrent(poly_geometric("1/13"), depth=5, capture_budget=4,
                                      horizon=12),
    lambda: build_uniformly_recurrent(poly_geometric("1/13"), depth=5, capture_budget=4,
                                      chooser="seeded", seed=3, horizon=12),
    # Every level is all of W(2^j): one block of q = 0 each.
    lambda: build_free_power_system(1, 4)[0],
], ids=["lex-captured-top", "seeded-captured-top", "free-e1-whole-levels"])
def test_block_histograms_of_built_systems(build):
    system = build()
    words = [e.target_word for e in system.capture_log] or ["x", "xy", "yyx"]
    assert_block_histograms_match_ids(system, words)


def unique_member_summaries(system, word):
    """The summary fold with every step deduped by np.unique: the table, the
    per-level ids, each step's (table width, key count) and the pairs joined."""
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
    return table, _fold_members(system, leaves, join), steps, len(joined)


class TestFold:
    def test_fold_matches_unique_reference(self, monkeypatch):
        # The d8 system's 26,344-member top level folds in chunks of CHUNK_ROWS
        # rows; the multi-letter "abba" grows the summary table past 256
        # entries. The pair index joins each distinct pair once over the fold.
        system = build_uniformly_recurrent(poly_geometric("1/13"), depth=8, capture_budget=2,
                                           horizon=12)
        concat = summaries._concat
        calls = []

        def counted(left, right, word):
            calls.append(word)
            return concat(left, right, word)

        monkeypatch.setattr(summaries, "_concat", counted)
        for word in ["a", "b", "bab", "abba"]:
            table, ids = member_summaries(system, word)
            expected_table, expected_ids, steps, pairs = unique_member_summaries(system, word)
            assert table == expected_table
            assert [level.tolist() for level in ids] == [level.tolist() for level in expected_ids]
            assert any(keys == CHUNK_ROWS for _, keys in steps)
            assert calls.count(word) == pairs
        assert len(table) > 256   # "abba"'s

    def test_index_merge(self, toy_system):
        # New keys land before, between and after the known ones, and repeat
        # within a step; ids match a dict of the pairs joined so far.
        word = "ab"
        table = _SummaryTable(toy_system, word)
        expected, joined = list(table), {}
        for head, rest in [([1], [0]), ([0, 1, 2], [0, 0, 2]), ([1, 0, 1, 3], [1, 1, 0, 3]),
                           ([2, 2, 0], [2, 2, 0]), ([4, 0, 3, 2, 5], [0, 5, 1, 4, 5])]:
            for pair in sorted(set(zip(head, rest)) - joined.keys()):
                summary = _concat(expected[pair[0]], expected[pair[1]], word)
                if summary not in expected:
                    expected.append(summary)
                joined[pair] = expected.index(summary)
            out = table.join(np.array(head), np.array(rest), 1)
            assert out.tolist() == [joined[pair] for pair in zip(head, rest)]
            assert table == expected
            assert (np.diff(table._keys) > 0).all()

    def test_free_eps1(self, free_system_eps1):
        assert_folds_match_strings(free_system_eps1[0], ["x", "yx", "xyy", "yxxy"])

    def test_long_members_d3(self, long_members_d3):
        assert_folds_match_strings(long_members_d3, ["a", "cb", "abc", "bcab"])

    def test_engine_and_certificate_read_no_member_strings(self, captured7, monkeypatch,
                                                           tmp_path):
        reference = FactorEngine(captured7)
        counts = [reference.count(n) for n in range(1, 17)]
        words = ["".join(w) for n in (1, 5, 9) for w in product("ab", repeat=n)]
        contained = [reference.held(encoded(reference, list(group)), n).tolist()
                     for n, group in groupby(words, len)]
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
        assert [engine.held(encoded(engine, list(group)), n).tolist()
                for n, group in groupby(words, len)] == contained
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
        rep = entropy_report(system, dim_series(system, 4))
        lo, hi = rep.power_band
        assert abs(float(lo) - 2 ** 0.5) < 1e-6 and hi == 4
        assert rep.linear_band == (Fraction(4, 3), Fraction(4))

    def test_report_reads_the_dimension_series(self, captured4):
        # analyze builds the entropy report from the dims it already holds.
        dims = dim_series(captured4, 8)
        rep = entropy_report(captured4, dims)
        assert rep.partials == [(r.n, r.entropy_partial, r.entropy_str) for r in dims.rows]
        assert (rep.digits, rep.depth) == (dims.digits, dims.depth)

    def test_h1_equals_dim1(self, toy_system):
        rep = entropy_report(toy_system, dim_series(toy_system, 2))
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
        engine = FactorEngine(toy_system)
        assert engine.held(encoded(engine, ["bbb"]), 3).all()
        assert not engine.held(encoded(engine, ["bbba", "bbbb"]), 4).any()

    def test_captured_targets_extend(self, captured4):
        # Captured targets sit inside choice-set members followed by the next
        # block, so they always extend right.
        engine = FactorEngine(captured4)
        for entry in captured4.capture_log:
            n = len(entry.target_word)
            nxt = factor_words(engine, n + 1)
            letters = captured4.alphabet.letters
            assert any(entry.target_word + z in nxt for z in letters)
