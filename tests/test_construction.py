import sys
from itertools import product
from math import prod
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from growthforge.errors import (
    BudgetExceeded, CapacityExceeded, HorizonTooSmall, InsufficientWords,
)
from growthforge import persist
from growthforge.growth import exp_power, geometric, poly_geometric, table_spec
from growthforge.analyzer import FactorEngine, verify_recurrence_gaps
from growthforge.construction import (
    CHUNK_ROWS,
    LevelSystem,
    _capture_level,
    _rank,
    _sample_ranks,
    _unrank,
    build_free_power_system,
    build_plain,
    build_uniformly_recurrent,
)

from conftest import member_rows, member_words, system_digest, traced_peak

TOY = table_spec({1: 2, 2: 4, 4: 8, 8: 16})


def member_refs(cs):
    """A choice set's members as choice tuples, one per row."""
    return [tuple(row) for row in member_rows(cs)]


class TestInit:
    def test_alphabet_sizes(self):
        assert LevelSystem(geometric(1)).alphabet.letters == "ab"
        assert LevelSystem(geometric("1/2")).alphabet.letters == "ab"  # d = ceil(1.5) = 2
        assert LevelSystem(table_spec({1: 5, 2: 10})).alphabet.size == 5

    def test_letter_override(self):
        system = LevelSystem(geometric(1), letters="xy")
        assert system.alphabet.letters == "xy"
        with pytest.raises(ValueError):
            LevelSystem(geometric(1), letters="xyz")


class TestChooseCset:
    def test_toy_lex_unconstrained(self):
        system = LevelSystem(TOY)
        system.choose_cset(0)
        cs = system.choose_cset(1)
        assert [system.expand(ref) for ref in member_refs(cs)] == ["aa", "ab"]

    def test_toy_fixed_suffix(self):
        system = LevelSystem(TOY)
        system.choose_cset(0)
        cs = system.choose_cset(1, suffix=(0,))
        assert [system.expand(ref) for ref in member_refs(cs)] == ["aa", "ba"]

    def test_must_include_out_of_range_refused(self):
        # C_0 has two members, so choice 7 at level 1 names none of them.
        system = LevelSystem(TOY)
        system.choose_cset(0)
        for choices in ((7, 0), (0, -1), (0, 2)):
            with pytest.raises(ValueError, match="out of range"):
                system.choose_cset(1, must_include=[choices])
        assert system.depth == 1

    def test_must_include_wrong_width_refused(self):
        system = LevelSystem(TOY)
        system.choose_cset(0)
        for rows in ([(0, 1, 0)], [(0,)], [(0, 1), (0,)], np.zeros((1, 3), dtype=np.int64)):
            with pytest.raises(ValueError, match="wrong level"):
                system.choose_cset(1, must_include=rows)
        assert system.depth == 1

    def test_must_include_off_suffix_refused(self):
        # Ranks over the free choices cannot name a row with another tail.
        system = build_plain(TOY, "lex", 2)
        with pytest.raises(ValueError, match=r"row \(1, 0, 1\) does not end with the suffix"):
            system.choose_cset(2, suffix=(0,), must_include=[(0, 1, 0), (1, 0, 1)])
        assert system.depth == 2

    def test_suffix_out_of_range_refused(self):
        system = LevelSystem(TOY)
        system.choose_cset(0)
        system.choose_cset(1)
        with pytest.raises(ValueError, match="out of range"):
            system.choose_cset(2, suffix=(2, 0))
        assert system.depth == 2

    def test_suffix_not_below_level_refused(self):
        system = LevelSystem(TOY)
        system.choose_cset(0)
        with pytest.raises(ValueError, match="must sit below level 1"):
            system.choose_cset(1, suffix=(0, 0))
        assert system.depth == 1

    def test_insufficient_words_pigeonhole(self):
        # ratio(0) = ceil(8/2) = 4 > |W(1)| = 2.
        system = LevelSystem(table_spec({1: 2, 2: 8, 4: 16}))
        with pytest.raises(InsufficientWords) as err:
            system.choose_cset(0)
        assert err.value.deficit == 2

    def test_choice_budget(self, monkeypatch):
        # r_1 = 2 members of 2 choices each: 4 entries against a budget of 3.
        monkeypatch.setenv("GROWTHFORGE_BUDGET", "3")
        system = LevelSystem(TOY)
        system.choose_cset(0)
        with pytest.raises(BudgetExceeded, match="level 1 choice set") as err:
            system.choose_cset(1)
        assert err.value.deficit == 1 and system.depth == 1

    def test_seeded_chooser_is_deterministic(self):
        def build():
            return member_words(build_plain(TOY, "seeded", 3, seed=42))
        assert build() == build()
        other = member_words(build_plain(TOY, "seeded", 3, seed=43))
        assert build() != other  # different seed, different sets (overwhelmingly)


class TestMemory:
    def test_lex_fill_holds_no_rows(self):
        # The d8 top level: 26,344 members of 8 choices (1.7 MB of rows) are one
        # rank range, chosen without unranking.
        system = build_plain(poly_geometric("1/13"), "lex", 7)
        peak = traced_peak(lambda: system.choose_cset(7))
        assert len(system.csets[7]) == 26_344
        assert system.csets[7].ranges.tolist() == [[0, 26_344]]
        assert peak < 32 * 1024

    @pytest.mark.parametrize("build", [
        lambda: build_free_power_system(1, 5)[0],
        lambda: build_uniformly_recurrent(poly_geometric("1/13"), depth=8, capture_budget=2,
                                          horizon=12)], ids=["free-e1-d5", "d8"])
    def test_folds_hold_member_codes_and_chunks(self, build):
        # The free e = 1 depth-5 top level has 65,536 members of 5 choices (16
        # chunks of rows), the d8 one 26,344 of 8 (6.4 chunks). The engine's
        # member codes and the recurrence summaries are gathered from a chunk
        # of rows at a time, so the engine and the certificate beside it hold
        # the codes, the summary ids and a few chunks' worth of rows and scratch.
        system = build()
        engines = []

        def fold():
            engines.append(FactorEngine(system))
            verify_recurrence_gaps(system)

        peak = traced_peak(fold)
        codes = sum(m.nbytes for m in engines[0]._members)
        chunk = CHUNK_ROWS * system.depth * 8   # one chunk of top-level rows
        assert peak < codes + 5 * chunk

    @pytest.mark.parametrize("columns, bound", [(12, 0.25), (24, 0.5)])
    def test_rank_reads_one_column_at_a_time(self, columns, bound):
        # Ranks below 10^12 are int64, ranks below 10^24 Python ints.
        rows = np.random.default_rng(0).integers(0, 10, size=(20_000, columns))
        peak = traced_peak(lambda: _rank([10] * columns, rows))
        assert peak < bound * rows.nbytes


class TestBuildPlain:
    def test_toy_depth3(self, toy_system):
        assert member_words(toy_system) == [
            ["a", "b"], ["aa", "ab"], ["aaaa", "aaab"]]

    def test_poly_sizes(self):
        system = build_plain(poly_geometric("1/10"), "lex", 7)
        assert [len(cs) for cs in system.csets] == [2, 2, 3, 5, 10, 43, 892]

    def test_depth_one(self):
        system = build_plain(TOY, "lex", 1)
        assert system.depth == 1 and [len(cs) for cs in system.csets] == [2]

    def test_counting_identity(self, toy_system):
        assert toy_system.level_word_count(0) == 2
        assert toy_system.level_word_count(3) == 2 * 2 * 2 * 2


class TestExpand:
    def test_expansion_and_window(self, toy_system):
        ref = (1, 0, 1)  # C(2)[1]=ab ++ C(1)[0]=a ++ letter b
        word = toy_system.expand(ref)
        assert word == "abab"
        # Each choice fills the window of its level: [0, 2), [2, 3), then the letter.
        assert word[0:2] == toy_system.expand(member_refs(toy_system.csets[1])[1])
        assert word[2:3] == toy_system.expand(member_refs(toy_system.csets[0])[0])
        assert word[3:] == "b"

    def test_level_zero(self, toy_system):
        assert toy_system.expand((0,)) == "a"

    def test_roundtrip_all_members(self, captured4):
        # A member's word is its head member's word followed by its tail's.
        for cs in captured4.csets:
            for ref in member_refs(cs):
                s = captured4.expand(ref)
                if cs.level:
                    head = member_refs(captured4.csets[cs.level - 1])[ref[0]]
                    tail = ref[1:]
                    assert s == captured4.expand(head) + captured4.expand(tail)
                assert len(s) == 1 << cs.level


class TestCapture:
    def test_capture_letter_a(self):
        poly = poly_geometric("1/10")
        system = build_uniformly_recurrent(poly, depth=2, capture_budget=1, horizon=12)
        (entry,) = system.capture_log
        assert entry.capture_level == 1 and entry.gap_bound == 4
        assert member_words(system)[1] == ["aa", "ba"]
        assert entry.filled_levels == [0]

    def test_second_capture_at_next_level(self, captured7):
        e1, e2 = captured7.capture_log
        assert (e1.target_word, e1.capture_level, e1.gap_bound) == ("a", 1, 4)
        assert (e2.target_word, e2.capture_level, e2.gap_bound) == ("b", 2, 8)
        assert e2.m_before == 1
        assert member_words(captured7)[2] == ["aaab", "aabb", "baab"]

    def test_gap_bound_formula(self, captured7):
        for e in captured7.capture_log:
            assert e.gap_bound == 1 << (e.capture_level + 1)

    def test_capture_levels_strictly_increase(self, captured7):
        levels = [e.capture_level for e in captured7.capture_log]
        assert levels == sorted(set(levels))

    def test_members_contain_target(self, captured7):
        for e in captured7.capture_log:
            for s in member_words(captured7)[e.capture_level]:
                assert s.endswith(e.target_word)

    def test_geometric_eps1_capture_impossible(self):
        with pytest.raises(HorizonTooSmall):
            build_uniformly_recurrent(geometric(1), depth=4, capture_budget=1, horizon=12)

    def test_w4_capture_capacity(self):
        # Capture a W(4)-element with levels 0..3 taken (m = 3): t' = max(mu(2), 4) = 4,
        # free-choice capacity r_3 * r_2 = 15 >= r_4 = 10.
        poly = poly_geometric("1/10")
        system = build_plain(poly, "lex", 4)
        target = system.ref_from_rank(2, 0)
        word = system.expand(target)
        assert _capture_level(system, target, 3, 0, 12, 4) == (4, [])
        system.choose_cset(4, suffix=target)
        assert system.radices(4, target) == [5, 3]
        assert sum(system.expand(ref).endswith(word) for ref in system.iter_refs(4)) == 15
        assert len(system.csets[4]) == 10
        for s in member_words(system)[4]:
            assert s.endswith(word)


class TestScheduler:
    def test_retry_pinned(self, tmp_path):
        # r = (2, 1, 6, 3) over d = 3 letters. After "a" at level 1, "b" first
        # tries level 2, where only r_1 * r_0 = 2 elements end with it, fewer
        # than r_2 = 6, so level 2 is filled and "b" is captured at level 3.
        spec = table_spec({1: 3, 2: 6, 4: 6, 8: 36, 16: 108, 32: 324})
        system = build_uniformly_recurrent(spec, depth=4, capture_budget=2, horizon=1)
        assert [(e.target_word, e.capture_level, e.filled_levels, e.retries)
                for e in system.capture_log] == [("a", 1, [0], []), ("b", 3, [2], [2])]
        assert system_digest(system) == (
            "sha256:116782f71ad7c5f6b9c59031094131660e0d28c9cbefa41ddece4d494054714e")
        for e in system.capture_log:
            assert all(s.endswith(e.target_word) for s in member_words(system)[e.capture_level])
        # The loader accepts the retry's bookkeeping and re-saves the same bytes.
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        persist.save_system(system, first)
        persist.save_system(persist.load_system(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_retry_past_cap_raises(self):
        # r = (3, 1, 6) at depth 3: after "a" at level 1, "b" retries level 2
        # (3 * 1 < 6) and would need level 3, beyond the last level 2.
        spec = table_spec({1: 3, 2: 9, 4: 9, 8: 54, 16: 270})
        with pytest.raises(HorizonTooSmall, match="needs level 3 beyond cap 2"):
            build_uniformly_recurrent(spec, depth=3, capture_budget=3, horizon=1)

    @pytest.mark.parametrize("spec", [poly_geometric("1/10"), poly_geometric("1/12"),
                                      exp_power("1/2")], ids=["pg10", "pg12", "exp_half"])
    def test_builds_resave_byte_for_byte(self, spec, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        for depth, budget, chooser in product(range(3, 8), range(7), ("lex", "seeded")):
            system = build_uniformly_recurrent(spec, depth=depth, capture_budget=budget,
                                               chooser=chooser, seed=5)
            persist.save_system(system, first)
            persist.save_system(persist.load_system(first), second)
            assert first.read_bytes() == second.read_bytes()

    def test_zero_budget_equals_plain(self):
        poly = poly_geometric("1/10")
        recurrent = build_uniformly_recurrent(poly, depth=5, capture_budget=0, horizon=12)
        plain = build_plain(poly, "lex", 5)
        assert member_words(recurrent) == member_words(plain)
        assert recurrent.capture_log == []

    def test_depth_budget_stops_captures(self):
        poly = poly_geometric("1/10")
        system = build_uniformly_recurrent(poly, depth=3, capture_budget=99, horizon=12)
        assert system.depth == 3
        # Captures at levels 1 and 2 fit; the third would need level >= 3.
        assert [e.capture_level for e in system.capture_log] == [1, 2]

    def test_determinism(self):
        poly = poly_geometric("1/10")
        a = build_uniformly_recurrent(poly, depth=6, capture_budget=2, horizon=12)
        b = build_uniformly_recurrent(poly, depth=6, capture_budget=2, horizon=12)
        assert member_words(a) == member_words(b)
        assert [e.to_dict() for e in a.capture_log] == [e.to_dict() for e in b.capture_log]

    def test_third_target_is_a_two_letter_word(self):
        # After the letters are exhausted the scheduler moves to W(2): the
        # lex-first element "aa" is captured at t' = max(mu(1), m+1) = 3.
        poly = poly_geometric("1/10")
        system = build_uniformly_recurrent(poly, depth=7, capture_budget=3, horizon=12)
        third = system.capture_log[2]
        assert third.target_word == "aa"
        assert third.target_level == 1
        assert third.capture_level == 3 and third.gap_bound == 16
        for s in member_words(system)[3]:
            assert s.endswith("aa")

    def test_seeded_chooser_with_captures(self):
        # Exercises seeded unranking under a suffix constraint.
        poly = poly_geometric("1/10")
        a = build_uniformly_recurrent(poly, depth=6, capture_budget=2,
                                      chooser="seeded", seed=11, horizon=12)
        b = build_uniformly_recurrent(poly, depth=6, capture_budget=2,
                                      chooser="seeded", seed=11, horizon=12)
        assert member_words(a) == member_words(b)
        for entry in a.capture_log:
            for s in member_words(a)[entry.capture_level]:
                assert s.endswith(entry.target_word)

    def test_exp_power_family_captures(self):
        # A root-exponent family also satisfies the capture conditions.
        system = build_uniformly_recurrent(exp_power("1/2"), depth=5,
                                           capture_budget=2, horizon=12)
        assert [len(cs) for cs in system.csets] == [2, 2, 2, 2, 4]
        assert [(e.target_word, e.capture_level) for e in system.capture_log] == [
            ("a", 1), ("b", 2)]


class TestFreeBuilder:
    def test_eps1_structure(self, free_system_eps1):
        system, params = free_system_eps1
        words = member_words(system)
        assert params.t == 1 and params.degree == 2
        assert set(words[0]) == {"x", "y"}
        assert words[1][:2] == ["xx", "yy"]
        assert words[2][:4] == ["xxxx", "xxyy", "yyxx", "yyyy"]
        assert len(system.csets[2]) == 16       # r_2 = ceil(2^8 / 2^4)
        assert len(system.csets[3]) == 256
        # Level 3 holds all 16 products of length 4 in bit order.
        assert words[3][0] == "x" * 8
        assert words[3][15] == "y" * 8
        assert words[3][5] == "xxyyxxyy"

    def test_eps_half(self):
        system, params = build_free_power_system("1/2", 5)
        assert params.t == 2 and params.degree == 4
        assert params.x_word == "xxxx" and params.y_word == "yyyy"
        words = member_words(system)
        for i in range(3):
            assert "x" * (1 << i) * 1 in [s for s in words[i]]
            assert words[i][0] == "x" * (1 << i)
            assert words[i][1] == "y" * (1 << i)

    def test_eps_small_capacity_error(self):
        # geometric(1/10) has ratio(0) = 1 < 2: both letters cannot be forced in.
        with pytest.raises(CapacityExceeded) as err:
            build_free_power_system("1/10", 6)
        assert err.value.level == 0 and err.value.deficit == 1

    def test_depth_below_t_rejected(self):
        with pytest.raises(ValueError):
            build_free_power_system("1/2", 2)  # t = 2 demands depth >= 3


class TestSampling:
    def test_sample_ranks_distinct_at_any_size(self):
        # random.sample(range(total), k) raises OverflowError past sys.maxsize.
        for total, k in ((2 ** 70, 50), (sys.maxsize + 2, 3), (7, 7), (5, 1)):
            ranks = _sample_ranks(Random(1), total, k)
            assert len(set(ranks)) == k and all(0 <= r < total for r in ranks)
        assert _sample_ranks(Random(1), 2 ** 70, 50) == _sample_ranks(Random(1), 2 ** 70, 50)


def sequential_choose(system, level, suffix, include, rng):
    """The member rows of C(2^level) by the per-rank algorithm, or None if too few exist.

    The candidates are every choice tuple of W(2^level) whose expansion ends
    with the suffix element's word, in tuple-lex order; rank k is the k-th
    of them. A `seen` set skips the included tuples, as choose_cset once
    worked; rng is a copy of the build RNG.
    """
    word = "" if suffix is None else system.expand(suffix)
    ranges = [range(len(system.csets[j])) for j in reversed(range(level))]
    ranges.append(range(system.alphabet.size))
    admissible = [c for c in product(*ranges) if system.expand(c).endswith(word)]
    available = len(admissible)
    chosen, seen = [], set()
    for choices in include:
        if choices not in seen:
            seen.add(choices)
            chosen.append(choices)
    overlap = sum(system.expand(c).endswith(word) for c in chosen)
    fill = system.spec.ratio(level) - len(chosen)
    if available - overlap < fill:
        return None
    ranks = range(available)
    if system.chooser == "seeded" and fill:
        ranks = _sample_ranks(rng, available, fill + overlap)
    for rank in ranks:
        if fill == 0:
            break
        choices = admissible[rank]
        if choices not in seen:
            seen.add(choices)
            chosen.append(choices)
            fill -= 1
    return [list(c) for c in chosen]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_choose_cset_matches_sequential_reference(data):
    # table_spec systems over d = 2 or 3 letters, depth 2-6, both choosers.
    # Some levels take a lower-level element as the common suffix of their
    # members, as a capture does; some get must_include rows, drawn with
    # repeats from the elements ending with the suffix, and passed as a list
    # of tuples or as one int64 row array.
    d = data.draw(st.sampled_from([2, 3]))
    depth = data.draw(st.integers(2, 6))
    values, v, capacity = {1: d}, d, d
    for i in range(depth):
        r = min(data.draw(st.integers(1, 3)), capacity)
        v, capacity = v * r, capacity * r
        values[1 << (i + 1)] = v
    system = LevelSystem(table_spec(values), data.draw(st.sampled_from(["lex", "seeded"])),
                         seed=data.draw(st.integers(0, 2 ** 16)))
    for level in range(depth):
        suffix = None
        if level and data.draw(st.booleans()):
            t = data.draw(st.integers(0, level - 1))
            suffix = system.ref_from_rank(
                t, data.draw(st.integers(0, system.level_word_count(t) - 1)))
        radices = system.radices(level, suffix)
        ranks = data.draw(st.lists(st.integers(0, prod(radices) - 1),
                                   max_size=system.spec.ratio(level)))
        include = list(map(tuple, _unrank(radices, suffix or (), ranks).tolist()))
        rows = include
        if data.draw(st.booleans()):
            rows = np.array(include, dtype=np.int64).reshape(len(include), level + 1)
        rng = Random()
        rng.setstate(system._rng.getstate())
        expected = sequential_choose(system, level, suffix, include, rng)
        if expected is None:
            with pytest.raises(InsufficientWords):
                system.choose_cset(level, suffix=suffix, must_include=rows)
            return
        cs = system.choose_cset(level, suffix=suffix, must_include=rows)
        assert len(cs) == system.spec.ratio(level)
        assert cs.rows(0, len(cs)).dtype == np.int64
        assert member_rows(cs) == expected
        assert system._rng.getstate() == rng.getstate()
