"""Property-based checks over randomized small systems and growth specs."""

from fractions import Fraction
from itertools import product
from math import prod

import numpy as np
from hypothesis import given, settings, strategies as st

from growthforge import analyzer, persist
from growthforge.analyzer import FactorEngine, factor_set_bruteforce
from growthforge.construction import _unrank, build_plain
from growthforge.growth import GrowthSpec, geometric, poly_geometric, table_spec

from conftest import encoded, factor_words, member_words, rank_of


@st.composite
def feasible_tables(draw):
    """Dyadic tables built from explicit ratios, so every level is buildable."""
    d = draw(st.integers(1, 3))
    ratios = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    values = {1: d}
    v = d
    capacity = d
    for i, r in enumerate(ratios):
        # Keep r_i within the word count so the lex chooser always succeeds.
        r = min(r, capacity)
        v = v * r
        values[1 << (i + 1)] = v
        capacity *= r
        ratios[i] = r
    return values, len(ratios)


small_eps = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(1), max_denominator=20)


@given(feasible_tables(), st.sampled_from(["lex", "seeded"]), st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None)
def test_structural_matches_bruteforce_on_random_systems(table_depth, chooser, seed):
    values, depth = table_depth
    system = build_plain(table_spec(values), chooser, depth, seed=seed)
    engine = FactorEngine(system)
    for n in range(1, (1 << (depth - 1)) + 1):
        assert factor_words(engine, n) == factor_set_bruteforce(system, n)


@given(feasible_tables(), st.sampled_from(["lex", "seeded"]), st.integers(0, 2 ** 16),
       st.data())
@settings(max_examples=40, deadline=None)
def test_unrank_lists_suffix_refs_in_lex_order(table_depth, chooser, seed, data):
    values, depth = table_depth
    system = build_plain(table_spec(values), chooser, depth, seed=seed)
    level = data.draw(st.integers(0, depth))
    # The oracle: every choice tuple, in tuple-lex order, with its expansion.
    ranges = [range(len(system.csets[j])) for j in range(level - 1, -1, -1)]
    ranges.append(range(system.alphabet.size))
    words = {c: system.expand(c) for c in product(*ranges)}
    # No suffix, and one element of every level t <= level as the suffix.
    suffixes = [None] + [
        system.ref_from_rank(t, data.draw(st.integers(0, system.level_word_count(t) - 1)))
        for t in range(level + 1)]
    for suffix in suffixes:
        word = "" if suffix is None else system.expand(suffix)
        expected = [c for c, w in words.items() if w.endswith(word)]
        radices = system.radices(level, suffix)
        count = prod(radices)
        rows = _unrank(radices, suffix or (), range(count))
        assert rows.dtype == np.int64 and rows.shape == (count, level + 1)
        assert list(map(tuple, rows.tolist())) == expected
        assert [rank_of(radices, row) for row in rows.tolist()] == list(range(count))
    # Ranks of a level of 3 * 2^62 * 62 elements run past int64, into Python ints.
    wide = [3, 1 << 62, 62]
    ranks = data.draw(st.lists(st.integers(0, prod(wide) - 1), max_size=5))
    assert [rank_of(wide, row) for row in _unrank(wide, (), ranks).tolist()] == ranks


@given(feasible_tables(), st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_counting_identity_and_distinctness(table_depth, seed):
    values, depth = table_depth
    system = build_plain(table_spec(values), "seeded", depth, seed=seed)
    for level in range(depth + 1):
        words = [system.expand(ref) for ref in system.iter_refs(level)]
        assert len(words) == system.level_word_count(level)
        assert len(set(words)) == len(words)
        expected = system.alphabet.size
        for j in range(level):
            expected *= len(system.csets[j])
        assert len(words) == expected


@given(table_depth=feasible_tables(), seed=st.integers(0, 2 ** 16))
@settings(max_examples=20, deadline=None)
def test_persist_roundtrip_random(tmp_path_factory, table_depth, seed):
    values, depth = table_depth
    system = build_plain(table_spec(values), "seeded", depth, seed=seed)
    path = tmp_path_factory.mktemp("systems") / "s.json"
    persist.save_system(system, path)
    loaded = persist.load_system(path)
    assert member_words(loaded) == member_words(system)
    # Byte stability: saving the reloaded system reproduces the file.
    path2 = tmp_path_factory.mktemp("systems") / "s2.json"
    persist.save_system(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


@given(feasible_tables(), st.integers(0, 2 ** 16))
@settings(max_examples=20, deadline=None)
def test_factorial_closedness_random(table_depth, seed):
    values, depth = table_depth
    system = build_plain(table_spec(values), "seeded", depth, seed=seed)
    engine = FactorEngine(system)
    prev = factor_words(engine, 1)
    for n in range(2, (1 << (depth - 1)) + 1):
        cur = factor_words(engine, n)
        for w in cur:
            assert w[1:] in prev and w[:-1] in prev
        prev = cur


@given(small_eps, st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_ratio_invariants(eps, i):
    spec = poly_geometric(eps)
    r = spec.ratio(i)
    f_lo, f_hi = spec.value(1 << i), spec.value(1 << (i + 1))
    assert r >= 1
    assert r * f_lo >= f_hi
    assert (r - 1) * f_lo < f_hi


@given(small_eps, st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_exact_ratio_telescopes(eps, n):
    spec = geometric(eps)
    prod_exact = Fraction(1)
    prod_ceiled = 1
    for i in range(n):
        prod_exact *= spec.exact_ratio(i)
        prod_ceiled *= spec.ratio(i)
    assert prod_exact == Fraction(spec.value(1 << n), spec.value(1))
    assert prod_ceiled >= prod_exact


@given(small_eps)
@settings(max_examples=30, deadline=None)
def test_eval_is_pure(eps):
    a = poly_geometric(eps)
    b = poly_geometric(eps)
    assert [a.value(n) for n in range(1, 12)] == [b.value(n) for n in range(1, 12)]
    assert a.value(7) == a.value(7)


@given(small_eps, st.integers(4, 9))
@settings(max_examples=30, deadline=None)
def test_poly_margin_near_half_powers_any_eps(eps, n):
    # The (1+eps) powers cancel in f(2^n)^2 / f(2^(n+1)) for f = ceil(n(1+eps)^n),
    # leaving 2^(n-1) up to ceiling slack, independent of eps.
    spec = poly_geometric(eps)
    margin = Fraction(spec.value(1 << n) ** 2, spec.value(1 << (n + 1)))
    assert Fraction(1 << (n - 1), 2) <= margin <= Fraction(1 << n)


@given(st.integers(0, 3))
@settings(max_examples=8, deadline=None)
def test_compute_mu_monotone_in_offset(offset):
    from growthforge.growth import compute_mu
    spec = poly_geometric("1/10")
    lower = compute_mu(spec, 1, offset, 16)
    higher = compute_mu(spec, 1, offset + 1, 16)
    assert higher >= lower
    assert lower > 1 + offset


@given(feasible_tables(), st.sampled_from(["lex", "seeded"]), st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_consecutive_dims_count_right_extensions(table_depth, chooser, seed):
    values, depth = table_depth
    system = build_plain(table_spec(values), chooser, depth, seed=seed)
    engine = FactorEngine(system)
    letters = system.alphabet.letters
    for n in range(1, 1 << (depth - 1)):
        words = [w + z for w in factor_words(engine, n) for z in letters]
        extended = encoded(engine, words)
        assert engine.count(n + 1) == np.count_nonzero(engine.held(extended, n + 1))


@given(feasible_tables(), st.integers(0, 2 ** 16))
@settings(max_examples=15, deadline=None)
def test_dim_submultiplicativity_random(table_depth, seed):
    values, depth = table_depth
    system = build_plain(table_spec(values), "seeded", depth, seed=seed)
    n_max = 1 << (depth - 1)
    report = analyzer.dim_series(system, n_max)
    assert report.submultiplicative_violations() == []


@given(st.integers(1, 3), st.lists(st.text(alphabet="abc", min_size=1, max_size=6), min_size=1))
@settings(max_examples=30, deadline=None)
def test_encode_decode_bijective(d, words):
    spec = table_spec({1: d, 2: d})
    system = build_plain(spec, "lex", 1)
    engine = FactorEngine(system)
    letters = system.alphabet.letters
    for word in words:
        word = "".join(letters[(ord(c) - ord("a")) % d] for c in word)
        assert engine.decode(encoded(engine, [word]), len(word)) == [word]
