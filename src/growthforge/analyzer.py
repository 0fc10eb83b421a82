"""Exact factor-language analytics over a built level system.

The factor set F(n) is the set of distinct length-n windows of all words in
the union of the W(2^j), j <= depth. Two independent routes compute it:

  * brute force: join each level's member words from the lower levels'
    words, then every element of every level from those, and slide windows
    (bounded by a character budget, the oracle for everything else);
  * structural: never materialize W. Every window either sits inside the
    leading choice-set block of some level or straddles the boundary between
    that block and the W-tail behind it, so

        F(n) = union over j >= ceil(log2 n) - 1 of
               { suffix_a(C_j) ++ prefix_(n-a)(W(2^j)) : 1 <= a <= min(n-1, 2^j) }

    with prefix sets computed by the same halving recursion.

Words are bit-packed integer codes in uint64 limbs (see `codes`), an
injective encoding that keeps the lex order of equal-length words, so
counts are exact. A member of C_j is a member of C_(j-1) followed by a
shorter element, so member codes are folded up the levels from the choice
arrays, one gather and one shift-and-OR per level step; no member string is
encoded. Every suffix and every short prefix code is then a bit field of a
member code, and its table is the sorted distinct fields (a cut table). A
longer prefix is a whole member followed by a shorter prefix, so its set is
the sorted product of a member table and a shorter prefix set, built once.
Each straddle block suffix_a(C_j) x prefix_(n-a)(W(2^j)) is then a sorted
virtual product of two tables (see `codes`): its codes below a threshold
are counted by binary search in its tables, and any rank range of it is
written from the tables directly.
|F(n)| is counted over disjoint code-range parts. When the window codes of
n do not fit one part, every stride-th code of each block is sampled, and
the parts are cut at samples chosen by counting samples and then by their
exact ranks summed over the blocks, so no part's sort (codes, plus the
lexsort index and sorted copy for codes of two limbs or more) exceeds about
2 MiB. Each part is written once into one array from each block's rank
range, sorted, and its rows that differ from their predecessor are counted;
an n that fits one part is one such part. `GROWTHFORGE_BUDGET` bounds, in
8-byte words, the tables an engine holds (a cut table is checked once
built, before it is kept; a prefix product before it is built, from its
factors' sizes), and the largest part and the samples of each n with their
sort scratch; `check_window_budget` builds the tables of every n up to a
bound and checks its parts and samples before any n is counted. F(n) itself
leaves the engine only as the parts' distinct codes in order, and words
only through `decode`, one array pass. Counts are memoized per engine, and
building F(n) records |F(n)|, so each n is counted once. Membership of a
single word never builds F(n): w is a factor exactly when, for some
straddle (j, a), w[:a] ends a C_j member and w[a:] is a prefix, field by
field; a field of one limb is found by binary search in its cut table, and
a wider one, which a long word would use once, is compared with the member
codes directly.

Dimensions dim_n = |F(n)| feed the growth report (cumulative sums, entropy
partials g(n)^(1/n) via exact integer roots), the dyadic growth sandwich,
the Morse-Hedlund aperiodicity test and minimal forbidden words. All results
carry the build depth: they are exact for the truncation and lower
approximations of the limit object. A report's `to_dict` is its fields as
JSON values plus its verdicts.

The recurrence certificate covers every element of every level and expands
none of them. For a captured target w, an occurrence summary records a
word's length, its |w|-1 letters at each end, the first and last start of w
and the largest gap between starts. The summary of uv follows from those of
u and v, so member summaries are folded from the choice rows the same way
as member codes, with no member string scanned: summaries are interned as
ids, and each fold step concatenates each distinct (head id, rest id) pair
once. Each level W(2^(j+1)) = C(2^j) W(2^j) is a Counter of distinct
summaries with element multiplicities.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

import numpy as np

from .codes import (
    field, holds, letter_bits, limb_count, occurs, part_edges, part_plan, product_codes,
    product_size, search_key, shifted, sort_marked, sort_words, sorted_parts, sorted_unique,
    unpack,
)
from .construction import LevelSystem, _fold_members, _json_fields
from .errors import BudgetExceeded, DepthTooShallow, require_budget, size_budget
from .exactmath import ceil_log2, nth_root_floor_scaled, sqrt_bracket, decimal_string

ENTROPY_DIGITS = 6
PAIR_SIDE = 256   # summaries a dense pair table of the summary fold covers: 512 KiB at most


class FactorEngine:
    """Structural factor computation with per-system caches.

    Caches sorted cut tables of the member codes, prefix products, each n's
    part plan and the counts |F(n)|; safe to reuse across many n because the
    system is immutable once built.
    """

    def __init__(self, system: LevelSystem):
        self.system = system
        self.d = system.alphabet.size
        self.bits = letter_bits(self.d)
        self.depth = system.depth
        self._digit = {ch: i for i, ch in enumerate(system.alphabet.letters)}
        self._counts: dict[int, int] = {}
        self._plans: dict[int, tuple[int, int, int, int]] = {}
        self._letters = np.arange(self.d, dtype=np.uint64)   # the codes of W(1)
        codes = _fold_members(system, self._letters, self._join)
        self._members = [sort_marked(level)[0] for level in codes]   # members are distinct
        # Cut tables by (level, lo, bits); a whole member code cuts its level's members.
        self._tables = {(j, 0, self.bits << j): m for j, m in enumerate(self._members)}
        self._prefixes: dict[tuple[int, int], np.ndarray] = {}   # prefix sets by (j, m)
        self._held = 0   # 8-byte words of the cut tables and prefix products built

    def encode(self, word: str) -> int:
        code = 0
        for ch in word:
            code = code << self.bits | self._digit[ch]
        return code

    def decode(self, codes: np.ndarray, n: int) -> list[str]:
        """The length-n words of a code array, in order, from one gather of letters."""
        letters = np.array(list(self.system.alphabet.letters))[unpack(codes, n, self.bits)]
        return np.ascontiguousarray(letters).view(f"U{n}").reshape(-1).tolist()

    # -- cut tables and straddle blocks -------------------------------------

    def _join(self, head: np.ndarray, tail: np.ndarray, l: int) -> np.ndarray:
        """Codes of 2^l-letter words: each head shifted past the 2^(l-1) tail letters.

        The head moves by at least one bit, so its shifted copy is a new array
        and the tail is ORed into it in place.
        """
        k = limb_count(1 << l, self.bits)
        out = shifted(head, self.bits << (l - 1), k)
        out |= shifted(tail, 0, k)
        return out

    def _hold(self, words: int, what: str) -> None:
        """Add a table of `words` 8-byte words to those held, refused over the budget."""
        require_budget(self._held + words, f"{what} with the tables held", "8-byte words")
        self._held += words

    def _table(self, level: int, lo: int, bits: int) -> np.ndarray:
        """Sorted distinct bits lo .. lo+bits-1 of the C_level member codes; held once built."""
        key = (level, lo, bits)
        hit = self._tables.get(key)
        if hit is None:
            hit = sorted_unique(field(self._members[level], lo, bits))
            self._hold(hit.size, f"cut table {key}")
            self._tables[key] = hit
        return hit

    def _prefix(self, j: int, m: int) -> np.ndarray:
        """Sorted codes of the distinct length-m prefixes of W(2^j) elements.

        A short prefix is a cut table. A longer one is a whole member c
        followed by a shorter prefix p; c ++ p is injective and ascending in
        (c, p), so the set is the sorted product of the two tables, whose
        size is known, and held, before it is built. Memoized.
        """
        hit = self._prefixes.get((j, m))
        if hit is None:
            half, b = 1 << j >> 1, self.bits
            if j and m > half:
                factors = [(self._members[j - 1], b * (m - half), b * half),
                           (self._prefix(j - 1, m - half), 0, b * (m - half))]
                k = limb_count(m, b)
                self._hold(product_size(factors) * k, f"prefix product {(j, m)}")
                hit = product_codes(factors, k)
            else:
                hit = self._table(j - 1, b * (half - m), b * m) if j else self._letters
            self._prefixes[j, m] = hit
        return hit

    def prefixes(self, j: int, m: int) -> np.ndarray:
        """Sorted codes of the distinct length-m prefixes of W(2^j) elements."""
        if not 1 <= m <= (1 << j):
            raise ValueError(f"prefix length {m} invalid at level {j}")
        return self._prefix(j, m)

    def suffixes(self, j: int, a: int) -> np.ndarray:
        """Sorted codes of the distinct length-a suffixes of C(2^j) members."""
        if not 1 <= a <= 1 << j:
            raise ValueError(f"suffix length {a} invalid at level {j}")
        return self._table(j, 0, self.bits * a)

    def _straddles(self, n: int):
        """(j, a) pairs whose windows suffix_a(C_j) ++ prefix_(n-a)(W(2^j)) exhaust F(n)."""
        for j in range(max(ceil_log2(n) - 1, 0), self.depth):
            for a in range(max(1, n - (1 << j)), min(n - 1, 1 << j) + 1):
                yield j, a

    def _blocks(self, n: int) -> list[list[tuple[np.ndarray, int, int]]]:
        """The window codes of length n as blocks, each the factors of a sorted product.

        A straddle's block is its suffix table, then its prefix set; n = 1
        is the one block of the letters.
        """
        b = self.bits
        if n == 1:
            return [[(self._letters, 0, b)]]
        return [[(self._table(j, 0, b * a), b * (n - a), b * a), (self._prefix(j, n - a), 0, b * (n - a))]
                for j, a in self._straddles(n)]

    def _check_depth(self, n: int) -> None:
        if n > 1 << (self.depth - 1):
            raise DepthTooShallow(n, 1 << (self.depth - 1))

    # -- factor sets --------------------------------------------------------

    def _plan(self, n: int) -> tuple[int, int]:
        """(part capacity, sample stride) of length n (`codes.part_plan`); refused over the budget.

        The block sizes are known from the table sizes before anything is
        combined, and the plan is memoized: the straddles of each n are
        summed once. The largest part and the samples must each fit the
        budget, in 8-byte words of their sort (`codes.sort_words`); the
        samples' sort also bounds the block ranks at the candidate cuts.
        """
        k = limb_count(n, self.bits)
        plan = self._plans.get(n)
        if plan is None:
            plan = self._plans[n] = part_plan(list(map(product_size, self._blocks(n))), k)
        for what, count in zip(("part", "samples"), plan[2:]):
            require_budget(count * sort_words(k), f"factor length {n} {what} ({count} window codes)",
                           "8-byte sort words")
        return plan[:2]

    def _parts(self, n: int, take) -> list:
        """take(codes, new) of each sorted part of the window codes of length n, in code order."""
        capacity, stride = self._plan(n)
        k = limb_count(n, self.bits)
        blocks = self._blocks(n)
        edges = part_edges(blocks, list(map(product_size, blocks)), capacity, stride, k)
        return sorted_parts(blocks, edges, k, take)

    def count(self, n: int) -> int:
        """|F(n)|, memoized: the codes that differ from their predecessor, summed over the parts."""
        self._check_depth(n)
        hit = self._counts.get(n)
        if hit is None:
            hit = self._counts[n] = sum(self._parts(n, lambda _, new: int(np.count_nonzero(new))))
        return hit

    def _holds_field(self, level: int, lo: int, bits: int, code: int) -> bool:
        """Whether the low `bits` bits of an int code are bits lo .. of a C_level member code.

        A field of one limb, or one whose table exists, is looked up in its
        sorted table. A wider one, which a long word would use once, builds
        no table: its 64 bits at the end of the field that is lo (or, if lo
        is not 0, the other) are looked up first in the table of those member
        bits, which every field ending there shares, and only then is the
        field compared with the member codes directly.
        """
        code &= (1 << bits) - 1
        if bits > 64 and (level, lo, bits) not in self._tables:
            edge = lo if lo == 0 else lo + bits - 64
            return (self._holds_field(level, edge, 64, code >> edge - lo)
                    and occurs(field(self._members[level], lo, bits), code))
        return bool(holds(self._table(level, lo, bits), search_key(code, limb_count(bits, 1))))

    def _is_prefix(self, j: int, m: int, code: int) -> bool:
        """Whether the low m letters of an int code are a prefix of a W(2^j) element."""
        half, b = 1 << j >> 1, self.bits
        if j == 0:
            return True
        if m <= half:
            return self._holds_field(j - 1, b * (half - m), b * m, code)
        return (self._holds_field(j - 1, 0, b * half, code >> b * (m - half))
                and self._is_prefix(j - 1, m - half, code))

    def contains(self, word: str) -> bool:
        """Whether word is in F(len(word)), without building F(n)."""
        n = len(word)
        self._check_depth(n)
        if any(ch not in self._digit for ch in word):
            return False
        if n <= 1:
            return True
        # A straddle's prefix w[a:] is tested only once its head w[:a] is a member suffix.
        code = self.encode(word)
        return any(self._holds_field(j, 0, self.bits * a, code >> self.bits * (n - a))
                   and self._is_prefix(j, n - a, code) for j, a in self._straddles(n))

    def distinct(self, n: int) -> np.ndarray:
        """F(n) as its sorted distinct window codes: the parts' in order; |F(n)| is memoized."""
        self._check_depth(n)
        codes = np.concatenate(self._parts(n, lambda codes, new: codes[new]))
        self._counts[n] = len(codes)
        return codes


def check_window_budget(system: LevelSystem, n_max: int) -> None:
    """Refuse the first n <= n_max whose parts or samples exceed the budget, before counting any."""
    engine = _engine_for(system)
    engine._check_depth(n_max)
    for n in range(1, n_max + 1):
        engine._plan(n)


def is_factor(system: LevelSystem, word: str) -> bool:
    """Whether word is a factor of the system, without building F(len(word))."""
    return _engine_for(system).contains(word)


def factor_set_bruteforce(system: LevelSystem, n: int, budget: int | None = None) -> frozenset[str]:
    """F(n) by full expansion of every level; the independent oracle."""
    budget = budget if budget is not None else size_budget()
    total = sum(system.level_word_count(j) << j for j in range(system.depth + 1))
    if total > budget:
        raise BudgetExceeded(total, budget)
    # Members are elements too, so their words stay inside the budget. Each
    # level's members are joined from the lower levels' member words.
    members: list[list[str]] = []
    for cs in system.csets:
        blocks = members[::-1] + [system.alphabet.letters]   # one per choice
        members.append(["".join([block[c] for block, c in zip(blocks, row)])
                        for _, rows in cs.chunks() for row in rows.tolist()])
    seen: set[str] = set()
    for j in range(system.depth + 1):
        if (1 << j) < n:
            continue
        blocks = members[:j][::-1] + [system.alphabet.letters]   # one per choice
        for choices in system.iter_refs(j):
            word = "".join([block[c] for block, c in zip(blocks, choices)])
            for i in range(len(word) - n + 1):
                seen.add(word[i:i + n])
    return frozenset(seen)


def _engine_for(system: LevelSystem) -> FactorEngine:
    # Cached on the system object; rebuilt if the depth changed (builders
    # only ever append levels before analysis starts).
    eng = getattr(system, "_factor_engine", None)
    if eng is None or eng.depth != system.depth:
        eng = FactorEngine(system)
        system._factor_engine = eng
    return eng


# -- dimension series ---------------------------------------------------------


@dataclass
class DimensionRow:
    n: int
    dim: int
    cumulative: int
    entropy_partial: Fraction       # lower bracket of g(n)^(1/n), resolution 10^-digits
    entropy_str: str


@dataclass
class DimensionReport:
    """dim_n = |F(n)| = p(n), cumulative growth and entropy partials."""

    rows: list[DimensionRow]
    depth: int
    digits: int

    def submultiplicative_violations(self) -> list[tuple[int, int]]:
        """Pairs (n, m) with dim_(n+m) > dim_n * dim_m; empty on factorial languages."""
        dims, top = {row.n: row.dim for row in self.rows}, len(self.rows)
        return [(n, m) for n in range(1, top + 1) for m in range(1, top - n + 1)
                if dims[n + m] > dims[n] * dims[m]]

    def to_csv(self) -> str:
        lines = ["n,dim,cumulative,entropy_partial,depth"]
        for row in self.rows:
            lines.append(f"{row.n},{row.dim},{row.cumulative},{row.entropy_str},{self.depth}")
        return "\n".join(lines) + "\n"


def dim_series(system: LevelSystem, n_max: int) -> DimensionReport:
    """Exact dims for n = 1..n_max with cumulative sums and entropy partials."""
    engine = _engine_for(system)
    engine._check_depth(n_max)
    rows: list[DimensionRow] = []
    g = 0
    for n in range(1, n_max + 1):
        dim = engine.count(n)
        g += dim
        h = nth_root_floor_scaled(g, n, ENTROPY_DIGITS)
        rows.append(DimensionRow(n, dim, g, h, decimal_string(h, ENTROPY_DIGITS)))
    return DimensionReport(rows, system.depth, ENTROPY_DIGITS)


# -- growth sandwich -----------------------------------------------------------


@dataclass
class SandwichReport:
    """Exact dyadic bounds on dim at 2^n."""

    n: int
    dim: int
    hard_lower: int         # prod of choice-set ratios below n
    hard_upper: int         # 2^(2n+3) f(2^(n+1))
    soft_lower: int         # f(2^n); truncation may transiently miss it
    depth: int

    @property
    def hard_ok(self) -> bool:
        return self.hard_lower <= self.dim <= self.hard_upper

    @property
    def soft_ok(self) -> bool:
        return self.dim >= self.soft_lower

    def to_dict(self) -> dict:
        return _json_fields(self, hard_ok=self.hard_ok, soft_ok=self.soft_ok)


def check_growth_sandwich(system: LevelSystem, n: int) -> SandwichReport:
    """Hard: prod r_i <= dim_(2^n) <= 2^(2n+3) f(2^(n+1)). Soft: f(2^n) <= dim."""
    engine = _engine_for(system)
    engine._check_depth(1 << n)
    dim = engine.count(1 << n)
    hard_lower = 1
    for i in range(n):
        hard_lower *= system.spec.ratio(i)
    hard_upper = (1 << (2 * n + 3)) * system.spec.value(1 << (n + 1))
    return SandwichReport(
        n=n, dim=dim,
        hard_lower=hard_lower, hard_upper=hard_upper,
        soft_lower=system.spec.value(1 << n),
        depth=system.depth,
    )


# -- recurrence ------------------------------------------------------------------


@dataclass
class RecurrenceEntry:
    target_word: str
    capture_level: int
    gap_bound: int
    max_gap: int
    max_first_occurrence: int
    max_tail: int
    elements_scanned: int
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return _json_fields(self, passed=self.passed)


@dataclass
class RecurrenceReport:
    entries: list[RecurrenceEntry]
    depth: int

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    # Finite truncations certify recurrence only for the targets actually
    # captured; this label is part of the report contract.
    certification = ("exhaustive: every length-c window of every element of W(2^m), "
                     "capture level < m <= depth, contains w")

    def to_dict(self) -> dict:
        return _json_fields(self, passed=self.passed, certification=self.certification)


def scan_occurrences(text: str, word: str) -> list[int]:
    """All (overlapping) start positions of word in text."""
    out = []
    i = text.find(word)
    while i != -1:
        out.append(i)
        i = text.find(word, i + 1)
    return out


def _summary(text: str, word: str) -> tuple:
    """(|u|, u[:k], u[-k:], first start, last start, max gap) of u = text, k = |word| - 1."""
    k = len(word) - 1
    occ = scan_occurrences(text, word)
    gap = max(map(sub, occ[1:], occ), default=0)
    return (len(text), text[:k], text[max(0, len(text) - k):],
            occ[0] if occ else None, occ[-1] if occ else None, gap)


def _concat(left: tuple, right: tuple, word: str) -> tuple:
    """The summary of uv: starts in u, then across the junction, then in v shifted by |u|."""
    n1, pre1, suf1, first1, last1, gap1 = left
    n2, pre2, suf2, first2, last2, gap2 = right
    k = len(word) - 1
    edge = n1 - len(suf1)
    starts = [edge + q for q in scan_occurrences(suf1 + pre2, word) if q < len(suf1)]
    if last1 is not None:
        starts.insert(0, last1)
    if first2 is not None:
        starts.append(n1 + first2)
    tail = suf1 + suf2
    return (n1 + n2, (pre1 + pre2)[:k], tail[max(0, len(tail) - k):],
            first1 if first1 is not None else starts[0] if starts else None,
            n1 + last2 if last2 is not None else starts[-1] if starts else None,
            max(gap1, gap2, *map(sub, starts[1:], starts)))


def _member_summaries(system: LevelSystem, word: str) -> tuple[list[tuple], list[np.ndarray]]:
    """Occurrence summaries of every member, interned: the table and per-level member ids.

    Each distinct (head id, rest id) pair is concatenated once over the whole
    fold, and within a fold step in ascending (head, rest) order. While the
    table has at most PAIR_SIDE summaries, a step reads its pairs' ids from a
    dense (head, rest) table of them, kept across the steps and chunks of
    the fold and grown by doubling, so a known pair costs one gather. Past
    that, a step packs each pair into one int64 key, dedupes the keys with
    np.unique and looks the distinct pairs up in a dict.
    """
    table: list[tuple] = []
    ids: dict[tuple, int] = {}
    joined: dict[tuple[int, int], int] = {}
    pairs = np.empty((0, 0), dtype=np.int64)   # pair ids by (head, rest), -1 if not joined yet

    def intern(summary: tuple) -> int:
        i = ids.get(summary)
        if i is None:
            i = ids[summary] = len(table)
            table.append(summary)
        return i

    def pair_id(key: int, width: int) -> int:
        pair = divmod(key, width)
        i = joined.get(pair)
        if i is None:
            i = joined[pair] = intern(_concat(table[pair[0]], table[pair[1]], word))
        return i

    def join(head: np.ndarray, rest: np.ndarray, _level: int) -> np.ndarray:
        nonlocal pairs
        width = len(table)
        if width > PAIR_SIDE:
            distinct, inverse = np.unique(head * width + rest, return_inverse=True)
            return np.array([pair_id(key, width) for key in distinct.tolist()],
                            dtype=np.int64)[inverse]
        if len(pairs) < width:
            side = min(max(2 * len(pairs), width), PAIR_SIDE)
            grown = np.full((side, side), -1, dtype=np.int64)
            grown[:len(pairs), :len(pairs)] = pairs
            pairs = grown
        flat = pairs.reshape(-1)
        cells = head * len(pairs) + rest
        out = flat[cells]
        missing = out < 0
        if missing.any():
            for key in sorted_unique(head[missing] * width + rest[missing]).tolist():
                pairs[divmod(key, width)] = pair_id(key, width)
            out = flat[cells]
        return out

    leaves = np.array([intern(_summary(ch, word)) for ch in system.alphabet.letters],
                      dtype=np.int64)
    return table, _fold_members(system, leaves, join)


def verify_recurrence_gaps(system: LevelSystem) -> RecurrenceReport:
    """Certify for each capture (w, t', c) that w lies in every length-c window of W(2^m), m > t'.

    That is first <= c - |w|, gaps <= c - |w| + 1 and |u| - last <= c; a u
    without w has first = tail = |u|, and a u shorter than c has no window.
    """
    letters = system.alphabet.letters
    entries: list[RecurrenceEntry] = []
    for log in system.capture_log:
        word, bound = log.target_word, log.gap_bound
        slack = bound - len(word)
        level = Counter(_summary(ch, word) for ch in letters)
        table, member_ids = _member_summaries(system, word)
        max_gap = max_first = max_tail = scanned = violations = 0
        for m in range(1, system.depth + 1):
            counts = np.bincount(member_ids[m - 1])   # members per summary id
            heads = np.flatnonzero(counts)
            level, previous = Counter(), level
            for i, x in zip(heads.tolist(), counts[heads].tolist()):
                for rest, y in previous.items():
                    level[_concat(table[i], rest, word)] += x * y
            if m <= log.capture_level:
                continue
            for (n, _, _, first, last, gap), count in level.items():
                first, tail = (n, n) if first is None else (first, n - last)
                max_first = max(max_first, first)
                max_gap = max(max_gap, gap)
                max_tail = max(max_tail, tail)
                scanned += count
                if n >= bound and (first > slack or gap > slack + 1 or tail > bound):
                    violations += count
        entries.append(RecurrenceEntry(word, log.capture_level, bound, max_gap, max_first,
                                       max_tail, scanned, violations))
    return RecurrenceReport(entries, system.depth)


# -- aperiodicity -----------------------------------------------------------------


@dataclass
class AperiodicityReport:
    n_max: int
    dims: list[int]
    first_stall: int | None     # least n with p(n) < n + 1
    depth: int

    @property
    def passed(self) -> bool:
        return self.first_stall is None

    def to_dict(self) -> dict:
        return _json_fields(self, passed=self.passed)


def check_nonperiodicity(system: LevelSystem, n_max: int) -> AperiodicityReport:
    """Morse-Hedlund test: complexity p(n) >= n+1 for n <= n_max.

    A stall p(n) <= n forces the limit language to be eventually periodic,
    so passing certifies aperiodicity at the verified scale.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    engine = _engine_for(system)
    dims = [engine.count(n) for n in range(1, n_max + 1)]
    first_stall = None
    for n, p in enumerate(dims, start=1):
        if p < n + 1:
            first_stall = n
            break
    return AperiodicityReport(n_max, dims, first_stall, system.depth)


# -- minimal forbidden words --------------------------------------------------------


def minimal_forbidden_words(system: LevelSystem, max_len: int) -> tuple[list[str], int]:
    """Words absent from the language whose proper factors are all present.

    A word uz (z a letter) qualifies when it is not a factor but u and its
    one-letter truncation on the left, u[1:]z, are (Crochemore, Mignosi and
    Restivo): every candidate is a length-(n-1) factor code shifted one
    letter left, OR z, tested against F(n) and its last n-1 letters against
    F(n-1), all by binary search in sorted code arrays; only the words kept
    are decoded.
    Labeled with the build depth: a deeper build can revive a word, so
    "forbidden at depth D" is part of the contract.
    """
    engine = _engine_for(system)
    engine._check_depth(max_len)
    letters = engine._letters
    out: list[str] = []
    prev = np.zeros(1, dtype=np.uint64)     # F(0): the empty word
    for n in range(1, max_len + 1):
        cur = engine.distinct(n)
        k = limb_count(n, engine.bits)
        cand = shifted(prev, engine.bits, k)[:, None] | shifted(letters, 0, k)[None]
        cand = cand.reshape(-1, *cand.shape[2:])
        keep = ~holds(cur, cand) & holds(prev, field(cand, 0, engine.bits * (n - 1)))
        out.extend(engine.decode(cand[keep], n))
        prev = cur
    # Code order is letter-index order, which is not string order beyond 26 letters.
    return sorted(out, key=lambda w: (len(w), w)), system.depth


# -- entropy -----------------------------------------------------------------------


@dataclass
class EntropyReport:
    partials: list[tuple[int, Fraction, str]]    # (n, h(n) lower bracket, decimal)
    power_band: tuple[Fraction, Fraction] | None     # [sqrt(1+eps), (1+eps)^2]
    linear_band: tuple[Fraction, Fraction] | None    # [1 + eps/3, 1 + 3 eps]
    digits: int
    depth: int

    def to_dict(self) -> dict:
        return _json_fields(self)


def entropy_partial(system: LevelSystem, n_max: int) -> EntropyReport:
    """h(n) = g(n)^(1/n) with exact g and stated decimal resolution.

    For the (1+eps)-driven families the report also carries the two
    reference bands the limit entropy is known to respect: the power band
    [sqrt(1+eps), (1+eps)^2] and, for eps < 1, its linear relaxation
    [1 + eps/3, 1 + 3 eps]. Band proximity at finite depth is informational.
    """
    report = dim_series(system, n_max)
    partials = [(row.n, row.entropy_partial, row.entropy_str) for row in report.rows]
    power_band = linear_band = None
    eps = system.spec.epsilon
    if eps is not None:
        lo, _ = sqrt_bracket(1 + eps)
        power_band = (lo, (1 + eps) ** 2)
        linear_band = (1 + eps / 3, 1 + 3 * eps)
    return EntropyReport(partials, power_band, linear_band, ENTROPY_DIGITS, system.depth)
