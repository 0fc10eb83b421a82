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

    with prefix sets computed by halving, W(2^(l+1)) = C(2^l) W(2^l).

Words are bit-packed integer codes in uint64 limbs (see `codes`), an
injective encoding that keeps the lex order of equal-length words, so
counts are exact. A member of C_j is a member of C_(j-1) followed by a
shorter element, so member codes are folded up the levels from the choice
arrays, one gather and one shift-and-OR per level step; no member string is
encoded. The straddles (j, a) of n (`_windows`) are the one list that
counting and membership walk. A straddle is a tuple of fields (level, lo,
bits) tiling its n letters from the left, each bits lo .. lo+bits-1 of a
C_level member code (level -1: a letter). One field's table is its sorted
distinct fields (a cut table); a longer prefix is a whole member followed
by a shorter one, so its set is the sorted product of two tables, built
once. `_tables` keeps them by field tuple; a per-level index holds the same
arrays by length, level j's suffix cut tables by a and prefix tables by
m = n - a, so a count reads each block's two tables without a tuple. A
block is their sorted virtual product (see `codes`): its codes below a
threshold are counted by binary search, any rank range written in place.
|F(n)| is counted over disjoint code-range parts, sized from n's blocks
(`codes.part_plan`) and cut at sampled codes (`codes.part_edges`): each
part is written once from each block's rank range, sorted, and its rows
that differ from their predecessor are counted.
`GROWTHFORGE_BUDGET` bounds, in 8-byte words, the tables an engine holds (a
cut table is checked once built, before it is kept; a prefix product before
it is built, from its factors' sizes), and the largest part of each n with
its sort scratch; `check_window_budget` builds the tables of every n up to
a bound and checks its parts before any n is counted. F(n) itself
leaves the engine only as the parts' distinct codes in order, and words
only through `decode`, one array pass. Counts are memoized per engine, and
building F(n) records |F(n)|, so each n is counted once. Membership never
builds F(n): w is a factor exactly when, for some straddle, each field of
w is in its cut table. `held` takes codes of one length, which walk the
straddles once, field by field; a cut table is built when a code first
reaches it, a field wider than one limb meets its 64-bit edge table, then
the members' sorted field, not kept. No word is ever coded for `held`.

Dimensions dim_n = |F(n)| feed the growth report (cumulative sums, entropy
partials g(n)^(1/n) via exact integer roots), the dyadic growth sandwich,
the Morse-Hedlund aperiodicity test and minimal forbidden words. All results
carry the build depth: they are exact for the truncation and lower
approximations of the limit object. A report's `to_dict` is its fields as
JSON values plus its verdicts.

The recurrence certificate covers every element of every level and expands
none of them: it reads each level W(2^m) as a Counter of occurrence
summaries with element multiplicities, from `summaries.level_counters`,
which builds the top level's from its rank-range blocks, so no row of a lex
top level is unranked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import (
    EMPTY, concat, field, fields, holds, letter_bits, limb_count, part_edges, part_plan,
    product_codes, sort_marked, sort_words, sorted_parts, sorted_unique,
)
from .construction import LevelSystem, _fold_members, _json_fields
from .errors import DepthTooShallow, require_budget
from .exactmath import ceil_log2, nth_root_floor_scaled, sqrt_bracket, decimal_string
from .summaries import level_counters

ENTROPY_DIGITS = 6


class FactorEngine:
    """Structural factor computation with per-system caches.

    Caches the sorted tables of field tuples (cut tables and prefix
    products) and the counts |F(n)|; safe to reuse across many n because the
    system is immutable once built.
    """

    def __init__(self, system: LevelSystem):
        self.system = system
        self.d = system.alphabet.size
        self.bits = letter_bits(self.d)
        self.depth = system.depth
        self._counts: dict[int, int] = {}
        self._letters = np.arange(self.d, dtype=np.uint64)[:, None]   # the codes of W(1)
        codes = _fold_members(system, self._letters, self._join)
        self._members = [sort_marked(level)[0] for level in codes]   # members are distinct
        # Tables by field tuple: W(1) is the letters, and a whole member code cuts its level's members.
        self._tables = {((-1, 0, self.bits),): self._letters,
                        **{((j, 0, self.bits << j),): m for j, m in enumerate(self._members)}}
        self._held = 0   # 8-byte words of the cut tables and prefix products built
        # Level j's suffix cut tables by a (0: the empty word) and prefix tables by m, from `_table`.
        self._index = [({}, {}) for _ in range(self.depth)]

    def decode(self, codes: np.ndarray, n: int) -> list[str]:
        """The length-n words of a code array, in order, from one gather of their letter fields."""
        digits = fields(codes, self.bits * np.arange(n - 1, -1, -1), np.full(n, self.bits)).T
        letters = np.array(list(self.system.alphabet.letters))[digits]
        return np.ascontiguousarray(letters).view(f"U{n}").reshape(-1).tolist()

    # -- field tuples, their tables and straddle blocks ----------------------

    def _join(self, head: np.ndarray, tail: np.ndarray, l: int) -> np.ndarray:
        """Codes of 2^l-letter words: each head shifted past the 2^(l-1) tail letters (`codes.concat`)."""
        out = np.empty((len(head), limb_count(1 << l, self.bits)), dtype=np.uint64)
        return concat(out, head, self.bits << (l - 1), tail)

    def _hold(self, words: int, what: str) -> None:
        """Add a table of `words` 8-byte words to those held, refused over the budget."""
        require_budget(self._held + words, f"{what} with the tables held", "8-byte words")
        self._held += words

    def _fields(self, j: int, a: int, m: int) -> tuple:
        """suffix_a(C_j) ++ prefix_m(W(2^j)) as fields, left to right; a = 0 is the prefix alone.

        The prefix halves: W(2^(l+1)) is C(2^l) W(2^l), so its prefix is the
        first m letters of a C_l member, or a whole one and a prefix of W(2^l)."""
        b = self.bits
        fields = [(j, 0, b * a)] if a else []
        for l in range(j - 1, -1, -1):
            if m <= 1 << l:
                return (*fields, (l, b * ((1 << l) - m), b * m))
            fields.append((l, 0, b << l))
            m -= 1 << l
        return (*fields, (-1, 0, b))

    def _windows(self, n: int):
        """The straddles (j, a) of F(n), each `_fields(j, a, n - a)`; n = 1's one, (0, 0), is a letter."""
        if n == 1:
            yield 0, 0
        for j in range(max(ceil_log2(n) - 1, 0), self.depth):
            for a in range(max(1, n - (1 << j)), min(n - 1, 1 << j) + 1):
                yield j, a

    def _table(self, fields: tuple) -> np.ndarray:
        """Sorted distinct codes of a field tuple's words, memoized; held once built.

        One field is a cut table, checked once built. More are a whole C_l
        member c and the rest's words p; c ++ p is injective and ascending in
        (c, p), so the set is the sorted product of the two tables, whose size
        is known, and held, before it is built: prefix product (l + 1, letters).
        """
        hit = self._tables.get(fields)
        if hit is None:
            if len(fields) == 1:
                (level, lo, bits), = fields
                hit = sorted_unique(field(self._members[level], lo, bits))
                self._hold(hit.size, f"cut table {fields[0]}")
            else:
                n = sum(bits for _, _, bits in fields) // self.bits
                tail, head = self._table(fields[1:]), self._table(fields[:1])   # the tail first
                k = limb_count(n, self.bits)
                self._hold(len(head) * len(tail) * k, f"prefix product {(fields[0][0] + 1, n)}")
                hit = product_codes((head, self.bits * n - fields[0][2], tail), k)
            self._tables[fields] = hit
        return hit

    def prefixes(self, j: int, m: int) -> np.ndarray:
        """Sorted codes of the distinct length-m prefixes of W(2^j) elements, 1 <= m <= 2^j."""
        return self._table(self._fields(j, 0, m))

    def suffixes(self, j: int, a: int) -> np.ndarray:
        """Sorted codes of the distinct length-a suffixes of C(2^j) members, 1 <= a <= 2^j."""
        return self._table(((j, 0, self.bits * a),))

    def _blocks(self, n: int) -> list[tuple[np.ndarray, int, np.ndarray]]:
        """The window codes of length n as blocks, one sorted product per straddle (j, a): level j's
        cut table of a letters, then its prefix table of m = n - a, read from the index by a and m."""
        blocks, b = [], self.bits
        for j, a in self._windows(n):
            cuts, prefixes = self._index[j]
            if n - a not in prefixes:             # built before the head, as a prefix product is
                prefixes[n - a] = self.prefixes(j, n - a)
            if a not in cuts:
                cuts[a] = self.suffixes(j, a) if a else EMPTY
            blocks.append((cuts[a], b * (n - a), prefixes[n - a]))
        return blocks

    def _check_depth(self, n: int) -> None:
        if n > 1 << (self.depth - 1):
            raise DepthTooShallow(n, 1 << (self.depth - 1))

    # -- factor sets --------------------------------------------------------

    def _plan(self, n: int, blocks: list) -> tuple[list[int], int, int]:
        """(sizes, capacity, stride) of n's blocks (`codes.part_plan`); refused over the budget.

        The block sizes are known from the table sizes before anything is
        combined. The largest part must fit the budget, in 8-byte words of
        its sort (`codes.sort_words`); the samples, and the block ranks at
        the candidate cuts, are no more than a part.
        """
        k = limb_count(n, self.bits)
        sizes = [len(head) * len(tail) for head, _, tail in blocks]
        capacity, stride, largest = part_plan(sizes, k)
        require_budget(largest * sort_words(k), f"factor length {n} part ({largest} window codes)",
                       "8-byte sort words")
        return sizes, capacity, stride

    def _parts(self, n: int, take) -> list:
        """take(codes, new) of each sorted part of the window codes of length n, in code order."""
        blocks = self._blocks(n)
        k = limb_count(n, self.bits)
        edges = part_edges(blocks, *self._plan(n, blocks), k)
        return sorted_parts(blocks, edges, k, take)

    def count(self, n: int) -> int:
        """|F(n)|, memoized: the codes that differ from their predecessor, summed over the parts."""
        self._check_depth(n)
        hit = self._counts.get(n)
        if hit is None:
            hit = self._counts[n] = sum(self._parts(n, lambda _, new: int(np.count_nonzero(new))))
        return hit

    def _held_field(self, level: int, lo: int, bits: int, codes: np.ndarray, at: int) -> np.ndarray:
        """Which codes hold, at bits at .. at+bits-1, bits lo .. lo+bits-1 of a C_level member code.

        A field of one limb, or one with a table, is searched in its cut table,
        built when codes first reach it (no caller passes none). A wider one
        builds none: codes whose 64 bits at its lo end (else its other end) are
        in that edge table are searched in the members' sorted field, not kept."""
        if bits > 64 and ((level, lo, bits),) not in self._tables:
            edge = lo if lo == 0 else lo + bits - 64
            hit = self._held_field(level, edge, 64, codes, at + edge - lo)
            if hit.any():
                hit[hit] = holds(sorted_unique(field(self._members[level], lo, bits)),
                                 field(codes[hit], at, bits))
            return hit
        return holds(self._table(((level, lo, bits),)), field(codes, at, bits))

    def held(self, codes: np.ndarray, n: int) -> np.ndarray:
        """Which of some length-n codes (N x k, n >= 1) are in F(n), without building F(n): each
        straddle tests its fields, left to right, on the codes no straddle before it held."""
        self._check_depth(n)
        left = np.ones(len(codes), dtype=bool)     # not held by any straddle so far
        for j, a in self._windows(n):
            rest, at = left.nonzero()[0], self.bits * n
            for level, lo, bits in self._fields(j, a, n - a):
                if not len(rest):
                    break
                at -= bits
                rest = rest[self._held_field(level, lo, bits, codes[rest], at)]
            left[rest] = False
        return ~left

    def distinct(self, n: int) -> np.ndarray:
        """F(n) as its sorted distinct window codes: the parts' in order; |F(n)| is memoized."""
        self._check_depth(n)
        codes = np.concatenate(self._parts(n, lambda codes, new: codes[new]))
        self._counts[n] = len(codes)
        return codes


def check_window_budget(system: LevelSystem, n_max: int) -> None:
    """Refuse the first n <= n_max whose tables or largest part exceed the budget, before counting any."""
    engine = _engine_for(system)
    engine._check_depth(n_max)
    for n in range(1, n_max + 1):
        engine._plan(n, engine._blocks(n))


def factor_set_bruteforce(system: LevelSystem, n: int) -> frozenset[str]:
    """F(n) by full expansion of every level; the independent oracle."""
    require_budget(sum(system.level_word_count(j) << j for j in range(system.depth + 1)),
                   "full expansion", "characters")
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


def verify_recurrence_gaps(system: LevelSystem) -> RecurrenceReport:
    """Certify for each capture (w, t', c) that w lies in every length-c window of W(2^m), m > t'.

    That is first <= c - |w|, gaps <= c - |w| + 1 and |u| - last <= c; a u
    without w has first = tail = |u|, and a u shorter than c has no window.
    """
    return RecurrenceReport([_certify(system, log) for log in system.capture_log], system.depth)


def _certify(system: LevelSystem, log) -> RecurrenceEntry:
    """The certificate of one capture, over the Counters of W(2^m), capture level < m <= depth
    (`summaries.level_counters`)."""
    word, bound = log.target_word, log.gap_bound
    slack = bound - len(word)
    max_gap = max_first = max_tail = scanned = violations = 0
    for level in level_counters(system, word)[log.capture_level + 1:]:
        for (n, _, _, first, last, gap), count in level.items():
            first, tail = (n, n) if first is None else (first, n - last)
            max_first = max(max_first, first)
            max_gap = max(max_gap, gap)
            max_tail = max(max_tail, tail)
            scanned += count
            if n >= bound and (first > slack or gap > slack + 1 or tail > bound):
                violations += count
    return RecurrenceEntry(word, log.capture_level, bound, max_gap, max_first, max_tail,
                           scanned, violations)


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
    out, prev = [], EMPTY     # prev: F(0)
    for n in range(1, max_len + 1):
        cur = engine.distinct(n)
        cand = product_codes((prev, engine.bits, engine._letters), limb_count(n, engine.bits))
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


def entropy_report(system: LevelSystem, dims: DimensionReport) -> EntropyReport:
    """The entropy partials that a dimension series already holds, with the reference bands.

    For the (1+eps)-driven families the report also carries the two
    reference bands the limit entropy is known to respect: the power band
    [sqrt(1+eps), (1+eps)^2] and, for eps < 1, its linear relaxation
    [1 + eps/3, 1 + 3 eps]. Band proximity at finite depth is informational.
    """
    partials = [(row.n, row.entropy_partial, row.entropy_str) for row in dims.rows]
    power_band = linear_band = None
    eps = system.spec.epsilon
    if eps is not None:
        lo, _ = sqrt_bracket(1 + eps)
        power_band = (lo, (1 + eps) ** 2)
        linear_band = (1 + eps / 3, 1 + 3 * eps)
    return EntropyReport(partials, power_band, linear_band, dims.digits, dims.depth)
