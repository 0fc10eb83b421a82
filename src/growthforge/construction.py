"""Builders for finite truncations of dyadic level systems.

A level system over an alphabet of d = f(1) letters consists of word sets
W(1) = alphabet and W(2^(i+1)) = C(2^i) W(2^i), where each choice set
C(2^i) is a subset of W(2^i) of exactly r_i = ceil(f(2^(i+1))/f(2^i))
elements. W(2^i) is never materialized: an element is its choice tuple
(c_(i-1), ..., c_0, letter), one choice-set member per level plus a final
letter, so its level is the tuple's length less one. An element's rank is
its tuple read as a mixed-radix number, and ranks only ever become rows:
`_unrank` turns a rank array into rows in one pass, and nothing turns rows
back. A choice set is its members' ranks as [start, stop) ranges in member order,
over the radices of the elements it is chosen from: a lex level is one
range, a seeded member one range per draw. Its rows exist only on demand,
CHUNK_ROWS members at a time, so no whole level of rows is ever held: the
folds that carry per-member values (codes, occurrence summaries) up the
levels gather from one chunk of rows at a time, and `expand` unranks only
the members it reads. A reader that needs only what a set's members have
in common reads its ranges as aligned blocks (`CSet.blocks`): each fixes
the leading choices and holds the full product of the choices after them,
and each range is peeled from its start into the largest block that fits.

Captures never match letters. The last 2^t letters of a W(2^level) element
are the expansion of its last t+1 choices (the blocks of levels t-1, ..., 0
and the letter), and distinct W(2^t) tuples expand to distinct words, so an
element ends with a W(2^t) element w exactly when its last t+1 choices are
w's choices. The elements ending with w are therefore free top choices
c_(level-1), ..., c_t followed by w's choices, in tuple-lex order when the
free part is read as a mixed-radix number.

Three builders are provided:

  * plain: every choice set filled by the chooser with no constraints;
  * uniformly recurrent: a deterministic scheduler walks target words
    (whole W(2^t)-elements, t ascending, tuple-lex ascending) and captures
    each one by fixing it as the common suffix of the choice set at level
    t' = max(mu(t), m+1), m the previous capture level, so the target
    reoccurs in every long word with gaps at most 2^(t'+1);
  * free power system: with f(n) = ceil((1+eps)^n) and letters x, y, the
    choice sets are forced to contain x^(2^i), y^(2^i) up to level t and all
    2^(2^r) products of the two power words at level t+r, which certifies a
    free subalgebra on the two power monomials. It needs (1+eps)^2 > 2: for
    eps <= sqrt(2) - 1, C(1) has one member and cannot hold both x and y.

The capture schedule depends on the set sizes r_i alone, so `plan_captures`
fixes it before any set is chosen, and the loader replays it; every builder
defines levels 0..depth-1 in order. Builds are deterministic; analysis
treats a LevelSystem as immutable.

Records (capture entries, free parameters and the reports built on them) are
dataclasses that serialize from their fields: `_json_fields` writes them as
JSON values plus the derived properties a record passes in.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import prod
from random import Random

import numpy as np

from .errors import CapacityExceeded, HorizonTooSmall, InsufficientWords, require_budget
from .growth import GrowthSpec, compute_mu, check_basic, geometric

LETTER_POOL = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


def _json_fields(record, **extra) -> dict:
    """A dataclass record's fields as JSON values, then `extra` (its derived properties)."""
    return {f.name: _json_value(getattr(record, f.name)) for f in fields(record)} | extra


def _json_value(value):
    """Fractions as exact strings, tuples and lists as lists, nested records by their to_dict."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    return value.to_dict() if hasattr(value, "to_dict") else value


@dataclass(frozen=True)
class Alphabet:
    """d = f(1) letters with fixed single-character names, taken from LETTER_POOL.

    Index order is Python string order only up to 26 letters: beyond "z" the
    pool goes on with "A".."Z" and "0".."9", which sort before "a".
    """

    letters: str

    @property
    def size(self) -> int:
        return len(self.letters)


CHUNK_ROWS = 1024   # choice rows unranked, folded or encoded at a time


@dataclass(eq=False)
class CSet:
    """Choice set at one level: its members as [start, stop) rank ranges, in member order.

    A member's choice tuple is the mixed-radix digits of its rank over
    `radices` followed by `tail` (the capture target it ends with, or ()).
    `ranges` is a k x 2 array, int64, or Python ints where the ranks reach
    2^63; no two ranges overlap and none is empty. Rows are unranked on
    demand by `rows`, a member slice at a time.
    """

    level: int
    radices: list[int]
    tail: tuple[int, ...]
    ranges: np.ndarray

    def __post_init__(self):
        lengths = (self.ranges[:, 1] - self.ranges[:, 0]).astype(np.int64)
        self._offsets = np.concatenate([[0], np.cumsum(lengths)])   # each range's first member

    def __len__(self) -> int:
        return int(self._offsets[-1])

    @property
    def members(self) -> "CSet":
        """The set itself, so that len(cs.members) counts members; bench/tracing.py does."""
        return self

    def row(self, i: int) -> tuple[int, ...]:
        """Member i's choice tuple, unranked alone."""
        offsets = self._offsets
        if not 0 <= i < offsets[-1]:
            raise IndexError(f"member {i} of a set of {len(self)}")
        k = offsets.searchsorted(i, "right") - 1
        return _digits(self.radices, self.tail, int(self.ranges[k, 0]) + i - int(offsets[k]))

    def ranks(self, start: int, stop: int) -> np.ndarray:
        """The ranks over `radices` of members start..stop-1, read from the ranges they lie in."""
        members = np.arange(start, stop)
        k = self._offsets.searchsorted(members, "right") - 1   # each member's range
        return self.ranges[k, 0] - self._offsets[k] + members

    def rows(self, start: int, stop: int) -> np.ndarray:
        """The choice rows of members start..stop-1, unranked from their ranks."""
        return _unrank(self.radices, self.tail, self.ranks(start, stop))

    def chunks(self):
        """(start, rows) for each run of CHUNK_ROWS members, in member order."""
        for start in range(0, len(self), CHUNK_ROWS):
            yield start, self.rows(start, min(start + CHUNK_ROWS, len(self)))

    def blocks(self):
        """(q, rows) for the aligned blocks the ranges split into, at most CHUNK_ROWS at a time.

        A block is every member whose first q choices are one row: that row,
        then any digits over radices[q:], then the tail, P_q = prod(radices[q:])
        ranks aligned at a multiple of P_q. Each range is peeled from its
        start: the largest block aligned there that fits (the least such q),
        then again from the block's end. Every member thus lies in exactly one
        block, the largest aligned block inside its range that holds it, so a
        range splits into at most 2 * sum(radices) + 1 blocks, and a
        one-member range is one block of q = len(radices). Ranges are peeled
        CHUNK_ROWS at a time.
        """
        radices = self.radices
        sizes = np.array([prod(radices[q:]) for q in range(len(radices) + 1)],
                         dtype=self.ranges.dtype)[:, None]   # P_q, one row per q
        for k in range(0, len(self.ranges), CHUNK_ROWS):
            starts, stops = self.ranges[k:k + CHUNK_ROWS].T
            single = stops - starts == 1
            heads, qs = [starts[single]], [np.full(np.count_nonzero(single), len(radices))]
            starts, stops = starts[~single], stops[~single]
            while len(starts):   # peel one block off the start of each range left
                fits = (starts % sizes == 0) & (starts + sizes <= stops)
                least = fits.argmax(axis=0)   # the first q that fits: the largest block
                heads.append(starts)
                qs.append(least)
                starts = starts + sizes[least, 0]
                more = starts < stops
                starts, stops = starts[more], stops[more]
            heads, qs = np.concatenate(heads), np.concatenate(qs)
            for q, size in enumerate(sizes[:, 0]):
                prefixes = heads[qs == q] // size
                for i in range(0, len(prefixes), CHUNK_ROWS):
                    yield q, _unrank(radices[:q], (), prefixes[i:i + CHUNK_ROWS])


@dataclass
class CaptureEntry:
    """One suffix-capture event in the build log."""

    target_level: int
    target_choices: tuple[int, ...]
    target_word: str
    capture_level: int           # n_w: the level whose choice set was suffix-fixed
    gap_bound: int               # c_w = 2^(n_w + 1)
    m_before: int                # the previous capture level (-1 for the first capture)
    filled_levels: list[int]     # levels defined unconstrained to reach the capture level
    retries: list[int]           # filled levels that lacked capacity for the capture

    def to_dict(self) -> dict:
        return _json_fields(self)


class LevelSystem:
    """Alphabet plus choice sets for levels 0..depth-1.

    With depth D choice sets defined, W(2^D) exists implicitly; analysis
    treats the finished system as read-only.
    """

    def __init__(
        self,
        spec: GrowthSpec,
        chooser: str = "lex",
        seed: int = 0,
        letters: str | None = None,
        mode: str = "plain",
    ):
        if chooser not in ("lex", "seeded"):
            raise ValueError(f"unknown chooser {chooser!r}")
        if mode not in ("plain", "recurrent", "free"):
            raise ValueError(f"unknown mode {mode!r}")
        d = spec.value(1)
        if letters is None:
            if d > len(LETTER_POOL):
                raise ValueError(f"alphabet size {d} exceeds the {len(LETTER_POOL)}-symbol pool")
            letters = LETTER_POOL[:d]
        if type(letters) is not str or len(letters) != d or len(set(letters)) != d:
            raise ValueError(f"need {d} distinct letters, got {letters!r}")
        self.spec = spec
        self.alphabet = Alphabet(letters)
        self.chooser = chooser
        self.seed = seed
        self.mode = mode
        self.csets: list[CSet] = []
        self.capture_log: list[CaptureEntry] = []
        self.free_params: "FreeParams | None" = None
        self.mu_offset = 0
        self.horizon = 0
        self.digest: str | None = None     # set by persist.load_system to the verified digest
        self._rng = Random(f"growthforge:{seed}")

    # -- structure queries ---------------------------------------------------

    @property
    def depth(self) -> int:
        """D: W(2^D) is the deepest implicitly defined word set."""
        return len(self.csets)

    def radices(self, level: int, suffix: tuple[int, ...] | None = None) -> list[int]:
        """The radices of the free choices of the W(2^level) elements ending with suffix.

        The bound vector of a level is (r_(level-1), ..., r_0, d), since C_j
        has exactly r_j members, so levels not built yet have one too: choice
        i of an element lies below entry i. An element ends with a W(2^t)
        element w, the choice tuple `suffix`, exactly when its last t+1
        choices are w's choices (its last 2^t letters expand from them, and
        distinct tuples give distinct words), so only the first
        level+1-len(suffix) choices are free; without a suffix all of them are.
        """
        bounds = [self.spec.ratio(i) for i in reversed(range(level))] + [self.alphabet.size]
        return bounds if suffix is None else bounds[:level + 1 - len(suffix)]

    def suffix(self, level: int) -> tuple[int, ...] | None:
        """The capture target the log fixes as the common suffix of C(2^level), if any."""
        return next((e.target_choices for e in self.capture_log if e.capture_level == level), None)

    def level_word_count(self, level: int) -> int:
        """|W(2^level)| = d * r_0 * ... * r_(level-1)."""
        return prod(self.radices(level))

    def ref_from_rank(self, level: int, rank: int) -> tuple[int, ...]:
        """The choice tuple of the rank-th element of W(2^level) in tuple-lex order."""
        if not 0 <= rank < self.level_word_count(level):
            raise ValueError("rank out of range")
        return _digits(self.radices(level), (), rank)

    def iter_refs(self, level: int):
        """The choice tuples of all of W(2^level) in tuple-lex order."""
        radices = self.radices(level)
        total = prod(radices)
        for start in range(0, total, CHUNK_ROWS):
            ranks = np.arange(start, min(start + CHUNK_ROWS, total))
            yield from map(tuple, _unrank(radices, (), ranks).tolist())

    # -- expansion -------------------------------------------------------------

    def expand(self, choices) -> str:
        """The word of the W(2^level) element with these choices, level = len(choices) - 1.

        The word is C_(level-1)[c_(level-1)] ++ ... ++ C_0[c_0] ++ letter, of
        length 2^level, built by recursion on member rows, each unranked alone by `row`.
        Member words are kept while it runs, so a member met twice is expanded once.
        """
        csets, letters = self.csets, self.alphabet.letters
        words: dict[tuple[int, int], str] = {}

        def word(choices) -> str:
            top = len(choices) - 2     # the level of the first choice's member
            return "".join([member(top - i, c) for i, c in enumerate(choices[:-1])]
                           ) + letters[choices[-1]]

        def member(j: int, c: int) -> str:
            w = words.get((j, c))
            if w is None:
                w = words[j, c] = word(csets[j].row(c))
            return w

        return word(choices)

    # -- choice-set construction ----------------------------------------------

    def choose_cset(
        self,
        level: int,
        suffix: tuple[int, ...] | None = None,
        must_include: np.ndarray | list[int] | None = None,
    ) -> CSet:
        """Define C(2^level) deterministically and append it to the system.

        The set gets exactly r_level members, all elements of W(2^level) ending
        with the lower-level element whose choice tuple is `suffix`: the
        must_include members first (ranks over radices(level, suffix), in the
        given order, repeats dropped), then the fill; the lex chooser takes the
        smallest ranks, the seeded chooser draws without replacement from the
        build RNG. A set of more than GROWTHFORGE_BUDGET choice entries is
        refused first, and a suffix or a rank out of range raises ValueError.
        The set is its rank ranges; no row is unranked.
        """
        if level != self.depth:
            raise ValueError(f"levels must be defined in order; next is {self.depth}")
        _require_choice_budget(self.spec, [level])
        required = self.spec.ratio(level)
        tail = suffix or ()
        if suffix is not None and not 0 < len(tail) <= level:
            raise ValueError(f"suffix at level {len(tail) - 1} must sit below level {level}")
        bounds = self.radices(level)[level + 1 - len(tail):]   # the bound vector of its level
        if not all(0 <= c < b for c, b in zip(tail, bounds)):
            raise ValueError(f"choices {tuple(tail)} out of range of bounds {bounds}")
        radices = self.radices(level, suffix)
        available = prod(radices)
        ranks = np.asarray([] if must_include is None else must_include)
        if ranks.ndim != 1:
            raise ValueError(f"must_include must be a flat list of ranks, got shape {ranks.shape}")
        if len(ranks) > required:
            raise CapacityExceeded(level, len(ranks), required)
        if len(ranks) and (ranks.min() < 0 or ranks.max() >= available):
            raise ValueError(f"must_include ranks out of range 0..{available - 1}")
        # The included ranks in order without repeats.
        taken = ranks[np.sort(np.unique(ranks, return_index=True)[1])]
        taken = taken.astype(_rank_dtype(available))
        fill = required - len(taken)
        if available - len(taken) < fill:
            raise InsufficientWords(level, fill, available - len(taken))
        # Lex takes ranks 0, 1, ...; seeded draws enough distinct ranks that
        # `fill` of them miss the included ranks, each one a range.
        if self.chooser == "seeded" and fill:
            skip = set(taken.tolist())
            drawn = [r for r in _sample_ranks(self._rng, available, fill + len(taken))
                     if r not in skip]
            starts = np.array(drawn[:fill], dtype=_rank_dtype(available))
            stops = starts + 1
        else:
            starts, stops = _lex_fill(taken, fill)
        cs = CSet(level, radices, tail, _merged(np.concatenate([taken, starts]),
                                                np.concatenate([taken + 1, stops])))
        self.csets.append(cs)
        return cs


def _rank_dtype(available: int):
    """int64 while every rank below `available` fits, else Python ints."""
    return np.int64 if available < 1 << 63 else object


def _lex_fill(taken: np.ndarray, fill: int) -> tuple[np.ndarray, np.ndarray]:
    """The `fill` smallest ranks missing from the distinct ranks `taken`, as the starts
    and stops of [start, stop) runs: the gaps of taken in [0, fill + len(taken)),
    the last one cut off after `fill` ranks in all."""
    end = fill + len(taken)
    cuts = np.sort(taken[taken < end])
    starts, stops = np.r_[0, cuts + 1], np.r_[cuts, end]
    lengths = stops - starts
    before = np.cumsum(lengths) - lengths          # the ranks in the runs before each
    keep = (lengths > 0) & (before < fill)
    starts = starts[keep]
    return starts, np.minimum(stops[keep], starts + fill - before[keep])


def _merged(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The [start, stop) ranges as a k x 2 array, each run of adjacent ones (a stop equal
    to the next start) merged into one."""
    cuts = np.flatnonzero(starts[1:] != stops[:-1]) + 1
    return np.column_stack([starts[np.r_[0, cuts]], stops[np.r_[cuts, len(stops)] - 1]])


def _require_choice_budget(spec: GrowthSpec, levels) -> None:
    """Refuse a level whose r_level * (level + 1) choice entries exceed GROWTHFORGE_BUDGET."""
    for level in levels:
        require_budget(spec.ratio(level) * (level + 1), f"level {level} choice set",
                       "choice entries")


def _sample_ranks(rng: Random, total: int, k: int) -> list[int]:
    """k distinct ranks below total, by Floyd's algorithm.

    random.sample(range(total), k) cannot size a range longer than
    sys.maxsize, and a level can hold more elements than that.
    """
    picked: dict[int, None] = {}
    for top in range(total - k, total):
        rank = rng.randrange(top + 1)
        picked[top if rank in picked else rank] = None
    return list(picked)


def _unrank(radices: list[int], tail: tuple[int, ...], ranks) -> np.ndarray:
    """One choice row per rank: its mixed-radix digits over `radices`, then `tail`.

    One pass over the whole rank array: digit by digit, least significant
    first, in two rank buffers reused in place, with int64 ranks while they
    fit and Python ints beyond; the rows are int64 either way.
    """
    available = prod(radices)
    ranks = np.array(ranks, dtype=_rank_dtype(available))   # a copy, divided in place
    if ranks.size and (ranks.min() < 0 or ranks.max() >= available):
        raise ValueError("rank out of range")
    out = np.empty((ranks.size, len(radices) + len(tail)), dtype=np.int64)
    out[:, len(radices):] = tail
    quotient = np.empty_like(ranks)
    for i in reversed(range(len(radices))):
        # numpy divides by a scalar several times faster than it takes `%`
        np.floor_divide(ranks, radices[i], out=quotient)
        ranks -= quotient * radices[i]
        out[:, i] = ranks
        ranks, quotient = quotient, ranks
    return out


def _digits(radices: list[int], tail: tuple[int, ...], rank: int) -> tuple[int, ...]:
    """`_unrank` of one rank in Python ints: its mixed-radix digits over `radices`, then `tail`."""
    digits = []
    for radix in reversed(radices):
        rank, digit = divmod(rank, radix)
        digits.append(digit)
    return (*reversed(digits), *tail)


def _fold_rows(values: list[np.ndarray], leaves: np.ndarray, join, level: int,
               rows: np.ndarray) -> np.ndarray:
    """One value per row of leading choices of W(2^level) elements, folded right to left.

    Column i is a member of C_(level-1-i), read from values[level-1-i], and
    column `level` the letter, read from leaves; each column's value is joined
    onto the value of the columns after it by join(head, rest, level - i).
    """
    q = rows.shape[1]
    column = lambda i: (leaves if i == level else values[level - 1 - i])[rows[:, i]]
    v = column(q - 1)
    for i in reversed(range(q - 1)):
        v = join(column(i), v, level - i)
    return v


def _fold_members(system: LevelSystem, leaves: np.ndarray, join,
                  levels: int | None = None) -> list[np.ndarray]:
    """For each level j below `levels` (all by default), one value per C_j member in member order.

    A member (c_(j-1), ..., c_0, letter) is C_(j-1)[c_(j-1)] followed by the
    element (c_(j-2), ..., letter), so its values are v = leaves[letter] and
    then v = join(values of C_(l-1) gathered at c_(l-1), v, l) for
    l = 1..j (`_fold_rows`), each step one array operation over a chunk of
    CHUNK_ROWS rows, gathered into one output per level. Member strings are
    never read.
    """
    values: list[np.ndarray] = []
    for j, cs in enumerate(system.csets[:levels]):
        out = None
        for start, choices in cs.chunks():
            v = _fold_rows(values, leaves, join, j, choices)
            if out is None:
                out = np.empty((len(cs),) + v.shape[1:], dtype=v.dtype)
            out[start:start + len(v)] = v
        values.append(out)
    return values


# -- whole-system builders -----------------------------------------------------


def build_plain(
    spec: GrowthSpec,
    chooser: str = "lex",
    depth: int = 1,
    seed: int = 0,
) -> LevelSystem:
    """Choice sets 0..depth-1 with no constraints."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    _require_choice_budget(spec, range(depth))
    system = LevelSystem(spec, chooser=chooser, seed=seed, mode="plain")
    for level in range(depth):
        system.choose_cset(level)
    return system


def _capture_level(system: LevelSystem, target: tuple[int, ...], m: int, mu_offset: int,
                   horizon: int, cap: int) -> tuple[int, list[int]]:
    """The level that captures target after capture level m, and the levels retried first.

    t' = max(mu(t), m+1) has room by the dominance inequality, except at a
    ceiling edge: a level with fewer than r_level elements ending with
    target is retried one higher. A t' beyond cap is returned as it is; a
    retry beyond cap raises HorizonTooSmall.
    """
    t = len(target) - 1
    level = max(compute_mu(system.spec, t, mu_offset, horizon), m + 1)
    retries: list[int] = []
    while level <= cap and prod(system.radices(level, target)) < system.spec.ratio(level):
        retries.append(level)
        level += 1
    if retries and level > cap:
        raise HorizonTooSmall(
            f"capture of the W(2^{t}) element with choices {target} "
            f"needs level {level} beyond cap {cap}", t, horizon)
    return level, retries


def plan_captures(system: LevelSystem, depth: int, captures: int) -> list[CaptureEntry]:
    """Up to `captures` capture entries below `depth`, their target words empty: targets are
    whole W(2^t)-elements, t ascending and choice tuples lex ascending, each at the level
    `_capture_level` gives after the previous capture, until the next would not fit. Only the
    set sizes, mu_offset and horizon are read, so the builder and the loader plan alike."""
    log: list[CaptureEntry] = []
    targets = (system.ref_from_rank(t, rank)
               for t in range(depth) for rank in range(system.level_word_count(t)))
    for target in targets:
        if len(log) >= captures:
            break
        m = log[-1].capture_level if log else -1
        level, retries = _capture_level(system, target, m, system.mu_offset, system.horizon,
                                        depth - 1)
        if level >= depth:
            break
        log.append(CaptureEntry(len(target) - 1, target, "", level, 1 << (level + 1), m,
                                list(range(m + 1, level)), retries))
    return log


def build_uniformly_recurrent(
    spec: GrowthSpec,
    depth: int,
    capture_budget: int,
    mu_offset: int = 0,
    chooser: str = "lex",
    seed: int = 0,
    horizon: int | None = None,
) -> LevelSystem:
    """Capture targets fairly until the budget or the depth runs out.

    The schedule is planned from the set sizes first (`plan_captures`).
    Levels 0..depth-1 are then defined in order, with the target as common
    suffix at a capture level. Uniform recurrence is certified only for the
    captured targets.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    if horizon is None:
        horizon = max(depth + 4, 12)
    basic = check_basic(spec, 16)
    if not basic.submultiplicative_ok:
        raise ValueError(f"growth fails submultiplicativity: {basic.submultiplicative_violation}")
    _require_choice_budget(spec, range(depth))
    system = LevelSystem(spec, chooser=chooser, seed=seed, mode="recurrent")
    system.mu_offset, system.horizon = mu_offset, horizon
    system.capture_log = plan_captures(system, depth, capture_budget)
    for level in range(depth):
        system.choose_cset(level, suffix=system.suffix(level))
    for e in system.capture_log:
        e.target_word = system.expand(e.target_choices)
    return system


@dataclass
class FreeParams:
    """Parameters of a free power-monomial system."""

    epsilon: Fraction
    t: int
    degree: int            # 2^t
    x_word: str
    y_word: str
    r_max: int             # deepest product-exponent level built (levels t+1..t+r_max)

    @classmethod
    def of(cls, eps, depth: int) -> "FreeParams":
        """The parameters that epsilon in (0, 1] and a build depth >= t + 1 determine.

        The system itself is built only for (1+eps)^2 > 2, eps > sqrt(2) - 1
        (`build_free_power_system`); t and the band hold for every eps."""
        from .freesub import compute_t

        eps = Fraction(eps)
        t = compute_t(eps)
        if depth < t + 1:   # refused before the two 2^t-letter words are made
            raise ValueError(f"depth must be >= t+1 = {t + 1}")
        return cls(eps, t, 1 << t, "x" * (1 << t), "y" * (1 << t), depth - 1 - t)

    def to_dict(self) -> dict:
        return _json_fields(self)


def build_free_power_system(
    eps,
    depth: int,
    chooser: str = "lex",
    seed: int = 0,
) -> tuple[LevelSystem, FreeParams]:
    """Force power monomials and their products into the choice sets.

    Uses f(n) = ceil((1+eps)^n) with d = 2 letters x, y. C(2^i) contains
    x^(2^i) and y^(2^i) for i <= t (t from compute_t), and C(2^(t+r))
    contains all 2^(2^r) length-2^r products over the two power words for
    r >= 1. Capacity at every level is checked exactly and CapacityExceeded
    reports the deficit. eps = 1 is accepted (degenerate boundary where the
    system is the full binary language). Level 0 needs (1+eps)^2 > 2, else f(2) = 2
    and C(1), of r_0 = 1 member, cannot hold both x and y: CapacityExceeded at level 0.
    """
    params = FreeParams.of(eps, depth)   # refuses epsilon outside (0, 1] and depth < t + 1
    spec = geometric(params.epsilon)   # f(1) = 2 letters for epsilon in (0, 1]
    t = params.t
    # Exact capacity and size prechecks before any work, one level at a time:
    # ratios and capacities double their bits per level, so the budget ends the climb.
    for i in range(depth):
        required = 2 if i <= t else 1 << (1 << (i - t))
        if spec.ratio(i) < required:
            raise CapacityExceeded(i, required, spec.ratio(i))
        _require_choice_budget(spec, [i])

    system = LevelSystem(spec, chooser=chooser, seed=seed, letters="xy", mode="free")
    for level in range(depth):
        # The forced members come first, in bit order, so member k of the
        # previous level's set is its product with binary expansion k (the
        # powers x^(2^i), y^(2^i) are members 0 and 1 up to level t). At level
        # t + r, member k is member k >> half of C(2^(level-1)), half = 2^(r-1),
        # followed by member k & (2^half - 1) as an element of W(2^(level-1));
        # up to level t, k = 0 and 3 with half = 1. A member c followed by the
        # element of rank e has rank c * |W(2^(level-1))| + e.
        ranks = np.arange(2)
        if level:
            half = 1 << max(level - t - 1, 0)
            k = np.arange(1 << (2 * half)) if level > t else np.array([0, 3])
            dtype = _rank_dtype(system.level_word_count(level))
            prev = system.csets[level - 1].ranks(0, 1 << half).astype(dtype)
            ranks = ((k >> half).astype(dtype) * system.level_word_count(level - 1)
                     + prev[k & ((1 << half) - 1)])
        system.choose_cset(level, must_include=ranks)
    system.free_params = params
    return system, params
