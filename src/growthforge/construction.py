"""Builders for finite truncations of dyadic level systems.

A level system over an alphabet of d = f(1) letters consists of word sets
W(1) = alphabet and W(2^(i+1)) = C(2^i) W(2^i), where each choice set
C(2^i) is a subset of W(2^i) of exactly r_i = ceil(f(2^(i+1))/f(2^i))
elements. W(2^i) is never materialized: an element is its choice tuple
(c_(i-1), ..., c_0, letter), one choice-set member per level plus a final
letter, so its level is the tuple's length less one. An element's rank is
its tuple read as a mixed-radix number: `_unrank` turns a rank array into
rows in one pass and `_rank`, its inverse, turns rows back into ranks. A
choice set is its members' ranks as [start, stop) ranges in member order,
over the radices of the elements it is chosen from: a lex level is one
range, a seeded member one range per draw. Its rows exist only on demand,
CHUNK_ROWS members at a time, so no whole level of rows is ever held: the
folds that carry per-member values (codes, occurrence summaries) up the
levels gather from one chunk of rows at a time, and `expand` unranks only
the members it reads.

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
    free subalgebra on the two power monomials.

The capture schedule depends on the set sizes r_i alone, so it is fixed
before any set is chosen, and every builder defines levels 0..depth-1 in
order. Builds are deterministic; analysis treats a LevelSystem as immutable.

Records (capture entries, free parameters and the reports built on them) are
dataclasses that serialize from their fields: `_json_fields` writes them as
JSON values plus the derived properties a record passes in, and
`_from_fields` reads one back by its field names.
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


def _from_fields(cls, d: dict, **converted):
    """A cls record from the entries of d named by its fields; `converted` supplies some values.

    A missing entry is a KeyError and an entry no field names is ignored.
    """
    return cls(**{f.name: converted[f.name] if f.name in converted else d[f.name]
                  for f in fields(cls)})


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


CHUNK_ROWS = 4096   # choice rows unranked, folded or encoded at a time


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

    def rows(self, start: int, stop: int) -> np.ndarray:
        """The choice rows of members start..stop-1, unranked from the ranges they lie in."""
        members = np.arange(start, stop)
        k = self._offsets.searchsorted(members, "right") - 1   # each member's range
        return _unrank(self.radices, self.tail, self.ranges[k, 0] - self._offsets[k] + members)

    def chunks(self):
        """(start, rows) for each run of CHUNK_ROWS members, in member order."""
        for start in range(0, len(self), CHUNK_ROWS):
            yield start, self.rows(start, min(start + CHUNK_ROWS, len(self)))


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

    @staticmethod
    def from_dict(d: dict) -> "CaptureEntry":
        # The conversions refuse a scalar or null where the log holds a sequence.
        return _from_fields(CaptureEntry, d, target_choices=tuple(d["target_choices"]),
                            filled_levels=list(d["filled_levels"]), retries=list(d["retries"]))


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
        must_include: np.ndarray | list[tuple[int, ...]] | None = None,
    ) -> CSet:
        """Define C(2^level) deterministically and append it to the system.

        The set gets exactly r_level members, all elements of W(2^level) ending
        with the lower-level element whose choice tuple is `suffix`: the
        must_include rows first (W(2^level) choice tuples, as an int64 row array or
        a sequence of tuples, in the given order, repeats dropped), then the fill;
        the lex chooser takes the smallest choice tuples, the seeded chooser draws
        without replacement from the build RNG. A set of more than
        GROWTHFORGE_BUDGET choice entries is refused first, and rows of the wrong
        width, out of range or not ending with the suffix raise ValueError. The
        set is its rank ranges; no row of the fill is unranked.
        """
        if level != self.depth:
            raise ValueError(f"levels must be defined in order; next is {self.depth}")
        _require_choice_budget(self.spec, [level])
        required = self.spec.ratio(level)
        rows = [] if must_include is None else must_include
        if len(rows) > required:
            raise CapacityExceeded(level, len(rows), required)
        if any(len(choices) != level + 1 for choices in rows):
            raise ValueError("must_include row at wrong level")
        rows = np.array(rows, dtype=np.int64).reshape(-1, level + 1)
        if suffix is not None and not 0 < len(suffix) <= level:
            raise ValueError(f"suffix at level {len(suffix) - 1} must sit below level {level}")
        bounds = self.radices(level)
        for choices in [rows] + ([] if suffix is None else [np.array([suffix])]):
            choice_bounds = bounds[level + 1 - choices.shape[1]:]   # the bound vector of its level
            outside = ((choices < 0) | (choices >= choice_bounds)).any(axis=1)
            if outside.any():
                raise ValueError(f"choices {tuple(choices[outside.argmax()].tolist())} out of "
                                 f"range of bounds {choice_bounds}")
        radices = self.radices(level, suffix)
        tail = suffix or ()
        off = (rows[:, len(radices):] != tail).any(axis=1)
        if off.any():
            raise ValueError(f"must_include row {tuple(rows[off.argmax()].tolist())} does not "
                             f"end with the suffix {tuple(tail)}")
        available = prod(radices)

        # The included rows' ranks in order without repeats.
        ranks = _rank(radices, rows)
        taken = ranks[np.sort(np.unique(ranks, return_index=True)[1])]
        fill = required - len(taken)
        if available - len(taken) < fill:
            raise InsufficientWords(level, fill, available - len(taken))
        # Lex takes ranks 0, 1, ...; seeded draws enough distinct ranks that
        # `fill` of them miss the included rows, each one a range.
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


def _rank(radices: list[int], rows: np.ndarray) -> np.ndarray:
    """Each row's rank: its first len(radices) choices read as a mixed-radix number.

    The inverse of `_unrank`, digit by digit, most significant first, with
    int64 ranks while every rank below prod(radices) fits and Python ints
    beyond, one column converted at a time.
    """
    dtype = _rank_dtype(prod(radices))
    ranks = np.zeros(len(rows), dtype=dtype)
    for i, radix in enumerate(radices):
        ranks *= radix
        ranks += rows[:, i].astype(dtype, copy=False)
    return ranks


def _fold_members(system: LevelSystem, leaves: np.ndarray, join) -> list[np.ndarray]:
    """For each level j, one value per C_j member in member order, folded from its row.

    A member (c_(j-1), ..., c_0, letter) is C_(j-1)[c_(j-1)] followed by the
    element (c_(j-2), ..., letter), so its values are v = leaves[letter] and
    then v = join(values of C_(l-1) gathered at c_(l-1), v, l) for
    l = 1..j, each step one array operation over a chunk of CHUNK_ROWS rows,
    gathered into one output per level. Member strings are never read.
    """
    values: list[np.ndarray] = []
    for j, cs in enumerate(system.csets):
        out = None
        for start, choices in cs.chunks():
            v = leaves[choices[:, j]]
            for l in range(1, j + 1):
                v = join(values[l - 1][choices[:, j - l]], v, l)
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

    The schedule is planned from the set sizes first: targets are whole
    W(2^t)-elements, t ascending and choice tuples lex ascending, each at the
    level `_capture_level` gives after the previous capture, until the next
    would not fit below `depth`. Levels 0..depth-1 are then defined in order,
    with the target as common suffix at a capture level. Uniform recurrence
    is certified only for the captured targets.
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
    system.mu_offset = mu_offset
    system.horizon = horizon
    log = system.capture_log
    targets = (system.ref_from_rank(t, rank)
               for t in range(depth) for rank in range(system.level_word_count(t)))
    for target in targets:
        if len(log) >= capture_budget:
            break
        m = log[-1].capture_level if log else -1
        level, retries = _capture_level(system, target, m, mu_offset, horizon, depth - 1)
        if level >= depth:
            break
        log.append(CaptureEntry(len(target) - 1, target, "", level, 1 << (level + 1), m,
                                list(range(m + 1, level)), retries))
    for level in range(depth):
        system.choose_cset(level, suffix=system.suffix(level))
    for e in log:
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
        """The parameters that epsilon in (0, 1] and the build depth determine."""
        from .freesub import compute_t

        eps = Fraction(eps)
        t = compute_t(eps)
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
    system is the full binary language).
    """
    params = FreeParams.of(eps, depth)   # refuses epsilon outside (0, 1]
    spec = geometric(params.epsilon)
    if spec.value(1) != 2:
        raise AssertionError("geometric(eps<=1) must have two letters")
    t = params.t
    if depth < t + 1:
        raise ValueError(f"depth must be >= t+1 = {t + 1}")
    # Exact capacity and size prechecks before any work.
    for i in range(depth):
        required = 2 if i <= t else 1 << (1 << (i - t))
        if spec.ratio(i) < required:
            raise CapacityExceeded(i, required, spec.ratio(i))
    _require_choice_budget(spec, range(depth))

    system = LevelSystem(spec, chooser=chooser, seed=seed, letters="xy", mode="free")
    for level in range(depth):
        # The forced members come first, in bit order, so member k of the
        # previous level's set is its product with binary expansion k (the
        # powers x^(2^i), y^(2^i) are members 0 and 1 up to level t).
        if level == 0:
            rows = np.array([[0], [1]])
        elif level <= t:
            rows = np.column_stack([[0, 1], system.csets[level - 1].rows(0, 2)])
        else:
            # level = t + r: a product of 2^r power words is the product of its
            # first 2^(r-1) followed by the element made of its last 2^(r-1).
            half = 1 << (level - t - 1)
            k = np.arange(1 << (2 * half))
            prev = system.csets[level - 1].rows(0, 1 << half)
            rows = np.column_stack([k >> half, prev[k & ((1 << half) - 1)]])
        system.choose_cset(level, must_include=rows)
    system.free_params = params
    return system, params
