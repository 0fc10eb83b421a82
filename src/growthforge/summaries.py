"""Occurrence summaries of a target word, the state of the recurrence certificate.

For a target w, the summary of a word u records its length, its |w|-1
letters at each end, the first and last start of w in u and the largest gap
between starts (`_summary`). `_concat` gives the exact summary of uv from
those of u and v for words of any length, the empty word and words shorter
than |w| - 1 included, so every bracketing of a concatenation gives the
same summary. A set of words is a Counter of distinct summaries with
multiplicities, and the Counter of a product set UV pairs the two through
`_concat` (`_product`).

`level_counters` is the one entry: the Counters of W(2^m), m = 0..depth,
each W(2^(m+1)) = C(2^m) W(2^m) the product of the member Counter M_m and
the Counter of W(2^m). Below the top level, per-member summaries are folded
from the choice rows the same way as member codes
(`construction._fold_members`), with no member string scanned: summaries
are interned as ids in a `_SummaryTable`, whose fold step concatenates each
distinct (head id, rest id) pair once and finds known pairs in one sorted
index of them, and M_j is the tally of C_j's ids.
The top level's M comes from its rank ranges (`_member_histogram`): a block
of them fixes q leading choices, whose word u is folded from the member ids
of the levels below, and holds the full product of the choices after them,
so its Counter is s(u) paired with a Counter built already: W(2^(j-q)) or,
with a capture tail v, M_(j-q-1) x ... x M_t x s(v). No row of a lex top
level is then unranked; a seeded one is one block per member.
"""

from __future__ import annotations

from collections import Counter
from operator import sub

import numpy as np

from .codes import sorted_unique
from .construction import LevelSystem, _fold_members, _fold_rows


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


class _SummaryTable(list):
    """The occurrence summaries of one target word, interned: a summary's id is its index.

    `leaves` holds the letters' ids and `join` is the fold step on id arrays:
    each distinct (head id, rest id) pair is concatenated once over the
    table's life, and within a step in ascending (head, rest) order. The
    pairs joined so far are one index kept across steps and chunks: their
    keys head << 32 | rest ascending in `_keys` (ids stay below 2^31), ended
    by a key no pair reaches, and their ids in `_vals`. A step looks its keys
    up by binary search, joins the distinct keys it misses and merges them in.
    """

    def __init__(self, system: LevelSystem, word: str):
        super().__init__()
        self.word = word
        self._ids: dict[tuple, int] = {}
        self._keys = np.array([np.iinfo(np.int64).max], dtype=np.int64)
        self._vals = np.array([-1], dtype=np.int64)
        self.leaves = np.array([self.intern(_summary(ch, word)) for ch in system.alphabet.letters],
                               dtype=np.int64)

    def intern(self, summary: tuple) -> int:
        i = self._ids.get(summary)
        if i is None:
            i = self._ids[summary] = len(self)
            self.append(summary)
        return i

    def join(self, head: np.ndarray, rest: np.ndarray, _level: int) -> np.ndarray:
        keys = head << 32
        keys |= rest
        at = self._keys.searchsorted(keys)
        missed = self._keys[at] != keys
        if missed.any():
            new = sorted_unique(keys[missed][:, None])[:, 0]
            ids = [self.intern(_concat(self[key >> 32], self[key & 0xFFFFFFFF], self.word))
                   for key in new.tolist()]
            slots = self._keys.searchsorted(new) + np.arange(len(new))   # in the merged index
            known = np.ones(len(self._keys) + len(new), dtype=bool)
            known[slots] = False
            merged_keys, merged_ids = np.empty((2, len(known)), dtype=np.int64)
            merged_keys[slots], merged_ids[slots] = new, ids
            merged_keys[known], merged_ids[known] = self._keys, self._vals
            self._keys, self._vals = merged_keys, merged_ids
            at += new.searchsorted(keys)   # each key moves past the new keys below it
        return self._vals[at]


def _product(left: Counter, right: Counter, word: str) -> Counter:
    """The summaries of uv over u in left and v in right, each with the product multiplicity."""
    out: Counter = Counter()
    for u, x in left.items():
        for v, y in right.items():
            out[_concat(u, v, word)] += x * y
    return out


def _tally(table: _SummaryTable, ids: np.ndarray) -> Counter:
    """The summaries of an id array, each with the number of its occurrences."""
    distinct, counts = np.unique(ids, return_counts=True)
    return Counter(dict(zip(map(table.__getitem__, distinct.tolist()), counts.tolist())))


def _member_histogram(cs, table: _SummaryTable, ids: list[np.ndarray], members: list[Counter],
                      words: list[Counter]) -> Counter:
    """M_j, the summaries of C_j's members with multiplicities, from its blocks.

    A block fixing q leading choices (the word u of their members, folded
    from the member ids of the levels below) holds u followed by every
    element of a full product: with no tail, W(2^(j-q)), whose Counter is
    words[j-q], or nothing once the letter is fixed too; with the capture
    target v as tail, C(2^(j-q-1)) ... C(2^t) v, whose Counter is
    members[j-q-1] x ... x members[t] x {s(v)}. The blocks of one q are
    tallied by s(u) first, so each distinct s(u) meets that Counter once.
    """
    j, n, word = cs.level, len(cs.radices), table.word
    heads = [Counter() for _ in range(n + 1)]   # s(u) per q, with multiplicities
    for q, rows in cs.blocks():
        if q:
            heads[q].update(_tally(table, _fold_rows(ids, table.leaves, table.join, j, rows)))
        else:
            heads[0][_summary("", word)] += len(rows)   # the identity of _concat
    out: Counter = Counter()
    if not cs.tail:
        for q, us in enumerate(heads):
            out.update(_product(us, words[j - q], word) if q <= j else us)
        return out
    v = _fold_rows(ids, table.leaves, table.join, len(cs.tail) - 1, np.array([cs.tail]))
    rest = Counter({table[int(v[0])]: 1})   # what follows all n free choices
    for q in range(n, min(q for q, us in enumerate(heads) if us) - 1, -1):
        if q < n:
            rest = _product(members[j - q - 1], rest, word)
        out.update(_product(heads[q], rest, word))
    return out


def level_counters(system: LevelSystem, word: str) -> list[Counter]:
    """The Counters of W(2^m), m = 0..depth, for the target `word`.

    W(2^(m+1)) = C(2^m) W(2^m) is the product of the member Counter M_m and
    the Counter of W(2^m). Below the top level, M_m is the tally of the
    member ids folded from the choice rows; the top level's comes from its
    blocks (`_member_histogram`), which read only the ids below it.
    """
    table = _SummaryTable(system, word)
    ids = _fold_members(system, table.leaves, table.join, system.depth - 1)
    members = [_tally(table, level) for level in ids]
    words = [_tally(table, table.leaves)]
    for j, level in enumerate(members):
        words.append(_product(level, words[j], word))
    top = _member_histogram(system.csets[-1], table, ids, members, words)
    words.append(_product(top, words[-1], word))
    return words
