"""Words as integer codes held in uint64 limbs.

A word over d letters packs b = ceil(log2 d) bits per letter, its first
letter most significant: an injective code that keeps the lex order of
equal-length words. A length-n code takes k = ceil(b*n/64) uint64 limbs,
most significant first. Every code array is N x k uint64 limbs, k >= 1,
the letters and the empty word's one code included. Concatenation is a
shift and an OR, with no carries between letters, and a subword is a bit
field. One-limb arrays sort in place and are searched through their one
column; wider ones sort with np.lexsort over the limbs and are searched
through each row's big-endian bytes, which compare in the same order.

A sorted product is two factors (table, at, bits), head then tail: each
table a sorted array of distinct codes of `bits` bits, placed at bits
at .. at+bits-1 of the product's codes. Its codes ascend with the
factors' indices in lex order, so a code is known from its rank by mixed
radix, and the codes below a threshold are counted factor by factor. Many
sorted products (blocks) are sorted together in parts: disjoint code ranges
cut at sampled codes, each written once into one array and sorted there.
"""

from __future__ import annotations

from functools import cache
from math import isqrt

import numpy as np

PART_BYTES = 256 << 10   # the least sort working set of one part (see `part_plan`)
EMPTY = np.zeros((1, 1), dtype=np.uint64)   # the empty word's one code, F(0), a table of 0 bits


def letter_bits(d: int) -> int:
    """Bits per letter of a d-letter alphabet."""
    return max(1, (d - 1).bit_length())


def limb_count(length: int, bits: int) -> int:
    """uint64 limbs per code of a length-`length` word."""
    return max(1, -(-length * bits // 64))


def field(codes: np.ndarray, lo: int, bits: int) -> np.ndarray:
    """Bits lo .. lo+bits-1 of each code (bit 0 the least significant), in k = ceil(bits/64) limbs:
    the k limbs below the dropped ones, shifted right, each ORed with the limb above."""
    k = max(1, -(-bits // 64))
    q, r = divmod(lo, 64)
    end = codes.shape[1] - q                 # limbs above the q dropped ones, at least k
    out = codes[:, end - k:end] >> r
    if r and end > 1:
        high = codes[:, max(end - k - 1, 0):end - 1]
        out[:, k - high.shape[1]:] |= high << (64 - r)
    mask = [(1 << (bits - 64 * (k - 1))) - 1] + [(1 << 64) - 1] * (k - 1)   # only the top limb cut
    return out & np.array(mask, dtype=np.uint64)


def shifted(codes: np.ndarray, bits: int, k: int) -> np.ndarray:
    """Each code times 2^bits, in k limbs; the product must fit. `codes` itself if nothing moves."""
    if k == 1:
        return codes << bits if bits else codes
    width = codes.shape[1]
    if width == k and not bits:
        return codes
    q, r = divmod(bits, 64)
    top = k - q - width                      # the limb the top input limb lands in
    out = np.zeros((len(codes), k), dtype=np.uint64)
    out[:, top:k - q] = codes << r
    if r:                                    # each limb's high bits carry one limb up
        out[:, max(top - 1, 0):k - q - 1] |= (codes >> (64 - r))[:, max(1 - top, 0):]
    return out


def _ascend(rows: np.ndarray) -> bool:
    """Whether the rows of an N x k limb array ascend in lex order; 64 spaced top limbs go first."""
    top = rows[::max(1, len(rows) // 64), 0]
    if np.any(top[1:] < top[:-1]):
        return False
    before, after = rows[:-1].T, rows[1:].T
    ok = np.ones(before.shape[1], dtype=bool)      # in order by the limbs below
    for low, high in zip(before[::-1], after[::-1]):
        ok = (low < high) | ((low == high) & ok)
    return bool(ok.all())


def sort_marked(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes in ascending order, and which of them differ from their predecessor.

    One-limb codes are sorted in place; wider rows sort with np.lexsort, the
    most significant limb as the primary key, unless they already ascend,
    as the members of a lex-built level fold, and are then not copied. A
    code is new where its top limb, or any limb below, differs from the one before.
    """
    if codes.shape[1] == 1:
        codes[:, 0].sort()
    elif not _ascend(codes):
        codes = codes[np.lexsort(codes.T[::-1])]
    new = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:, 0], codes[:-1, 0], out=new[1:])
    for limb in codes.T[1:]:
        new[1:] |= limb[1:] != limb[:-1]
    return codes, new


def sorted_unique(codes: np.ndarray) -> np.ndarray:
    """Distinct codes in ascending order; may sort `codes` in place."""
    codes, new = sort_marked(codes)
    return codes[new]


def _keys(codes: np.ndarray) -> np.ndarray:
    """One comparable scalar per code: its one limb, or its limbs' big-endian bytes."""
    if codes.shape[1] == 1:
        return codes[:, 0]
    return np.ascontiguousarray(codes, dtype=">u8").view(f"V{8 * codes.shape[1]}").reshape(-1)


def holds(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Which of an array of codes a nonempty sorted table of their width holds.

    A code is held when the last entry <= it equals it. A code below every
    entry gets index -1, the largest entry, which cannot equal it.
    """
    table, codes = _keys(table), _keys(codes)
    return table[table.searchsorted(codes, side="right") - 1] == codes


def encode(words: list[str], n: int, letters: str, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The codes of words of n letters, N x k, and which words use only `letters`: `unpack` undone,
    each letter's index in `letters` packed big-endian into the limbs, its bits high first."""
    if any(len(w) != n for w in words):
        raise ValueError(f"words of {n} letters expected")
    digits = np.fromiter(map(letters.find, "".join(words)), dtype=np.int64).reshape(len(words), n)
    binary = (digits[:, :, None] >> np.arange(bits - 1, -1, -1) & 1).astype(np.uint8)
    binary = np.pad(binary.reshape(len(words), n * bits), ((0, 0), (-n * bits % 64, 0)))
    return np.packbits(binary, axis=1).view(">u8").astype(np.uint64), (digits >= 0).all(axis=1)


def unpack(codes: np.ndarray, n: int, bits: int) -> np.ndarray:
    """The letter indices of length-n codes, one row per code: shift, mask, no Python loop."""
    pos = bits * np.arange(n - 1, -1, -1)     # lowest bit of each letter
    limb, shift = codes.shape[1] - 1 - pos // 64, (pos % 64).astype(np.uint64)
    digits = codes[:, limb] >> shift
    split = np.flatnonzero(shift + bits > 64)   # letters that straddle two limbs
    if split.size:
        digits[:, split] |= codes[:, limb[split] - 1] << (64 - shift[split])
    return digits & ((1 << bits) - 1)


def sort_words(k: int) -> int:
    """8-byte words per k-limb code in a sort: the code, plus the lexsort index and sorted copy."""
    return k if k == 1 else 2 * k + 1


def product_size(factors: list) -> int:
    (head, _, _), (tail, _, _) = factors
    return len(head) * len(tail)


def product_below(blocks: list, codes: np.ndarray) -> np.ndarray:
    """How many codes of each sorted product lie below each of `codes` (an array of their width).

    One row per block: the head entries below a code's head field times the
    tail size, plus, when that field is a head entry, the tail entries below
    its tail field.
    """
    lo, below = np.empty((2, len(blocks), len(codes)), dtype=np.int64)
    hit = np.empty(lo.shape, dtype=bool)
    fields = cache(lambda at, bits: _keys(field(codes, at, bits)))   # blocks share fields
    for b, ((head, at, bits), (tail, tail_at, tail_bits)) in enumerate(blocks):
        head, keys = _keys(head), fields(at, bits)
        right = head.searchsorted(keys, side="right")
        lo[b] = head.searchsorted(keys)
        hit[b] = right > lo[b]
        below[b] = _keys(tail).searchsorted(fields(tail_at, tail_bits))
    below *= hit
    lo *= np.array([len(tail) for _, (tail, _, _) in blocks])[:, None]
    below += lo
    return below


def product_at(factors: list, ranks: np.ndarray, k: int) -> np.ndarray:
    """The codes of a sorted product at the given ranks, in k limbs."""
    (head, at, _), (tail, tail_at, _) = factors
    rows, cols = np.divmod(ranks, len(tail))
    out = shifted(head[rows], at, k)             # a new array
    out |= shifted(tail[cols], tail_at, k)
    return out


def product_codes(factors: list, k: int) -> np.ndarray:
    """Every code of a sorted product, in order, in k limbs."""
    size = product_size(factors)
    out = np.empty((size, k), dtype=np.uint64)
    product_fill(out, factors, 0)
    return out


def product_fill(out: np.ndarray, factors: list, start: int) -> None:
    """Write the codes of ranks start .. start+len(out)-1 of a sorted product into `out`.

    The ranks are a partial row of the head, whole rows, and a partial row,
    and each run of rows is one OR of the head codes with a slice of the tail.
    """
    k = out.shape[1]
    (head, at, _), (tail, tail_at, _) = factors
    size, pos, end = len(tail), 0, len(out)
    while pos < end:
        i, r = divmod(start + pos, size)
        take = min(size - r, end - pos)
        rows = (end - pos) // size if take == size else 1
        grid = out[pos:pos + rows * take].reshape(rows, take, k)
        np.bitwise_or(shifted(head[i:i + rows], at, k)[:, None],
                      shifted(tail[r:r + take], tail_at, k), out=grid)
        pos += rows * take


def part_plan(sizes: list[int], k: int) -> tuple[int, int, int]:
    """(capacity, stride, largest part) for sorting blocks of these sizes in parts.

    Beyond one part, every stride-th code of each of the B blocks, stride =
    capacity / 2B, is sampled to cut the parts (`part_edges`): about
    2BT / capacity samples of the T codes. The capacity, in codes, balances
    the two sorts: the largest of PART_BYTES of sort, sqrt(2BT), B + 1 and
    the samples. So the samples, the ranks at the candidate cuts and the
    B x (parts + 1) edges each stay within about one part.
    """
    blocks, total = len(sizes), sum(sizes)
    capacity = max(PART_BYTES // (8 * sort_words(k)), isqrt(2 * blocks * total - 1) + 1, blocks + 1)
    stride = max(1, capacity // (2 * blocks))
    if total > capacity:
        capacity = max(capacity, sum((size - 1) // stride for size in sizes))
    return capacity, stride, min(total, capacity)


def _steps(marks: np.ndarray, limit: int, end: int) -> list[int]:
    """Indices of ascending marks, from 0 to `end`, each the last within `limit` of the one before.

    Where no mark is within `limit`, the next mark is taken.
    """
    chosen, done = [], 0
    while end - done > limit:
        i = int(marks.searchsorted(done + limit, side="right")) - 1
        if i < 0 or marks[i] <= done:
            i = int(marks.searchsorted(done, side="right"))
            if i == len(marks):
                break
        chosen.append(i)
        done = int(marks[i])
    return chosen


def part_edges(blocks: list, sizes: list[int], capacity: int, stride: int, k: int) -> np.ndarray:
    """Each block's rank at each cut between parts of at most `capacity` codes.

    One row per block: 0, its ranks at the cuts, its size. A block has at
    most `stride` codes between two of its neighbouring samples, so between
    two codes x < y it has at most stride * (m + 1), where m of its samples
    lie in [x, y). Candidate cuts are samples at most capacity / stride -
    (number of blocks) samples apart, so at most `capacity` codes apart,
    found without a search in any block. Each cut is then the last
    candidate whose exact rank, summed over the blocks, fits one more part.
    """
    total = sum(sizes)
    below = np.empty((len(blocks), 0), dtype=np.int64)
    if total > capacity:
        samples, new = sort_marked(np.concatenate([
            product_at(factors, np.arange(stride, size, stride), k)
            for factors, size in zip(blocks, sizes) if size > stride]))
        firsts = np.flatnonzero(new)         # samples below each distinct sample
        step = max(1, capacity // stride - len(blocks))
        candidates = samples[firsts[_steps(firsts, step, len(samples))]]
        del samples, new, firsts             # freed before the blocks are searched
        below = product_below(blocks, candidates)
        below = below[:, _steps(below.sum(axis=0), capacity, total)]
    return np.column_stack([np.zeros(len(blocks), dtype=np.int64), below, sizes])


def sorted_parts(blocks: list, edges: np.ndarray, k: int, take) -> list:
    """take(codes, new) of each part of the blocks' codes between the edges, in code order.

    Each part is written once into one array, block by block from each
    block's rank range, and sorted; `new` marks the codes that differ from
    their predecessor. A part's sorted codes are gone before the next part
    is sorted.
    """
    spans = np.diff(edges, axis=1)                # codes per block and part
    rows = spans.sum(axis=0).tolist()
    part = np.empty((max(rows), k), dtype=np.uint64)
    out = []
    for p, size in enumerate(rows):
        pos = 0
        for factors, start, count in zip(blocks, edges[:, p].tolist(), spans[:, p].tolist()):
            if count:
                product_fill(part[pos:pos + count], factors, start)
                pos += count
        out.append(take(*sort_marked(part[:size])))
    return out
