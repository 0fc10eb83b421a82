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

A sorted product (a block) is (head, at, tail): sorted tables of distinct
codes, the head's placed at bit `at` and up, the tail's below it. Its codes
head << at | tail ascend head major, so a code is known from its rank by
mixed radix, any rank range is written in place (`concat`), and the codes
below a threshold are counted in the tables. Blocks are sorted together in
parts: disjoint code ranges cut at sampled codes (each block's fields of the
candidate cuts taken in one broadcast, `fields`), each written once into
one array and sorted there.
"""

from __future__ import annotations

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


def fields(codes: np.ndarray, lo: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The fields (lo, bits) of the codes for arrays lo and bits, one row per field limb, each field
    as `field` gives it, in one broadcast: a limb is the 64 or fewer bits at its own lo, the code
    limb holding it shifted right, ORed with the limb above shifted left (by 64: nothing), masked."""
    width = np.maximum(bits - 1, 0) // 64 + 1           # limbs per field, at least one
    step = 64 * (np.repeat(np.cumsum(width), width) - 1 - np.arange(width.sum()))   # top first
    lo, bits = lo.repeat(width) + step, np.minimum(bits.repeat(width) - step, 64).astype(np.uint64)
    low, r = codes.shape[1] - 1 - lo // 64, (lo % 64).astype(np.uint64)
    out, high = codes.T[low], codes.T[np.maximum(low - 1, 0)]   # above the top limb: masked off
    out >>= r[:, None]                       # in place: two arrays of the output's size live
    high <<= (64 - r)[:, None]
    out |= high
    out &= (~np.uint64(0) >> (64 - bits))[:, None]
    return out


def concat(out: np.ndarray, head: np.ndarray, at: int, tail: np.ndarray) -> np.ndarray:
    """`out` (..., k limbs) given head * 2^at + tail, broadcast; it fits, the tail below bit at.

    The head is shifted into its limbs of `out` and each limb's high bits ORed one limb up, the
    other limbs zeroed, and the tail ORed into the low limbs: for k = 1, one shift and one OR."""
    k, width = out.shape[-1], head.shape[-1]
    if k == 1:
        return np.bitwise_or(np.left_shift(head, at, out=out), tail, out=out)
    q, r = divmod(at, 64)
    top = k - q - width                      # the limb the head's top limb lands in
    np.left_shift(head, r, out=out[..., top:k - q])
    out[..., :top] = out[..., k - q:] = 0
    if r and (top or width > 1):
        out[..., max(top - 1, 0):k - q - 1] |= (head >> (64 - r))[..., max(1 - top, 0):]
    out[..., k - tail.shape[-1]:] |= tail
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


def sort_words(k: int) -> int:
    """8-byte words per k-limb code in a sort: the code, plus the lexsort index and sorted copy."""
    return k if k == 1 else 2 * k + 1


def product_below(blocks: list, codes: np.ndarray) -> np.ndarray:
    """How many codes of each sorted product lie below each of `codes` (an array of their width).

    One row per block: the head entries below a code's head field times the tail size, plus, when
    that field is a head entry, the tail entries below its tail field. The fields of every block
    are cut in one broadcast (a head's runs to the code's top, in as many limbs as the head)."""
    at = np.array([at for _, at, _ in blocks])
    heads = np.minimum([64 * head.shape[1] for head, _, _ in blocks], 64 * codes.shape[1] - at)
    keys = fields(codes, np.stack([at, 0 * at], 1).ravel(), np.stack([heads, at], 1).ravel())
    (lo, right, below), pos = np.empty((3, len(blocks), len(codes)), dtype=np.int64), 0
    for b, (head, _, tail) in enumerate(blocks):
        mid = pos + head.shape[1]
        head, key, pos = _keys(head), _keys(keys[pos:mid].T), mid + tail.shape[1]
        lo[b] = head.searchsorted(key)
        right[b] = head.searchsorted(key, side="right")
        below[b] = _keys(tail).searchsorted(_keys(keys[mid:pos].T))
    del keys                                 # in place from here: B x C is about one part
    below *= right > lo
    lo *= np.array([len(tail) for _, _, tail in blocks])[:, None]
    lo += below
    return lo


def product_at(block: tuple, ranks: np.ndarray, k: int) -> np.ndarray:
    """The codes of a sorted product at the given ranks, in k limbs."""
    head, at, tail = block
    rows, cols = np.divmod(ranks, len(tail))
    return concat(np.empty((len(ranks), k), dtype=np.uint64), head[rows], at, tail[cols])


def product_codes(block: tuple, k: int) -> np.ndarray:
    """Every code of a sorted product, in order, in k limbs."""
    out = np.empty((len(block[0]) * len(block[2]), k), dtype=np.uint64)
    product_fill(out, block, 0)
    return out


def product_fill(out: np.ndarray, block: tuple, start: int) -> None:
    """Write the codes of ranks start .. start+len(out)-1 of a sorted product into `out`: a partial
    row of the head, whole rows and a partial row, each run in place, its head rows over a tail slice."""
    head, at, tail = block
    size, pos, end, k = len(tail), 0, len(out), out.shape[1]
    while pos < end:
        i, r = divmod(start + pos, size)
        take = min(size - r, end - pos)
        rows = (end - pos) // size if take == size else 1
        concat(out[pos:pos + rows * take].reshape(rows, take, k), head[i:i + rows, None], at,
               tail[r:r + take])
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
            product_at(block, np.arange(stride, size, stride), k)
            for block, size in zip(blocks, sizes) if size > stride]))
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
        for block, start, count in zip(blocks, edges[:, p].tolist(), spans[:, p].tolist()):
            if count:
                product_fill(part[pos:pos + count], block, start)
                pos += count
        out.append(take(*sort_marked(part[:size])))
    return out
