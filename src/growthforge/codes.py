"""Words as integer codes held in uint64 limbs.

A word over d letters packs b = ceil(log2 d) bits per letter, its first
letter most significant: an injective code that keeps the lex order of
equal-length words. A length-n code takes k = ceil(b*n/64) uint64 limbs,
most significant first. A code array is a flat uint64 array when k = 1 and
an N x k array beyond. Concatenation is a shift and an OR, with no carries
between letters, and a subword is a bit field. One-limb arrays sort in
place; wider ones sort with np.lexsort over the limbs and are searched
through each row's big-endian bytes, which compare in the same order.
"""

from __future__ import annotations

import numpy as np


def letter_bits(d: int) -> int:
    """Bits per letter of a d-letter alphabet."""
    return max(1, (d - 1).bit_length())


def limb_count(length: int, bits: int) -> int:
    """uint64 limbs per code of a length-`length` word."""
    return max(1, -(-length * bits // 64))


def search_key(code: int, k: int):
    """One code, as an int, as a search key for `holds` on k-limb code arrays."""
    return np.uint64(code) if k == 1 else np.void(code.to_bytes(8 * k, "big"))


def _grid(codes: np.ndarray) -> np.ndarray:
    """A code array as N x k limbs, whatever its width."""
    return codes if codes.ndim == 2 else codes[:, None]


def field(codes: np.ndarray, lo: int, bits: int) -> np.ndarray:
    """Bits lo .. lo+bits-1 of each code (bit 0 the least significant), in ceil(bits/64) limbs."""
    if codes.ndim == 1:
        return (codes >> lo) & ((1 << bits) - 1)
    k = max(1, -(-bits // 64))
    q, r = divmod(lo, 64)
    end = codes.shape[1] - q                 # limbs above the q dropped ones
    take = min(k + 1, end)
    src = np.zeros((len(codes), k + 1), dtype=np.uint64)
    src[:, k + 1 - take:] = codes[:, end - take:end]
    out = src[:, 1:] >> r
    if r:
        out |= src[:, :-1] << (64 - r)
    if bits < 64 * k:
        out[:, 0] &= (1 << (bits - 64 * (k - 1))) - 1
    return out.reshape(-1) if k == 1 else out


def shifted(codes: np.ndarray, bits: int, k: int) -> np.ndarray:
    """Each code times 2^bits, in k limbs; the product must fit. `codes` itself if nothing moves."""
    if k == 1:
        return codes << bits if bits else codes
    rows = _grid(codes)
    width = rows.shape[1]
    if width == k and not bits:
        return codes
    q, r = divmod(bits, 64)
    top = k - q - width                      # the limb the top input limb lands in
    out = np.zeros((len(rows), k), dtype=np.uint64)
    out[:, top:k - q] = rows << r
    if r:                                    # each limb's high bits carry one limb up
        out[:, max(top - 1, 0):k - q - 1] |= (rows >> (64 - r))[:, max(1 - top, 0):]
    return out


def sort_marked(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes in ascending order, and which of them differ from their predecessor.

    One-limb codes are sorted in place; wider rows sort with np.lexsort, the
    most significant limb as the primary key.
    """
    new = np.ones(len(codes), dtype=bool)
    if codes.ndim == 1:
        codes.sort()
        np.not_equal(codes[1:], codes[:-1], out=new[1:])
        return codes, new
    codes = codes[np.lexsort(codes.T[::-1])]
    np.any(codes[1:] != codes[:-1], axis=1, out=new[1:])
    return codes, new


def sorted_unique(codes: np.ndarray) -> np.ndarray:
    """Distinct codes in ascending order; may sort `codes` in place."""
    codes, new = sort_marked(codes)
    return codes[new]


def _keys(codes):
    """One comparable scalar per code: the code itself, or its limbs' big-endian bytes.

    A scalar (a `search_key`) is returned as it is.
    """
    if codes.ndim < 2:
        return codes
    return np.ascontiguousarray(codes, dtype=">u8").view(f"V{8 * codes.shape[1]}").reshape(-1)


def holds(table: np.ndarray, codes):
    """Which codes (an array, or one `search_key`) a nonempty sorted table of their width holds.

    A code is held when the last entry <= it equals it. A code below every
    entry gets index -1, the largest entry, which cannot equal it.
    """
    table, codes = _keys(table), _keys(codes)
    return table[table.searchsorted(codes, side="right") - 1] == codes


def unpack(codes: np.ndarray, n: int, bits: int) -> np.ndarray:
    """The letter indices of length-n codes, one row per code: shift, mask, no Python loop."""
    rows = _grid(codes)
    pos = bits * np.arange(n - 1, -1, -1)     # lowest bit of each letter
    limb, shift = rows.shape[1] - 1 - pos // 64, (pos % 64).astype(np.uint64)
    digits = rows[:, limb] >> shift
    split = np.flatnonzero(shift + bits > 64)   # letters that straddle two limbs
    if split.size:
        digits[:, split] |= rows[:, limb[split] - 1] << (64 - shift[split])
    return digits & ((1 << bits) - 1)
