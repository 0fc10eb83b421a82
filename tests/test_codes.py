"""The sorted-product kernels of `codes` against the same products over Python ints.

A sorted product (head, at, tail) has the codes head << at | tail, head
major; `product_codes` writes them all, `product_fill` any rank range in
place, `product_at` any ranks, and `product_below` counts them below
probes. Codes take k = 1, 2 or 3 limbs, `at` often lands on or next to a
limb boundary, tails often have one entry, and a head may be the empty
word's one code (at = the code width, as n = 1's block has it).
"""

from bisect import bisect_left

import numpy as np
from hypothesis import given, settings, strategies as st

from growthforge import codes

from conftest import code_ints


def limbs(values: list[int], bits: int) -> np.ndarray:
    """Ints of at most `bits` bits as an N x ceil(bits/64) uint64 limb array (at least one limb)."""
    k = codes.limb_count(bits, 1)
    data = b"".join(v.to_bytes(8 * k, "big") for v in values)
    return np.frombuffer(data, dtype=">u8").astype(np.uint64).reshape(len(values), k)


def table(draw, bits: int, most: int) -> list[int]:
    """A sorted table of distinct codes of `bits` bits; one entry as often as not."""
    size = draw(st.sampled_from([1, most]))
    return sorted(draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=1,
                                max_size=min(size, 1 << min(bits, 8)), unique=True)))


@st.composite
def products(draw):
    """(blocks as int tables [(head, at, tail)], the code width in bits, k) for 1-3 blocks."""
    k = draw(st.integers(1, 3))
    bits = draw(st.one_of(st.just(64 * k), st.integers(max(2, 64 * (k - 1) + 1), 64 * k)))
    near = [at for edge in (64, 128) for at in (edge - 1, edge, edge + 1) if at <= bits]
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.one_of(st.integers(1, bits), st.sampled_from(near or [bits])))
        blocks.append((table(draw, bits - at, 7), at, table(draw, at, 9)))
    return blocks, bits, k


def product_ints(head: list[int], at: int, tail: list[int]) -> list[int]:
    return [h << at | t for h in head for t in tail]


@given(products(), st.data())
@settings(max_examples=300, deadline=None)
def test_product_kernels_match_int_products(case, data):
    blocks, bits, k = case
    arrays = [(limbs(head, bits - at), at, limbs(tail, at)) for head, at, tail in blocks]
    for (head, at, tail), block in zip(blocks, arrays):
        every = product_ints(head, at, tail)
        assert every == sorted(every)
        assert code_ints(codes.product_codes(block, k)) == every
        # Any rank range: a partial first row, whole rows, a partial last row.
        start = data.draw(st.integers(0, len(every) - 1), label="start")
        stop = data.draw(st.integers(start + 1, len(every)), label="stop")
        out = np.full((stop - start, k), 0x5A5A5A5A5A5A5A5A, dtype=np.uint64)   # all overwritten
        codes.product_fill(out, block, start)
        assert code_ints(out) == every[start:stop]
        ranks = np.arange(start, stop)
        assert code_ints(codes.product_at(block, ranks, k)) == every[start:stop]
    # Ranks below probes of the code width: codes of the products and any others.
    probes = data.draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=1, max_size=6),
                       label="probes")
    probes += [c for head, at, tail in blocks for c in product_ints(head, at, tail)[:2]]
    below = codes.product_below(arrays, limbs(probes, bits))
    expected = [[bisect_left(product_ints(*block), c) for c in probes] for block in blocks]
    assert below.tolist() == expected
