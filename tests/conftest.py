import hashlib
import json
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from growthforge.growth import poly_geometric, table_spec
from growthforge.construction import (
    build_free_power_system,
    build_plain,
    build_uniformly_recurrent,
)
from growthforge import analyzer, persist

TOY_TABLE = {1: 2, 2: 4, 4: 8, 8: 16}


def factor_words(engine: analyzer.FactorEngine, n: int) -> frozenset[str]:
    """F(n) from the structural route, decoded for comparison with the string oracle."""
    return frozenset(engine.decode(engine.distinct(n), n))


def encoded(engine: analyzer.FactorEngine, words: list[str]) -> np.ndarray:
    """Equal-length words as one N x k code array, coded letter by letter."""
    letters, n = engine.system.alphabet.letters, len(words[0]) if words else 0
    k = max(1, -(-n * engine.bits // 64))
    ints = [reduce(lambda code, ch: code << engine.bits | letters.index(ch), w, 0) for w in words]
    data = b"".join(code.to_bytes(8 * k, "big") for code in ints)
    return np.frombuffer(data, dtype=">u8").astype(np.uint64).reshape(len(words), k)


def rank_of(radices: list[int], row) -> int:
    """A choice row's rank, in Python ints: its first len(radices) choices read as a
    mixed-radix number, the inverse of `construction._unrank`."""
    return reduce(lambda rank, pair: rank * pair[1] + pair[0], zip(row, radices), 0)


def member_rows(cs) -> list[list[int]]:
    """A choice set's member rows, in member order, unranked whole."""
    return cs.rows(0, len(cs)).tolist()


def member_words(system) -> list[list[str]]:
    """Each level's member words, expanded from the choice rows."""
    return [[system.expand(row) for row in member_rows(cs)] for cs in system.csets]


def oracle_rows(doc: dict, system) -> list[list[list[int]]]:
    """Each level's choice rows, unranked from its [start, stop) ranges in pure Python.

    Level j holds r_j members, so the bound vector of a level is read off the
    range totals of the levels below it and the letter count; a capture
    level's ranks run over its free choices and end with the target's, as
    `system`'s capture log (the loader's replay, for a loaded system) fixes them.
    """
    sizes = [sum(stop - start for start, stop in ranges) for ranges in doc["csets"]]
    tails = {e.capture_level: list(e.target_choices) for e in system.capture_log}
    levels = []
    for level, ranges in enumerate(doc["csets"]):
        tail = tails.get(level, [])
        radices = [*reversed(sizes[:level]), len(doc["letters"])][:level + 1 - len(tail)]
        rows = []
        for start, stop in ranges:
            for rank in range(start, stop):
                digits = []
                for radix in reversed(radices):
                    rank, digit = divmod(rank, radix)
                    digits.append(digit)
                rows.append(digits[::-1] + tail)
        levels.append(rows)
    return levels


def oracle_digest(doc: dict, system) -> str:
    """The system-file digest by its definition, independent of the array encoder:
    sha256 of the sorted, compact JSON of the version-1 row document, that is the
    file's document without its digest and capture count, with version 1, its
    ranges unranked, its depth, and `system`'s capture log and free parameters.

    It hashes with `hashlib` on purpose: that is OpenSSL's SHA-256, a second
    implementation beside the built-in one `persist` uses."""
    derived = {"version": 1, "depth": len(doc["csets"]), "csets": oracle_rows(doc, system),
               "capture_log": [e.to_dict() for e in system.capture_log],
               "free_params": system.free_params and system.free_params.to_dict()}
    version_1 = {k: v for k, v in doc.items() if k not in ("digest", "captures")} | derived
    body = json.dumps(version_1, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(body.encode()).hexdigest()


def system_digest(system) -> str:
    """The digest persist gives a built or loaded system, without writing a file."""
    return persist.document_digest(system)


def traced_peak(call) -> int:
    """The peak bytes traced by tracemalloc (numpy buffers included) while call() runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def code_ints(rows) -> list[int]:
    """Each row of a code array as one int: its uint64 limbs, most significant first."""
    return [int.from_bytes(row.astype(">u8").tobytes(), "big") for row in rows]


@pytest.fixture(scope="session")
def toy_system():
    return build_plain(table_spec(TOY_TABLE), "lex", 3)


@pytest.fixture(scope="session")
def poly_spec():
    return poly_geometric("1/10")


@pytest.fixture(scope="session")
def poly_plain5(poly_spec):
    return build_plain(poly_spec, "lex", 5)


@pytest.fixture(scope="session")
def captured4(poly_spec):
    return build_uniformly_recurrent(poly_spec, depth=4, capture_budget=2,
                                     mu_offset=0, horizon=12)


@pytest.fixture(scope="session")
def captured7(poly_spec):
    return build_uniformly_recurrent(poly_spec, depth=7, capture_budget=2,
                                     mu_offset=0, horizon=12)


@pytest.fixture(scope="session")
def captured7_dims(captured7):
    return analyzer.dim_series(captured7, 64)


@pytest.fixture(scope="session")
def free_system_eps1():
    return build_free_power_system(1, 4)
