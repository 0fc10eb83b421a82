"""Versioned persistence for built systems.

The file (format 2) is canonical JSON (sorted keys, compact separators, no
timestamps) holding the growth parameters, chooser, seed, the capture log and
each level's members as [start, stop) ranges of mixed-radix ranks over
`LevelSystem.radices(level, suffix)`, in member order: a lex level is one range.
The sha256 content digest names the system, not its encoding: it hashes the
canonical version-1 row document (version 1, choice rows in place of ranges,
every other key included). Format-1 files, which stored the rows, are refused.

Loading checks the capture log, the budget, then each level's ranges (JSON
ints, nonempty, in range, pairwise disjoint, r_level ranks in all), and only
then unranks each level in one pass: the rows are distinct, in range and end
with any capture target by construction. Target words and free parameters
(read by field name; a key no field names is ignored) come next, and the
digest last, over the row text of the arrays. The system keeps that digest.
The row text is streamed into the hash a fixed number of rows at a time; it
is never built, so no copy of a whole level is made to digest it.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from math import prod
from pathlib import Path

import numpy as np

from .construction import (
    CaptureEntry, CSet, FreeParams, LevelSystem, _from_fields, _rank, _rank_dtype,
    _require_choice_budget, _unrank,
)
from .errors import SystemFileError
from .exactmath import parse_rational
from .growth import geometric, spec_from_dict

FORMAT_NAME = "growthforge-system"
FORMAT_VERSION = 2
DIGEST_CHUNK_ROWS = 4096   # choice rows encoded at a time for the digest


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def document_digest(doc: dict, choices: list[np.ndarray]) -> str:
    """sha256 of the canonical version-1 row text: canonical_json of doc without its
    digest, with version 1 and the choice rows of `choices` as csets.

    The text is fed to the hash piece by piece, the rows DIGEST_CHUNK_ROWS at a
    time by `_feed_csets`; it is never built whole.
    """
    rest = {k: v for k, v in doc.items() if k != "digest"} | {"version": 1}
    h = hashlib.sha256(b"{")
    for i, (key, value) in enumerate(sorted(rest.items())):
        h.update(("," * (i > 0) + json.dumps(key) + ":").encode())
        if key == "csets":
            _feed_csets(choices, h.update)
        else:
            h.update(canonical_json(value).encode())
    h.update(b"}")
    return "sha256:" + h.hexdigest()


def _feed_csets(arrays: list[np.ndarray], feed) -> None:
    """Feed json.dumps([a.tolist() for a in arrays], separators=(",", ":")) to `feed`,
    as bytes, from the arrays, DIGEST_CHUNK_ROWS rows at a time.

    Each nonnegative choice becomes k + 3 bytes, "[" or NUL, k digits (NUL for leading
    zeros), "]" or NUL and ","; deleting the NULs leaves the text. Digits are computed,
    not looked up by value, so memory is k + 3 bytes a choice of one chunk however
    large the values.
    """
    feed(b"[")
    for n, a in enumerate(arrays):
        feed(b",[" if n else b"[")
        top = int(a.max(initial=0))
        k, dtype = len(str(top)), np.min_scalar_type(top)
        for start in range(0, len(a), DIGEST_CHUNK_ROWS):
            v = a[start:start + DIGEST_CHUNK_ROWS].astype(dtype)
            text = np.zeros(v.shape + (k + 3,), np.uint8)
            text[:, 0, 0], text[:, -1, -2], text[..., -1] = ord("["), ord("]"), ord(",")
            for i in range(k):
                place = 10 ** (k - 1 - i)
                digit = (v // place % 10).astype(np.uint8) + ord("0")
                text[..., 1 + i] = digit * (v >= place) if place > 1 else digit
            text = text.tobytes().translate(None, b"\0")
            feed(text if start + DIGEST_CHUNK_ROWS < len(a) else text[:-1])
        feed(b"]")
    feed(b"]")


def system_to_document(system: LevelSystem) -> dict:
    """The file's document without its digest; csets holds each level's rank ranges."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "growth": system.spec.describe(),
        "letters": system.alphabet.letters,
        "chooser": system.chooser,
        "seed": system.seed,
        "mode": system.mode,
        "depth": system.depth,
        "mu_offset": system.mu_offset,
        "horizon": system.horizon,
        "csets": [_rank_ranges(system, cs.level) for cs in system.csets],
        "capture_log": [e.to_dict() for e in system.capture_log],
        "free_params": system.free_params.to_dict() if system.free_params else None,
    }


def _rank_ranges(system: LevelSystem, level: int) -> list[list[int]]:
    """C(2^level)'s members as [start, stop) runs of consecutive ranks, in member order.

    A member's rank is its free choices read as a mixed-radix number over
    radices(level, suffix), by `_rank`; Python ints where the level has 2^63
    elements or more.
    """
    suffix = system.suffix(level)
    radices, choices = system.radices(level, suffix), system.csets[level].choices
    if suffix is not None and (choices[:, len(radices):] != suffix).any():
        raise ValueError(f"a level {level} member does not end with its capture target")
    ranks = _rank(radices, choices)
    cuts = np.flatnonzero(ranks[1:] != ranks[:-1] + 1) + 1
    first, last = np.r_[0, cuts], np.r_[cuts, len(ranks)] - 1
    return np.column_stack([ranks[first], ranks[last] + 1]).tolist()


def save_system(system: LevelSystem, path: str | Path) -> str:
    """Write the system file; returns its digest."""
    doc = system_to_document(system)
    doc["digest"] = document_digest(doc, [cs.choices for cs in system.csets])
    Path(path).write_text(canonical_json(doc) + "\n")
    return doc["digest"]


def load_system(path: str | Path) -> LevelSystem:
    """Read, re-validate, unrank and digest-check.

    The returned system's `digest` is the digest the file was checked against.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise SystemFileError(f"cannot read system file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise SystemFileError(f"{path}: not a {FORMAT_NAME} file")
    if doc.get("version") != FORMAT_VERSION:
        raise SystemFileError(f"{path}: unsupported version {doc.get('version')!r}, need "
                              f"{FORMAT_VERSION}; rebuild the system with `growthforge build`")
    # A missing key or a value of the wrong type is a bad file, not a failed
    # computation, and so is nesting too deep to decode or encode; the digest
    # is checked after, over the row text of the validated arrays.
    try:
        system = _system_from_document(doc, path)
        digest = document_digest(doc, [cs.choices for cs in system.csets])
    except (KeyError, TypeError, ValueError, AttributeError, IndexError, RecursionError) as exc:
        raise SystemFileError(
            f"{path}: malformed system file ({type(exc).__name__}: {exc})") from exc
    if doc.get("digest") != digest:
        raise SystemFileError(f"{path}: digest mismatch, file was modified")
    system.digest = digest
    return system


def _system_from_document(doc: dict, path: str | Path) -> LevelSystem:
    spec = spec_from_dict(doc["growth"])
    system = LevelSystem(spec, chooser=doc["chooser"], seed=doc["seed"], letters=doc["letters"],
                         mode=doc["mode"])
    system.mu_offset = doc["mu_offset"]
    system.horizon = doc["horizon"]
    csets = doc["csets"]
    if type(csets) is not list:
        raise SystemFileError(f"{path}: malformed csets: need a list of levels")
    depth = len(csets)
    if depth != doc["depth"]:
        raise SystemFileError(f"{path}: depth field {doc['depth']!r} != {depth} levels")
    if depth < 1:
        raise SystemFileError(f"{path}: depth {depth} has no choice set, need depth >= 1")
    _require_choice_budget(spec, range(depth))
    system.capture_log = [CaptureEntry.from_dict(e) for e in doc["capture_log"]]
    m = -1    # the previous capture level
    for entry in system.capture_log:
        target = entry.target_choices
        # The recurrence certificate trusts the capture level and gap bound.
        if not (0 <= entry.target_level < entry.capture_level < depth
                and len(target) == entry.target_level + 1
                and entry.gap_bound == 1 << (entry.capture_level + 1)):
            raise SystemFileError(
                f"{path}: malformed capture entry for {entry.target_word!r}: target level "
                f"{entry.target_level} with {len(target)} choices, capture level "
                f"{entry.capture_level}, gap bound {entry.gap_bound!r}; need target < capture "
                f"< depth {depth}, target level + 1 choices and gap bound 2^(capture level + 1)")
        for c, bound in zip(target, system.radices(entry.target_level)):
            if type(c) is not int or not 0 <= c < bound:
                raise SystemFileError(
                    f"{path}: choice {c!r} of {list(target)} in capture target "
                    f"malformed or out of range 0..{bound - 1}")
        # The scheduler's bookkeeping: levels m+1.. were filled in order, some as retries.
        level, filled, retries = entry.capture_level, entry.filled_levels, entry.retries
        levels = [entry.m_before, *filled, level]
        if (set(map(type, [entry.target_level, *levels, *retries])) - {int}
                or levels != list(range(m, level + 1))
                or retries != sorted(set(retries) & set(filled))):
            raise SystemFileError(
                f"{path}: malformed capture bookkeeping for {entry.target_word!r}: need m_before "
                f"{m}, filled_levels {m + 1}..{level - 1} and retries increasing among them")
        m = level
    # A capture level's ranks run over its free choices, so its rows end with the target.
    for level, ranges in enumerate(csets):
        suffix = system.suffix(level)
        radices = system.radices(level, suffix)
        ranks = _member_ranks(ranges, prod(radices), spec.ratio(level), path, level)
        system.csets.append(CSet(level, _unrank(radices, suffix or (), ranks)))
    for entry in system.capture_log:
        if system.expand(entry.target_choices) != entry.target_word:
            raise SystemFileError(
                f"{path}: capture target {entry.target_word!r} does not match its reference")
    if doc["free_params"]:
        fp = doc["free_params"]
        params = _from_fields(FreeParams, fp, epsilon=parse_rational(fp["epsilon"]))
        if params != FreeParams.of(params.epsilon, system.depth) or spec != geometric(
                params.epsilon):
            raise SystemFileError(
                f"{path}: malformed free_params: t, degree, x_word, y_word, r_max and the "
                f"geometric growth must follow from epsilon {params.epsilon} and depth "
                f"{system.depth}")
        system.free_params = params
    return system


def _member_ranks(ranges, available: int, required: int, path: str | Path,
                  level: int) -> np.ndarray:
    """The ranks of a level's [start, stop) ranges, in order, once the ranges are checked.

    Bounds must be JSON ints (numpy would take True as 1), 0 <= start < stop <=
    available, the ranges pairwise disjoint and `required` ranks in all. A bound
    too wide for int64 is out of range of an int64 level, and is checked as a Python int.
    """
    if (type(ranges) is not list or set(map(type, ranges)) - {list}
            or set(map(len, ranges)) - {2} or set(map(type, chain.from_iterable(ranges))) - {int}):
        raise SystemFileError(
            f"{path}: level {level} members malformed: need a list of [start, stop) int pairs")
    try:
        spans = np.array(ranges, dtype=_rank_dtype(available)).reshape(-1, 2)
    except OverflowError:
        spans = np.array(ranges, dtype=object).reshape(-1, 2)
    starts, stops = spans.T
    bad = (starts < 0) | (starts >= stops) | (stops > available)
    if bad.any():
        start, stop = ranges[int(np.argmax(bad))]
        raise SystemFileError(f"{path}: level {level} rank range [{start}, {stop}) is empty "
                              f"or out of range 0..{available}")
    order = np.argsort(starts)
    overlaps = stops[order[:-1]] > starts[order[1:]]
    if overlaps.any():
        raise SystemFileError(f"{path}: level {level} rank ranges overlap at rank "
                              f"{starts[order[1:]][np.argmax(overlaps)]}")
    lengths = stops - starts
    total = int(lengths.sum())
    if total != required:
        raise SystemFileError(
            f"{path}: level {level} holds {total} members, ratio demands {required}")
    lengths = lengths.astype(np.int64)
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(total)
