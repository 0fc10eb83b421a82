"""Versioned persistence for built systems.

The file (format 3) is canonical JSON (sorted keys, compact separators, no
timestamps) holding what the loader cannot derive: the growth, letters,
chooser, seed, mode, mu_offset, horizon, the number of captures and each
level's members as [start, stop) ranges of mixed-radix ranks over
`LevelSystem.radices(level, suffix)`, in member order (a lex level is one
range). These are the ranges a `CSet` holds, so no level is unranked to save
or load. The depth is the number of levels, `plan_captures` replays the
capture log and `FreeParams.of(epsilon, depth)` gives the free parameters.
The sha256 digest names the system, not its encoding: it hashes the canonical
version-1 row document of the system (version 1, the depth, the capture log,
the free parameters, choice rows in place of ranges), so the digests of
formats 1 and 2 stand; files of those formats are refused.

Loading refuses a key set other than the format's (every stored key is hashed
or determines a hashed value), checks the budget, replays the schedule (the
stored count of captures, 0 outside recurrent mode, must be what the scheduler
plans), then checks each level's ranges (JSON ints, nonempty, in range,
pairwise disjoint, r_level ranks in all) over the radices the replayed
captures fix, so the members are distinct and end with any capture target by
construction. The digest comes last, streamed from the rows of one chunk of
members at a time, and the system keeps it. The hash is CPython's built-in
SHA-256 (`_sha2`, named `_sha256` before 3.12), so no command maps OpenSSL;
`hashlib` is the fallback only where neither module is built.
"""

from __future__ import annotations

import json
from itertools import chain
from math import prod
from pathlib import Path

import numpy as np

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .construction import (
    CSet, FreeParams, LevelSystem, _rank_dtype, _require_choice_budget, plan_captures,
)
from .errors import HorizonTooSmall, SystemFileError, UncoveredArgument
from .growth import spec_from_dict

FORMAT_NAME = "growthforge-system"
FORMAT_VERSION = 3
FILE_KEYS = frozenset({"format", "version", "growth", "letters", "chooser", "seed", "mode",
                       "mu_offset", "horizon", "captures", "csets", "digest"})


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def document_digest(system: LevelSystem) -> str:
    """sha256 of the system's canonical version-1 row text: canonical_json of its stored
    keys with version 1, the depth, the capture log, the free parameters and the choice
    rows of its sets as csets.

    The text is fed to the hash piece by piece, one chunk of rows at a time by
    `_feed_csets`; it is never built whole.
    """
    rest = _stored(system) | {
        "version": 1, "depth": system.depth, "csets": system.csets,
        "capture_log": [e.to_dict() for e in system.capture_log],
        "free_params": system.free_params and system.free_params.to_dict()}
    h = sha256(b"{")
    for i, (key, value) in enumerate(sorted(rest.items())):
        h.update(("," * (i > 0) + json.dumps(key) + ":").encode())
        if key == "csets":
            _feed_csets(value, h.update)
        else:
            h.update(canonical_json(value).encode())
    h.update(b"}")
    return "sha256:" + h.hexdigest()


def _feed_csets(csets: list[CSet], feed) -> None:
    """Feed json.dumps([rows of each set], separators=(",", ":")) to `feed`, as bytes,
    from the sets' row chunks.

    Each nonnegative choice becomes k + 3 bytes, "[" or NUL, k digits (NUL for leading
    zeros), "]" or NUL and ","; deleting the NULs leaves the text. k covers the largest
    choice the level's radices and tail allow. Digits are computed, not looked up by
    value, so memory is k + 3 bytes a choice of one chunk however large the values.
    """
    feed(b"[")
    for n, cs in enumerate(csets):
        feed(b",[" if n else b"[")
        top = max([max(cs.radices) - 1, *cs.tail])
        k, dtype = len(str(top)), np.min_scalar_type(top)
        for start, rows in cs.chunks():
            v = rows.astype(dtype)
            text = np.zeros(v.shape + (k + 3,), np.uint8)
            text[:, 0, 0], text[:, -1, -2], text[..., -1] = ord("["), ord("]"), ord(",")
            for i in range(k):
                place = 10 ** (k - 1 - i)
                digit = (v // place % 10).astype(np.uint8) + ord("0")
                text[..., 1 + i] = digit * (v >= place) if place > 1 else digit
            text = text.tobytes().translate(None, b"\0")
            feed(text if start + len(v) < len(cs) else text[:-1])
        feed(b"]")
    feed(b"]")


def _stored(system: LevelSystem) -> dict:
    """The keys every format stores as they are."""
    return {"format": FORMAT_NAME, "growth": system.spec.describe(),
            "letters": system.alphabet.letters, "chooser": system.chooser, "seed": system.seed,
            "mode": system.mode, "mu_offset": system.mu_offset, "horizon": system.horizon}


def system_to_document(system: LevelSystem) -> dict:
    """The file's document without its digest; csets holds each level's rank ranges."""
    return _stored(system) | {"version": FORMAT_VERSION, "captures": len(system.capture_log),
                              "csets": [_ranges(system, cs) for cs in system.csets]}


def _ranges(system: LevelSystem, cs: CSet) -> list[list[int]]:
    """The set's rank ranges, which the loader reads over radices(level, suffix(level))."""
    suffix = system.suffix(cs.level)
    if cs.tail != (suffix or ()):
        raise ValueError(f"level {cs.level} members end with {cs.tail}, but the capture log "
                         f"fixes {suffix}")
    return cs.ranges.tolist()


def save_system(system: LevelSystem, path: str | Path) -> str:
    """Write the system file; returns its digest."""
    doc = system_to_document(system)
    doc["digest"] = document_digest(system)
    Path(path).write_text(canonical_json(doc) + "\n")
    return doc["digest"]


def load_system(path: str | Path) -> LevelSystem:
    """Read, re-validate and digest-check.

    The returned system's `digest` is the digest the file was checked against.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise SystemFileError(f"cannot read system file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise SystemFileError(f"{path}: not a {FORMAT_NAME} file")
    if type(doc.get("version")) is not int or doc["version"] != FORMAT_VERSION:
        raise SystemFileError(f"{path}: unsupported version {doc.get('version')!r}, need "
                              f"{FORMAT_VERSION}; rebuild the system with `growthforge build`")
    if doc.keys() != FILE_KEYS:
        raise SystemFileError(f"{path}: malformed system file: unknown keys "
                              f"{sorted(doc.keys() - FILE_KEYS)}, missing keys "
                              f"{sorted(FILE_KEYS - doc.keys())}")
    # A value of the wrong type is a bad file, not a failed computation, and so
    # is nesting too deep to print; the digest is checked after, over the row
    # text of the validated sets.
    try:
        system = _system_from_document(doc, path)
        digest = document_digest(system)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError, RecursionError,
            HorizonTooSmall, UncoveredArgument) as exc:   # a horizon or table too short
        raise SystemFileError(
            f"{path}: malformed system file ({type(exc).__name__}: {exc})") from exc
    if doc["digest"] != digest:
        raise SystemFileError(f"{path}: digest mismatch, file was modified")
    system.digest = digest
    return system


def _system_from_document(doc: dict, path: str | Path) -> LevelSystem:
    spec = spec_from_dict(doc["growth"])
    for key in ("seed", "horizon", "mu_offset", "captures"):
        if type(doc[key]) is not int or doc[key] < 0:
            raise SystemFileError(f"{path}: malformed {key} {doc[key]!r}: need an int >= 0")
    system = LevelSystem(spec, chooser=doc["chooser"], seed=doc["seed"], letters=doc["letters"],
                         mode=doc["mode"])
    captures = doc["captures"]
    if captures and system.mode != "recurrent":
        raise SystemFileError(f"{path}: malformed captures {captures}: need 0 in "
                              f"{system.mode} mode")
    if system.mode == "free" and (spec.family, system.alphabet.letters) != ("geometric", "xy"):
        # FreeParams.of makes the generators x^(2^t) and y^(2^t) from the growth's epsilon.
        raise SystemFileError(f"{path}: malformed free system: need a geometric growth and "
                              f"letters 'xy', got {spec.family} and {doc['letters']!r}")
    system.mu_offset, system.horizon = doc["mu_offset"], doc["horizon"]
    csets = doc["csets"]
    if type(csets) is not list:
        raise SystemFileError(f"{path}: malformed csets: need a list of levels")
    depth = len(csets)
    if depth < 1:
        raise SystemFileError(f"{path}: depth {depth} has no choice set, need depth >= 1")
    _require_choice_budget(spec, range(depth))
    if system.mode == "free":
        system.free_params = FreeParams.of(spec.epsilon, depth)
    log = system.capture_log = plan_captures(system, depth, captures)
    if len(log) != captures:
        raise SystemFileError(f"{path}: malformed captures {captures}: the scheduler plans "
                              f"{len(log)} in {depth} levels")
    # A capture level's ranks run over its free choices, so its rows end with the target.
    for level, ranges in enumerate(csets):
        suffix = system.suffix(level)
        radices = system.radices(level, suffix)
        spans = _member_ranges(ranges, prod(radices), spec.ratio(level), path, level)
        system.csets.append(CSet(level, radices, suffix or (), spans))
    for entry in log:
        entry.target_word = system.expand(entry.target_choices)
    return system


def _member_ranges(ranges, available: int, required: int, path: str | Path,
                   level: int) -> np.ndarray:
    """A level's [start, stop) ranges as a k x 2 array, in order, once they are checked.

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
    total = int((stops - starts).sum())
    if total != required:
        raise SystemFileError(
            f"{path}: level {level} holds {total} members, ratio demands {required}")
    return spans
