"""Versioned persistence for built systems.

The file is canonical JSON (sorted keys, compact separators, no timestamps)
holding the growth parameters, chooser, seed, per-level member choice tuples
(indices, never strings, encoded once per save straight from the int64 arrays),
the capture log, and a sha256 content digest over the same canonical text without
the digest. Identical configurations therefore produce byte-identical files.
Loading expands no member: it re-validates set sizes, choice types, then each
level's choice array at once (ranges by one comparison against the level's bound
vector, distinct rows by sorting them), the capture entries (levels, gap bounds,
targets, the scheduler's bookkeeping, and that every member of a capture level ends
with its target) and the free parameters, both read by field name (a key no field
names is ignored). Only then does it check the digest, with the choice rows encoded
from the validated arrays. The system keeps that digest.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from pathlib import Path

import numpy as np

from .construction import CaptureEntry, CSet, FreeParams, LevelSystem, WordRef, _from_fields
from .errors import SystemFileError
from .exactmath import parse_rational
from .growth import geometric, spec_from_dict

FORMAT_NAME = "growthforge-system"
FORMAT_VERSION = 1


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def document_digest(doc: dict) -> str:
    """sha256 of the canonical text of doc without its digest; csets holds the arrays."""
    rest = {k: v for k, v in doc.items() if k != "digest"}
    return _text_digest(_canonical_text(rest, _csets_json(doc["csets"])))


def _text_digest(body: str) -> str:
    return "sha256:" + hashlib.sha256(body.encode()).hexdigest()


def _canonical_text(doc: dict, csets: str) -> str:
    """canonical_json(doc), with csets as the text of the "csets" value."""
    return "{" + ",".join(
        json.dumps(key) + ":" + (csets if key == "csets" else canonical_json(value))
        for key, value in sorted(doc.items())) + "}"


def _csets_json(arrays: list[np.ndarray]) -> str:
    """json.dumps([a.tolist() for a in arrays], separators=(",", ":")), from the arrays.

    Each nonnegative choice becomes k + 3 bytes, "[" or NUL, k digits (NUL for leading
    zeros), "]" or NUL and ","; deleting the NULs leaves the text. Digits are computed,
    not looked up by value, so memory is k + 3 bytes a choice however large the values.
    """
    levels = []
    for a in arrays:
        top = int(a.max(initial=0))
        k, v = len(str(top)), a.astype(np.min_scalar_type(top))
        text = np.zeros(a.shape + (k + 3,), np.uint8)
        text[:, 0, 0], text[:, -1, -2], text[..., -1] = ord("["), ord("]"), ord(",")
        for i in range(k):
            place = 10 ** (k - 1 - i)
            digit = (v // place % 10).astype(np.uint8) + ord("0")
            text[..., 1 + i] = digit * (v >= place) if place > 1 else digit
        levels.append("[" + text.tobytes().translate(None, b"\0").decode()[:-1] + "]")
    return "[" + ",".join(levels) + "]"


def system_to_document(system: LevelSystem) -> dict:
    """The document without its digest; csets holds the choice arrays themselves."""
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
        "csets": [cs.choices for cs in system.csets],
        "capture_log": [e.to_dict() for e in system.capture_log],
        "free_params": system.free_params.to_dict() if system.free_params else None,
    }


def save_system(system: LevelSystem, path: str | Path) -> str:
    """Write the system file; returns its digest. The choice rows are encoded once."""
    doc = system_to_document(system)
    csets = _csets_json(doc["csets"])
    digest = _text_digest(_canonical_text(doc, csets))
    Path(path).write_text(_canonical_text({**doc, "digest": digest}, csets) + "\n")
    return digest


def load_system(path: str | Path) -> LevelSystem:
    """Read, re-validate and digest-check; members are checked, never expanded.

    The returned system's `digest` is the digest the file was checked against.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemFileError(f"cannot read system file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise SystemFileError(f"{path}: not a {FORMAT_NAME} file")
    if doc.get("version") != FORMAT_VERSION:
        raise SystemFileError(f"{path}: unsupported version {doc.get('version')}")
    # A missing key or a value of the wrong type is a bad file, not a failed
    # computation; the digest is checked after, over the validated arrays.
    try:
        system = _system_from_document(doc, path)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise SystemFileError(
            f"{path}: malformed system file ({type(exc).__name__}: {exc})") from exc
    doc["csets"] = [cs.choices for cs in system.csets]    # frees the parsed rows before encoding
    if doc.get("digest") != document_digest(doc):
        raise SystemFileError(f"{path}: digest mismatch, file was modified")
    system.digest = doc["digest"]
    return system


def _system_from_document(doc: dict, path: str | Path) -> LevelSystem:
    spec = spec_from_dict(doc["growth"])
    system = LevelSystem(
        spec,
        chooser=doc["chooser"],
        seed=doc["seed"],
        letters=doc["letters"],
        mode=doc["mode"],
    )
    system.mu_offset = doc["mu_offset"]
    system.horizon = doc["horizon"]
    for level, tuples in enumerate(doc["csets"]):
        required = spec.ratio(level)
        if len(tuples) != required:
            raise SystemFileError(
                f"{path}: level {level} holds {len(tuples)} members, ratio demands {required}")
        rows = _choice_rows(tuples, system.radices(level), path, f"level {level} members")
        ordered = rows[np.lexsort(rows.T)]
        if (ordered[1:] == ordered[:-1]).all(axis=1).any():
            raise SystemFileError(f"{path}: duplicate member choice tuples at level {level}")
        system.csets.append(CSet(level, rows))
    system.capture_log = [CaptureEntry.from_dict(e) for e in doc["capture_log"]]
    m = -1    # the previous capture level
    for entry in system.capture_log:
        # The recurrence certificate trusts the capture level and gap bound.
        if not (0 <= entry.target_level < entry.capture_level < system.depth
                and entry.gap_bound == 1 << (entry.capture_level + 1)):
            raise SystemFileError(
                f"{path}: malformed capture entry for {entry.target_word!r}: target level "
                f"{entry.target_level}, capture level {entry.capture_level}, gap bound "
                f"{entry.gap_bound!r}; need target < capture < depth {system.depth} and "
                f"gap bound 2^(capture level + 1)")
        _choice_rows([list(entry.target_choices)], system.radices(entry.target_level), path,
                     "capture target")
        if system.expand(WordRef(entry.target_level, entry.target_choices)) != entry.target_word:
            raise SystemFileError(
                f"{path}: capture target {entry.target_word!r} does not match its reference")
        # The scheduler's bookkeeping: levels m+1.. were filled in order, some as retries.
        level, filled, retries = entry.capture_level, entry.filled_levels, entry.retries
        levels = [entry.m_before, *filled, level]
        if (set(map(type, [entry.target_level, *levels, *retries])) - {int}
                or levels != list(range(m, level + 1))
                or retries != sorted(set(retries) & set(filled))):
            raise SystemFileError(
                f"{path}: malformed capture bookkeeping for {entry.target_word!r}: need m_before "
                f"{m}, filled_levels {m + 1}..{level - 1} and retries increasing among them")
        tails = system.csets[level].choices[:, level - entry.target_level:]
        if (tails != entry.target_choices).any():
            raise SystemFileError(f"{path}: a level {level} member does not end with capture "
                                  f"target {entry.target_word!r}")
        m = level
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
    if system.depth != doc["depth"]:
        raise SystemFileError(f"{path}: depth field {doc['depth']} != {system.depth} levels")
    if system.depth < 1:
        raise SystemFileError(f"{path}: depth {system.depth} has no choice set, need depth >= 1")
    return system


def _choice_rows(raw, bounds: list[int], path: str | Path, what: str) -> np.ndarray:
    """raw as an int64 array of rows with one int per bound, each below its bound.

    The bounds are |C_(level-1)|, ..., |C_0|, d. Types are checked before
    numpy sees the values, which would turn True into 1 and refuse 2**64
    with an OverflowError; a bad file is then scanned for its first bad choice.
    """
    width = len(bounds)
    if type(raw) is not list or set(map(type, raw)) - {list} or set(map(len, raw)) - {width}:
        raise SystemFileError(f"{path}: {what} malformed: need lists of {width} choices")
    rows = None
    if not set(map(type, chain.from_iterable(raw))) - {int}:
        try:
            rows = np.fromiter(chain.from_iterable(raw), dtype=np.int64,
                               count=len(raw) * width).reshape(len(raw), width)
        except OverflowError:
            pass
    if rows is None or ((rows < 0) | (rows >= bounds)).any():
        for row in raw:
            for c, bound in zip(row, bounds):
                if type(c) is not int or not 0 <= c < bound:
                    raise SystemFileError(
                        f"{path}: choice {c!r} of {row} in {what} malformed or out of range "
                        f"0..{bound - 1}")
    return rows
