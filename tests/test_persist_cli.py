import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays as int_arrays

from growthforge import analyzer, codes, persist
from growthforge.cli import RunConfig, main
from growthforge.errors import BudgetExceeded, GrowthForgeError, SystemFileError
from growthforge.freesub import verify_free_generators
from growthforge.construction import (
    CHUNK_ROWS, CSet, LevelSystem, _rank_dtype, build_free_power_system, build_plain,
    build_uniformly_recurrent,
)
from growthforge.growth import poly_geometric, table_spec

from conftest import (
    member_rows, member_words, oracle_digest, oracle_rows, rank_of, system_digest, traced_peak,
)


def tamper(path, **fields):
    """Rewrite fields of a system file and keep its now stale digest."""
    doc = json.loads(path.read_text())
    doc.update(fields)
    path.write_text(json.dumps(doc))


def plain_document(system) -> dict:
    """A fresh copy of the system's file document, digest included, for hand edits."""
    doc = json.loads(json.dumps(persist.system_to_document(system)))
    return doc | {"digest": system_digest(system)}


def redigest(doc: dict, system) -> None:
    """Give an edited document of `system` the digest of its content, over the capture log
    and free parameters of `system`, where the oracle can expand it.

    A document whose ranges the oracle cannot expand, or that would expand to
    more rows than a test should unrank, is malformed, and the loader refuses
    it before it reads the digest.
    """
    try:
        if sum(stop - start for ranges in doc["csets"] for start, stop in ranges) <= 10 ** 5:
            doc["digest"] = oracle_digest(doc, system)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError):
        pass


# captured4's capture log, as format 2 stored it.
FORMAT_2_LOG = [
    {"target_level": 0, "target_choices": [0], "target_word": "a", "capture_level": 1,
     "gap_bound": 4, "m_before": -1, "filled_levels": [0], "retries": []},
    {"target_level": 0, "target_choices": [1], "target_word": "b", "capture_level": 2,
     "gap_bound": 8, "m_before": 1, "filled_levels": [], "retries": []},
]


def with_log(edit):
    """An edit that puts captured4's format-2 capture log back in its file, changed by `edit`."""
    def mutate(doc: dict) -> None:
        doc["capture_log"] = json.loads(json.dumps(FORMAT_2_LOG))
        edit(doc["capture_log"])
    return mutate


LOG_PUT_BACK = "malformed system file: unknown keys ['capture_log'], missing keys []"
PARAMS_PUT_BACK = "malformed system file: unknown keys ['free_params'], missing keys []"


def old_document(system, version: int) -> dict:
    """The system's file as format 1 or 2 wrote it, digest included: with the depth, the
    capture log and the free parameters, and choice rows (format 1) or ranges as csets."""
    doc = plain_document(system)
    del doc["captures"]
    doc.update(version=version, depth=system.depth, digest=system_digest(system),
               capture_log=[e.to_dict() for e in system.capture_log],
               free_params=system.free_params and system.free_params.to_dict())
    if version == 1:
        doc["csets"] = rows_of(system)
    return doc


def cset_of(rows: np.ndarray) -> CSet:
    """A set whose members are these rows, each its own rank over radices above every value."""
    radices = [int(rows.max()) + 1] * rows.shape[1]
    ranks = np.array([rank_of(radices, row) for row in rows.tolist()],
                     dtype=_rank_dtype(prod(radices)))
    return CSet(rows.shape[1] - 1, radices, (), np.column_stack([ranks, ranks + 1]))


def rows_of(system) -> list:
    return [member_rows(cs) for cs in system.csets]


def _run_fresh(script: str, tmp_path) -> str:
    """Run `script` in a fresh interpreter on the package source with tmp_path as its
    argument; returns its stdout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestPersist:
    def test_roundtrip_plain(self, toy_system, tmp_path):
        path = tmp_path / "toy.json"
        digest = persist.save_system(toy_system, path)
        loaded = persist.load_system(path)
        assert member_words(loaded) == member_words(toy_system)
        assert system_digest(loaded) == digest

    def test_roundtrip_captured(self, captured4, tmp_path):
        path = tmp_path / "cap.json"
        persist.save_system(captured4, path)
        loaded = persist.load_system(path)
        assert [e.to_dict() for e in loaded.capture_log] == [
            e.to_dict() for e in captured4.capture_log]
        assert loaded.spec == captured4.spec

    def test_roundtrip_free(self, free_system_eps1, tmp_path):
        system, params = free_system_eps1
        path = tmp_path / "free.json"
        persist.save_system(system, path)
        loaded = persist.load_system(path)
        assert loaded.free_params.to_dict() == params.to_dict()
        assert loaded.alphabet.letters == "xy"

    def test_tamper_detection(self, toy_system, tmp_path):
        path = tmp_path / "toy.json"
        persist.save_system(toy_system, path)
        before = path.read_bytes()
        tamper(path, chooser="seeded")
        assert path.read_bytes() != before
        with pytest.raises(SystemFileError, match="digest"):
            persist.load_system(path)

    def test_indented_file_loads(self, captured4, tmp_path):
        # A re-indented format-3 file: the digest covers the canonical row
        # text of the parsed document, not the file's bytes, so it loads.
        path = tmp_path / "old.json"
        digest = persist.save_system(captured4, path)
        path.write_text(json.dumps(json.loads(path.read_text()), sort_keys=True, indent=1) + "\n")
        loaded = persist.load_system(path)
        assert system_digest(loaded) == digest
        assert member_words(loaded) == member_words(captured4)

    def test_file_is_canonical_json(self, toy_system, tmp_path):
        path = tmp_path / "toy.json"
        persist.save_system(toy_system, path)
        doc = persist.system_to_document(toy_system)
        doc["digest"] = oracle_digest(doc, toy_system)
        assert path.read_text() == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        # A lex level is one rank range from rank 0; the toy levels have r = 2. The
        # depth, the capture log and free parameters are derived, not stored.
        assert doc.keys() == persist.FILE_KEYS
        assert doc["version"] == 3 and doc["captures"] == 0 and doc["csets"] == [[[0, 2]]] * 3

    @given(st.lists(int_arrays(np.int64, st.tuples(st.integers(1, 50), st.integers(1, 10)),
                               elements=st.integers(0, 10 ** 7)), min_size=1, max_size=4))
    @example([np.zeros((3, 1), np.int64), np.zeros((2, 4), np.int64)])
    @example([np.array([[10 ** 7], [9], [10]]), np.array([[0, 9, 10, 99, 100, 10 ** 7 - 1]])])
    @example([np.arange(6 * CHUNK_ROWS + 15).reshape(-1, 3), np.ones((2, 1), np.int64)])
    def test_encoder_matches_json(self, levels):
        # All-zero levels, one-column rows, multi-digit values, levels of several
        # chunks, and ranks of 2^63 or more.
        fed = []
        persist._feed_csets([cset_of(rows) for rows in levels], fed.append)
        assert b"".join(fed).decode() == json.dumps([a.tolist() for a in levels],
                                                    separators=(",", ":"))

    def test_digest_memory_does_not_grow_with_members(self):
        # The row text is streamed into the hash, never built whole, and the
        # rows are unranked one chunk at a time.
        def peak(members):
            system = LevelSystem(table_spec({1: 2, 2: 4}))
            system.csets = [CSet(7, [1000] * 8, (), np.array([[0, n]])) for n in (2, members)]
            return traced_peak(lambda: persist.document_digest(system))

        assert peak(4 * 20_000) < 1.25 * peak(20_000)

    def test_digest_matches_oracle(self, toy_system, poly_spec, captured4, captured7,
                                   free_system_eps1, tmp_path):
        systems = [
            toy_system,
            build_plain(poly_spec, "lex", 6),
            build_plain(poly_spec, "seeded", 6, seed=2),
            captured4,
            captured7,
            build_uniformly_recurrent(poly_geometric("1/12"), depth=7, capture_budget=4,
                                      chooser="seeded", seed=3, horizon=12),
            free_system_eps1[0],
            build_free_power_system(Fraction(1, 2), 5)[0],
        ]
        for i, system in enumerate(systems):
            path = tmp_path / f"{i}.json"
            digest = persist.save_system(system, path)
            doc, loaded = json.loads(path.read_text()), persist.load_system(path)
            assert digest == doc["digest"] == oracle_digest(doc, loaded) == system_digest(system)
            assert oracle_rows(doc, loaded) == rows_of(system)
            assert loaded.digest == digest

    def test_bench_build_digest_pinned(self, tmp_path):
        # The build-d8 benchmark config: poly_geometric 1/13, depth 8, two captures.
        system = build_uniformly_recurrent(poly_geometric("1/13"), depth=8, capture_budget=2,
                                           horizon=12)
        pinned = "sha256:a50267a5b9b444d5de8bd25af7e3bd19ac8b4d082f6bdd1f56fa3631690804f9"
        assert persist.save_system(system, tmp_path / "d8.json") == pinned
        assert persist.load_system(tmp_path / "d8.json").digest == pinned

    def test_save_refuses_set_off_its_capture_log(self, tmp_path):
        # Level 1's ranks run over the choices before the suffix (0,), but no
        # capture fixes it, so the loader would read them over all choices.
        system = LevelSystem(table_spec({1: 2, 2: 4, 4: 8}))
        system.choose_cset(0)
        system.choose_cset(1, suffix=(0,))
        with pytest.raises(ValueError, match="capture log fixes None"):
            persist.save_system(system, tmp_path / "s.json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemFileError):
            persist.load_system(tmp_path / "nope.json")

    @given(mode=st.sampled_from(["plain", "recurrent", "free"]),
           chooser=st.sampled_from(["lex", "seeded"]), depth=st.integers(2, 6),
           captures=st.integers(0, 4), seed=st.integers(0, 2 ** 16),
           eps=st.sampled_from([Fraction(1), Fraction(1, 2)]), data=st.data())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_roundtrip_rows_and_digest(self, tmp_path, mode, chooser, depth, captures, seed,
                                       eps, data):
        # Lex, seeded, free and captured systems come back with the same rank
        # ranges, so the same rows in the same member order, under the same
        # digest; any member slice of a set unranks to those rows.
        if mode == "plain":
            system = build_plain(poly_geometric("1/10"), chooser, depth, seed=seed)
        elif mode == "recurrent":
            system = build_uniformly_recurrent(poly_geometric("1/12"), depth, captures,
                                               chooser=chooser, seed=seed, horizon=12)
        else:
            # t = 1 for epsilon 1 and 2 for 1/2; deeper free systems are large.
            depth = min(max(depth, 3), 4 if eps == 1 else 5)
            system, _ = build_free_power_system(eps, depth, chooser=chooser, seed=seed)
        path = tmp_path / "s.json"
        digest = persist.save_system(system, path)
        loaded = persist.load_system(path)
        assert [cs.ranges.tolist() for cs in loaded.csets] == [
            cs.ranges.tolist() for cs in system.csets]
        assert rows_of(loaded) == rows_of(system)
        for level, cs in enumerate(system.csets):
            assert len(cs) == system.spec.ratio(level)
            rows = member_rows(cs)
            i = data.draw(st.integers(0, len(cs) - 1))
            j = data.draw(st.integers(i, len(cs)))
            assert cs.rows(i, j).tolist() == rows[i:j]
            assert list(cs.row(i)) == rows[i]
        assert loaded.digest == digest == system_digest(system)
        assert digest == oracle_digest(json.loads(path.read_text()), loaded)
        persist.save_system(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("chooser", ["lex", "seeded"])
    def test_roundtrip_level_past_int64(self, tmp_path, chooser):
        # 62 letters and r = (62, 3844, 1000, 1000, 1000, 1000, 3): level 6 has
        # 62^2 * 3844 * 1000^4 > 2^63 elements, so its ranks are Python ints.
        values, v = {1: 62}, 62
        for i, r in enumerate([62, 3844, 1000, 1000, 1000, 1000, 3]):
            v *= r
            values[2 << i] = v
        system = build_plain(table_spec(values), chooser, 7, seed=1)
        assert system.level_word_count(6) >= 1 << 63
        path = tmp_path / "big.json"
        digest = persist.save_system(system, path)
        doc = json.loads(path.read_text())
        if chooser == "lex":
            assert doc["csets"][6] == [[0, 3]]
        else:
            assert max(stop for _, stop in doc["csets"][6]) > 1 << 63
        loaded = persist.load_system(path)
        assert rows_of(loaded) == rows_of(system)
        assert loaded.digest == digest == oracle_digest(doc, loaded)

    def test_format_1_file_refused(self, toy_system, tmp_path, capsys):
        # The version-1 row document, which format 1 wrote with its digest.
        doc = old_document(toy_system, 1)
        path = tmp_path / "v1.json"
        path.write_text(persist.canonical_json(doc) + "\n")
        with pytest.raises(SystemFileError, match="unsupported version 1.*rebuild"):
            persist.load_system(path)
        assert main(["analyze", str(path), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "version 1" in err and "Traceback" not in err

    def test_format_2_file_refused(self, captured4, tmp_path, capsys):
        # Format 2 stored the capture log, the depth and the free parameters beside
        # the ranges, under the digest format 3 gives the same system.
        doc = old_document(captured4, 2)
        assert doc["capture_log"] == FORMAT_2_LOG
        path = tmp_path / "v2.json"
        path.write_text(persist.canonical_json(doc) + "\n")
        assert main(["analyze", str(path), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {path}: unsupported version 2, need 3; rebuild the system "
                       "with `growthforge build`\n")
        assert persist.save_system(captured4, path) == doc["digest"]

    def test_deeply_nested_file_refused(self, toy_system, tmp_path, capsys):
        # k nested empty lists as the chooser, under the system's digest: near
        # the recursion limit the file decodes but the chooser cannot be printed,
        # and deeper it cannot be decoded. Either way it is refused as a bad file,
        # never with a RecursionError.
        doc = plain_document(toy_system) | {"chooser": "NOTE",
                                            "digest": system_digest(toy_system)}
        text = persist.canonical_json(doc)
        path = tmp_path / "deep.json"
        limit = sys.getrecursionlimit()
        for k in [*range(limit - 300, limit + 10), 100 * limit]:
            path.write_text(text.replace('"NOTE"', "[" * k + "]" * k))
            with pytest.raises(SystemFileError):
                persist.load_system(path)
        assert main(["analyze", str(path), "--out", str(tmp_path / "r.json")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_lex_digests_pinned(self, captured7):
        # Digests of lex builds, fixed so that a rewrite of the chooser is
        # checked against earlier output and not only against itself.
        assert system_digest(captured7) == (
            "sha256:700e40222a68f8d2f9778a74464f8ad928a3c80964f930695696f2df7fdeae69")
        system, _ = build_free_power_system(1, 5)
        assert system_digest(system) == (
            "sha256:686b2d65439e6a92d86e84a61c77bdf27b22d1a92286ec3f258507acfdadd7be")

    def test_capture_digests_pinned(self):
        # Level-1 capture targets, and captures under the seeded chooser.
        system = build_uniformly_recurrent(poly_geometric("1/12"), depth=8, capture_budget=6,
                                           horizon=12)
        assert [e.target_level for e in system.capture_log] == [0, 0, 1, 1, 1, 1]
        assert system_digest(system) == (
            "sha256:148f6a7b1e1c9069ebad7f8e0a5a9571f3b9d8cbe6152fb1e3690e42c1407496")
        system = build_uniformly_recurrent(poly_geometric("1/10"), depth=6, capture_budget=4,
                                           chooser="seeded", seed=5, horizon=12)
        assert system_digest(system) == (
            "sha256:f2ad6ef264b8badbf50904b2cd003f03901a87718821379eee8488f9e7ca590e")

    def test_record_json_pinned(self, captured4, free_system_eps1, toy_system):
        # Key names, value types and nesting of every record that serializes
        # from its dataclass fields, as sha256 of the canonical JSON text.
        system, params = free_system_eps1
        records = {
            "sandwich": [analyzer.check_growth_sandwich(captured4, n).to_dict() for n in (1, 2, 3)],
            "recurrence": analyzer.verify_recurrence_gaps(captured4).to_dict(),
            "aperiodicity": analyzer.check_nonperiodicity(captured4, 8).to_dict(),
            "entropy": analyzer.entropy_report(
                captured4, analyzer.dim_series(captured4, 8)).to_dict(),
            "entropy_no_bands": analyzer.entropy_report(
                toy_system, analyzer.dim_series(toy_system, 4)).to_dict(),
            "capture_log": [e.to_dict() for e in captured4.capture_log],
            "free_params": params.to_dict(),
            "freeness": verify_free_generators(system, params, 4).to_dict(),
        }
        digests = {name: hashlib.sha256(persist.canonical_json(doc).encode()).hexdigest()[:16]
                   for name, doc in records.items()}
        assert digests == {
            "sandwich": "e249ff20b9fced82",
            "recurrence": "2baee518215f0253",
            "aperiodicity": "9d649ac2817e1bd3",
            "entropy": "37900a21a9b2c043",
            "entropy_no_bands": "a17c85ccd0ae0117",
            "capture_log": "79bae3a88125eb2d",
            "free_params": "5f59746add24af6c",
            "freeness": "9dc7590d31852ee3",
        }
        assert persist.canonical_json(records["free_params"]) == (
            '{"degree":2,"epsilon":"1","r_max":2,"t":1,"x_word":"xx","y_word":"yy"}')

    def test_same_build_same_bytes(self, tmp_path):
        poly = poly_geometric("1/10")
        for name in ("a.json", "b.json"):
            persist.save_system(
                build_uniformly_recurrent(poly, depth=5, capture_budget=2, horizon=12),
                tmp_path / name)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestRunConfig:
    def test_file_and_flag_merge(self, tmp_path):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(
            "[growth]\nfamily = poly_geometric\nepsilon = 1/10\nhorizon = 12\n"
            "[build]\nmode = recurrent\ndepth = 6\ncaptures = 2\n"
            "[analyze]\nnmax = 8\n")
        cfg = RunConfig.from_file(str(cfg_file))
        assert cfg.family == "poly_geometric" and cfg.depth == 6 and cfg.nmax == 8

        class Args:
            command = "build"
            depth = 4
            family = None
            epsilon = None

        cfg.apply_flags(Args())
        assert cfg.depth == 4  # flag overrides file
        assert cfg.epsilon == "1/10"

    def test_free_flags_override_free_section(self, tmp_path):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text("[growth]\nepsilon = 1/10\n[build]\ndepth = 6\n"
                            "[free]\nepsilon = 1/2\ndepth = 2\n")
        out = tmp_path / "fr.json"
        assert main(["free", "--config", str(cfg_file), "--epsilon", "1", "--depth", "4",
                     "--products-len", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["epsilon"] == "1" and doc["verification"]["passed"]
        config = doc["config"]
        assert (config["free"]["free_epsilon"], config["free"]["free_depth"]) == ("1", 4)
        assert (config["growth"]["epsilon"], config["build"]["depth"]) == ("1/10", 6)

    def test_unknown_family_in_config_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text("[growth]\nfamily = nope\n")
        assert main(["validate", "--config", str(cfg_file)]) == 2
        assert "unknown growth family 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "family = lex\n",                                        # no section header
        "[growth]\nfamily = lex\n[growth]\nepsilon = 1/10\n",   # a section twice
        "[growth]\nhorizon = %(x)s\n",                          # interpolation of no option
    ], ids=["no-section", "duplicate-section", "interpolation"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, text):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text(text)
        assert main(["validate", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed config file") and "Traceback" not in err

    def test_table_parsing(self):
        cfg = RunConfig(family="table", table_values="2,4,8,16")
        assert cfg.parse_table() == {1: 2, 2: 4, 4: 8, 8: 16}
        cfg2 = RunConfig(family="table", table_values="1:2,2:4,4:9")
        assert cfg2.parse_table() == {1: 2, 2: 4, 4: 9}


class TestCli:
    def test_validate_exit_codes(self, tmp_path):
        assert main(["validate", "--family", "poly_geometric", "--epsilon", "1/10",
                     "--horizon", "12", "--out", str(tmp_path / "v.json")]) == 0
        assert main(["validate", "--family", "geometric", "--epsilon", "1",
                     "--horizon", "10", "--out", str(tmp_path / "v2.json")]) == 1
        assert main(["validate", "--family", "geometric", "--epsilon", "abc"]) == 2

    def test_validate_writes_rationals_past_the_digit_limit(self, tmp_path):
        # At horizon 15 the exact capture partials of poly_geometric(1/10)
        # have numbers of more than 4,300 digits, Python's int-to-string
        # limit. The report writes them whole, as strings, and the limit is
        # back in force once it is written.
        limit = sys.get_int_max_str_digits()
        out = tmp_path / "v.json"
        assert main(["validate", "--family", "poly_geometric", "--epsilon", "1/10",
                     "--horizon", "15", "--out", str(out)]) == 0
        assert sys.get_int_max_str_digits() == limit
        text = out.read_text()
        assert max(map(len, re.findall(r"\d+", text))) > limit
        assert json.loads(text)["horizon"] == 15

    def test_system_file_past_the_digit_limit_exits_2(self, tmp_path, toy_system, capsys):
        # Reading keeps the limit: a seed of 5,000 digits makes the file unreadable.
        sys_path = tmp_path / "sys.json"
        persist.save_system(toy_system, sys_path)
        text = sys_path.read_text()
        assert text.count('"seed":0,') == 1
        sys_path.write_text(text.replace('"seed":0,', f'"seed":{"9" * 5000},'))
        assert main(["analyze", str(sys_path), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read system file") and "digits" in err
        assert "Traceback" not in err

    def test_build_analyze_pipeline(self, tmp_path):
        sys_path = tmp_path / "sys.json"
        assert main(["build", "--family", "poly_geometric", "--epsilon", "1/10",
                     "--mode", "recurrent", "--depth", "5", "--captures", "2",
                     "--mu-offset", "0", "--horizon", "12",
                     "--out", str(sys_path)]) == 0
        report = tmp_path / "an.json"
        csv = tmp_path / "dims.csv"
        assert main(["analyze", str(sys_path), "--nmax", "8",
                     "--forbidden-max", "5", "--out", str(report),
                     "--csv", str(csv)]) == 0
        doc = json.loads(report.read_text())
        assert doc["hard_assertions_pass"]
        assert doc["recurrence"]["passed"]
        assert doc["system_digest"].startswith("sha256:")
        header, first = csv.read_text().splitlines()[:2]
        assert header == "n,dim,cumulative,entropy_partial,depth"
        assert first == "1,2,2,2.000000,5"

    def test_build_refuses_infeasible_without_force(self, tmp_path):
        code = main(["build", "--family", "geometric", "--epsilon", "1",
                     "--mode", "recurrent", "--depth", "4",
                     "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_build_refuses_choice_set_over_budget(self, tmp_path, capsys, monkeypatch):
        # poly_geometric(1/10) needs r_8 = 78,987,323,181 members of 9 choices
        # at depth 9: refused with the exact deficit before any set is built.
        monkeypatch.delenv("GROWTHFORGE_BUDGET", raising=False)

        def unbuildable(self, *args, **kwargs):
            raise AssertionError("choice set built")

        monkeypatch.setattr(LevelSystem, "choose_cset", unbuildable)
        entries = poly_geometric("1/10").ratio(8) * 9
        assert entries == 710_885_908_629
        sys_path = tmp_path / "big.json"
        assert main(["build", "--family", "poly_geometric", "--epsilon", "1/10",
                     "--mode", "recurrent", "--depth", "9", "--out", str(sys_path)]) == 1
        err = capsys.readouterr().err
        assert f"level 8 choice set needs {entries} choice entries" in err
        assert f"deficit {entries - 5_000_000}" in err
        assert not sys_path.exists()

    def test_analyze_refuses_window_array_over_budget(self, tmp_path, capsys, monkeypatch):
        # The build-d8 system: the tables of n <= 121 fit the default budget,
        # and n = 122 reads the prefix product of the 121-letter prefixes of
        # W(128), whose size is known from its two factors before it is built.
        monkeypatch.delenv("GROWTHFORGE_BUDGET", raising=False)
        sys_path, report = tmp_path / "d8.json", tmp_path / "report.json"
        assert main(["build", "--family", "poly_geometric", "--epsilon", "1/13",
                     "--mode", "recurrent", "--depth", "8", "--captures", "2",
                     "--out", str(sys_path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(sys_path), "--nmax", "128", "--out", str(report)]) == 1
        assert capsys.readouterr().err == (
            "failure: prefix product (7, 121) with the tables held needs 5148947"
            " 8-byte words, budget is 5000000 (deficit 148947)\n")
        assert not report.exists()

    def test_table_refusal_holds_the_budget(self, tmp_path, monkeypatch):
        # The build-d8 system under a budget of 300,000 words: the suffix
        # table of length 55 of its 26,344 top-level members is the first
        # table over it. A table is checked once built and before it is kept,
        # so the check holds at most the budget in tables, and its traced peak
        # is that, one table's sort (5 words a two-limb field) and a slack of
        # 512 KiB. Caching every table up to the first n whose samples are
        # over the budget peaked at 16 MB.
        budget = 300_000
        monkeypatch.setenv("GROWTHFORGE_BUDGET", str(budget))
        sys_path = tmp_path / "d8.json"
        assert main(["build", "--family", "poly_geometric", "--epsilon", "1/13",
                     "--mode", "recurrent", "--depth", "8", "--captures", "2",
                     "--out", str(sys_path)]) == 0
        system = persist.load_system(sys_path)
        engine = analyzer._engine_for(system)
        raised = []

        def check():
            with pytest.raises(BudgetExceeded) as info:
                analyzer.check_window_budget(system, 128)
            raised.append(str(info.value))

        peak = traced_peak(check)
        assert raised == ["cut table (7, 0, 55) with the tables held needs 300462 8-byte words,"
                          " budget is 300000 (deficit 462)"]
        assert ((7, 0, 55),) not in engine._tables and engine._held <= budget
        assert peak <= 8 * budget + 26_344 * 5 * 8 + (512 << 10)
        assert engine._counts == {}

    def test_analyze_refuses_before_counting(self, tmp_path, capsys, monkeypatch):
        # The analyze-wide system under a budget of 200,000 words: the prefix
        # product of n = 117 is the first size over it (no part reaches it:
        # the largest before, 26,308 two-limb codes at n = 116, takes 131,540
        # words with the lexsort scratch), and every n up to --nmax is checked
        # before any is counted.
        monkeypatch.setenv("GROWTHFORGE_BUDGET", "200000")
        counted, systems = [], []
        parts, load = analyzer.FactorEngine._parts, persist.load_system
        monkeypatch.setattr(analyzer.FactorEngine, "_parts",
                            lambda self, n, take: counted.append(n) or parts(self, n, take))
        monkeypatch.setattr(persist, "load_system",
                            lambda path: systems.append(load(path)) or systems[-1])
        sys_path, report = tmp_path / "wide.json", tmp_path / "report.json"
        assert main(["build", "--family", "poly_geometric", "--epsilon", "1/20",
                     "--mode", "recurrent", "--depth", "8", "--captures", "2",
                     "--out", str(sys_path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(sys_path), "--nmax", "128", "--out", str(report)]) == 1
        assert capsys.readouterr().err == (
            "failure: prefix product (7, 116) with the tables held needs 202897"
            " 8-byte words, budget is 200000 (deficit 2897)\n")
        assert counted == [] and analyzer._engine_for(systems[0])._counts == {}
        assert not report.exists()

    def test_analyze_windows_each_n_once(self, tmp_path, captured4, monkeypatch):
        # Minimal forbidden words leave |F(n)| behind for the dimension series.
        counted = []
        parts = analyzer.FactorEngine._parts
        monkeypatch.setattr(analyzer.FactorEngine, "_parts",
                            lambda self, n, take: counted.append(n) or parts(self, n, take))
        sys_path = tmp_path / "cap.json"
        persist.save_system(captured4, sys_path)
        assert main(["analyze", str(sys_path), "--nmax", "8", "--forbidden-max", "6",
                     "--out", str(tmp_path / "r.json")]) == 0
        assert sorted(counted) == list(range(1, 9))

    @pytest.mark.parametrize("epsilon, depth, nmax, held", [
        ("1/20", 8, 65, 52_563), ("1/10", 7, 44, 28_827)], ids=["analyze-wide", "analyze-d7"])
    def test_table_index_holds_the_tables(self, tmp_path, monkeypatch, epsilon, depth, nmax,
                                          held):
        # `analyze` on the two analyze benchmark systems holds as many 8-byte
        # words of tables as the walk by field tuples did, and every entry of
        # the per-level index (cut tables by a, prefix tables by m) is the
        # `_tables` array itself, not a copy.
        systems, load = [], persist.load_system
        monkeypatch.setattr(persist, "load_system",
                            lambda path: systems.append(load(path)) or systems[-1])
        sys_path = tmp_path / "system.json"
        assert main(["build", "--family", "poly_geometric", "--epsilon", epsilon,
                     "--mode", "recurrent", "--depth", str(depth), "--captures", "2",
                     "--out", str(sys_path)]) == 0
        assert main(["analyze", str(sys_path), "--nmax", str(nmax), "--forbidden-max", "6",
                     "--out", str(tmp_path / "r.json")]) == 0
        engine = analyzer._engine_for(systems[0])
        assert engine._held == held
        entries = 0
        for j, (cuts, prefixes) in enumerate(engine._index):
            for a, table in cuts.items():
                assert table is (engine._tables[((j, 0, engine.bits * a),)] if a else codes.EMPTY)
            for m, table in prefixes.items():
                assert table is engine._tables[engine._fields(j, 0, m)]
            entries += len(cuts) + len(prefixes)
        # Every straddle of every n reads its two tables from the index.
        assert entries == len({(j, kind, i) for n in range(1, nmax + 1)
                               for j, a in engine._windows(n)
                               for kind, i in (("cut", a), ("prefix", n - a))})

    def test_wide_workload_pinned(self, tmp_path):
        # The analyze-wide benchmark system: d = 2, so n = 65 is the first
        # length whose codes take two limbs.
        sys_path = tmp_path / "wide.json"
        assert main(["build", "--family", "poly_geometric", "--epsilon", "1/20",
                     "--mode", "recurrent", "--depth", "8", "--captures", "2",
                     "--out", str(sys_path)]) == 0
        system = persist.load_system(sys_path)
        assert system.digest == (
            "sha256:8d43d5713b74ea53c73871a4449a3fc645ddceecf958202d80553933640ed41a")
        engine = analyzer.FactorEngine(system)
        assert (engine.count(64), engine.count(65)) == (99355, 120396)
        assert analyzer.minimal_forbidden_words(system, 6) == (
            ["bbbb", "ababb", "babab", "babbb", "aaabab", "babbab"], 8)

    def test_wide_count_holds_one_part(self, tmp_path):
        # count(65) on the analyze-wide system: 125,999 two-limb window codes
        # would need 5.04 MB to sort in one array (40 bytes a code). In parts,
        # its traced peak stays within one part's sort, the tables the call
        # builds, and a slack of 512 KiB for the cuts, the block slices and the
        # sort's new-code marks.
        sys_path = tmp_path / "wide.json"
        assert main(["build", "--family", "poly_geometric", "--epsilon", "1/20",
                     "--mode", "recurrent", "--depth", "8", "--captures", "2",
                     "--out", str(sys_path)]) == 0
        engine = analyzer.FactorEngine(persist.load_system(sys_path))
        for n in range(1, 65):
            engine.count(n)

        def table_bytes():
            return sum(t.nbytes for t in engine._tables.values())

        before = table_bytes()
        peak = traced_peak(lambda: engine.count(65))
        assert engine.count(65) == 120396
        assert peak <= codes.PART_BYTES + table_bytes() - before + (512 << 10)

    def test_build_plain_toy_table(self, tmp_path):
        sys_path = tmp_path / "toy.json"
        assert main(["build", "--family", "table", "--table-values", "2,4,8,16",
                     "--mode", "plain", "--depth", "3", "--out", str(sys_path)]) == 0
        loaded = persist.load_system(sys_path)
        assert member_words(loaded) == [
            ["a", "b"], ["aa", "ab"], ["aaaa", "aaab"]]

    def test_recurrent_table_build_clips_the_horizon(self, tmp_path, capsys):
        # The table holds f up to n = 64 = 2^6, so validate and a recurrent build both
        # check and capture to horizon 5; at the default 12 the build read f(128).
        table = ["--family", "table", "--table-values", "2,4,8,16,32,64,128"]
        build = ["build", *table, "--mode", "recurrent", "--depth", "4", "--force"]
        assert main([*build, "--out", str(tmp_path / "a.json")]) == 0
        assert main([*build, "--horizon", "5", "--out", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert persist.load_system(tmp_path / "a.json").horizon == 5
        assert main(["validate", *table, "--out", str(tmp_path / "v.json")]) == 1
        assert json.loads((tmp_path / "v.json").read_text())["horizon"] == 5
        # Checked at horizon 5 without --force: the hypotheses fail, a math failure.
        capsys.readouterr()
        assert main(build[:-1] + ["--out", str(tmp_path / "c.json")]) == 1
        assert capsys.readouterr().err.startswith("validation failed")

    @pytest.mark.parametrize("force", [[], ["--force"]], ids=["checked", "forced"])
    def test_recurrent_table_build_below_horizon_3_exits_2(self, tmp_path, capsys, force):
        out = tmp_path / "s.json"
        assert main(["build", "--family", "table", "--table-values", "2,4,8", "--mode",
                     "recurrent", "--depth", "2", *force, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: table support too small for dyadic checks\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, config, message", [
        (["validate", "--family", "exp_power", "--epsilon", "3/4"], "",
         "--epsilon is not read by the exp_power family, which reads --power"),
        (["build", "--family", "exp_power", "--epsilon", "3/4", "--depth", "3"], "",
         "--epsilon is not read by the exp_power family, which reads --power"),
        (["build", "--family", "table", "--table-values", "2,4,8,16", "--epsilon", "1",
          "--depth", "2"], "", "--epsilon is not read by the table family, which reads "
         "--table-values"),
        (["build", "--family", "geometric", "--power", "1/2", "--depth", "3"], "",
         "--power is not read by the geometric family, which reads --epsilon"),
        (["build", "--mode", "free", "--family", "exp_power", "--power", "1/2", "--depth", "3"],
         "", "--power is not read by free mode, which reads --epsilon"),
        (["validate", "--family", "poly_geometric", "--table-values", "2,4,8,16"], "",
         "--table-values is not read by the poly_geometric family, which reads --epsilon"),
        (["build", "--family", "exp_power", "--depth", "3"], "[growth]\nepsilon = 1/2\n",
         "--epsilon is not read by the exp_power family, which reads --power"),
        (["validate"], "[growth]\nfamily = sharp_paper\npower = 2\n",
         "--power is not read by the sharp_paper family, which reads --epsilon"),
    ], ids=["validate-exp-power-epsilon", "build-exp-power-epsilon", "build-table-epsilon",
            "build-geometric-power", "build-free-power", "validate-formula-table-values",
            "config-exp-power-epsilon", "config-sharp-paper-power"])
    def test_unread_growth_parameter_exits_2(self, tmp_path, capsys, argv, config, message):
        out = tmp_path / "out.json"
        argv = [*argv, "--out", str(out)]
        if config:
            (tmp_path / "run.ini").write_text(config)
            argv += ["--config", str(tmp_path / "run.ini")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_read_growth_parameters_echo_unchanged(self, tmp_path):
        # Which values were given is tracked beside the config, not in it: the
        # report still echoes the epsilon default that exp_power does not read.
        out = tmp_path / "v.json"
        assert main(["validate", "--family", "exp_power", "--power", "1/2", "--horizon", "8",
                     "--out", str(out)]) in (0, 1)
        growth = json.loads(out.read_text())["config"]["growth"]
        assert (growth["epsilon"], growth["power"], growth["table_values"]) == ("1/10", "1/2", "")

    def test_build_at_zero_loads_back(self, tmp_path):
        # 0 is the least seed, horizon and mu offset that a build writes and the loader reads.
        out = tmp_path / "s.json"
        assert main(["build", "--mode", "recurrent", "--depth", "3", "--captures", "0",
                     "--force", "--seed", "0", "--horizon", "0", "--mu-offset", "0",
                     "--out", str(out)]) == 0
        loaded = persist.load_system(out)
        assert (loaded.seed, loaded.horizon, loaded.mu_offset) == (0, 0, 0)
        assert main(["analyze", str(out), "--nmax", "4", "--out", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("flag", ["--seed", "--horizon", "--mu-offset"])
    def test_build_below_zero_exits_2(self, tmp_path, capsys, flag):
        # Refused before anything is written, as the loader would refuse the file.
        out = tmp_path / "s.json"
        assert main(["build", "--mode", "recurrent", "--depth", "3", "--captures", "0",
                     "--force", flag, "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be at least 0, got -1\n"
        assert not out.exists()

    def test_build_seed_below_zero_in_config_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.ini"
        cfg_file.write_text("[build]\nseed = -1\n")
        out = tmp_path / "s.json"
        assert main(["build", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed must be at least 0, got -1\n"
        assert not out.exists()

    def test_analyze_tampered_exits_2(self, tmp_path, toy_system):
        sys_path = tmp_path / "t.json"
        persist.save_system(toy_system, sys_path)
        before = sys_path.read_bytes()
        tamper(sys_path, seed=7)
        assert sys_path.read_bytes() != before
        assert main(["analyze", str(sys_path), "--out", str(tmp_path / "r.json")]) == 2

    @pytest.mark.parametrize("edit", [
        # Level 4 is the lex range [0, 10) of 120 ranks: shifted by one, member
        # 0 gives way to rank 10.
        lambda doc: doc["csets"].__setitem__(4, [[1, 11]]),
        # The same members, member 0 moved last.
        lambda doc: doc["csets"].__setitem__(4, [[1, 10], [0, 1]]),
        # Every stored key is hashed: the lex chooser reads no seed.
        lambda doc: doc.update(seed=9),
    ], ids=["choice-changed", "rows-swapped", "seed-changed"])
    def test_stale_digest_exits_2(self, tmp_path, poly_plain5, capsys, edit):
        sys_path = tmp_path / "stale.json"
        digest = persist.save_system(poly_plain5, sys_path)
        doc = json.loads(sys_path.read_text())
        assert doc["csets"][4] == [[0, 10]] and poly_plain5.level_word_count(4) == 120
        edit(doc)
        # Well-formed: with a recomputed digest the edited document loads.
        doc["digest"] = oracle_digest(doc, poly_plain5)
        sys_path.write_text(json.dumps(doc))
        persist.load_system(sys_path)
        doc["digest"] = digest
        sys_path.write_text(json.dumps(doc))
        assert main(["analyze", str(sys_path), "--out", str(tmp_path / "r.json")]) == 2
        assert "digest" in capsys.readouterr().err.replace(str(sys_path), "")

    def test_stale_and_malformed_exits_2(self, tmp_path, poly_plain5, capsys):
        # The document is validated before its digest is checked.
        sys_path = tmp_path / "bad.json"
        persist.save_system(poly_plain5, sys_path)
        doc = json.loads(sys_path.read_text())
        doc["csets"][4][0][0] = "0"
        sys_path.write_text(json.dumps(doc))
        assert main(["analyze", str(sys_path), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err.replace(str(sys_path), "")
        assert "malformed" in err and "Traceback" not in err

    def test_load_refuses_choice_sets_over_budget(self, tmp_path, poly_plain5, capsys,
                                                  monkeypatch):
        # A few bytes of ranges can ask for poly_geometric(1/10) at depth 9,
        # whose r_8 = 78,987,323,181 members of 9 choices are refused with the
        # builders' deficit before any level is built.
        monkeypatch.delenv("GROWTHFORGE_BUDGET", raising=False)

        def unbuildable(*args):
            raise AssertionError("level built")

        monkeypatch.setattr(persist, "CSet", unbuildable)
        doc = plain_document(poly_plain5)
        spec = poly_plain5.spec
        doc.update(csets=[[[0, spec.ratio(level)]] for level in range(9)])
        sys_path = tmp_path / "big.json"
        sys_path.write_text(json.dumps(doc))
        assert main(["analyze", str(sys_path), "--out", str(tmp_path / "r.json")]) == 1
        entries = spec.ratio(8) * 9
        assert capsys.readouterr().err == (
            f"failure: level 8 choice set needs {entries} choice entries, budget is 5000000"
            f" (deficit {entries - 5_000_000})\n")

    def test_analyze_depth_zero_exits_2(self, tmp_path, toy_system, capsys):
        # A depth-0 document with a recomputed digest: only the depth is wrong.
        doc = plain_document(toy_system)
        doc.update(csets=[])
        doc["digest"] = oracle_digest(doc, toy_system)
        sys_path = tmp_path / "d0.json"
        sys_path.write_text(json.dumps(doc))
        assert main(["analyze", str(sys_path), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "depth 0" in err and str(sys_path) in err
        assert "negative shift count" not in err

    # captured4's levels are the rank ranges [0, 2), [0, 2), [0, 3) and [0, 5),
    # out of 2, 2, 4 and 24 ranks: levels 1 and 2 capture "a" and "b". Format 3
    # stores no capture log: a file that carries one is refused, whatever it holds,
    # so none of the log edits below reaches the certificate.
    @pytest.mark.parametrize("mutate, message", [
        (lambda doc: doc.pop("chooser"), "unknown keys [], missing keys ['chooser']"),
        (lambda doc: doc.update(csets=5), "malformed"),
        (lambda doc: doc["csets"][1][0].__setitem__(0, "0"), "malformed"),
        (with_log(lambda log: log[0].pop("gap_bound")), LOG_PUT_BACK),
        (with_log(lambda log: log[1].update(target_choices=[-1])), LOG_PUT_BACK),
        (with_log(lambda log: log[1].update(target_choices=[2])), LOG_PUT_BACK),
        # The certificate would pass and state c = 10^6.
        (with_log(lambda log: log[0].update(gap_bound=10 ** 6)), LOG_PUT_BACK),
        (with_log(lambda log: log[0].update(gap_bound="0")), LOG_PUT_BACK),
        (with_log(lambda log: log[1].update(capture_level=4, gap_bound=32)), LOG_PUT_BACK),
        # Level 2 has three members; the third repeats the first.
        (lambda doc: doc["csets"].__setitem__(2, [[0, 2], [0, 1]]),
         "level 2 rank ranges overlap at rank 0"),
        (lambda doc: doc["csets"][2][0].__setitem__(1, 3.0), "malformed"),
        # 1 as a rank; an int64 array would take it without complaint.
        (lambda doc: doc["csets"][2][0].__setitem__(0, True), "malformed"),
        # Wider than int64: conversion to an array would overflow.
        (lambda doc: doc["csets"][2][0].__setitem__(1, 2 ** 64), "out of range"),
        (lambda doc: doc["csets"][2][0].append(0), "malformed"),
        # Level 3 has 24 elements, so rank 24 is one past the last.
        (lambda doc: doc["csets"].__setitem__(3, [[20, 25]]),
         "level 3 rank range [20, 25) is empty or out of range 0..24"),
        (with_log(lambda log: log[0].update(retries=5)), LOG_PUT_BACK),
        (with_log(lambda log: log[0].update(filled_levels=None)), LOG_PUT_BACK),
        (with_log(lambda log: log[1].update(target_choices=7)), LOG_PUT_BACK),
        (with_log(lambda log: log[0].update(m_before="x", filled_levels=[99],
                                            retries=["a", None])), LOG_PUT_BACK),
        (with_log(lambda log: log[1].update(m_before=True)), LOG_PUT_BACK),
        (with_log(lambda log: log[0].update(m_before=0)), LOG_PUT_BACK),
        (with_log(lambda log: log[0].update(filled_levels=[])), LOG_PUT_BACK),
        (with_log(lambda log: log[0].update(retries=[0, 0])), LOG_PUT_BACK),
        (with_log(lambda log: log[1].update(retries=[1])), LOG_PUT_BACK),
        (with_log(lambda log: log.append(dict(log[1], m_before=2))), LOG_PUT_BACK),
        (with_log(lambda log: log[1].update(target_choices=[0])), LOG_PUT_BACK),
        (lambda doc: doc["csets"].__setitem__(3, [[0, 5], [7, 7]]),
         "level 3 rank range [7, 7) is empty"),
        (lambda doc: doc["csets"].__setitem__(3, [[3, 1], [0, 5]]),
         "level 3 rank range [3, 1) is empty"),
        (lambda doc: doc["csets"].__setitem__(3, [[0, 4]]),
         "level 3 holds 4 members, ratio demands 5"),
        (lambda doc: doc["csets"].__setitem__(3, [[0, 3], [10, 13]]),
         "level 3 holds 6 members, ratio demands 5"),
        (lambda doc: doc["csets"].__setitem__(3, [[0, 3], [2, 4]]),
         "level 3 rank ranges overlap at rank 2"),
        (lambda doc: doc["csets"].__setitem__(3, []), "level 3 holds 0 members"),
        (lambda doc: doc["csets"].__setitem__(3, [0, 5]), "level 3 members malformed"),
        (lambda doc: doc["csets"].__setitem__(3, [[-1, 4]]), "out of range"),
        (lambda doc: doc["csets"].__setitem__(3, [[0, False], [1, 5]]), "malformed"),
        (lambda doc: doc["csets"].__setitem__(3, [[None, 5]]), "malformed"),
        (lambda doc: doc["csets"].__setitem__(3, [[0, 5], {}]), "malformed"),
        (with_log(lambda log: log[1].update(target_level=1)), LOG_PUT_BACK),
        (with_log(lambda log: log[1].update(target_choices=[0, 1])), LOG_PUT_BACK),
        # Letters are one string of single characters, not a list of strings.
        (lambda doc: doc.update(letters=["ab", "c"]), "need 2 distinct letters"),
        (lambda doc: doc.update(letters=["a", "b"]), "need 2 distinct letters"),
        # The metadata fields: a known mode, and ints >= 0 where the builder wrote ints.
        (lambda doc: doc.update(mode="junk"), "unknown mode 'junk'"),
        (lambda doc: doc.update(seed="x"), "malformed seed 'x': need an int >= 0"),
        (lambda doc: doc.update(seed=True), "malformed seed True"),
        (lambda doc: doc.update(horizon="x"), "malformed horizon 'x'"),
        (lambda doc: doc.update(horizon=-1), "malformed horizon -1"),
        (lambda doc: doc.update(mu_offset=None), "malformed mu_offset None"),
        # Only recurrent mode captures, and free parameters are derived, not stored.
        (lambda doc: doc.update(mode="free"), "malformed captures 2: need 0 in free mode"),
        (lambda doc: doc.update(free_params={}), "unknown keys ['free_params'], missing keys []"),
        # The schedule is replayed from the horizon and mu offset the file holds.
        (lambda doc: doc.update(horizon=0),
         "malformed system file (HorizonTooSmall: horizon 0 leaves no levels above"),
        # f(2^20) is sized before it is computed: 8 * 2^20 bits for 1 + 1/10 = 11/10.
        (lambda doc: doc.update(horizon=2 ** 64),
         "f(1048576) of poly_geometric is too large to compute: it needs 8388608 bits"),
        # The replayed log moves with the mu offset, and the digest covers it.
        (lambda doc: doc.update(mu_offset=doc["mu_offset"] + 1),
         "digest mismatch, file was modified"),
        (with_log(lambda log: log[0].update(retries="")), LOG_PUT_BACK),
        (lambda doc: doc.update(mode="plain"), "malformed captures 2: need 0 in plain mode"),
        # The capture count is a JSON int >= 0 that the scheduler plans in full.
        (lambda doc: doc.update(captures=-1), "malformed captures -1: need an int >= 0"),
        (lambda doc: doc.update(captures=True), "malformed captures True: need an int >= 0"),
        (lambda doc: doc.update(captures="2"), "malformed captures '2': need an int >= 0"),
        (lambda doc: doc.update(captures=2 ** 64),
         f"malformed captures {2 ** 64}: the scheduler plans 3 in 4 levels"),
        # A third capture ("aa" at level 3) fits, a fourth does not.
        (lambda doc: doc.update(captures=4),
         "malformed captures 4: the scheduler plans 3 in 4 levels"),
        (lambda doc: doc.update(note="extra"), "unknown keys ['note'], missing keys []"),
        (lambda doc: doc.update(depth=4), "unknown keys ['depth'], missing keys []"),
        # Equal to 3 in Python, but not the JSON int 3.
        (lambda doc: doc.update(version=3.0), "unsupported version 3.0, need 3"),
        (with_log(lambda log: None), LOG_PUT_BACK),
    ], ids=["no-chooser", "csets-int", "string-choice", "capture-no-gap-bound",
            "capture-negative-choice", "capture-choice-at-bound", "capture-huge-gap-bound",
            "capture-string-gap-bound", "capture-at-depth", "duplicate-member", "float-choice",
            "bool-choice", "huge-choice", "ragged-member", "choice-at-bound", "capture-int-retries",
            "capture-null-filled-levels", "capture-int-target-choices", "capture-bad-bookkeeping",
            "capture-bool-m-before", "capture-wrong-m-before", "capture-missing-filled-level",
            "capture-repeated-retry", "capture-retry-not-filled", "capture-level-repeated",
            "capture-member-tail", "empty-range", "reversed-range", "short-total", "long-total",
            "overlapping-ranges", "no-ranges", "range-not-list", "negative-start",
            "bool-stop", "null-start", "range-dict", "capture-level-above-choices",
            "capture-choices-above-level", "letters-string-list", "letters-char-list",
            "mode-junk", "seed-string", "seed-bool", "horizon-string", "horizon-negative",
            "mu-offset-null", "free-mode-without-params", "params-in-recurrent-mode",
            "horizon-zero", "horizon-2-64", "mu-offset-plus-1", "capture-empty-string-retries",
            "plain-mode-with-log", "captures-negative", "captures-bool", "captures-string",
            "captures-2-64", "captures-above-plan", "unknown-key", "depth-put-back",
            "version-float", "log-put-back"])
    def test_analyze_malformed_exits_2(self, tmp_path, captured4, capsys, mutate, message):
        # Each document carries a recomputed digest where it still has one, so
        # only the shape is wrong.
        doc = plain_document(captured4)
        mutate(doc)
        redigest(doc, captured4)
        sys_path = tmp_path / "bad.json"
        sys_path.write_text(json.dumps(doc))
        assert main(["analyze", str(sys_path), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert str(sys_path) in err and "Traceback" not in err
        # The path holds the test's name, so look for the message without it.
        assert message in err.replace(str(sys_path), "")

    @pytest.mark.parametrize("argv, config, flag", [
        (["analyze", "{system}", "--nmax", "0"], "", "--nmax"),
        (["analyze", "{system}", "--nmax", "-3"], "", "--nmax"),
        (["analyze", "{system}", "--forbidden-max", "-1"], "", "--forbidden-max"),
        (["build", "--family", "poly_geometric", "--epsilon", "1/10", "--mode", "recurrent",
          "--depth", "4", "--captures", "-1", "--out", "{system}"], "", "--captures"),
        (["analyze", "{system}"], "[analyze]\nnmax = 0\n", "--nmax"),
        (["build", "--mode", "recurrent", "--depth", "4", "--out", "{system}"],
         "[build]\ncaptures = -2\n", "--captures"),
        (["free", "--epsilon", "1", "--depth", "-3"], "", "--depth"),
        (["free", "--epsilon", "1", "--depth", "2", "--products-len", "0"], "",
         "--products-len"),
        (["free", "{system}", "--products-len", "-1"], "", "--products-len"),
        (["free", "--epsilon", "1"], "[free]\ndepth = -1\n", "--depth"),
        (["free", "--epsilon", "1"], "[free]\nproducts_len = 0\n", "--products-len"),
    ], ids=["nmax-0", "nmax-negative", "forbidden-max-negative", "captures-negative",
            "config-nmax-0", "config-captures-negative", "free-depth-negative",
            "free-products-len-0", "free-system-products-len-negative",
            "config-free-depth-negative", "config-products-len-0"])
    def test_nonsensical_counts_exit_2(self, tmp_path, toy_system, capsys, argv, config, flag):
        sys_path = tmp_path / "sys.json"
        persist.save_system(toy_system, sys_path)
        before = sys_path.read_bytes()
        argv = [a.replace("{system}", str(sys_path)) for a in argv]
        argv += ["--out", str(tmp_path / "r.json")] if argv[0] in ("analyze", "free") else []
        if config:
            (tmp_path / "run.ini").write_text(config)
            argv += ["--config", str(tmp_path / "run.ini")]
        assert main(argv) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists() and sys_path.read_bytes() == before

    @pytest.mark.parametrize("argv", [
        ["validate", "--family", "exp_power", "--power", "100", "--out", "{tmp}/v.json"],
        ["build", "--family", "exp_power", "--power", "100", "--depth", "3",
         "--out", "{tmp}/s.json"],
        ["analyze", "{system}", "--out", "{tmp}/r.json"],
        # 2^100000 bits is a count of 30,103 digits, more than Python prints.
        ["validate", "--family", "exp_power", "--power", "100000", "--out", "{tmp}/v.json"],
    ], ids=["validate", "build", "analyze-file", "validate-past-the-digit-limit"])
    def test_huge_exp_power_exits_2(self, tmp_path, toy_system, capsys, argv):
        # f(2) = 2^(2^100) has too many digits for an int: a usage error, the
        # file's growth malformed, never a traceback.
        doc = plain_document(toy_system)
        doc["growth"] = {"family": "exp_power", "power": "100"}
        redigest(doc, toy_system)
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(json.dumps(doc))
        assert main([a.format(tmp=tmp_path, system=sys_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "f(2) of exp_power is too large to compute: it needs " in err

    @pytest.mark.parametrize("argv", [
        ["validate", "--out", "{missing}/x.json"],
        ["build", "--depth", "3", "--out", "{missing}/s.json"],
        ["analyze", "{system}", "--nmax", "4", "--csv", "{missing}/c.csv"],
    ], ids=["validate", "build", "analyze-csv"])
    def test_unwritable_output_exits_2(self, tmp_path, toy_system, capsys, argv):
        sys_path = tmp_path / "sys.json"
        persist.save_system(toy_system, sys_path)
        argv = [a.format(missing=tmp_path / "nodir", system=sys_path) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nodir" in err and "Traceback" not in err

    @pytest.mark.parametrize("mutate, message", [
        # The free parameters are FreeParams.of(epsilon, depth), so a file that
        # stores them, one-letter generators included, is refused.
        (lambda doc: doc.update(free_params={"x_word": "x", "y_word": "y"}), PARAMS_PUT_BACK),
        (lambda doc: doc.update(free_params={"y_word": []}), PARAMS_PUT_BACK),
        (lambda doc: doc.update(free_params={"degree": []}), PARAMS_PUT_BACK),
        # Same dyadic ratios as geometric(1), but not the growth freeness assumes.
        (lambda doc: doc.update(growth={"family": "table", "table": {
            "1": 2, "2": 4, "4": 16, "8": 256, "16": 65536}}),
         "malformed free system: need a geometric growth and letters 'xy', got table and 'xy'"),
        # Growth geometric(1/10^9) at depth 4: refused before t = 31 would make two
        # 2^31-letter generator words.
        (lambda doc: doc.update(growth={"family": "geometric", "epsilon": "1/1000000000"}),
         "depth must be >= t+1 = 32"),
        # The generators are powers of x and y, so a free system's letters are "xy".
        (lambda doc: doc.update(letters="ab"),
         "malformed free system: need a geometric growth and letters 'xy', got geometric "
         "and 'ab'"),
        (lambda doc: doc.update(free_params=None), PARAMS_PUT_BACK),
        (lambda doc: doc.update(captures=1), "malformed captures 1: need 0 in free mode"),
    ], ids=["one-letter-words", "y-word-list", "degree-list", "table-growth", "small-epsilon",
            "letters-ab", "null-params", "captures"])
    def test_free_malformed_exits_2(self, tmp_path, free_system_eps1, capsys, mutate, message):
        system = free_system_eps1[0]
        doc = plain_document(system)
        mutate(doc)
        doc["digest"] = oracle_digest(doc, system)
        sys_path = tmp_path / "bad.json"
        sys_path.write_text(json.dumps(doc))
        assert main(["free", str(sys_path), "--out", str(tmp_path / "r.json")]) == 2
        assert message in capsys.readouterr().err

    def test_free_with_system_file(self, tmp_path):
        system, _ = build_free_power_system(1, 4)
        sys_path = tmp_path / "free.json"
        persist.save_system(system, sys_path)
        out = tmp_path / "fr.json"
        assert main(["free", str(sys_path), "--products-len", "4",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["t"] == 1 and doc["verification"]["passed"]

    def test_free_epsilon_only(self, tmp_path):
        out = tmp_path / "fr.json"
        assert main(["free", "--epsilon", "1/2", "--depth", "0",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["t"] == 2 and doc["generator_degree"] == 4
        assert abs(float(doc["degree_lower_bound_decimal"]) - 1.7095) < 1e-3

    @pytest.mark.parametrize("epsilon, depth", [("2/5", 4), ("41/100", 4), ("1/10", 5)])
    def test_free_build_refused_for_one_plus_epsilon_squared_at_most_2(self, tmp_path, capsys,
                                                                        epsilon, depth):
        # (1+eps)^2 <= 2 gives f(2) = f(1) = 2, so C(1) has r_0 = 1 member and cannot
        # hold both x and y: refused at level 0. Without a build, t and the band are reported.
        out = str(tmp_path / "fr.json")
        assert main(["free", "--epsilon", epsilon, "--depth", str(depth), "--out", out]) == 1
        assert capsys.readouterr().err == (
            "failure: level 0: must include 2 products but |C| = 1 (deficit 1)\n")
        assert main(["free", "--epsilon", epsilon, "--depth", "0", "--out", out]) == 0

    def test_free_build_past_sqrt2_minus_1(self, tmp_path):
        # (17/12)^2 = 289/144 > 2: C(1) holds x and y, and their products are free.
        out = tmp_path / "fr.json"
        assert main(["free", "--epsilon", "5/12", "--depth", "4", "--products-len", "2",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["t"] == 2 and doc["verification"]["passed"]

    @pytest.mark.parametrize("command", ["free", "build --mode free"])
    @pytest.mark.parametrize("epsilon,least_depth", [("1/1000000", 22), ("1/1000000000", 32)])
    def test_small_epsilon_depth_refused_at_once(self, tmp_path, capsys, command, epsilon,
                                                 least_depth):
        # t comes from log2 brackets, not from squaring 1 + eps, and the depth is
        # checked before the two 2^t-letter generator words are made.
        start = time.perf_counter()
        assert main([*command.split(), "--epsilon", epsilon, "--depth", "3",
                     "--out", str(tmp_path / "out.json")]) == 2
        assert time.perf_counter() - start < 1
        assert f"depth must be >= t+1 = {least_depth}" in capsys.readouterr().err

    def test_openssl_never_loaded(self, tmp_path):
        # This suite imports hashlib itself, so a fresh interpreter runs the commands:
        # importing the CLI, `free` without a system file, `validate`, and `build`,
        # `analyze` and `free FILE`, which take a digest, never load OpenSSL's
        # _hashlib. The build's digest is the CI pin.
        script = textwrap.dedent("""
            import sys
            loaded = lambda: "_hashlib" in sys.modules
            from growthforge import cli
            out = sys.argv[1]
            seen = [loaded()]
            for argv in (["free", "--epsilon", "1", "--depth", "4", "--out", out + "/f.json"],
                         ["validate", "--out", out + "/v.json"],
                         ["build", "--mode", "free", "--epsilon", "1", "--depth", "5",
                          "--out", out + "/s.json"],
                         ["analyze", out + "/s.json", "--nmax", "8", "--out", out + "/a.json"],
                         ["free", out + "/s.json", "--products-len", "4",
                          "--out", out + "/ff.json"]):
                assert cli.main(argv) == 0, argv
                seen.append(loaded())
            print(seen)
        """)
        built, seen = _run_fresh(script, tmp_path).splitlines()
        assert seen == str([False] * 6)
        assert built.endswith(
            " sha256:686b2d65439e6a92d86e84a61c77bdf27b22d1a92286ec3f258507acfdadd7be")

    def test_hashlib_fallback_digest(self, tmp_path):
        # Where CPython has neither built-in SHA-256 module, persist hashes with
        # hashlib, and so with OpenSSL, to the same digest.
        script = textwrap.dedent("""
            import sys
            sys.modules["_sha2"] = sys.modules["_sha256"] = None
            from growthforge import cli
            assert cli.main(["build", "--mode", "free", "--epsilon", "1", "--depth", "5",
                             "--out", sys.argv[1] + "/s.json"]) == 0
            print("_hashlib" in sys.modules)
        """)
        built, loaded = _run_fresh(script, tmp_path).splitlines()
        assert loaded == "True"
        assert built.endswith(
            " sha256:686b2d65439e6a92d86e84a61c77bdf27b22d1a92286ec3f258507acfdadd7be")

    def test_free_rejects_non_free_system(self, tmp_path, toy_system):
        sys_path = tmp_path / "t.json"
        persist.save_system(toy_system, sys_path)
        assert main(["free", str(sys_path)]) == 2

    def test_free_epsilon_out_of_range(self):
        assert main(["free", "--epsilon", "3/2", "--depth", "0"]) == 2

    def test_build_free_mode_uses_growth_epsilon(self, tmp_path):
        sys_path = tmp_path / "free.json"
        assert main(["build", "--mode", "free", "--epsilon", "1/2", "--depth", "5",
                     "--out", str(sys_path)]) == 0
        loaded = persist.load_system(sys_path)
        assert loaded.free_params.t == 2
        assert loaded.free_params.x_word == "xxxx"
        out = tmp_path / "fr.json"
        assert main(["free", str(sys_path), "--products-len", "2",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["epsilon"] == "1/2" and doc["verification"]["passed"]

    def test_build_exp_power_family(self, tmp_path):
        sys_path = tmp_path / "ep.json"
        assert main(["build", "--family", "exp_power", "--power", "1/2",
                     "--mode", "plain", "--depth", "3", "--out", str(sys_path)]) == 0
        loaded = persist.load_system(sys_path)
        # f = ceil(2^sqrt(n)): values 2, 3, 4, 8 at 1, 2, 4, 8.
        assert [len(cs) for cs in loaded.csets] == [2, 2, 2]

    def test_free_report_embeds_digest(self, tmp_path):
        system, _ = build_free_power_system(1, 4)
        sys_path = tmp_path / "free.json"
        digest = persist.save_system(system, sys_path)
        out = tmp_path / "fr.json"
        assert main(["free", str(sys_path), "--products-len", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["system_digest"] == digest

    def test_config_file_driving_build(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[growth]\nfamily = poly_geometric\nepsilon = 1/10\nhorizon = 12\n"
            "[build]\nmode = plain\ndepth = 4\nchooser = lex\nseed = 0\n"
            f"[output]\nout = {tmp_path / 'sys.json'}\n")
        assert main(["build", "--config", str(cfg)]) == 0
        assert (tmp_path / "sys.json").exists()


# -- hostile system files ------------------------------------------------------


def _leaf_paths(node, path=()):
    """Key paths to every scalar and every empty container of a JSON document."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


@pytest.fixture(scope="module")
def fuzz_documents(tmp_path_factory):
    captured = build_uniformly_recurrent(poly_geometric("1/10"), depth=4, capture_budget=2,
                                         horizon=12)
    free, _ = build_free_power_system(1, 4)
    systems = [captured, free]
    docs = [plain_document(system) for system in systems]
    # Range bounds are few of the leaves, so they get a pool of their own, and
    # so do the capture count, an unknown key and each key format 3 dropped.
    leaves = [list(_leaf_paths(doc)) for doc in docs]
    pools = [(st.sampled_from(every) | st.sampled_from([p for p in every if p[0] == "csets"])
              | st.sampled_from([("captures",), *ADDED]))
             for every in leaves]
    return systems, docs, pools, tmp_path_factory.mktemp("fuzz")


REMOVE = object()
ADDED = [("note",), ("capture_log",), ("free_params",), ("depth",)]


@given(which=st.integers(0, 1), data=st.data(),
       value=st.sampled_from([None, -1, 0, 1, 2, 3, 10 ** 6, "0", "2", [], {}, [0, 1], True,
                              False, 2 ** 64, 1.5, REMOVE]))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_hostile_documents_never_raise(fuzz_documents, which, data, value):
    # One leaf of a valid captured or free document is replaced or removed, or a
    # key is added, and the digest recomputed; every command must end with a
    # documented exit code. Range bounds become bools, 2**64, floats, or ints
    # that empty a range, make ranges overlap, pass the level's last rank or
    # change the total. A file whose key set is not the format's must be
    # refused, and so must a leaf that changes the capture log the scheduler
    # replays from the capture count, horizon and mu offset.
    systems, docs, pools, work = fuzz_documents
    doc = json.loads(json.dumps(docs[which]))
    path = data.draw(pools[which])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is REMOVE and path not in ADDED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = None if value is REMOVE else value
    redigest(doc, systems[which])
    sys_path = work / "fuzz.json"
    sys_path.write_text(json.dumps(doc))
    out = str(work / "report.json")
    allowed = (2,) if _must_refuse(docs[which], doc, path[0]) else (0, 1, 2)
    assert main(["analyze", str(sys_path), "--out", out]) in allowed
    assert main(["free", str(sys_path), "--products-len", "2", "--out", out]) in allowed


def _must_refuse(original: dict, doc: dict, key) -> bool:
    """Whether a document edited at `key` must be refused: its keys are not the format's,
    or it replays other captures than a build from it would log.

    A capture count edit changes the replayed log unless it keeps the count. A
    horizon or mu offset edit changes a captured document's log unless it is an
    int >= 0 that a build at the fuzz fixture's spec, depth and budget logs the
    same captures at.
    """
    if doc.keys() != original.keys():
        return True
    if key == "captures":
        return persist.canonical_json(doc[key]) != persist.canonical_json(original[key])
    if key not in ("horizon", "mu_offset") or not original["captures"]:
        return False
    if any(type(doc.get(k)) is not int or doc[k] < 0 for k in ("horizon", "mu_offset")):
        return True
    try:
        built = build_uniformly_recurrent(poly_geometric("1/10"), depth=4, capture_budget=2,
                                          mu_offset=doc["mu_offset"], horizon=doc["horizon"])
    except (ValueError, GrowthForgeError):
        return True
    return [e.to_dict() for e in built.capture_log] != FORMAT_2_LOG
