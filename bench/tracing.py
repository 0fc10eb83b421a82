"""Traced run: per-layer spans and counters recorded from outside the program.

The traced run executes a workload's commands in this process through
`growthforge.cli.main`, once untraced and once with the public functions
and methods of every layer module wrapped. Nothing in `src/` is edited.

A span records name, parent, start and end. A layer's self time is a span's
duration minus the part its child spans cover; inclusive times count only
the outermost span of a group, so recursion is not counted twice. Hot leaf
methods are only counted, not timed, to keep the overhead down. Counts of
work done (members, window codes, elements scanned) are computed from
public results and sizes after each command, outside every span.

A function the program no longer has simply records nothing, so the trace
keeps running across refactors; its metrics then read 0.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import io
import os
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from checks import command_fields, differences, load_reference
from harness import ONE_THREAD, work_dir, work_files
from workloads import WORKLOADS, fill

LAYERS = ("growth", "construction", "persist", "analyzer", "freesub", "exactmath", "cli")

# Entry points: the benchmark times each command itself, so these stay unwrapped
# and the layer spans below them are the top-level spans.
ROOTS = frozenset({"cli.main", "cli.cmd_validate", "cli.cmd_build", "cli.cmd_analyze",
                   "cli.cmd_free"})
PRIVATE_SPANS = frozenset({"cli._emit"})
# Leaf methods called up to millions of times per command.
COUNT_ONLY = frozenset({
    "construction.LevelSystem.expand", "construction.LevelSystem.ref_from_rank",
    "construction.LevelSystem.level_word_count", "construction.Alphabet.index",
    "construction.CSet.index_of", "construction.WordRef.__post_init__",
    "analyzer.FactorEngine.encode", "analyzer.FactorEngine.decode",
    "analyzer.scan_occurrences", "growth.GrowthSpec.value", "growth.GrowthSpec.ratio",
    "growth.GrowthSpec.exact_ratio", "growth.GrowthSpec.covered",
})
BUILDERS = ("construction.build_plain", "construction.build_uniformly_recurrent",
            "construction.build_free_power_system")
PREFIXES, SUFFIXES = "analyzer.FactorEngine.prefixes", "analyzer.FactorEngine.suffixes"
COUNT, FACTORS = "analyzer.FactorEngine.count", "analyzer.FactorEngine.factors"
CODES = "analyzer.FactorEngine.codes"   # the count route for codes wider than 64 bits
RECURRENCE = "analyzer.verify_recurrence_gaps"
FREENESS = "freesub.verify_free_generators"
SAVE = "persist.save_system"
# Calls whose arguments and results are kept until the command ends.
RECORDED = frozenset({*BUILDERS, PREFIXES, SUFFIXES, COUNT, FACTORS, RECURRENCE, FREENESS, SAVE})


def targets() -> dict[str, tuple[object, str, object]]:
    """name -> (owner, attribute, function) for every function to wrap."""
    out: dict[str, tuple[object, str, object]] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"growthforge.{layer}")
        for attr, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                if (not attr.startswith("_") or name in PRIVATE_SPANS) and name not in ROOTS:
                    out[name] = (module, attr, obj)
            elif inspect.isclass(obj):
                for mattr, meth in vars(obj).items():
                    wanted = not mattr.startswith("_") or (
                        mattr in ("__init__", "__post_init__")
                        and not (mattr == "__init__" and dataclasses.is_dataclass(obj)))
                    if inspect.isfunction(meth) and wanted:
                        out[f"{layer}.{obj.__name__}.{mattr}"] = (obj, mattr, meth)
    return out


class Tracer:
    """Wraps the layer functions while installed and records spans and calls."""

    def __init__(self):
        self.spans: list[list] = []          # [name, parent index or -1, start, end]
        self.calls: Counter = Counter()
        self.records: dict[str, list] = {}   # name -> [(args, kwargs, result)]
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrapped = {}
        for name, (owner, attr, fn) in targets().items():
            self.originals[name] = fn
            wrapper = self._wrap(name, fn)
            wrapped[id(fn)] = wrapper
            self._patch(owner, attr, wrapper)
        # Rebind names other modules imported with `from .x import f`.
        for modname, module in list(sys.modules.items()):
            if module is None or modname.split(".")[0] != "growthforge":
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(module, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        calls = self.calls
        if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        spans, stack = self.spans, self._stack
        records = self.records.setdefault(name, []) if name in RECORDED else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            calls[name] += 1
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if records is not None:
                records.append((args, kwargs, result))
            return result
        return timed

    def take(self, name: str) -> list:
        """The recorded calls of `name` since the last take, then forgotten."""
        kept = self.records.get(name, [])
        out = list(kept)
        kept.clear()
        return out


# -- span arithmetic ------------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, _, start, end), kids in zip(spans, children):
        covered, reach = 0.0, start
        for s, e in sorted(kids):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def inclusive_time(spans: list, names) -> float:
    """Total duration of the spans named in `names` that have no ancestor
    named in `names`."""
    names = set(names)
    total = 0.0
    for name, parent, start, end in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][1]
        if parent < 0:
            total += end - start
    return total


# -- counters from results -----------------------------------------------------------


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def raw_codes(engine, n: int, prefixes, suffixes) -> int:
    """Window codes the structural route combines before deduplication:
    the sum over block boundaries (j, a) of |suffixes(j, a)| * |prefixes(j, n - a)|."""
    if n == 1:
        return engine.system.alphabet.size
    total = 0
    for j in range(max((n - 1).bit_length() - 1, 0), engine.system.depth):
        for a in range(max(1, n - (1 << j)), min(n - 1, 1 << j) + 1):
            total += len(suffixes(engine, j, a)) * len(prefixes(engine, j, n - a))
    return total


@contextlib.contextmanager
def _guard(what: str):
    """Reports, instead of raising, counters the program's shape no longer allows."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, IndexError, ValueError, OSError) as exc:
        print(f"trace: {what} counters unavailable: {exc!r}", file=sys.stderr)


def collect(tracer: Tracer, counters: Counter) -> None:
    """Fold one command's recorded calls into counters; then drop them."""
    with _guard("construction"):
        for _, _, result in (r for name in BUILDERS for r in tracer.take(name)):
            system = result[0] if isinstance(result, tuple) else result
            counters["construction.members"] += sum(len(cs.members) for cs in system.csets)
            counters["construction.chars"] += sum(len(s) for cs in system.csets for s in cs.strings)
            counters["construction.captures"] += len(system.capture_log)
            counters["construction.retries"] += sum(len(e.retries) for e in system.capture_log)
    with _guard("persist"):
        for args, kwargs, _ in tracer.take(SAVE):
            counters["persist.file_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    with _guard("analyzer tables"):
        keys = {(id(args[0]), name, args[1:]) for name in (PREFIXES, SUFFIXES)
                for args, _, _ in tracer.take(name)}
        counters["analyzer.table_keys"] += len(keys)
    with _guard("analyzer counts"):
        prefixes, suffixes = tracer.originals[PREFIXES], tracer.originals[SUFFIXES]
        seen = set()
        for args, kwargs, result in tracer.take(COUNT):
            engine, n = args[0], _arg(args, kwargs, 1, "n")
            seen.add((id(engine), n))
            if engine.system.alphabet.size ** n > 1 << 64:
                counters["analyzer.count_wide_calls"] += 1
            counters["analyzer.codes_raw"] += raw_codes(engine, n, prefixes, suffixes)
            counters["analyzer.codes_distinct"] += result
        counters["analyzer.count_distinct_n"] += len(seen)
        for args, kwargs, result in tracer.take(FACTORS):
            engine, n = args[0], _arg(args, kwargs, 1, "n")
            counters["analyzer.codes_raw"] += raw_codes(engine, n, prefixes, suffixes)
            counters["analyzer.codes_distinct"] += len(result)
            counters["analyzer.factor_strings"] += len(result)
    with _guard("recurrence"):
        for args, kwargs, result in tracer.take(RECURRENCE):
            system = _arg(args, kwargs, 0, "system")
            sizes = [system.alphabet.size]
            for cs in system.csets:
                sizes.append(sizes[-1] * len(cs))   # sizes[m] = |W(2^m)|
            for entry in result.entries:
                counters["analyzer.recurrence_scanned"] += entry.elements_scanned
                counters["analyzer.recurrence_total"] += sum(
                    sizes[entry.capture_level + 1:system.depth + 1])
    with _guard("freesub"):
        for _, _, result in tracer.take(FREENESS):
            counters["freesub.products_checked"] += result.products_checked


# -- the traced run -------------------------------------------------------------------


def run_commands(cli, commands: list, files: dict, tracer: Tracer | None,
                 counters: Counter) -> tuple[float, int, list[str]]:
    """Run (argv, expected) pairs through cli.main; returns the wall time,
    the number of failed commands and their problems."""
    wall = 0.0
    failed = 0
    problems: list[str] = []
    for argv, expected in commands:
        args = fill(argv, files)
        Path(files["report"]).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:       # a traceback is a failed command, not a failed benchmark
                traceback.print_exc()
                code = 1
            wall += time.perf_counter() - start
        if tracer is not None:
            collect(tracer, counters)
        actual = command_fields(args, code, out.getvalue(), Path(files["report"]))
        found = differences(expected, actual)
        if found:
            failed += 1
            found.append(f"stderr: {err.getvalue()[-2000:]}")
            problems += [f"{' '.join(args)}: {p}" for p in found]
    return wall, failed, problems


def traced_run(workload: str, seed: int, root: Path, size: str = "full") -> dict:
    """Set-up build (if any) plus one iteration of the measured commands,
    first untraced and then traced, all in this process."""
    for var, value in ONE_THREAD.items():
        os.environ.setdefault(var, value)   # takes effect if numpy is not yet imported
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    start = time.perf_counter()
    cli = importlib.import_module("growthforge.cli")
    import_s = time.perf_counter() - start
    spec = WORKLOADS[workload].size(size)
    reference = load_reference(workload, size)
    commands = list(zip(spec.measured, reference["measured"]))
    if spec.setup is not None:
        commands.insert(0, (spec.setup, reference["setup"]))
    tracer, counters = Tracer(), Counter()
    with work_dir(root, f"{workload}-trace") as work:
        files = work_files(work, seed)
        plain_wall, plain_failed, problems = run_commands(cli, commands, files, None, counters)
        tracer.install()
        try:
            traced_wall, traced_failed, traced_problems = run_commands(
                cli, commands, files, tracer, counters)
        finally:
            tracer.uninstall()
    failed = plain_failed + traced_failed
    return {
        "correct": not failed,
        "attempted": 2 * len(commands),
        "failed": failed,
        "metrics": layer_metrics(tracer, counters, traced_wall, plain_wall, import_s),
        "problems": problems + traced_problems,
    }


def layer_metrics(tracer: Tracer, counters: Counter, traced_wall: float,
                  plain_wall: float, import_s: float) -> dict:
    spans, calls = tracer.spans, tracer.calls
    selfs = self_times(spans)

    def inclusive(*names: str) -> float:
        return inclusive_time(spans, names)

    def self_of(predicate) -> float:
        return float(sum(t for span, t in zip(spans, selfs) if predicate(span)))

    def in_count(span) -> bool:
        name, parent = span[0], span[1]
        return name == COUNT or (name == CODES and parent >= 0 and spans[parent][0] == COUNT)

    table_calls = calls[PREFIXES] + calls[SUFFIXES]
    count_calls = calls[COUNT]
    raw = counters["analyzer.codes_raw"]
    total = counters["analyzer.recurrence_total"]
    top_level = sum(end - start for _, parent, start, end in spans if parent < 0)
    values = {
        "growth.verify_hypotheses_s": (inclusive("growth.verify_hypotheses"), "s"),
        "growth.compute_mu_calls": (calls["growth.compute_mu"], "count"),
        "construction.build_s": (inclusive(*BUILDERS), "s"),
        "construction.choose_cset_s": (inclusive("construction.LevelSystem.choose_cset"), "s"),
        "construction.choose_cset_calls": (calls["construction.LevelSystem.choose_cset"], "count"),
        "construction.members": (counters["construction.members"], "count"),
        "construction.chars": (counters["construction.chars"], "count"),
        "construction.captures": (counters["construction.captures"], "count"),
        "construction.retries": (counters["construction.retries"], "count"),
        "construction.expand_calls": (calls["construction.LevelSystem.expand"], "count"),
        "persist.save_s": (inclusive(SAVE), "s"),
        "persist.load_s": (inclusive("persist.load_system"), "s"),
        "persist.digest_s": (inclusive("persist.document_digest"), "s"),
        "persist.digest_calls": (calls["persist.document_digest"], "count"),
        "persist.file_bytes": (counters["persist.file_bytes"], "bytes"),
        "analyzer.engine_init_s": (inclusive("analyzer.FactorEngine.__init__"), "s"),
        "analyzer.table_s": (inclusive(PREFIXES, SUFFIXES), "s"),
        "analyzer.table_calls": (table_calls, "count"),
        "analyzer.table_hits": (table_calls - counters["analyzer.table_keys"], "count"),
        "analyzer.count_s": (self_of(in_count), "s"),
        "analyzer.count_calls": (count_calls, "count"),
        "analyzer.count_distinct_n": (counters["analyzer.count_distinct_n"], "count"),
        "analyzer.count_wide_calls": (counters["analyzer.count_wide_calls"], "count"),
        "analyzer.codes_raw": (raw, "count"),
        "analyzer.codes_distinct": (counters["analyzer.codes_distinct"], "count"),
        "analyzer.codes_useful_ratio": (
            counters["analyzer.codes_distinct"] / raw if raw else 0.0, "ratio"),
        "analyzer.dims_s": (inclusive("analyzer.dim_series"), "s"),
        "analyzer.sandwich_s": (inclusive("analyzer.check_growth_sandwich"), "s"),
        "analyzer.aperiodicity_s": (inclusive("analyzer.check_nonperiodicity"), "s"),
        "analyzer.entropy_s": (inclusive("analyzer.entropy_partial"), "s"),
        "analyzer.forbidden_s": (inclusive("analyzer.minimal_forbidden_words"), "s"),
        "analyzer.recurrence_s": (inclusive(RECURRENCE), "s"),
        "analyzer.recurrence_scanned": (counters["analyzer.recurrence_scanned"], "count"),
        "analyzer.recurrence_total": (total, "count"),
        "analyzer.recurrence_coverage": (
            counters["analyzer.recurrence_scanned"] / total if total else 0.0, "ratio"),
        "analyzer.factors_s": (inclusive(FACTORS, "analyzer.factor_set_structural"), "s"),
        "analyzer.factor_strings": (counters["analyzer.factor_strings"], "count"),
        "freesub.verify_s": (self_of(lambda span: span[0] == FREENESS), "s"),
        "freesub.products_checked": (counters["freesub.products_checked"], "count"),
        "freesub.bounds_s": (inclusive("freesub.compute_t", "freesub.degree_lower_bound",
                                       "freesub.optimality_report"), "s"),
        "exactmath.nth_root_s": (inclusive("exactmath.nth_root_floor_scaled"), "s"),
        "cli.emit_s": (inclusive("cli._emit"), "s"),
        "cli.import_s": (import_s, "s"),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (
            self_of(lambda span, prefix=layer + ".": span[0].startswith(prefix)), "s")
    values["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    values["trace.unattributed_s"] = (traced_wall - top_level, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
