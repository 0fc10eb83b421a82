"""Timed runs: every command is its own `python -m growthforge.cli` process,
started one at a time from this process (a closed loop with one client).

Each command's wall time runs from process start to exit, and its peak RSS
comes from that child's own rusage (`os.wait4`), not from RUSAGE_CHILDREN,
which is a running maximum over every child reaped so far. The reported
times are speed-adjusted (see `speed.py`): commands run pinned to one CPU
beside a probe that measures how fast that CPU ran meanwhile.
"""

from __future__ import annotations

import contextlib
import importlib.metadata
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import command_fields, differences, load_reference
from speed import SpeedProbe, pinned, probe_cpu
from stats import summarize
from workloads import IMPORT_ONLY, WORKLOADS, fill

SETUP_REPEATS = 9   # at least this many set-up samples per run


@dataclass
class Sample:
    argv: list[str]
    wall_s: float
    adjusted_s: float   # wall_s at reference host speed
    rss_mb: float
    exit_code: int
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@contextlib.contextmanager
def work_dir(root: Path, name: str):
    """A fresh directory inside the checkout, removed afterwards."""
    path = root / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def work_files(work: Path, seed: int) -> dict[str, str]:
    """The files a workload's argument vectors name; writes the seed config."""
    files = {"system": str(work / "system.json"), "report": str(work / "report.json"),
             "config": str(work / "analyze.ini")}
    Path(files["config"]).write_text(f"[analyze]\nsample_seed = {seed}\n")
    return files


# growthforge makes no BLAS or OpenMP calls; idle pool threads started by
# `import numpy` only add start-up noise on a small machine.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def command_env(src: Path) -> dict[str, str]:
    env = {**os.environ, **ONE_THREAD}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


class Runner:
    """Runs one CLI command at a time and checks its output."""

    def __init__(self, env: dict[str, str], work: Path, files: dict[str, str],
                 probe: SpeedProbe | None = None):
        self.env = env
        self.work = work
        self.files = files
        self.probe = probe

    def run(self, argv: tuple[str, ...], expected: dict | None = None) -> Sample:
        args = fill(argv, self.files)
        cmd = [sys.executable, *args] if args[0] == "-c" else \
            [sys.executable, "-m", "growthforge.cli", *args]
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        Path(self.files["report"]).unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = end - start
        adjusted = wall * self.probe.factor(start, end) if self.probe else wall
        sample = Sample(args, wall, adjusted, usage.ru_maxrss / 1024, proc.returncode)
        if expected is not None:
            actual = command_fields(args, proc.returncode, out_path.read_text(),
                                    Path(self.files["report"]))
            sample.problems = differences(expected, actual)
            if sample.problems:
                tail = err_path.read_text()[-2000:]
                sample.problems.append(f"stderr: {tail}")
        return sample


def timed_run(workload: str, seed: int, seconds: float, root: Path, size: str = "full") -> dict:
    """Loop set-up plus measured commands until `seconds` have passed (at
    least one iteration), then top the set-up samples up to SETUP_REPEATS.

    Set-up runs once before every iteration, so its samples spread over the
    whole run instead of one burst at its start. Every measured command
    takes a few seconds, so a run holds many iterations and its medians
    average over the host's slower and faster spells.
    """
    spec = WORKLOADS[workload].size(size)
    reference = load_reference(workload, size)
    setup_argv = spec.setup or IMPORT_ONLY
    cpu = probe_cpu()
    with work_dir(root, workload) as work, pinned(cpu), SpeedProbe(cpu) as probe:
        runner = Runner(command_env(root / "src"), work, work_files(work, seed), probe)
        runner.run(IMPORT_ONLY)  # warm-up: writes bytecode caches, not measured
        setup: list[Sample] = []
        iterations: list[list[Sample]] = []
        start = time.perf_counter()
        while not iterations or time.perf_counter() - start < seconds:
            setup.append(runner.run(setup_argv, reference["setup"]))
            iterations.append([runner.run(argv, expected) for argv, expected
                               in zip(spec.measured, reference["measured"])])
        while len(setup) < SETUP_REPEATS:
            setup.append(runner.run(setup_argv, reference["setup"]))
    measured = [s for it in iterations for s in it]
    attempted = setup + measured
    failed = [s for s in attempted if not s.ok]
    per_command: dict[str, list[float]] = {}
    for s in measured:
        per_command.setdefault(f"{s.argv[0]}_s", []).append(s.adjusted_s)
    walls = [sum(s.adjusted_s for s in it) for it in iterations]
    raw_walls = [sum(s.wall_s for s in it) for it in iterations]
    setup_walls = [s.adjusted_s for s in setup]
    rss = [s.rss_mb for s in measured]
    return {
        "correct": not failed,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
            "peak_rss_mb": {"value": max(rss), "unit": "MB"},
        },
        "summaries": {
            "wall_s": summarize(walls),
            "raw_wall_s": summarize(raw_walls),
            **{name: summarize(v) for name, v in per_command.items()},
            "setup_s": summarize(setup_walls),
            "peak_rss_mb": summarize(rss),
        },
        "problems": [f"{' '.join(s.argv)}: {p}" for s in failed for p in s.problems],
    }


def environment(root: Path, seed: int) -> dict:
    """Machine and code stamp recorded beside every result."""
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(root),
        "src_lines": src_lines,
        "seed": seed,
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    with contextlib.suppress(OSError):
        return (git / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None
