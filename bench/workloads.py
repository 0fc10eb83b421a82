"""The four benchmark workloads, as the growthforge command lines they run.

A workload has a set-up step, which produces what the measured commands
read, and one closed-loop iteration of measured commands. Every argument
vector is what follows `python -m growthforge.cli`; the placeholders
`{system}`, `{report}` and `{config}` name files in the run's work
directory. The workload seed reaches the program only as
`[analyze] sample_seed` in the `{config}` file.

Each workload has a full size, which the benchmark measures, and a smoke
size with the same shape, which the tests run.
"""

from __future__ import annotations

from dataclasses import dataclass

IMPORT_ONLY = ("-c", "import growthforge.cli")


def build(epsilon: str, depth: int) -> tuple[str, ...]:
    return ("build", "--family", "poly_geometric", "--epsilon", epsilon,
            "--mode", "recurrent", "--depth", str(depth), "--captures", "2",
            "--out", "{system}")


def analyze(nmax: int, forbidden_max: int = 6) -> tuple[str, ...]:
    return ("analyze", "{system}", "--config", "{config}", "--nmax", str(nmax),
            "--forbidden-max", str(forbidden_max), "--out", "{report}")


def free(epsilon: str, depth: int, products_len: int) -> tuple[str, ...]:
    return ("free", "--epsilon", epsilon, "--depth", str(depth),
            "--products-len", str(products_len), "--out", "{report}")


@dataclass(frozen=True)
class Size:
    """One size of a workload.

    `setup` is a build whose system file the measured commands read, or
    None when set-up is interpreter start plus `import growthforge.cli`.
    """

    setup: tuple[str, ...] | None
    measured: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: Size
    smoke: Size

    def size(self, which: str) -> Size:
        if which not in ("full", "smoke"):
            raise ValueError(f"unknown size {which!r}")
        return self.full if which == "full" else self.smoke


WORKLOADS = {w.name: w for w in (
    Workload(
        "analyze-d7",
        "uint64 combine and np.unique dedupe: millions of window codes, every n "
        "counted three times, over only 957 choice-set members",
        full=Size(build("1/10", 7), (analyze(44),)),
        smoke=Size(build("1/10", 6), (analyze(24),)),
    ),
    Workload(
        "analyze-wide",
        "d = 2 and n up to 65, so n = 65 takes the big-int Python-set route "
        "and bypasses np.unique, unlike analyze-d7",
        full=Size(build("1/20", 8), (analyze(65),)),
        smoke=Size(build("1/20", 8), (analyze(65, forbidden_max=3),)),
    ),
    Workload(
        "build-d8",
        "write side beside read side: choose_cset, a 1.8 MB system file saved and "
        "reloaded, per-member engine encoding and recurrence sampling, little combine work",
        full=Size(None, (build("1/13", 8), analyze(16))),
        smoke=Size(None, (build("1/11", 7), analyze(8))),
    ),
    Workload(
        "free-e1",
        "the only workload that runs freesub, must_include construction and the "
        "string factor route, with 16 raw codes per distinct one at n = 16",
        full=Size(None, (free("1", 5, 8),)),
        smoke=Size(None, (free("1", 4, 4),)),
    ),
)}


def fill(argv: tuple[str, ...], files: dict[str, str]) -> list[str]:
    """Substitute the work-directory file names into an argument vector."""
    return [arg.format(**files) if arg.startswith("{") else arg for arg in argv]
