"""Output checks: compare the seed-independent fields of each command's output
with a reference taken at a known-good commit.

Only fields that no workload seed, clock or configuration echo can change
are compared: the exit code, the system digest, every dimension row, the
sandwich, aperiodicity and forbidden-word results, the hard-assertion and
recurrence verdicts, and the freeness verdict with its product counts.
`generated_at`, `config`, sampling details and any `metrics` block are
ignored, so reports may gain fields without failing the check.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def build_fields(exit_code: int, stdout: str) -> dict:
    """`build` prints `wrote <path> depth=.. captures=.. <digest>`."""
    digest = None
    for line in stdout.splitlines():
        if line.startswith("wrote "):
            digest = line.split()[-1]
    return {"exit": exit_code, "system_digest": digest}


def analyze_fields(exit_code: int, report: dict | None) -> dict:
    if report is None:
        return {"exit": exit_code}
    aperiodicity = report.get("aperiodicity")
    forbidden = report.get("minimal_forbidden") or {}
    return {
        "exit": exit_code,
        "system_digest": report.get("system_digest"),
        "depth": report.get("depth"),
        "dimensions": [[r.get("n"), r.get("dim"), r.get("cumulative"), r.get("entropy_partial")]
                       for r in report.get("dimensions", [])],
        "sandwich": report.get("sandwich"),
        "aperiodicity": None if aperiodicity is None else {
            k: aperiodicity.get(k) for k in ("n_max", "dims", "first_stall", "passed", "depth")},
        "minimal_forbidden": {k: forbidden.get(k) for k in ("words", "depth")},
        "hard_assertions_pass": report.get("hard_assertions_pass"),
        "recurrence_passed": (report.get("recurrence") or {}).get("passed"),
    }


def free_fields(exit_code: int, report: dict | None) -> dict:
    if report is None:
        return {"exit": exit_code}
    verification = report.get("verification") or {}
    return {
        "exit": exit_code,
        "verification": {k: verification.get(k)
                         for k in ("passed", "missing", "products_checked")},
    }


def command_fields(argv: list[str], exit_code: int, stdout: str, report_path: Path) -> dict:
    """The checked fields of one command, read from its stdout or report file."""
    kind = argv[0]
    if kind == "build":
        return build_fields(exit_code, stdout)
    if kind == "-c":
        return {"exit": exit_code}
    report = None
    if exit_code == 0:
        try:
            report = json.loads(report_path.read_text())
        except (OSError, json.JSONDecodeError):
            report = None
    if kind == "analyze":
        return analyze_fields(exit_code, report)
    if kind == "free":
        return free_fields(exit_code, report)
    raise ValueError(f"no output check for command {kind!r}")


def differences(expected, actual, path: str = "") -> list[str]:
    """Every place where actual departs from expected, as readable paths."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in actual:
                out.append(f"{path}/{key}: missing")
            elif key not in expected:
                out.append(f"{path}/{key}: unexpected")
            else:
                out.extend(differences(expected[key], actual[key], f"{path}/{key}"))
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out.extend(differences(e, a, f"{path}/{i}"))
        return out
    if expected != actual or type(expected) is not type(actual):
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def reference_path(workload: str, size: str) -> Path:
    return REFERENCE_DIR / f"{workload}.{size}.json"


def load_reference(workload: str, size: str) -> dict:
    """{"setup": fields or None, "measured": [fields per measured command]}."""
    return json.loads(reference_path(workload, size).read_text())
