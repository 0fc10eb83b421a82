"""Write the output-check references in `bench/reference/`.

    python3 bench/make_reference.py [--size full|smoke] [workload ...]

Runs each workload's set-up and measured commands once, unchecked, and
records the checked fields of every command (see `checks.py`). Run it only
at a commit whose outputs are known to be right: the timed and traced runs
compare every later commit against what it writes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from checks import command_fields, reference_path
from harness import Runner, command_env, work_dir, work_files
from workloads import WORKLOADS


def reference(workload: str, size: str, root: Path) -> dict:
    spec = WORKLOADS[workload].size(size)
    with work_dir(root, f"reference-{workload}") as work:
        runner = Runner(command_env(root / "src"), work, work_files(work, seed=0))

        def fields(argv: tuple[str, ...]) -> dict:
            sample = runner.run(argv)
            if sample.exit_code != 0:
                raise SystemExit(f"{' '.join(sample.argv)} exited {sample.exit_code}")
            return command_fields(sample.argv, sample.exit_code,
                                  (work / "stdout.txt").read_text(),
                                  Path(runner.files["report"]))

        setup = fields(spec.setup) if spec.setup else {"exit": 0}
        return {"setup": setup, "measured": [fields(argv) for argv in spec.measured]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("workloads", nargs="*", help="default: every workload")
    args = parser.parse_args()
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {sorted(WORKLOADS)}")
    root = Path(__file__).resolve().parent.parent
    for workload in args.workloads or sorted(WORKLOADS):
        path = reference_path(workload, args.size)
        path.write_text(json.dumps(reference(workload, args.size, root), sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
