"""growthforge benchmark: one workload per invocation.

    python3 bench/run.py --workload analyze-d7 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout that holds `src/growthforge`. With
`--trace 0` each command is timed as its own `python -m growthforge.cli`
process and the end-to-end metrics are reported: `wall_s` and `setup_s`
are medians of speed-adjusted times (see `speed.py`), and the raw wall
times are printed beside them as `raw_wall_s`; with `--trace 1` the
workload runs in this process with every layer wrapped and the per-layer
metrics are reported. Every command's output is checked against
`bench/reference/`. Human-readable lines come first, with the environment
stamp; the last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from harness import environment, timed_run
from tracing import traced_run
from workloads import WORKLOADS

EXIT_USAGE = 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure for at least this long (at least one iteration)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so running commands are killed and reaped,
    # and the work directory removed, on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "growthforge" / "cli.py").is_file():
        print(f"error: {root} holds no src/growthforge to benchmark", file=sys.stderr)
        return EXIT_USAGE

    env = environment(root, args.seed)
    print(f"workload {args.workload}: {WORKLOADS[args.workload].why}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        result = traced_run(args.workload, args.seed, root)
        for name, metric in result["metrics"].items():
            print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    else:
        result = timed_run(args.workload, args.seed, args.seconds, root)
        for name, s in result["summaries"].items():
            unit = "MB" if name.endswith("_mb") else "s"
            print(f"{name:12s} median {s['median']:.4f} {unit}  "
                  f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}")
    print(f"failed_frac  {result['failed'] / result['attempted']:.4f}  "
          f"({result['failed']} of {result['attempted']} commands)")
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
