"""Command-line surface: validate, build, analyze, free.

Configuration comes from an INI-style file (sections per concern, key = value,
rationals as "p/q" or exact decimal strings) with flags overriding file
values. Every report embeds the effective configuration and the system
digest. Exit codes: 0 success, 1 mathematical or verification failure,
2 usage or I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from itertools import chain
from pathlib import Path

from . import analyzer, freesub, persist
from .errors import GrowthForgeError, SystemFileError
from .exactmath import parse_rational
from .growth import FAMILIES, GrowthSpec, spec_from_dict, verify_hypotheses
from .construction import build_free_power_system, build_plain, build_uniformly_recurrent

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


@dataclass
class RunConfig:
    """Effective configuration, echoed into every report."""

    family: str = "poly_geometric"
    epsilon: str = "1/10"
    power: str = "1/2"
    table_values: str = ""
    horizon: int = 12
    betas: str = "2,10,100"
    alpha_max: int = 16
    mu_t_max: int = 3

    mode: str = "plain"
    depth: int = 5
    captures: int = 2
    mu_offset: int = 0
    chooser: str = "lex"
    seed: int = 0

    nmax: int = 16
    forbidden_max: int = 0

    free_epsilon: str = "1"
    products_len: int = 4
    free_depth: int = 4

    out: str = ""
    csv: str = ""
    given: set[str] = field(default_factory=set)   # keys a flag or the config file set

    _sections = {
        "growth": ("family", "epsilon", "power", "table_values", "horizon",
                   "betas", "alpha_max", "mu_t_max"),
        "build": ("mode", "depth", "captures", "mu_offset", "chooser", "seed"),
        "analyze": ("nmax", "forbidden_max"),
        "free": ("free_epsilon", "products_len", "free_depth"),
        "output": ("out", "csv"),
    }

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        parser = configparser.ConfigParser()
        cfg = cls()
        try:
            if not parser.read(path):
                raise SystemFileError(f"cannot read config file {path}")
            for section, keys in cls._sections.items():
                if not parser.has_section(section):
                    continue
                for key in keys:
                    ini_key = key[5:] if section == "free" and key.startswith("free_") else key
                    if parser.has_option(section, ini_key):
                        current = getattr(cfg, key)
                        raw = parser.get(section, ini_key)
                        setattr(cfg, key, int(raw) if isinstance(current, int) else raw)
                        cfg.given.add(key)
        except configparser.Error as exc:
            raise SystemFileError(f"malformed config file {path}: {exc}") from None
        return cfg

    def apply_flags(self, args: argparse.Namespace) -> None:
        # A flag sets the field of the same name; fields without a flag are absent from args.
        for attr in chain.from_iterable(self._sections.values()):
            value = getattr(args, attr, None)
            if value is not None:
                setattr(self, attr, value)
                self.given.add(attr)

    def growth_spec(self, free_mode: bool = False) -> GrowthSpec:
        """The growth, geometric(epsilon) in free mode whatever the family; a growth parameter
        given by a flag or the config file that it does not read is refused."""
        family = "geometric" if free_mode else self.family
        reads = {"exp_power": "power", "table": "table_values"}.get(family, "epsilon")
        unread = sorted(self.given & {"epsilon", "power", "table_values"} - {reads})
        if unread:
            flag = lambda key: "--" + key.replace("_", "-")
            where = "free mode" if free_mode else f"the {family} family"
            raise ValueError(f"{flag(unread[0])} is not read by {where}, which reads {flag(reads)}")
        table = self.parse_table() if family == "table" else None
        return spec_from_dict({"family": family, "epsilon": self.epsilon,
                               "power": self.power, "table": table})

    def parse_table(self) -> dict[int, int]:
        if not self.table_values.strip():
            raise ValueError("table family needs --table-values")
        out: dict[int, int] = {}
        parts = [p for p in self.table_values.split(",") if p.strip()]
        if ":" in self.table_values:
            for part in parts:
                n, v = part.split(":")
                out[int(n)] = int(v)
        else:
            for i, part in enumerate(parts):
                out[1 << i] = int(part)
        return out

    def beta_list(self) -> list[Fraction]:
        return [parse_rational(b) for b in self.betas.split(",") if b.strip()]

    def to_dict(self) -> dict:
        return {
            section: {key: getattr(self, key) for key in keys}
            for section, keys in self._sections.items()
        }


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _emit(doc: dict, path: str) -> None:
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _require_at_least(value: int, low: int, flag: str) -> None:
    """Refuse a count below `low`, whether it came from a flag or a config file."""
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")


# -- subcommands ----------------------------------------------------------------


def _horizon(cfg: RunConfig, spec: GrowthSpec) -> int:
    """The dyadic horizon of checks and captures: a table's, clipped to its support, is >= 3."""
    table = spec.family == "table"
    horizon = min(cfg.horizon, spec.table_horizon - 1) if table else cfg.horizon
    if table and horizon < 3:
        raise SystemFileError("table support too small for dyadic checks")
    return horizon


def cmd_validate(cfg: RunConfig) -> int:
    spec = cfg.growth_spec()
    report = verify_hypotheses(
        spec, _horizon(cfg, spec),
        betas=cfg.beta_list(),
        mu_t_max=cfg.mu_t_max,
        mu_offset=cfg.mu_offset,
        alpha_max=cfg.alpha_max,
    )
    # Long horizons give exact rationals past the int-to-string limit (4,300 digits): lifted here only.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        doc = {
            "kind": "hypothesis-report",
            "config": cfg.to_dict(),
            "generated_at": _timestamp(),
            "horizon": report.horizon,
            "verdicts": report.verdicts(),
            "all_pass": report.all_pass,
            "basic": {
                "monotone_ok": report.basic.monotone_ok,
                "monotone_violation": report.basic.monotone_violation,
                "strictness_warnings": report.basic.strictness_warnings[:8],
                "submultiplicative_ok": report.basic.submultiplicative_ok,
                "submultiplicative_violation": report.basic.submultiplicative_violation,
                "horizon": report.basic.horizon,
            },
            "rapid_growth": {
                "alpha": report.rapid.alpha,
                "checked_points": report.rapid.checked_points,
                "failures": report.rapid.failures,
                "vacuous": report.rapid.vacuous,
                "best_failure": report.rapid.best_failure,
                "horizon": report.rapid.horizon,
            },
            "capture_conditions": {
                "beta_table": [[str(b), nb] for b, nb in report.capture.beta_table],
                "margins": [[n, str(m)] for n, m in report.capture.margins],
                "product_partials": [str(p) for p in report.capture.product_partials],
                "ceiling_slack_partials": [str(p) for p in report.capture.ceiling_slack_partials],
                "summand_decay_ok": report.capture.summand_decay_ok,
                "product_tail_estimate": str(report.capture.product_tail_estimate)
                if report.capture.product_tail_estimate is not None else None,
            },
            "mu_table": report.mu_table,
        }
        _emit(doc, cfg.out)
    finally:
        sys.set_int_max_str_digits(limit)
    return EXIT_OK if report.all_pass else EXIT_MATH


def cmd_build(cfg: RunConfig, force: bool) -> int:
    # The loader refuses a seed, horizon or mu offset below 0, so no build writes one.
    for value, flag in ((cfg.captures, "--captures"), (cfg.seed, "--seed"),
                        (cfg.horizon, "--horizon"), (cfg.mu_offset, "--mu-offset")):
        _require_at_least(value, 0, flag)
    spec = cfg.growth_spec(free_mode=cfg.mode == "free")
    horizon = _horizon(cfg, spec) if cfg.mode == "recurrent" else None   # read by no other build
    if horizon is not None and not force:
        checks = verify_hypotheses(spec, horizon, betas=cfg.beta_list(),
                                   mu_t_max=0, mu_offset=cfg.mu_offset)
        if not checks.all_pass:
            bad = {k: v for k, v in checks.verdicts().items() if not v.startswith("pass")}
            print(f"validation failed ({bad}); use --force to build anyway", file=sys.stderr)
            return EXIT_MATH
    if cfg.mode == "plain":
        system = build_plain(spec, cfg.chooser, cfg.depth, seed=cfg.seed)
    elif cfg.mode == "recurrent":
        system = build_uniformly_recurrent(
            spec, cfg.depth, cfg.captures,
            mu_offset=cfg.mu_offset, chooser=cfg.chooser, seed=cfg.seed,
            horizon=horizon)
    elif cfg.mode == "free":
        system, _ = build_free_power_system(spec.epsilon, cfg.depth, chooser=cfg.chooser,
                                            seed=cfg.seed)
    else:
        raise ValueError(f"unknown mode {cfg.mode!r}")
    out = cfg.out or "system.json"
    digest = persist.save_system(system, out)
    print(f"wrote {out} depth={system.depth} captures={len(system.capture_log)} {digest}")
    return EXIT_OK


def cmd_analyze(cfg: RunConfig, system_path: str) -> int:
    _require_at_least(cfg.nmax, 1, "--nmax")
    _require_at_least(cfg.forbidden_max, 0, "--forbidden-max")
    system = persist.load_system(system_path)
    digest = system.digest
    n_max = min(cfg.nmax, 1 << (system.depth - 1))
    analyzer.check_window_budget(system, n_max)
    # Forbidden words come first: F(n) for n <= forbidden_max leaves its count behind.
    forbidden, forb_depth = analyzer.minimal_forbidden_words(system, min(cfg.forbidden_max, n_max))
    dims = analyzer.dim_series(system, n_max)
    # One sandwich per dyadic n = 2^k <= n_max, k >= 1.
    sandwich = [analyzer.check_growth_sandwich(system, k) for k in range(1, n_max.bit_length())]
    recurrence = analyzer.verify_recurrence_gaps(system)
    aperiodicity = (analyzer.check_nonperiodicity(system, max(2, n_max))
                    if system.depth >= 2 else None)
    entropy = analyzer.entropy_report(system, dims)
    submult = dims.submultiplicative_violations()

    hard_pass = all(s.hard_ok for s in sandwich) and recurrence.passed and not submult
    doc = {
        "kind": "analysis-report",
        "config": cfg.to_dict(),
        "generated_at": _timestamp(),
        "system_digest": digest,
        "depth": system.depth,
        "dimensions": [
            {"n": r.n, "dim": r.dim, "cumulative": r.cumulative, "entropy_partial": r.entropy_str}
            for r in dims.rows
        ],
        "sandwich": [s.to_dict() for s in sandwich],
        "recurrence": recurrence.to_dict(),
        "aperiodicity": aperiodicity.to_dict() if aperiodicity else None,
        "minimal_forbidden": {
            "max_len": cfg.forbidden_max, "words": forbidden, "depth": forb_depth,
        },
        "entropy": entropy.to_dict(),
        "submultiplicative_violations": submult,
        "hard_assertions_pass": hard_pass,
    }
    _emit(doc, cfg.out)
    if cfg.csv:
        Path(cfg.csv).write_text(dims.to_csv())
    return EXIT_OK if hard_pass else EXIT_MATH


def cmd_free(cfg: RunConfig, system_path: str | None) -> int:
    _require_at_least(cfg.free_depth, 0, "--depth")
    _require_at_least(cfg.products_len, 1, "--products-len")
    eps = parse_rational(cfg.free_epsilon)
    verification = None
    digest = None
    if system_path:
        system = persist.load_system(system_path)
        if system.free_params is None:
            raise SystemFileError(f"{system_path} was not built in free mode")
        params = system.free_params
        eps = params.epsilon
        digest = system.digest
        verification = freesub.verify_free_generators(system, params, cfg.products_len)
    elif cfg.free_depth > 0:
        system, params = build_free_power_system(eps, cfg.free_depth)
        verification = freesub.verify_free_generators(system, params, cfg.products_len)
    optimality = freesub.optimality_report(eps)
    bound = freesub.degree_lower_bound(eps, tol=Fraction(1, 10 ** 6))
    doc = {
        "kind": "freeness-report",
        "config": cfg.to_dict(),
        "generated_at": _timestamp(),
        "system_digest": digest,
        "epsilon": str(eps),
        "t": optimality.t,
        "generator_degree": optimality.degree,
        "degree_lower_bound": str(bound),
        "degree_lower_bound_decimal": f"{float(bound):.6f}",
        "optimality": optimality.to_dict(),
        "verification": verification.to_dict() if verification else None,
    }
    _emit(doc, cfg.out)
    passed = optimality.ratio_in_band and (verification is None or verification.passed)
    return EXIT_OK if passed else EXIT_MATH


# -- argument parsing --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growthforge",
        description="Build and verify finite truncations of dyadic level systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_build: bool = False) -> None:
        p.add_argument("--config", help="INI config file; flags override it")
        p.add_argument("--family", choices=FAMILIES)
        p.add_argument("--epsilon", help="exact rational, e.g. 1/10 or 0.1")
        p.add_argument("--power", help="exponent r for exp_power")
        p.add_argument("--table-values", dest="table_values",
                       help='table data: "2,4,8,16" (at 1,2,4,8) or "1:2,2:4,..."')
        p.add_argument("--horizon", type=int, help="dyadic level horizon for checks")
        p.add_argument("--out", help="report/system output path (default stdout)")
        if with_build:
            p.add_argument("--mode", choices=("plain", "recurrent", "free"))
            p.add_argument("--depth", type=int)
            p.add_argument("--captures", type=int)
            p.add_argument("--mu-offset", dest="mu_offset", type=int)
            p.add_argument("--chooser", choices=("lex", "seeded"))
            p.add_argument("--seed", type=int)

    p_val = sub.add_parser("validate", help="check growth-function hypotheses")
    common(p_val)

    p_build = sub.add_parser("build", help="build and persist a level system")
    common(p_build, with_build=True)
    p_build.add_argument("--force", action="store_true",
                         help="build even if validation fails")

    p_an = sub.add_parser("analyze", help="exact factor analytics on a system file")
    p_an.add_argument("system", help="persisted system file")
    p_an.add_argument("--config")
    p_an.add_argument("--nmax", type=int, help="largest factor length analyzed")
    p_an.add_argument("--forbidden-max", dest="forbidden_max", type=int)
    p_an.add_argument("--out")
    p_an.add_argument("--csv", help="write the dimension series as CSV")

    p_free = sub.add_parser("free", help="free-subalgebra certification")
    p_free.add_argument("system", nargs="?", help="free-mode system file (optional)")
    p_free.add_argument("--config")
    p_free.add_argument("--epsilon", dest="free_epsilon",
                        help="exact rational in (0, 1]; --depth > 0 builds only for (1+eps)^2 > 2")
    p_free.add_argument("--depth", dest="free_depth", type=int,
                        help="build depth for on-the-fly verification")
    p_free.add_argument("--products-len", dest="products_len", type=int)
    p_free.add_argument("--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        cfg.apply_flags(args)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "build":
            return cmd_build(cfg, force=args.force)
        if args.command == "analyze":
            return cmd_analyze(cfg, args.system)
        return cmd_free(cfg, args.system)   # the one command left: a subcommand is required
    except (SystemFileError, OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GrowthForgeError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
