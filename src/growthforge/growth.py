"""Growth functions and mechanical verification of the hypotheses they must satisfy.

A growth function f maps positive integers to positive integers. The builders
consume f only through its values at powers of two and the dyadic ratios
r_i = ceil(f(2^(i+1)) / f(2^i)), which give the choice-set sizes. This module
evaluates the built-in families exactly (big rationals, integer ceilings) and
checks, up to a declared horizon, every condition the suffix-capture
construction needs:

  * monotonicity and submultiplicativity (f(n+m) <= f(n) f(m));
  * rapid growth: some integer alpha with n f(n) <= f(alpha n) for all n;
  * dominated doubling: for each beta, a threshold n_beta after which
    beta * f(2^(n+1)) <= f(2^n)^2;
  * convergence evidence for prod (1 + f(2^n)/f(2^(n+1)));
  * the threshold mu(t): the least level after which the dyadic ratio of f
    is dominated by the product of the ceiled ratios above level t, which is
    exactly what makes suffix-fixed choice sets large enough.

All universally quantified conditions are verified only up to the horizon;
reports carry the horizon stamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import HorizonTooSmall, UncoveredArgument, size_budget
from .exactmath import ceil_frac, ceil_div, iroot, pow2_of_root_ceil

FAMILIES = ("geometric", "poly_geometric", "sharp_paper", "exp_power", "table")


@dataclass
class GrowthSpec:
    """An evaluable growth function from the family registry.

    geometric(eps):       f(n) = ceil((1+eps)^n)
    poly_geometric(eps):  f(n) = ceil(n (1+eps)^n)
    sharp_paper(eps):     f(n) = ceil((1+eps)^n / n)
    exp_power(r):         f(n) = ceil(2^(n^r))
    table:                explicit values, defined at least at 1, 2, 4, ..., 2^H

    Evaluation is exact and memoized; the memo never changes a value.
    """

    family: str
    epsilon: Fraction | None = None
    power: Fraction | None = None
    table: dict[int, int] | None = None
    _memo: dict[int, int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown growth family {self.family!r}")
        if self.family in ("geometric", "poly_geometric", "sharp_paper"):
            if self.epsilon is None or self.epsilon <= 0:
                raise ValueError(f"{self.family} needs epsilon > 0")
        elif self.family == "exp_power":
            if self.power is None or self.power <= 0:
                raise ValueError("exp_power needs a positive exponent r")
        else:
            if not self.table:
                raise ValueError("table family needs values")
            for n, v in self.table.items():
                if n < 1 or v < 1:
                    raise ValueError(f"table entries must be positive, got f({n})={v}")
            if 1 not in self.table:
                raise ValueError("table must define f(1)")

    # -- evaluation --------------------------------------------------------

    def covered(self, n: int) -> bool:
        """Whether f(n) is defined (always true for formula families)."""
        if n < 1:
            return False
        if self.family == "table":
            return n in self.table
        return True

    @property
    def table_horizon(self) -> int:
        """Largest H with 1, 2, 4, ..., 2^H all present (table family)."""
        h = 0
        while (1 << (h + 1)) in self.table:
            h += 1
        return h

    def value(self, n: int) -> int:
        """Exact f(n). Raises UncoveredArgument for missing table points, and ValueError,
        before computing it, for an f(n) that `_bits` sizes over GROWTHFORGE_BUDGET."""
        if n < 1:
            raise ValueError(f"growth argument must be >= 1, got {n}")
        hit = self._memo.get(n)
        if hit is not None:
            return hit
        bits, budget = self._bits(n), size_budget()
        if bits > budget:
            raise ValueError(f"f({n}) of {self.family} is too large to compute: it needs "
                             f"{bits} bits, budget is {budget} (deficit {bits - budget})")
        v = self._memo[n] = self._compute(n)
        return v

    def _bits(self, n: int) -> int:
        """The bits f(n) is computed in: ceil(n^(p/q)) = iroot(n^p - 1, q) + 1 for 2^(n^(p/q)),
        n (b(a) + b(b)) for (1+eps)^n = (a/b)^n, and none for a table value, which is stored."""
        if self.family == "exp_power":
            return iroot(n ** self.power.numerator - 1, self.power.denominator) + 1
        if self.family == "table":
            return 0
        base = 1 + self.epsilon
        return n * (base.numerator.bit_length() + base.denominator.bit_length())

    def _compute(self, n: int) -> int:
        if self.family == "geometric":
            return ceil_frac((1 + self.epsilon) ** n)
        if self.family == "poly_geometric":
            return ceil_frac(n * (1 + self.epsilon) ** n)
        if self.family == "sharp_paper":
            return ceil_frac((1 + self.epsilon) ** n / n)
        if self.family == "exp_power":
            p, q = self.power.numerator, self.power.denominator
            return pow2_of_root_ceil(n ** p, q)
        if n not in self.table:
            raise UncoveredArgument(n)
        return self.table[n]

    def ratio(self, i: int) -> int:
        """r_i = ceil(f(2^(i+1)) / f(2^i)), the size of choice set i."""
        if i < 0:
            raise ValueError("level index must be >= 0")
        return ceil_div(self.value(1 << (i + 1)), self.value(1 << i))

    def exact_ratio(self, i: int) -> Fraction:
        """f(2^(i+1)) / f(2^i) without the ceiling."""
        return Fraction(self.value(1 << (i + 1)), self.value(1 << i))

    def describe(self) -> dict:
        """JSON-ready parameters (exact strings for rationals)."""
        out: dict = {"family": self.family}
        if self.epsilon is not None:
            out["epsilon"] = str(self.epsilon)
        if self.power is not None:
            out["power"] = str(self.power)
        if self.table is not None:
            out["table"] = {str(k): v for k, v in sorted(self.table.items())}
        return out


def geometric(eps: Fraction | str | int) -> GrowthSpec:
    return GrowthSpec("geometric", epsilon=Fraction(eps))


def poly_geometric(eps: Fraction | str | int) -> GrowthSpec:
    return GrowthSpec("poly_geometric", epsilon=Fraction(eps))


def sharp_paper(eps: Fraction | str | int) -> GrowthSpec:
    return GrowthSpec("sharp_paper", epsilon=Fraction(eps))


def exp_power(r: Fraction | str | int) -> GrowthSpec:
    return GrowthSpec("exp_power", power=Fraction(r))


def table_spec(values: dict[int, int]) -> GrowthSpec:
    return GrowthSpec("table", table=dict(values))


def spec_from_dict(d: dict) -> GrowthSpec:
    """Inverse of GrowthSpec.describe()."""
    family = d["family"]
    if family == "table":
        return table_spec({int(k): int(v) for k, v in d["table"].items()})
    if family == "exp_power":
        return exp_power(Fraction(d["power"]))
    return GrowthSpec(family, epsilon=Fraction(d["epsilon"]))


# -- hypothesis checks ------------------------------------------------------


@dataclass
class BasicReport:
    """Monotonicity and submultiplicativity over a checked range."""

    horizon: int
    monotone_ok: bool
    monotone_violation: tuple[int, int, int, int] | None  # (n, f(n), n', f(n'))
    strictness_warnings: list[tuple[int, int, int, int]]
    submultiplicative_ok: bool
    submultiplicative_violation: tuple[int, int, int, int] | None  # (n, m, f(n+m), f(n)f(m))


def check_basic(spec: GrowthSpec, horizon: int) -> BasicReport:
    """Check f(n) < f(n+1) and f(n+m) <= f(n) f(m) for arguments <= horizon.

    For table specs only covered arguments participate. Equality plateaus
    (common for ceiled families at small n) are recorded as warnings, since
    the construction consumes f only through the dyadic ratios and r_i >= 1
    regardless; an actual decrease is a hard violation.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    points = [n for n in range(1, horizon + 1) if spec.covered(n)]
    warnings: list[tuple[int, int, int, int]] = []
    mono_ok, mono_viol = True, None
    for a, b in zip(points, points[1:]):
        fa, fb = spec.value(a), spec.value(b)
        if fb < fa:
            mono_ok, mono_viol = False, (a, fa, b, fb)
            break
        if fb == fa:
            warnings.append((a, fa, b, fb))
    sub_ok, sub_viol = True, None
    for n in points:
        if not sub_ok:
            break
        for m in points:
            if n + m > horizon or not spec.covered(n + m):
                continue
            if spec.value(n + m) > spec.value(n) * spec.value(m):
                sub_ok = False
                sub_viol = (n, m, spec.value(n + m), spec.value(n) * spec.value(m))
                break
    return BasicReport(horizon, mono_ok, mono_viol, warnings, sub_ok, sub_viol)


@dataclass
class RapidGrowthReport:
    """Witness search for n f(n) <= f(alpha n)."""

    horizon: int
    alpha_max: int
    alpha: int | None
    checked_points: int              # points behind the witness, 0 when none
    # Per rejected alpha: (alpha, first violating n, deficit n*f(n) - f(alpha n)).
    failures: list[tuple[int, int, int]]
    vacuous: list[int]               # alphas with no checkable point at all

    @property
    def best_failure(self) -> tuple[int, int, int] | None:
        """Rejected alpha that survived longest (largest first-violation n)."""
        if not self.failures:
            return None
        return max(self.failures, key=lambda t: (t[1], -t[2]))


def check_rapid_growth(spec: GrowthSpec, horizon: int, alpha_max: int = 16) -> RapidGrowthReport:
    """Smallest integer alpha in [2, alpha_max] with n f(n) <= f(alpha n).

    Quantified over every covered n with alpha*n <= horizon and covered.
    An alpha with no checkable point (sparse tables) is never a witness;
    it is recorded as vacuous instead. The returned witness is only as
    strong as the horizon and the number of points checked.
    """
    if horizon < 4:
        raise ValueError("horizon must be >= 4")
    failures: list[tuple[int, int, int]] = []
    vacuous: list[int] = []
    for alpha in range(2, alpha_max + 1):
        bad = None
        checked = 0
        for n in range(1, horizon // alpha + 1):
            if not (spec.covered(n) and spec.covered(alpha * n)):
                continue
            checked += 1
            lhs = n * spec.value(n)
            rhs = spec.value(alpha * n)
            if lhs > rhs:
                bad = (alpha, n, lhs - rhs)
                break
        if bad is None and checked > 0:
            return RapidGrowthReport(horizon, alpha_max, alpha, checked, failures, vacuous)
        if bad is None:
            vacuous.append(alpha)
        else:
            failures.append(bad)
    return RapidGrowthReport(horizon, alpha_max, None, 0, failures, vacuous)


@dataclass
class CaptureConditionsReport:
    """Dominated doubling thresholds and product convergence evidence."""

    horizon: int
    # (beta, least n_beta such that beta f(2^(n+1)) <= f(2^n)^2 for all
    #  n in [n_beta, horizon], or None).
    beta_table: list[tuple[Fraction, int | None]]
    # (n, f(2^n)^2 / f(2^(n+1))) for n <= horizon.
    margins: list[tuple[int, Fraction]]
    # partial_products[k] = prod over n < k of (1 + f(2^n)/f(2^(n+1))).
    product_partials: list[Fraction]
    # ceiling_slack_partials[k] = prod over n < k of ceil(rho_n)/rho_n with
    # rho_n the exact dyadic ratio; each factor is <= the matching product
    # factor, so the same convergence evidence bounds the ceiling slack.
    ceiling_slack_partials: list[Fraction]
    # Whether summands s_n = f(2^n)/f(2^(n+1)) satisfy s_(n+1) <= s_n / 2 on
    # the checked suffix starting at decay_from.
    summand_decay_ok: bool
    decay_from: int | None
    product_tail_estimate: Fraction | None


def check_capture_conditions(
    spec: GrowthSpec,
    beta_list: list[Fraction | int],
    horizon: int,
) -> CaptureConditionsReport:
    """Check the dominated-doubling and product-convergence conditions.

    For each beta the least threshold n_beta <= horizon is reported such that
    beta f(2^(n+1)) <= f(2^n)^2 holds from n_beta through the horizon; None
    means no threshold works at this horizon. The infinite product
    prod (1 + f(2^n)/f(2^(n+1))) is summarized by exact partial products,
    and when the summands are halving on a checked suffix the Weierstrass
    bound prod(1+s) <= 1/(1 - sum s) turns the observed decay into a rational
    upper estimate for the full product (valid if the decay continues).
    """
    if not beta_list:
        raise ValueError("beta_list must be non-empty")
    if horizon < 3:
        raise ValueError("horizon must be >= 3")
    margins = [
        (n, Fraction(spec.value(1 << n) ** 2, spec.value(1 << (n + 1))))
        for n in range(0, horizon + 1)
    ]
    beta_table: list[tuple[Fraction, int | None]] = []
    for beta_in in beta_list:
        beta = Fraction(beta_in)
        n_beta = None
        # Scan from the top: the threshold is the suffix start.
        last_bad = -1
        for n, margin in margins:
            if margin < beta:
                last_bad = n
        if last_bad < horizon:
            n_beta = last_bad + 1
        beta_table.append((beta, n_beta))

    summands = [spec.exact_ratio(n) ** -1 for n in range(0, horizon + 1)]
    partials: list[Fraction] = [Fraction(1)]
    for s in summands:
        partials.append(partials[-1] * (1 + s))
    slack: list[Fraction] = [Fraction(1)]
    for n in range(0, horizon + 1):
        rho = spec.exact_ratio(n)
        slack.append(slack[-1] * (spec.ratio(n) / rho))

    decay_from = None
    for start in range(0, horizon):
        if all(summands[n + 1] <= summands[n] / 2 for n in range(start, horizon)):
            decay_from = start
            break
    tail = None
    s_last = summands[horizon]
    if decay_from is not None and s_last < 1:
        # Assuming halving continues, sum of the tail past the horizon is
        # at most s_last, so the remaining factor is <= 1 / (1 - s_last).
        tail = partials[-1] / (1 - s_last)
    return CaptureConditionsReport(
        horizon=horizon,
        beta_table=beta_table,
        margins=margins,
        product_partials=partials,
        ceiling_slack_partials=slack,
        summand_decay_ok=decay_from is not None,
        decay_from=decay_from,
        product_tail_estimate=tail,
    )


def compute_mu(spec: GrowthSpec, t: int, offset: int, horizon: int) -> int:
    """Least level m > t + offset after which choice products dominate.

    Returns the smallest m such that for every n in [m, horizon],

        f(2^(n+1)) / f(2^n)  <=  prod over i in [t, n) of r_i,

    with r_i the ceiled dyadic ratios. This is the level at which a choice
    set can afford to fix a common 2^t-letter suffix on all of its members.
    Raises HorizonTooSmall when no such m <= horizon exists, which at a
    finite horizon is indistinguishable from the family failing the
    condition analytically (e.g. exact doubling f(2^(n+1)) = f(2^n)^2).
    """
    if t < 0 or offset < 0:
        raise ValueError("t and offset must be >= 0")
    if horizon <= t + offset:
        raise HorizonTooSmall(
            f"horizon {horizon} leaves no levels above t+offset = {t + offset}", t, horizon)
    prod = 1
    for i in range(t, t + offset):
        prod *= spec.ratio(i)
    last_bad = t + offset
    # prod covers i in [t, n) as n advances.
    for n in range(t + offset + 1, horizon + 1):
        prod *= spec.ratio(n - 1)
        if spec.value(1 << (n + 1)) > spec.value(1 << n) * prod:
            last_bad = n
    if last_bad >= horizon:
        raise HorizonTooSmall(
            f"dominance inequality still fails at n={last_bad} (horizon {horizon}, t={t})",
            t, horizon)
    return max(t + offset + 1, last_bad + 1)


@dataclass
class HypothesisReport:
    """Aggregated verdicts for every condition the construction needs."""

    horizon: int
    basic: BasicReport
    rapid: RapidGrowthReport
    capture: CaptureConditionsReport
    mu_table: list[tuple[int, int | None]]  # (t, mu(t) or None)

    def verdicts(self) -> dict[str, str]:
        v = {
            "monotone": "pass" if self.basic.monotone_ok else "fail",
            "submultiplicative": "pass" if self.basic.submultiplicative_ok else "fail",
            "rapid_growth": "pass" if self.rapid.alpha is not None else "fail",
            "capture_beta": "pass" if all(nb is not None for _, nb in self.capture.beta_table)
            else "fail",
            "product_converges": "pass" if self.capture.product_tail_estimate is not None
            else "fail",
            "mu_exists": "pass" if all(m is not None for _, m in self.mu_table) else "fail",
        }
        if self.basic.strictness_warnings:
            v["monotone"] = v["monotone"] + "-with-plateau-warnings"
        return v

    @property
    def all_pass(self) -> bool:
        return all(s.startswith("pass") for s in self.verdicts().values())


def verify_hypotheses(
    spec: GrowthSpec,
    horizon: int,
    betas: list[Fraction | int] | None = None,
    mu_t_max: int = 3,
    mu_offset: int = 0,
    alpha_max: int = 16,
) -> HypothesisReport:
    """Run every checker and collect one report (the validate command).

    `horizon` counts dyadic levels (conditions on f(2^n)); the plain-argument
    checks (monotonicity, submultiplicativity, rapid growth) run up to 64 or
    the table support, whichever is smaller.
    """
    betas = betas if betas is not None else [Fraction(2), Fraction(10), Fraction(100)]
    arg_horizon = min(64, max(spec.table)) if spec.family == "table" else 64
    basic = check_basic(spec, arg_horizon)
    rapid = check_rapid_growth(spec, max(arg_horizon, 4), alpha_max=alpha_max)
    capture = check_capture_conditions(spec, betas, horizon)
    mu_table: list[tuple[int, int | None]] = []
    for t in range(0, mu_t_max + 1):
        try:
            mu_table.append((t, compute_mu(spec, t, mu_offset, horizon)))
        except HorizonTooSmall:
            mu_table.append((t, None))
    return HypothesisReport(horizon, basic, rapid, capture, mu_table)
