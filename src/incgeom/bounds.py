"""Closed-form incidence bounds and the range where one beats another.

Every evaluator returns a BoundValue holding the exponents of the bound
delta^e |P|^p |Pi|^q, a human-readable regime tag, and, when the inputs
include actual sizes, the instantiated value.  Epsilon losses are explicit
parameters defaulting to zero, never folded into the exponents silently.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from .family import require_delta

_EPS_NOTE = "epsilon-loss factor delta^-O(eps) not included"


@dataclass(frozen=True)
class BoundValue:
    name: str
    delta_exponent: float
    point_count_exponent: float = 1.0
    plane_count_exponent: float = 1.0
    value: Optional[float] = None
    regime: str = ""

    def evaluate(self, delta, n_points, n_planes):
        """delta^e |P|^p |Pi|^q with this bound's exponents."""
        return (
            delta**self.delta_exponent
            * n_points**self.point_count_exponent
            * n_planes**self.plane_count_exponent
        )

    def to_dict(self):
        return asdict(self)


def thm2d_exponent(s, t) -> BoundValue:
    """Planar incidence exponent: I <~ |P||T| delta^e with e by regime.

    Cases are tried in a fixed order and the first match wins, so boundary
    parameters resolve deterministically; (s, t) in the uncovered gaps
    (e.g. t > 1 >= s with s < t - 1) raise instead of extrapolating.
    """
    if not (0 <= s <= 2 and 0 <= t <= 2):
        raise ValueError(f"(s, t) must lie in [0, 2]^2, got ({s}, {t})")
    if s <= 1 and t <= 1:
        if s + t == 0:
            e, regime = 0.0, "case 1 (s = t = 0): exponent 0"
        else:
            e, regime = s * t / (s + t), "case 1 (s, t <= 1): st/(s+t)"
    elif t >= 1 >= s >= t - 1:
        e, regime = s * t / (1 + s), "case 2 (t >= 1 >= s >= t-1): st/(1+s)"
    elif s >= 1 >= t >= s - 1:
        e, regime = s * t / (1 + t), "case 3 (s >= 1 >= t >= s-1): st/(1+t)"
    elif s > 1 and t > 1:
        kappa = min(0.5, 1.0 / (s + t - 1.0))
        e, regime = kappa * (s + t - 1.0), "case 4 (s, t > 1): kappa(s+t-1)"
    else:
        raise ValueError(
            f"no case applies to (s, t) = ({s}, {t}): the planar bound "
            "covers s,t <= 1; t >= 1 >= s >= t-1; s >= 1 >= t >= s-1; s,t > 1"
        )
    return BoundValue(name="planar", delta_exponent=e, regime=f"{regime}; {_EPS_NOTE}")


def main_bound(delta, n_points, n_planes) -> BoundValue:
    """The sharp high-dimensional estimate I <~ delta |P| |Pi|.

    Needs s, t > (d+1)/2 to apply; checking that is the caller's job, this
    just instantiates the value (it doubles as the ratio denominator of
    every incidence report)."""
    require_delta(delta)
    if n_points < 0 or n_planes < 0:
        raise ValueError("family sizes must be nonnegative")
    return BoundValue(
        name="linear",
        delta_exponent=1.0,
        value=float(delta * n_points * n_planes),
        regime="s, t > (d+1)/2 assumed",
    )


def _f(t):
    # weight on (s - d + 2) in the Cauchy-Schwarz bound
    return 0.5 if t >= 1 else t / (1.0 + t)


def cs_bound_exponent(s, t, d, eps=0.0) -> BoundValue:
    """Cauchy-Schwarz route: I <~ |P||Pi| delta^(f(t)(s-d+2) - eps),
    f(t) = 1/2 for t >= 1 and t/(1+t) below; continuous at t = 1."""
    if d < 3:
        raise ValueError(f"this bound needs dimension at least 3, got {d}")
    if not s - d + 2 > 0:
        raise ValueError(
            f"assumption s - d + 2 > 0 violated: s = {s}, d = {d} gives {s - d + 2}"
        )
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    return BoundValue(
        name="cauchy-schwarz",
        delta_exponent=_f(t) * (s - d + 2) - eps,
        regime=f"f(t) = {_f(t)!r} branch ({'t >= 1' if t >= 1 else 't < 1'})",
    )


def dov_bound(delta, s, d, n_points, n_planes) -> BoundValue:
    """Separated-planes-only estimate:
    I <~ delta^((d-1)(s+1-d)/(2d-1-s)) |P| |Pi|^((d-1)/(2d-1-s))."""
    if not s > 1:
        raise ValueError(f"this bound requires s > 1, got s = {s}")
    if not 2 * d - 1 - s > 0:
        raise ValueError(f"requires 2d - 1 - s > 0, got d = {d}, s = {s}")
    require_delta(delta)
    denom = 2.0 * d - 1.0 - s
    de = (d - 1.0) * (s + 1.0 - d) / denom
    pe = (d - 1.0) / denom
    return BoundValue(
        name="separated-planes",
        delta_exponent=de,
        plane_count_exponent=pe,
        value=float(delta**de * n_points * n_planes**pe),
        regime=f"delta-separated planes only; {_EPS_NOTE}",
    )


@dataclass(frozen=True)
class ComparisonRange:
    """Size range of Pi where the Cauchy-Schwarz route beats the
    separated-planes bound: delta^-t <~ |Pi| <= delta^upper_exponent.

    `nonempty` restates the stated sufficient condition for the active
    branch (2t <= s+1 < d when t >= 1, d-2 < s < d-1 when t < 1);
    `nonempty_numeric` checks the exponent interval directly
    (upper_exponent <= -t, since delta < 1).  Both are reported because
    the stated conditions are sufficient, not sharp."""

    M: float
    M_prime: float
    lower_exponent: float
    upper_exponent: float
    nonempty: bool
    nonempty_numeric: bool
    regime: str = ""

    def to_dict(self):
        return asdict(self)


def comparison_range(s, t, d) -> ComparisonRange:
    if not 2 * d - 1 - s > 0:
        raise ValueError(f"requires 2d - 1 - s > 0, got d = {d}, s = {s}")
    if d == s:
        raise ValueError(f"degenerate denominator d - s = 0 at s = {s}")
    if t == -1:
        raise ValueError(f"degenerate denominator t + 1 = 0 at t = {t}")
    denom = 2.0 * d - 1.0 - s
    M = (d - 1.0) * (s + 1.0 - d) / denom - (s - d + 2.0) / 2.0
    M_prime = M - (t / (t + 1.0) - 0.5) * (s - d + 2.0)
    scale = denom / (d - s)
    if t >= 1:
        upper = M * scale
        stated = (2 * t <= s + 1) and (s + 1 < d)
        regime = "t >= 1: upper exponent M(2d-1-s)/(d-s), stated condition 2t <= s+1 < d"
    else:
        upper = M_prime * scale
        stated = (d - 2 < s) and (s < d - 1)
        regime = "t < 1: upper exponent M'(2d-1-s)/(d-s), stated condition d-2 < s < d-1"
    return ComparisonRange(
        M=M,
        M_prime=M_prime,
        lower_exponent=-float(t),
        upper_exponent=upper,
        nonempty=stated,
        nonempty_numeric=upper <= -t,
        regime=regime,
    )


def annotate(bound, *args):
    """`bound(*args).to_dict()`, or `{"error": message}` if the bound refuses them."""
    try:
        return bound(*args).to_dict()
    except ValueError as e:
        return {"error": str(e)}


def bound_table(delta, s, t, d, n_points, n_planes):
    """Every bound here at one parameter set, keyed as in the reports.  The
    linear bound is evaluated bare, so a bad delta raises; the others go
    through `annotate`."""
    return {
        "linear": main_bound(delta, n_points, n_planes).to_dict(),
        "planar": annotate(thm2d_exponent, s, t),
        "cauchy_schwarz": annotate(cs_bound_exponent, s, t, d),
        "separated_planes": annotate(dov_bound, delta, s, d, n_points, n_planes),
        "comparison": annotate(comparison_range, s, t, d),
    }
