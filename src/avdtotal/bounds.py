"""Tail bounds and local-lemma feasibility checks, evaluated in log-space.

Everything here is pure arithmetic: binomial tail estimates, the derived
sampling constants (lam, M, p), the concentration constant c0, and the
asymmetric local-lemma inequalities that certify the randomized deletion
stages at sufficiently large max degree. Quantities that underflow linear
floats (for example (e*lam/M)**M at M = 268) are kept as logarithms.
"""

from __future__ import annotations

import decimal
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .graphs import _integer

Real = Union[int, float, Fraction]

LN2 = math.log(2.0)
LN3 = math.log(3.0)

# below this, 1 - exp(x) loses nothing to the first-order series
_SERIES_CUTOFF = math.log(1e-9)


class DomainError(ValueError):
    """Arguments outside the validity range of a bound."""


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one numeric evaluation.

    value is the linear-space result when it is representable (None when it
    underflows or is not meaningful); log_value is the log-space result;
    feasible is set by checks that can fail; notes explain anything
    surprising; details carries intermediate quantities for inspection.
    """

    inputs: dict
    value: float | None
    log_value: float | None
    feasible: bool | None
    notes: tuple[str, ...]
    details: dict


@dataclass(frozen=True)
class DerivedConstants:
    """Sampling constants for a given max degree."""

    lam: float
    M: int
    p: float


def _mean(n: int, p: Real) -> tuple[Fraction, float, float]:
    """n*p exactly, and n*p and ln(n*p) as floats, the log finite even where
    n*p underflows; DomainError naming n*p where it overflows."""
    n = _integer("n", n, DomainError)
    if n < 1:
        raise DomainError("n must be a positive integer")
    if not 0 < p < 1:
        raise DomainError("p must lie strictly between 0 and 1")
    mean = n * Fraction(p)
    if mean > sys.float_info.max:
        raise DomainError("n*p is too large: it must be a finite float")
    np_ = float(mean)
    return mean, np_, (math.log(np_) if np_ >= sys.float_info.min
                       else math.log(mean.numerator) - math.log(mean.denominator))


def _show(mean: Fraction) -> str:
    """n*p for a message: the float, or six significant digits where the
    float would lose them to underflow, so a positive mean never reads 0."""
    if mean >= sys.float_info.min:
        return repr(float(mean))
    with decimal.localcontext(decimal.Context(prec=6, Emin=decimal.MIN_EMIN)):
        return format(decimal.Decimal(mean.numerator) / mean.denominator, "g")


def binom_upper_tail_log(n: int, p: Real, m: int) -> float:
    """ln of the upper-tail bound exp(m - n*p) * (n*p/m)**m.

    Bounds P[Binomial(n, p) >= m]; valid for n*p < m < n, its log a finite float.
    """
    mean, np_, ln_np = _mean(n, p)
    m = _integer("m", m, DomainError)
    if not mean < m < n:
        raise DomainError(f"m must satisfy n*p < m < n, got m={m} with n*p={_show(mean)}")
    log_bound = -math.inf
    if m <= sys.float_info.max:
        # ln(n*p/m) as log1p of the exact gap 1 - n*p/m: near 1, the
        # difference of two float logs loses every digit once m nears 2**53
        gap = (m - mean) / m
        ln_ratio = (math.log1p(-float(gap)) if gap <= Fraction(1, 2)
                    else ln_np - math.log(m))
        log_bound = float(m - mean) + m * ln_ratio
    if log_bound == -math.inf:
        raise DomainError("m is too large for n*p: the log bound leaves float range")
    return log_bound


def binom_lower_tail_log(n: int, p: Real, m: int) -> float:
    """ln of the lower-tail bound exp(-(m - n*p)**2 / (2*n*p)).

    Bounds P[Binomial(n, p) <= m]; valid for 0 < m < n*p, n*p a finite float.
    """
    mean, np_, _ = _mean(n, p)
    m = _integer("m", m, DomainError)
    if not 0 < m < mean:
        raise DomainError(f"m must satisfy 0 < m < n*p, got m={m} with n*p={_show(mean)}")
    gap = float(mean - m)
    try:
        return -(gap ** 2) / (2.0 * np_)
    except OverflowError:  # the square leaves float range, the bound does not
        return -(gap / 2.0) * (gap / np_)


def derive_constants(m: int, d: int, eps: Real, delta: int,
                     lam: Real | None = None, M: int | None = None) -> DerivedConstants:
    """Sampling constants: lam = 2(1+sqrt 2)(m + ln(3/eps)), M = ceil(2e lam),
    and the per-edge probability p = min(1, lam/delta).

    lam and M override the derived values: M follows an overridden lam as
    ceil(2e lam) unless M is given too. An overridden lam must be positive
    with 2e lam finite, M or no M; m and eps then need not fit a float.
    PipelineParams and the bounds CLI apply the overrides by calling here.
    """
    m, d = _integer("m", m, DomainError), _integer("d", d, DomainError)
    if d < 1 or m < d + 4:
        raise DomainError(f"need d >= 1 and m >= d+4, got m={m}, d={d}")
    if not 0 < eps < 1:
        raise DomainError("eps must lie strictly between 0 and 1")
    delta = _integer("delta", delta, DomainError)
    if delta < 1:
        raise DomainError("delta must be at least 1")
    if lam is None:
        eps_f = float(eps)
        if eps_f == 0 or 3.0 / eps_f == math.inf:
            raise DomainError("eps is too small: 3/eps overflows a float")
        unbounded = "m is too large: M = ceil(2e*lam) overflows a float"
        try:
            lam = 2.0 * (1.0 + math.sqrt(2.0)) * (m + math.log(3.0 / eps_f))
        except OverflowError:
            lam = math.inf
    elif isinstance(lam, bool) or not isinstance(lam, numbers.Real):
        raise DomainError(f"lam override must be a real number, got {lam!r}")
    else:
        unbounded = f"lam override must be positive with 2e*lam finite, got {lam!r}"
        try:
            lam = float(lam)
        except OverflowError:
            lam = math.inf
    if not (lam > 0 and math.isfinite(2.0 * math.e * lam)):
        raise DomainError(unbounded)
    if M is None:
        M = math.ceil(2.0 * math.e * lam)
    else:
        try:
            M = _integer("M", M)
        except ValueError:
            M = 0  # not an integer: rejected below with the non-positive ones
        if M < 1:
            raise DomainError("M override must be a positive integer")
    try:
        p = min(1.0, lam / delta)
    except OverflowError:  # an integer delta beyond float range
        p = float(Fraction(lam) / delta)
    return DerivedConstants(lam=lam, M=M, p=p)


def compute_c0(m: int, eps: Real, lam: float, M: int) -> BoundReport:
    """The concentration constant c0 = 3/(8 eps) * min of three deficit terms.

    Each deficit subtracts a tail bound from eps/3; the three tails cover the
    ways a vertex can end up with fewer than m selected edges: its raw sample
    count overflowing the cap, edges lost to capped neighbours, and plain
    undersampling. A non-positive deficit makes the constant meaningless and
    is reported as infeasible rather than raised.
    """
    m, M = _integer("m", m, DomainError), _integer("M", M, DomainError)
    if m < 1 or M < 1:
        raise DomainError("m and M must be positive integers")
    if not 0 < eps < 1:
        raise DomainError("eps must lie strictly between 0 and 1")
    if not 0 < lam < math.inf:
        raise DomainError(f"lam must be positive and finite, got {lam}")
    try:
        divisors = (float(M), float(M) ** 3, float(m))
    except OverflowError:
        raise DomainError("m or M is too large: m and M**3 must be finite floats") from None
    eps_f = float(eps)
    third = eps_f / 3.0
    ln_lam, ln_m_cap = math.log(lam), math.log(M)
    # tails in log-space; each exponentiation may harmlessly underflow to 0
    ln_tail_cap = (M - lam / 2.0) + M * (ln_lam - ln_m_cap)
    ln_tail_neighbour = ln_lam - lam / 2.0 + M * (1.0 + ln_lam - ln_m_cap)
    shortfall = m - lam / 2.0
    try:
        ln_tail_under = -(shortfall ** 2) / lam
    except OverflowError:  # the square leaves float range, the quotient may not
        ln_tail_under = -shortfall * (shortfall / lam)
    names = ("cap-excess", "neighbour-cap-loss", "undersample")
    ln_tails = (ln_tail_cap, ln_tail_neighbour, ln_tail_under)
    deficits = tuple(third - math.exp(min(lt, 700.0)) for lt in ln_tails)
    notes = ["the undersample tail uses the squared-exponent lower-tail form"]
    details = {"deficits": dict(zip(names, deficits)),
               "ln_tails": dict(zip(names, ln_tails))}
    inputs = {"m": m, "eps": eps, "lam": lam, "M": M}
    failing = [name for name, t in zip(names, deficits) if t <= 0]
    if failing:
        notes.append(f"non-positive deficit for case {failing[0]}; c0 undefined")
        return BoundReport(inputs=inputs, value=None, log_value=None,
                           feasible=False, notes=tuple(notes), details=details)
    candidates = [t * t / dv for t, dv in zip(deficits, divisors)]
    c0 = (3.0 / (8.0 * eps_f)) * min(candidates)
    if c0 == 0.0:
        raise DomainError("eps is too small for m and M: c0 underflows a float")
    details["dominant"] = names[candidates.index(min(candidates))]
    return BoundReport(inputs=inputs, value=c0, log_value=math.log(c0),
                       feasible=True, notes=tuple(notes), details=details)


def _pow_log1m(exponent: int, ln_delta: float, ln_scale: float) -> float:
    """delta**exponent * ln(1 - gamma) for gamma = exp(ln_scale) / delta**5.

    For tiny gamma the first-order series -delta**exponent * gamma is exact
    to within 1e-9 relative error. Its exponent is taken with the ln_delta
    terms already cancelled, ln_scale + (exponent - 5) * ln_delta, so it
    neither overflows nor loses them to rounding.
    """
    ln_gamma = ln_scale - 5.0 * ln_delta
    if ln_gamma < _SERIES_CUTOFF:
        return -math.exp(ln_scale + (exponent - 5) * ln_delta)
    return math.exp(exponent * ln_delta) * math.log1p(-math.exp(ln_gamma))


def lll_asymmetric_check(m: int, d: int, eps: Real, lam: float, M: int,
                         delta: float | None = None,
                         ln_delta: float | None = None) -> BoundReport:
    """Check the two weighted local-lemma inequalities at one max degree.

    With gamma1 = ln(delta)/delta**5 and gamma2 = 1/delta**5, the deletion
    stage is certified when both
        gamma1 * (1-gamma1)**delta**4 * (1-gamma2)**delta**4
            >= 2**(2M+d) * (lam/delta)**(m-d+1)   and
        gamma2 * (1-gamma1)**delta**5 * (1-gamma2)**delta**5
            >= 3 * exp(-c0 * delta)
    hold. Margins are differences of logarithms with the ln_delta terms
    cancelled exactly: the pair margin is ln ln delta + (m-d-4) ln delta
    + delta**4 ln((1-gamma1)(1-gamma2)) - (2M+d) ln 2 - (m-d+1) ln lam, and
    the vertex margin is +inf once c0*delta overflows a float. delta may be
    supplied as ln_delta for magnitudes far beyond float range.
    """
    m, d, M = (_integer(name, value, DomainError)
               for name, value in (("m", m), ("d", d), ("M", M)))
    if (delta is None) == (ln_delta is None):
        raise DomainError("supply exactly one of delta or ln_delta")
    if ln_delta is None:
        if not 2 <= delta < math.inf:
            raise DomainError(f"delta must be finite and at least 2, got {delta}")
        ln_delta = math.log(delta)
    elif not LN2 <= ln_delta < math.inf:
        raise DomainError(f"ln_delta must be finite and at least ln 2, got {ln_delta}")
    if m - d + 1 < 5:
        raise DomainError(f"need m - d + 1 >= 5, got m={m}, d={d}")
    inputs = {"m": m, "d": d, "eps": eps, "lam": lam, "M": M,
              "ln_delta": ln_delta}
    c0_report = compute_c0(m, eps, lam, M)
    if not c0_report.feasible:
        notes = ("c0 infeasible; inequalities cannot be evaluated",) + c0_report.notes
        return BoundReport(inputs=inputs, value=None, log_value=None,
                           feasible=False, notes=notes,
                           details={"c0": c0_report.details})
    c0 = c0_report.value
    ln_ln_delta = math.log(ln_delta)
    ln_gamma1 = ln_ln_delta - 5.0 * ln_delta
    ln_gamma2 = -5.0 * ln_delta
    shrink4 = _pow_log1m(4, ln_delta, ln_ln_delta) + _pow_log1m(4, ln_delta, 0.0)
    shrink5 = _pow_log1m(5, ln_delta, ln_ln_delta) + _pow_log1m(5, ln_delta, 0.0)
    margin_pair = (ln_ln_delta + (m - d - 4) * ln_delta + shrink4
                   - (2 * M + d) * LN2 - (m - d + 1) * math.log(lam))
    try:
        margin_vertex = (ln_gamma2 + shrink5) - (LN3 - c0 * math.exp(ln_delta))
    except OverflowError:  # c0*delta outgrows every other term
        margin_vertex = math.inf
    feasible = margin_pair >= 0 and margin_vertex >= 0
    notes = []
    if margin_pair < 0:
        notes.append("pair-event inequality fails at this delta")
    if margin_vertex < 0:
        notes.append("vertex-event inequality fails at this delta")
    details = {"margin_pair": margin_pair, "margin_vertex": margin_vertex,
               "ln_gamma1": ln_gamma1, "ln_gamma2": ln_gamma2, "c0": c0}
    return BoundReport(inputs=inputs, value=None,
                       log_value=min(margin_pair, margin_vertex),
                       feasible=feasible, notes=tuple(notes), details=details)


def find_feasible_delta(m: int, d: int, eps: Real, lam: float, M: int,
                        lo_ln_delta: float, hi_ln_delta: float) -> BoundReport:
    """Smallest ln(delta) in [lo, hi] where both inequalities hold, by
    bisection on ln(ln delta).

    Assumes (and spot-checks) that feasibility is monotone over the supplied
    range: infeasible at lo, feasible at hi. Each geometric midpoint halves
    the bracket's log-ratio, so any float bracket closes to adjacent floats
    in about 60 steps, returned in details["ln_delta_star"].
    """
    if not LN2 <= lo_ln_delta < hi_ln_delta < math.inf:
        raise DomainError("need ln2 <= lo_ln_delta < hi_ln_delta, both finite")

    def feasible_at(ld: float) -> bool:
        return bool(lll_asymmetric_check(m, d, eps, lam, M, ln_delta=ld).feasible)

    inputs = {"m": m, "d": d, "eps": eps, "lam": lam, "M": M,
              "lo_ln_delta": lo_ln_delta, "hi_ln_delta": hi_ln_delta}
    c0_report = compute_c0(m, eps, lam, M)
    if not c0_report.feasible:
        return BoundReport(inputs=inputs, value=None, log_value=None,
                           feasible=False,
                           notes=("c0 infeasible; no delta can certify",),
                           details={"c0": c0_report.details})
    if feasible_at(lo_ln_delta):
        return BoundReport(inputs=inputs, value=None, log_value=lo_ln_delta,
                           feasible=True,
                           notes=("already feasible at the lower end",),
                           details={"ln_delta_star": lo_ln_delta})
    if not feasible_at(hi_ln_delta):
        return BoundReport(inputs=inputs, value=None, log_value=None,
                           feasible=False,
                           notes=("infeasible across the whole range",),
                           details={})
    lo, hi = lo_ln_delta, hi_ln_delta
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            break
        if feasible_at(mid):
            hi = mid
        else:
            lo = mid
    return BoundReport(inputs=inputs, value=None, log_value=hi, feasible=True,
                       notes=(), details={"ln_delta_star": hi,
                                          "bracket": (lo, hi)})
