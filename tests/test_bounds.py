"""Tail bounds, derived constants, and local-lemma checks.

mpmath recomputes every closed-form formula at 60 significant digits; the
Fraction helpers sum binomial probabilities exactly. Both are independent
of the library's log-space evaluation path.
"""

import math
import sys
from dataclasses import astuple
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avdtotal import (DomainError, binom_lower_tail_log, binom_upper_tail_log,
                      compute_c0, derive_constants, find_feasible_delta,
                      lll_asymmetric_check)

from helpers import exact_lower_tail, exact_upper_tail

mpmath.mp.dps = 60

# thresholds ln(delta*) of the local-lemma check at m = 8, d = 4, eps = 1/3,
# where the oracle's pair margin changes sign (TestLllOracle)
THRESHOLD_34_81 = 4.24985258040472e57             # lam = 34, M = 81
THRESHOLD_DERIVED = 1.04144414750093e171          # derived lam, M = 268


class TestUpperTail:
    def test_frozen_value(self):
        got = math.exp(binom_upper_tail_log(100, Fraction(1, 10), 20))
        assert got == pytest.approx(0.021006074709708094, rel=1e-12)

    def test_matches_mpmath_formula(self):
        for n, p, m in [(100, 0.1, 20), (50, 0.3, 25), (1000, 0.01, 30)]:
            np_ = mpmath.mpf(n) * mpmath.mpf(p)
            expected = mpmath.exp(m - np_) * (np_ / m) ** m
            got = math.exp(binom_upper_tail_log(n, p, m))
            assert got == pytest.approx(float(expected), rel=1e-12)

    def test_dominates_exact_tail(self):
        for n in (5, 20, 60):
            for num in (1, 3, 7):
                p = Fraction(num, 10)
                lo = math.floor(n * p) + 1
                for m in range(max(lo, 1), n):
                    bound = math.exp(binom_upper_tail_log(n, p, m))
                    assert bound + 1e-12 >= float(exact_upper_tail(n, p, m))

    @pytest.mark.parametrize("n,p,m", [
        (0, Fraction(1, 2), 1),
        (10, Fraction(0), 5),
        (10, Fraction(1), 5),
        (10, Fraction(1, 2), 5),   # m == n*p
        (10, Fraction(1, 2), 10),  # m == n
        (10, Fraction(1, 2), 3),   # m < n*p
    ])
    def test_domain(self, n, p, m):
        with pytest.raises(DomainError):
            binom_upper_tail_log(n, p, m)


class TestLowerTail:
    def test_frozen_value(self):
        # (40 - 50)^2 / (2 * 50) = 1 exactly
        assert binom_lower_tail_log(100, Fraction(1, 2), 40) == pytest.approx(-1.0)
        got = math.exp(binom_lower_tail_log(100, Fraction(1, 2), 40))
        assert got == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_matches_mpmath_formula(self):
        for n, p, m in [(100, 0.5, 40), (200, 0.4, 60), (1000, 0.9, 850)]:
            np_ = mpmath.mpf(n) * mpmath.mpf(p)
            expected = mpmath.exp(-((m - np_) ** 2) / (2 * np_))
            got = math.exp(binom_lower_tail_log(n, p, m))
            assert got == pytest.approx(float(expected), rel=1e-12)

    def test_dominates_exact_tail(self):
        for n in (10, 40, 90):
            for num in (3, 5, 9):
                p = Fraction(num, 10)
                hi = math.ceil(n * p) - 1
                for m in range(1, hi + 1):
                    bound = math.exp(binom_lower_tail_log(n, p, m))
                    assert bound + 1e-12 >= float(exact_lower_tail(n, p, m))

    @pytest.mark.parametrize("n,p,m", [
        (10, Fraction(1, 2), 0),
        (10, Fraction(1, 2), 5),   # m == n*p
        (10, Fraction(1, 2), 7),   # m > n*p
        (10, Fraction(0), 1),
    ])
    def test_domain(self, n, p, m):
        with pytest.raises(DomainError):
            binom_lower_tail_log(n, p, m)


class TestDeriveConstants:
    def test_frozen_defaults(self):
        dc = derive_constants(8, 4, Fraction(1, 3), 100)
        assert dc.lam == pytest.approx(49.23655574633871, abs=1e-3)
        assert dc.M == 268
        assert dc.p == pytest.approx(dc.lam / 100.0, rel=1e-12)

    def test_matches_mpmath_formula(self):
        dc = derive_constants(8, 4, Fraction(1, 3), 100)
        lam = 2 * (1 + mpmath.sqrt(2)) * (8 + mpmath.log(9))
        assert dc.lam == pytest.approx(float(lam), rel=1e-12)
        assert dc.M == int(mpmath.ceil(2 * mpmath.e * lam))

    def test_p_saturates_below_lam(self):
        assert derive_constants(8, 4, Fraction(1, 3), 10).p == 1.0

    def test_monotone_in_m(self):
        lams = [derive_constants(m, 4, Fraction(1, 3), 100).lam
                for m in range(8, 20)]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_monotone_in_eps(self):
        tight = derive_constants(8, 4, Fraction(1, 100), 100).lam
        loose = derive_constants(8, 4, Fraction(1, 2), 100).lam
        assert tight > loose

    @pytest.mark.parametrize("kwargs", [
        dict(m=7, d=4, eps=Fraction(1, 3), delta=10),   # m < d + 4
        dict(m=8, d=0, eps=Fraction(1, 3), delta=10),
        dict(m=8, d=4, eps=Fraction(0), delta=10),
        dict(m=8, d=4, eps=Fraction(1), delta=10),
        dict(m=8, d=4, eps=Fraction(1, 3), delta=0),
    ])
    def test_domain(self, kwargs):
        with pytest.raises(DomainError):
            derive_constants(**kwargs)

    @pytest.mark.parametrize("field,kwargs", [
        ("m", dict(m=10 ** 400)),                # not a float at all
        ("m", dict(m=10 ** 308)),                # a float, but 2e*lam is not
        ("eps", dict(eps=Fraction(1, 10 ** 400))),  # a float only as 0.0
        ("eps", dict(eps=Fraction(1, 10 ** 310))),  # 3/eps overflows
    ])
    def test_beyond_float_range_names_field(self, field, kwargs):
        args = dict(m=8, d=4, eps=Fraction(1, 3), delta=10) | kwargs
        with pytest.raises(DomainError, match=f"^{field} "):
            derive_constants(**args)

    def test_rejects_non_integer(self):
        with pytest.raises(DomainError):
            derive_constants(8.0, 4, Fraction(1, 3), 10)

    def test_lam_override_moves_M(self):
        dc = derive_constants(8, 4, Fraction(1, 3), 100, lam=34)
        assert (dc.lam, dc.M, dc.p) == (34.0, 185, 0.34)
        assert type(dc.lam) is float
        assert dc.M == int(mpmath.ceil(2 * mpmath.e * 34))

    def test_M_override_keeps_derived_lam(self):
        dc = derive_constants(8, 4, Fraction(1, 3), 100, M=81)
        assert (dc.lam, dc.M) == (derive_constants(8, 4, Fraction(1, 3), 100).lam, 81)

    def test_M_override_takes_numpy_integers(self):
        dc = derive_constants(8, 4, Fraction(1, 3), 100, M=np.int64(81))
        assert dc.M == 81 and type(dc.M) is int

    def test_both_overrides(self):
        dc = derive_constants(8, 4, Fraction(1, 3), 60, lam=25.0, M=30)
        assert (dc.lam, dc.M, dc.p) == (25.0, 30, 25.0 / 60.0)

    def test_lam_override_needs_no_float_m_or_eps(self):
        # lam is not derived, so neither m nor eps is converted to a float
        dc = derive_constants(10 ** 400, 4, Fraction(1, 10 ** 400), 10, lam=3.0)
        assert (dc.lam, dc.M, dc.p) == (3.0, 17, 0.3)

    @pytest.mark.parametrize("overrides, message", [
        (dict(lam=0.0), "lam override must be positive with 2e\\*lam finite, got 0.0"),
        (dict(lam=-0.5), "lam override must be positive"),
        (dict(lam=math.nan), "lam override must be positive"),
        (dict(lam=math.inf), "lam override must be positive"),
        (dict(lam=1e308), "lam override must be positive"),
        (dict(lam=1e308, M=5), "lam override must be positive"),
        (dict(lam=10 ** 400), "lam override must be positive"),
        (dict(lam=True), "lam override must be a real number, got True"),
        (dict(lam="3"), "lam override must be a real number, got '3'"),
        (dict(M=0), "M override must be a positive integer"),
        (dict(M=True), "M override must be a positive integer"),
        (dict(M=2.5), "M override must be a positive integer"),
        (dict(lam=3.0, M=-1), "M override must be a positive integer"),
    ])
    def test_rejects_overrides(self, overrides, message):
        with pytest.raises(DomainError, match=f"^{message}"):
            derive_constants(8, 4, Fraction(1, 3), 10, **overrides)

    @pytest.mark.parametrize("delta", [2 ** 1024, 10 ** 400])
    def test_integer_delta_beyond_float_range_evaluates(self, delta):
        # lam / delta raised OverflowError converting delta to a float
        dc = derive_constants(8, 4, Fraction(1, 3), delta)
        assert dc.lam == derive_constants(8, 4, Fraction(1, 3), 100).lam
        assert dc.p == float(mpmath.mpf(dc.lam) / delta)


class TestIntegerArguments:
    """Integer parameters reject floats and bools, naming the argument;
    each of these was once taken at face value."""

    @pytest.mark.parametrize("call,name,value", [
        (lambda: derive_constants(8, True, Fraction(1, 3), 5), "d", True),
        (lambda: compute_c0(8, 0.3, 40.0, 2.5), "M", 2.5),
        (lambda: lll_asymmetric_check(8.5, 4, Fraction(1, 3), 34.0, 81, delta=10),
         "m", 8.5),
        (lambda: binom_upper_tail_log(10.5, 0.1, 3), "n", 10.5),
        (lambda: derive_constants(8, 4, Fraction(1, 3), 5.5), "delta", 5.5),
        (lambda: derive_constants(8, 4, Fraction(1, 3), True), "delta", True),
        (lambda: binom_upper_tail_log(100, 0.1, 20.5), "m", 20.5),
        (lambda: binom_lower_tail_log(100, 0.5, 20.5), "m", 20.5),
    ], ids=["derive-d-bool", "c0-M-float", "lll-m-float", "tail-n-float",
            "derive-delta-float", "derive-delta-bool", "upper-tail-m-float",
            "lower-tail-m-float"])
    def test_rejected_naming_the_argument(self, call, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be an integer, got {value!r}$"):
            call()


class TestComputeC0:
    def test_frozen_default_value(self):
        rep = compute_c0(8, Fraction(1, 3), 49.23655574633871, 268)
        assert rep.feasible
        assert rep.value == pytest.approx(7.215445014476145e-10, rel=1e-9)
        assert rep.log_value == pytest.approx(math.log(rep.value), rel=1e-12)
        assert rep.details["dominant"] == "neighbour-cap-loss"

    def test_squared_exponent_note_always_present(self):
        rep = compute_c0(8, Fraction(1, 3), 49.23655574633871, 268)
        assert any("squared-exponent" in note for note in rep.notes)

    def test_matches_mpmath(self):
        m, eps, lam, M = 8, Fraction(1, 3), 49.23655574633871, 268
        lam_m = mpmath.mpf(lam)
        third = mpmath.mpf(1) / 9  # eps / 3
        t_cap = mpmath.exp((M - lam_m / 2) + M * (mpmath.log(lam_m) - mpmath.log(M)))
        t_nbr = mpmath.exp(mpmath.log(lam_m) - lam_m / 2
                           + M * (1 + mpmath.log(lam_m) - mpmath.log(M)))
        t_und = mpmath.exp(-((m - lam_m / 2) ** 2) / lam_m)
        cands = [(third - t_cap) ** 2 / M,
                 (third - t_nbr) ** 2 / mpmath.mpf(M) ** 3,
                 (third - t_und) ** 2 / m]
        expected = (mpmath.mpf(9) / 8) * min(cands)  # 3/(8*(1/3))
        rep = compute_c0(m, eps, lam, M)
        assert rep.value == pytest.approx(float(expected), rel=1e-9)

    def test_infeasible_names_failing_case(self):
        rep = compute_c0(8, Fraction(1, 3), 1.0, 1)
        assert rep.feasible is False
        assert rep.value is None and rep.log_value is None
        assert any("cap-excess" in note for note in rep.notes)
        assert rep.details["deficits"]["cap-excess"] <= 0

    @pytest.mark.parametrize("kwargs", [
        dict(m=0, eps=Fraction(1, 3), lam=10.0, M=50),
        dict(m=8, eps=Fraction(1, 3), lam=10.0, M=0),
        dict(m=8, eps=Fraction(0), lam=10.0, M=50),
        dict(m=8, eps=Fraction(1, 3), lam=0.0, M=50),
        dict(m=8, eps=Fraction(1, 3), lam=math.inf, M=50),
        dict(m=8, eps=Fraction(1, 3), lam=math.nan, M=50),
    ])
    def test_domain(self, kwargs):
        with pytest.raises(DomainError):
            compute_c0(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(m=10 ** 400, M=268),
        dict(m=8, M=10 ** 400),
        dict(m=8, M=10 ** 103),  # a float, but M**3 is not
    ])
    def test_beyond_float_range_names_field(self, kwargs):
        with pytest.raises(DomainError, match="^m or M "):
            compute_c0(eps=Fraction(1, 3), lam=49.0, **kwargs)

    def test_underflowing_c0_names_eps(self):
        # the squared deficit (eps/3)**2 underflows, so c0 is 0.0 and its
        # log raised a bare math domain error
        eps = Fraction(1, 10 ** 200)
        dc = derive_constants(8, 4, eps, 1)
        with pytest.raises(DomainError, match="^eps "):
            compute_c0(8, eps, dc.lam, dc.M)

    def test_huge_lam_evaluates(self):
        # (m - lam/2)**2 overflows a float; the tail's log, -2.5e299, does not
        rep = compute_c0(8, Fraction(1, 3), 1e300, 268)
        assert rep.feasible is True
        assert rep.details["ln_tails"]["undersample"] == pytest.approx(-2.5e299)
        lll = lll_asymmetric_check(8, 4, Fraction(1, 3), 1e300, 268, delta=100)
        assert lll.feasible is False and math.isfinite(lll.log_value)


class TestAsymmetricLll:
    def test_fails_at_small_delta_with_derived_constants(self):
        rep = lll_asymmetric_check(8, 4, Fraction(1, 3),
                                   49.23655574633871, 268, delta=10)
        assert rep.feasible is False
        assert rep.details["margin_pair"] == pytest.approx(-393.2788884703, abs=1e-6)
        assert rep.details["margin_vertex"] == pytest.approx(-15.9141543493, abs=1e-6)
        assert any("pair-event" in note for note in rep.notes)
        assert any("vertex-event" in note for note in rep.notes)

    def test_log_value_is_worst_margin(self):
        rep = lll_asymmetric_check(8, 4, Fraction(1, 3),
                                   49.23655574633871, 268, delta=10)
        assert rep.log_value == min(rep.details["margin_pair"],
                                    rep.details["margin_vertex"])

    def test_feasible_at_astronomic_delta(self):
        # ln delta = 3e17 read as feasible while the pair margin was lost to
        # float cancellation; its exact margin (see TestLllOracle) is -92.45
        low = lll_asymmetric_check(8, 4, Fraction(1, 3), 34.0, 81, ln_delta=3e17)
        assert low.feasible is False
        assert low.details["margin_pair"] == pytest.approx(-92.4516757265, abs=1e-9)
        rep = lll_asymmetric_check(8, 4, Fraction(1, 3), 34.0, 81,
                                   ln_delta=1e60)
        assert rep.feasible is True
        assert rep.notes == ()

    def test_exactly_one_delta_form(self):
        with pytest.raises(DomainError):
            lll_asymmetric_check(8, 4, Fraction(1, 3), 34.0, 81)
        with pytest.raises(DomainError):
            lll_asymmetric_check(8, 4, Fraction(1, 3), 34.0, 81,
                                 delta=10, ln_delta=2.0)

    def test_delta_domain(self):
        with pytest.raises(DomainError):
            lll_asymmetric_check(8, 4, Fraction(1, 3), 34.0, 81, delta=1)
        with pytest.raises(DomainError):
            lll_asymmetric_check(8, 4, Fraction(1, 3), 34.0, 81, ln_delta=0.5)

    @pytest.mark.parametrize("kwargs", [
        dict(delta=math.inf), dict(delta=math.nan),
        dict(ln_delta=math.inf), dict(ln_delta=math.nan)])
    def test_non_finite_delta(self, kwargs):
        with pytest.raises(DomainError, match="finite"):
            lll_asymmetric_check(8, 4, Fraction(1, 3), 34.0, 81, **kwargs)

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            lll_asymmetric_check(8, 5, Fraction(1, 3), 34.0, 81, delta=10)

    def test_c0_infeasibility_propagates(self):
        rep = lll_asymmetric_check(8, 4, Fraction(1, 3), 1.0, 1, delta=10)
        assert rep.feasible is False
        assert any("c0 infeasible" in note for note in rep.notes)

    def test_delta_and_ln_delta_agree(self):
        a = lll_asymmetric_check(8, 4, Fraction(1, 3), 34.0, 81, delta=1e6)
        b = lll_asymmetric_check(8, 4, Fraction(1, 3), 34.0, 81,
                                 ln_delta=math.log(1e6))
        assert a.details["margin_pair"] == pytest.approx(
            b.details["margin_pair"], rel=1e-12)
        assert a.details["margin_vertex"] == pytest.approx(
            b.details["margin_vertex"], rel=1e-12)


class TestFindFeasibleDelta:
    def test_threshold_for_moderate_constants(self):
        rep = find_feasible_delta(8, 4, Fraction(1, 3), 34.0, 81,
                                  math.log(2.0), 1e60)
        assert rep.feasible is True
        star = rep.details["ln_delta_star"]
        assert star == pytest.approx(THRESHOLD_34_81, rel=1e-6)
        assert lll_asymmetric_check(8, 4, Fraction(1, 3), 34.0, 81,
                                    ln_delta=star).feasible
        assert not lll_asymmetric_check(8, 4, Fraction(1, 3), 34.0, 81,
                                        ln_delta=star * 0.98).feasible

    def test_derived_constants_eventually_feasible(self):
        rep = find_feasible_delta(8, 4, Fraction(1, 3), 49.23655574633871, 268,
                                  math.log(2.0), 1e200)
        assert rep.feasible is True
        assert math.log10(rep.details["ln_delta_star"]) == pytest.approx(
            171.0176, abs=1e-3)

    def test_feasible_at_lower_end(self):
        # 1e18 lies below the threshold: its exact pair margin is -91.25
        rep = find_feasible_delta(8, 4, Fraction(1, 3), 34.0, 81, 1e58, 1e60)
        assert rep.feasible is True
        assert any("lower end" in note for note in rep.notes)
        assert rep.details["ln_delta_star"] == 1e58

    def test_infeasible_across_range(self):
        rep = find_feasible_delta(8, 4, Fraction(1, 3), 34.0, 81,
                                  math.log(2.0), 100.0)
        assert rep.feasible is False
        assert any("whole range" in note for note in rep.notes)

    def test_c0_infeasibility_short_circuits(self):
        rep = find_feasible_delta(8, 4, Fraction(1, 3), 1.0, 1,
                                  math.log(2.0), 1e20)
        assert rep.feasible is False
        assert any("no delta" in note for note in rep.notes)

    def test_bad_bracket(self):
        with pytest.raises(DomainError):
            find_feasible_delta(8, 4, Fraction(1, 3), 34.0, 81, 10.0, 5.0)

    @pytest.mark.parametrize("lo,hi", [(1.0, math.inf), (math.nan, 5.0), (1.0, math.nan)])
    def test_non_finite_bracket(self, lo, hi):
        with pytest.raises(DomainError):
            find_feasible_delta(8, 4, Fraction(1, 3), 34.0, 81, lo, hi)


def lll_oracle(m, d, lam, M, c0, ln_delta):
    """(pair margin, vertex margin): ln(left side) - ln(right side) of the
    two inequalities in lll_asymmetric_check's docstring, at 420 digits,
    with delta = exp(ln_delta) and both gammas formed explicitly. Each side
    is logged factor by factor, since powers like (1 - gamma)**delta**4
    and exp(-c0 * delta) have no representable value once delta is
    astronomic; nothing is cancelled by hand."""
    with mpmath.workdps(420):
        delta = mpmath.exp(mpmath.mpf(ln_delta))
        gamma1 = mpmath.log(delta) / delta ** 5
        gamma2 = 1 / delta ** 5
        ln1m = mpmath.log(1 - gamma1), mpmath.log(1 - gamma2)
        pair = (mpmath.log(gamma1) + delta ** 4 * sum(ln1m)
                - ((2 * M + d) * mpmath.log(2) + (m - d + 1) * mpmath.log(lam / delta)))
        vertex = (mpmath.log(gamma2) + delta ** 5 * sum(ln1m)
                  - (mpmath.log(3) - mpmath.mpf(c0) * delta))
        return pair, vertex


def agrees(got: float, want) -> bool:
    """got within relative 1e-9 of the oracle's want (absolute near zero);
    a want beyond float range must be the infinity of its sign."""
    if abs(want) > sys.float_info.max:
        return got == math.copysign(math.inf, want)
    return abs(got - float(want)) <= 1e-9 * max(1.0, abs(float(want)))


# ln(delta) from ln 2 to 1e308, log-spaced
LN_DELTA_SWEEP = [math.log(2.0) * (1e308 / math.log(2.0)) ** (i / 80) for i in range(81)]

ORACLE_SHAPES = [(8, 4, 34.0, 81),
                 (8, 4, *astuple(derive_constants(8, 4, Fraction(1, 3), 1))[:2]),
                 (10, 4, *astuple(derive_constants(10, 4, Fraction(1, 3), 1))[:2])]

THRESHOLDS = [(34.0, 81, THRESHOLD_34_81), (49.23655574633871, 268, THRESHOLD_DERIVED)]


class TestLllOracle:
    """lll_asymmetric_check and find_feasible_delta against 420-digit
    evaluation of the inequalities, from ln(delta) = ln 2 to 1e308."""

    @pytest.mark.parametrize("m,d,lam,M", ORACLE_SHAPES)
    def test_margins_and_verdicts_over_sweep(self, m, d, lam, M):
        c0 = compute_c0(m, Fraction(1, 3), lam, M).value
        for ln_delta in LN_DELTA_SWEEP:
            rep = lll_asymmetric_check(m, d, Fraction(1, 3), lam, M, ln_delta=ln_delta)
            pair, vertex = lll_oracle(m, d, lam, M, c0, ln_delta)
            assert agrees(rep.details["margin_pair"], pair), ln_delta
            assert agrees(rep.details["margin_vertex"], vertex), ln_delta
            assert rep.feasible == (pair >= 0 and vertex >= 0), ln_delta

    @pytest.mark.parametrize("lam,M,star", THRESHOLDS)
    def test_pinned_thresholds_bracket_the_sign_change(self, lam, M, star):
        c0 = compute_c0(8, Fraction(1, 3), lam, M).value
        below, _ = lll_oracle(8, 4, lam, M, c0, star * (1 - 1e-6))
        above, vertex = lll_oracle(8, 4, lam, M, c0, star * (1 + 1e-6))
        assert below < 0 < above and vertex > 0

    @pytest.mark.parametrize("hi", [1e200, 1e308])
    @pytest.mark.parametrize("lam,M,star", THRESHOLDS)
    def test_search_finds_threshold(self, lam, M, star, hi):
        # halving ln(delta) itself stopped short on these wide brackets
        rep = find_feasible_delta(8, 4, Fraction(1, 3), lam, M, math.log(2.0), hi)
        assert rep.feasible is True
        assert rep.details["ln_delta_star"] == pytest.approx(star, rel=1e-6)


class TestTailBeyondFloatRange:
    """n*p beyond float range: evaluated where the log bound is a finite
    float, else a DomainError naming the field."""

    @pytest.mark.parametrize("tail", [binom_upper_tail_log, binom_lower_tail_log])
    def test_overflowing_mean_names_it(self, tail):
        # float(n * p) raised OverflowError
        with pytest.raises(DomainError, match=r"^n\*p "):
            tail(10 ** 400, Fraction(1, 2), 5)

    def test_underflowing_mean_keeps_finite_log(self):
        # n*p = 1e-398 is 0.0 as a float, whose log raised a bare math
        # domain error; the log bound is about -4585
        got = binom_upper_tail_log(100, Fraction(1, 10 ** 400), 5)
        mean = mpmath.mpf(100) / mpmath.mpf(10) ** 400
        assert got == pytest.approx(float(5 - mean + 5 * mpmath.log(mean / 5)),
                                    rel=1e-12)

    def test_underflowing_mean_lower_tail_is_out_of_domain(self):
        with pytest.raises(DomainError, match="^m must satisfy"):
            binom_lower_tail_log(100, Fraction(1, 10 ** 400), 5)

    def test_huge_mean_lower_tail_evaluates(self):
        # (m - n*p)**2 overflows a float; the bound, about -n*p/2, does not
        got = binom_lower_tail_log(10 ** 300, Fraction(1, 2), 5)
        assert got == pytest.approx(-2.5e299, rel=1e-12)

    @pytest.mark.parametrize("n,p,m", [
        (10 ** 310, Fraction(1, 10 ** 300), 10 ** 308),  # the bound is below -1e310
        (10 ** 401, Fraction(1, 10 ** 399), 10 ** 400),  # m is not a float
    ], ids=["bound-below-float-range", "m-beyond-float-range"])
    def test_upper_bound_beyond_float_range_names_m(self, n, p, m):
        with pytest.raises(DomainError, match="^m is too large"):
            binom_upper_tail_log(n, p, m)


def oracle_upper_log(mean: Fraction, m: int):
    mu = mpmath.mpf(mean.numerator) / mean.denominator
    return (m - mu) + m * mpmath.log(mu / m)


def oracle_lower_log(mean: Fraction, m: int):
    mu = mpmath.mpf(mean.numerator) / mean.denominator
    return -((m - mu) ** 2) / (2 * mu)


class TestTailExactMean:
    """Both tails compare m with the exact n*p, not with its rounded float,
    and report n*p in their messages without rounding it to 0."""

    # n*p = 5 - 1e-17 and 5 + 1e-17; both round to the float 5.0
    BELOW = (10 ** 18, Fraction(5 * 10 ** 17 - 1, 10 ** 35))
    ABOVE = (10 ** 18, Fraction(5 * 10 ** 17 + 1, 10 ** 35))

    def test_mean_just_below_m_is_in_the_upper_domain(self):
        n, p = self.BELOW
        assert float(n * p) == 5.0
        got = binom_upper_tail_log(n, p, 5)
        assert got <= 0.0
        assert got == pytest.approx(float(oracle_upper_log(n * p, 5)), abs=1e-30)

    def test_mean_just_above_m_is_in_the_lower_domain(self):
        n, p = self.ABOVE
        got = binom_lower_tail_log(n, p, 5)
        assert got <= 0.0
        assert got == pytest.approx(float(oracle_lower_log(n * p, 5)), abs=1e-30)

    @pytest.mark.parametrize("tail,case", [
        (binom_upper_tail_log, ABOVE), (binom_lower_tail_log, BELOW)])
    def test_wrong_side_of_m_rejected(self, tail, case):
        with pytest.raises(DomainError, match=r"^m must satisfy .* n\*p=5\.0$"):
            tail(*case, 5)

    def test_mean_above_m_rounding_below_it_rejected(self):
        # n*p = 2**54 + 1.5 rounds to the float 2**54, below m = 2**54 + 1
        n, p, m = 2 ** 56, Fraction(2 ** 55 + 3, 2 ** 57), 2 ** 54 + 1
        assert float(n * p) < m < n * p
        with pytest.raises(DomainError, match="^m must satisfy n"):
            binom_upper_tail_log(n, p, m)
        got = binom_lower_tail_log(n, p, m)
        assert got == pytest.approx(float(oracle_lower_log(n * p, m)), abs=1e-15)

    @pytest.mark.parametrize("tail", [binom_upper_tail_log, binom_lower_tail_log])
    def test_underflowing_mean_printed_nonzero(self, tail):
        m = 5 if tail is binom_lower_tail_log else 100
        with pytest.raises(DomainError, match=r"n\*p=1e-398$"):
            tail(100, Fraction(1, 10 ** 400), m)

    def test_subnormal_mean_keeps_its_digits(self):
        with pytest.raises(DomainError, match=r"n\*p=1\.23457e-315$"):
            binom_lower_tail_log(123456789, Fraction(1, 10 ** 323), 5)

    @given(st.integers(2 ** 50, 2 ** 62), st.integers(1, 2 ** 30), st.integers(0, 15))
    @settings(max_examples=200, deadline=None)
    def test_upper_log_near_m_beyond_2_53(self, m, off, frac):
        # the difference of the float logs of n*p and m cancelled, and put
        # the log bound tens of units below the true one. What is left is
        # rounding in the two terms of size m - n*p, which nearly cancel
        n = 2 ** 64
        p = Fraction((m - off) * 16 - frac, 16 * n)
        truth = oracle_upper_log(n * p, m)
        got = binom_upper_tail_log(n, p, m)
        assert abs(got - truth) <= 1e-15 * (m - n * p) + 1e-9 * abs(truth)


@given(st.integers(2, 200), st.integers(1, 99))
@settings(max_examples=100, deadline=None)
def test_upper_tail_dominates_randomized(n, pnum):
    p = Fraction(pnum, 100)
    lo = math.floor(n * p) + 1
    if lo >= n:
        return
    m = lo
    bound = math.exp(binom_upper_tail_log(n, p, m))
    assert bound + 1e-12 >= float(exact_upper_tail(n, p, m))
