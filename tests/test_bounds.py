"""Tail bounds, derived constants, and local-lemma checks.

mpmath recomputes every closed-form formula at 60 significant digits; the
Fraction helpers sum binomial probabilities exactly. Both are independent
of the library's log-space evaluation path.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avdtotal import (DomainError, binom_lower_tail_bound,
                      binom_lower_tail_log, binom_upper_tail_bound,
                      binom_upper_tail_log, compute_c0, derive_constants,
                      find_feasible_delta, lll_asymmetric_check)

from helpers import exact_lower_tail, exact_upper_tail

mpmath.mp.dps = 60


class TestUpperTail:
    def test_frozen_value(self):
        assert binom_upper_tail_bound(100, Fraction(1, 10), 20) == pytest.approx(
            0.021006074709708094, rel=1e-12)

    def test_matches_mpmath_formula(self):
        for n, p, m in [(100, 0.1, 20), (50, 0.3, 25), (1000, 0.01, 30)]:
            np_ = mpmath.mpf(n) * mpmath.mpf(p)
            expected = mpmath.exp(m - np_) * (np_ / m) ** m
            got = binom_upper_tail_bound(n, p, m)
            assert got == pytest.approx(float(expected), rel=1e-12)

    def test_dominates_exact_tail(self):
        for n in (5, 20, 60):
            for num in (1, 3, 7):
                p = Fraction(num, 10)
                lo = math.floor(n * p) + 1
                for m in range(max(lo, 1), n):
                    bound = binom_upper_tail_bound(n, p, m)
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
        assert binom_lower_tail_bound(100, Fraction(1, 2), 40) == pytest.approx(
            math.exp(-1.0), rel=1e-12)

    def test_matches_mpmath_formula(self):
        for n, p, m in [(100, 0.5, 40), (200, 0.4, 60), (1000, 0.9, 850)]:
            np_ = mpmath.mpf(n) * mpmath.mpf(p)
            expected = mpmath.exp(-((m - np_) ** 2) / (2 * np_))
            got = binom_lower_tail_bound(n, p, m)
            assert got == pytest.approx(float(expected), rel=1e-12)

    def test_dominates_exact_tail(self):
        for n in (10, 40, 90):
            for num in (3, 5, 9):
                p = Fraction(num, 10)
                hi = math.ceil(n * p) - 1
                for m in range(1, hi + 1):
                    bound = binom_lower_tail_bound(n, p, m)
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

    def test_rejects_non_integer(self):
        with pytest.raises(DomainError):
            derive_constants(8.0, 4, Fraction(1, 3), 10)


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
        rep = lll_asymmetric_check(8, 4, Fraction(1, 3), 34.0, 81,
                                   ln_delta=3e17)
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
        assert star == pytest.approx(2.3058441495519104e+17, rel=1e-4)
        assert lll_asymmetric_check(8, 4, Fraction(1, 3), 34.0, 81,
                                    ln_delta=star).feasible
        assert not lll_asymmetric_check(8, 4, Fraction(1, 3), 34.0, 81,
                                        ln_delta=star * 0.98).feasible

    def test_derived_constants_eventually_feasible(self):
        rep = find_feasible_delta(8, 4, Fraction(1, 3), 49.23655574633871, 268,
                                  math.log(2.0), 1e60)
        assert rep.feasible is True
        assert math.log10(rep.details["ln_delta_star"]) == pytest.approx(
            17.9649, abs=1e-3)

    def test_feasible_at_lower_end(self):
        rep = find_feasible_delta(8, 4, Fraction(1, 3), 34.0, 81, 1e18, 1e20)
        assert rep.feasible is True
        assert any("lower end" in note for note in rep.notes)
        assert rep.details["ln_delta_star"] == 1e18

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


@given(st.integers(2, 200), st.integers(1, 99))
@settings(max_examples=100, deadline=None)
def test_upper_tail_dominates_randomized(n, pnum):
    p = Fraction(pnum, 100)
    lo = math.floor(n * p) + 1
    if lo >= n:
        return
    m = lo
    assert binom_upper_tail_bound(n, p, m) + 1e-12 >= float(exact_upper_tail(n, p, m))
