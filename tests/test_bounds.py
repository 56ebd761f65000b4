import pytest

from incgeom.bounds import (BoundValue, ComparisonRange, annotate, bound_table,
                            comparison_range, cs_bound_exponent, dov_bound, main_bound,
                            thm2d_exponent)


class TestPlanarExponent:
    @pytest.mark.parametrize(
        "s,t,want",
        [
            (0.0, 0.0, 0.0),
            (0.5, 0.5, 0.25),          # st/(s+t)
            (1.0, 1.0, 0.5),
            (0.5, 1.25, 5.0 / 12.0),   # st/(1+s)
            (1.25, 0.5, 5.0 / 12.0),   # st/(1+t), mirror of the above
            (1.5, 1.5, 1.0),           # kappa = 1/2
            (2.0, 2.0, 1.0),           # kappa = 1/3
        ],
    )
    def test_case_values(self, s, t, want):
        bv = thm2d_exponent(s, t)
        assert bv.delta_exponent == pytest.approx(want, rel=1e-12)
        assert bv.name == "planar"

    def test_all_cases_agree_at_s_t_one(self):
        # every formula evaluates to 1/2 at the triple point
        assert thm2d_exponent(1.0, 1.0).delta_exponent == 0.5

    def test_kappa_switches_at_total_three(self):
        lo = thm2d_exponent(1.4, 1.5).delta_exponent
        hi = thm2d_exponent(1.6, 1.5).delta_exponent
        assert lo == pytest.approx(0.95)
        assert hi == pytest.approx(1.0)

    def test_gap_raises(self):
        with pytest.raises(ValueError, match="no case applies"):
            thm2d_exponent(0.3, 1.5)
        with pytest.raises(ValueError, match="no case applies"):
            thm2d_exponent(1.5, 0.3)

    def test_domain_check(self):
        with pytest.raises(ValueError, match=r"\[0, 2\]"):
            thm2d_exponent(2.5, 1.0)

    def test_regime_mentions_epsilon_loss(self):
        assert "epsilon" in thm2d_exponent(0.5, 0.5).regime


class TestMainBound:
    def test_value(self):
        bv = main_bound(2.0**-6, 1105, 2193)
        assert bv.value == pytest.approx(2.0**-6 * 1105 * 2193, rel=1e-15)
        assert bv.delta_exponent == 1.0
        assert bv.name == "linear"

    def test_evaluate_matches_value(self):
        bv = main_bound(0.25, 10, 20)
        assert bv.evaluate(0.25, 10, 20) == pytest.approx(bv.value, rel=1e-15)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError, match="delta"):
            main_bound(1.0, 10, 10)


class TestCauchySchwarz:
    def test_half_branch(self):
        bv = cs_bound_exponent(1.5, 1.5, 3)
        assert bv.delta_exponent == pytest.approx(0.25, rel=1e-12)

    def test_small_t_branch(self):
        bv = cs_bound_exponent(2.0, 0.5, 3)
        assert bv.delta_exponent == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_continuous_at_t_one(self):
        below = cs_bound_exponent(1.5, 1.0 - 1e-12, 3).delta_exponent
        at = cs_bound_exponent(1.5, 1.0, 3).delta_exponent
        assert abs(below - at) < 1e-9

    def test_epsilon_is_explicit(self):
        base = cs_bound_exponent(1.5, 1.5, 3).delta_exponent
        lossy = cs_bound_exponent(1.5, 1.5, 3, eps=0.01).delta_exponent
        assert lossy == pytest.approx(base - 0.01, rel=1e-12)

    def test_assumption_violation_message(self):
        with pytest.raises(ValueError, match="assumption s - d \\+ 2 > 0 violated"):
            cs_bound_exponent(0.5, 1.5, 3)

    def test_needs_dimension_three(self):
        with pytest.raises(ValueError, match="at least 3"):
            cs_bound_exponent(1.5, 1.5, 2)

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError, match="eps"):
            cs_bound_exponent(1.5, 1.5, 3, eps=-0.1)


class TestSeparatedPlanes:
    def test_flat_case_exponents(self):
        # s = d - 1 kills the delta exponent entirely
        bv = dov_bound(2.0**-6, 2.0, 3, 100, 200)
        assert bv.delta_exponent == 0.0
        assert bv.plane_count_exponent == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_generic_exponents(self):
        bv = dov_bound(2.0**-6, 2.5, 3, 100, 200)
        assert bv.delta_exponent == pytest.approx(0.4, rel=1e-12)
        assert bv.plane_count_exponent == pytest.approx(0.8, rel=1e-12)
        want = (2.0**-6) ** 0.4 * 100 * 200**0.8
        assert bv.value == pytest.approx(want, rel=1e-12)

    def test_point_exponent_stays_linear(self):
        assert dov_bound(0.01, 1.5, 3, 10, 10).point_count_exponent == 1.0

    def test_requires_s_above_one(self):
        with pytest.raises(ValueError, match="s > 1"):
            dov_bound(0.01, 1.0, 3, 10, 10)

    def test_requires_subcritical_s(self):
        with pytest.raises(ValueError, match="2d - 1 - s"):
            dov_bound(0.01, 5.0, 3, 10, 10)


class TestComparisonRange:
    def test_reference_value_of_m(self):
        cr = comparison_range(1.5, 1.5, 3)
        assert cr.M == pytest.approx(-15.0 / 28.0, rel=1e-12)

    def test_m_prime_shift_below_t_one(self):
        # t/(t+1) - 1/2 = -1/6 at t = 1/2, so M' = M + (s - 1)/6 when d = 3
        cr = comparison_range(1.5, 0.5, 3)
        assert cr.M_prime == pytest.approx(cr.M + 0.5 / 6.0, rel=1e-12)

    def test_m_prime_equals_m_at_t_one(self):
        cr = comparison_range(1.5, 1.0, 3)
        assert cr.M_prime == pytest.approx(cr.M, abs=1e-15)

    def test_interval_endpoints_large_t(self):
        cr = comparison_range(1.5, 1.5, 3)
        assert cr.lower_exponent == -1.5
        assert cr.upper_exponent == pytest.approx(-1.25, rel=1e-12)
        # upper > lower here, so the window is empty on both readings
        assert not cr.nonempty
        assert not cr.nonempty_numeric

    def test_nonempty_window_large_t(self):
        cr = comparison_range(2.5, 1.0, 4)
        assert cr.nonempty
        assert cr.nonempty_numeric
        assert cr.upper_exponent == pytest.approx(-1.75, rel=1e-12)

    def test_nonempty_window_small_t(self):
        cr = comparison_range(1.5, 0.5, 3)
        assert cr.nonempty
        assert cr.nonempty_numeric
        assert cr.upper_exponent == pytest.approx(-19.0 / 18.0, rel=1e-12)

    def test_degenerate_denominator(self):
        with pytest.raises(ValueError, match="degenerate"):
            comparison_range(3.0, 1.0, 3)
        with pytest.raises(ValueError, match="t \\+ 1 = 0"):
            comparison_range(1.5, -1.0, 3)

    def test_to_dict_round_trip(self):
        cr = comparison_range(1.5, 1.5, 3)
        d = cr.to_dict()
        assert set(d) == {
            "M", "M_prime", "lower_exponent", "upper_exponent",
            "nonempty", "nonempty_numeric", "regime",
        }
        assert ComparisonRange(**d) == cr


def test_bound_value_default_exponents():
    bv = BoundValue(name="x", delta_exponent=0.5)
    assert bv.point_count_exponent == 1.0
    assert bv.plane_count_exponent == 1.0
    assert bv.evaluate(0.25, 2, 3) == pytest.approx(0.5 * 6, rel=1e-12)


class TestAnnotate:
    def test_applicable_bound_is_its_dict(self):
        assert annotate(comparison_range, 1.5, 1.2, 3) == comparison_range(1.5, 1.2, 3).to_dict()

    def test_refused_bound_is_an_error_marker(self):
        assert annotate(dov_bound, 0.1, 0.5, 3, 10, 10) == {
            "error": "this bound requires s > 1, got s = 0.5"
        }


class TestBoundTable:
    def test_entries_are_the_annotated_bounds(self):
        assert bound_table(0.01, 1.5, 0.5, 3, 100, 200) == {
            "linear": main_bound(0.01, 100, 200).to_dict(),
            "planar": annotate(thm2d_exponent, 1.5, 0.5),
            "cauchy_schwarz": annotate(cs_bound_exponent, 1.5, 0.5, 3),
            "separated_planes": annotate(dov_bound, 0.01, 1.5, 3, 100, 200),
            "comparison": annotate(comparison_range, 1.5, 0.5, 3),
        }

    def test_refused_bounds_are_marked_but_a_bad_delta_raises(self):
        table = bound_table(0.01, 0.5, 0.5, 2, 10, 10)
        assert set(table["cauchy_schwarz"]) == set(table["separated_planes"]) == {"error"}
        with pytest.raises(ValueError, match="delta"):
            bound_table(1.5, 1.5, 1.5, 3, 10, 10)
