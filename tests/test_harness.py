"""Bound formulas, exponent fits, the experiment runner."""

import math

import pytest

from ratgrowth.enumeration import enum_curve_points_proj, enum_proj_points
from ratgrowth.globalfield import GlobalField
from ratgrowth.harness import (
    CUSPIDAL_FAMILY,
    LINE_FAMILY,
    BoundSpec,
    FamilySpec,
    UnsupportedBound,
    bound_value,
    exponent_fit,
    family_count,
    ols_loglog,
    parse_csv,
    run_experiment,
)

Q = GlobalField.rationals()
F2 = GlobalField.function_field(2)


class TestBoundValue:
    def test_curve_plain(self):
        assert bound_value(BoundSpec("Curve", c=1, kappa=0), 2, 16) == pytest.approx(64.0)

    def test_curve_with_log_factor(self):
        # independent arithmetic: 16 * e^(1/2) * 1^12
        v = bound_value(BoundSpec("Curve", c=1, kappa=12), 4, math.e)
        assert v == pytest.approx(16.0 * math.exp(0.5))

    def test_dim_growth_aff_degree3(self):
        v = bound_value(BoundSpec("DimGrowthAff", c=1, kappa=0), 3, 100, n=3)
        assert v == pytest.approx(100 ** (2.0 / math.sqrt(3.0)))

    def test_all_families_evaluate(self):
        for name in ("Curve", "AffineCurve", "AffineHypersurface", "PilaK"):
            assert bound_value(BoundSpec(name), 5, 50, n=3) > 0
        assert bound_value(BoundSpec("DimGrowthProj"), 4, 50, n=3) > 0
        assert bound_value(BoundSpec("DimGrowthProj"), 3, 50, n=3) > 0

    def test_huge_height_bound(self):
        # H = 10^400 exceeds the float range, H^(2/d) = 10^4 does not
        v = bound_value(BoundSpec("Curve", c=1, kappa=0), 200, 10**400)
        assert v == pytest.approx(200 * 200 * 10**4)
        assert bound_value(BoundSpec("DimGrowthProj", kappa=0), 4, 10**400) == math.inf

    def test_unsupported_combination(self):
        with pytest.raises(UnsupportedBound):
            bound_value(BoundSpec("DimGrowthProj"), 2, 50, n=3)
        with pytest.raises(ValueError):
            bound_value(BoundSpec("Curve"), 2, 2)

    def test_monotonicity_grids(self):
        spec = BoundSpec("Curve", c=1, kappa=2)
        values = [bound_value(spec, 5, H) for H in (10, 20, 40, 80, 160)]
        assert values == sorted(values)
        cs = [bound_value(BoundSpec("Curve", c=c, kappa=2), 5, 10) for c in (1, 2, 4)]
        assert cs == sorted(cs)
        # decreasing in d once H^(2/d) flattens out
        ds = [bound_value(BoundSpec("Curve", kappa=0), d, 4) for d in (40, 60, 90)]
        assert ds == sorted(ds)  # d^2 dominates at tiny H; check the other side
        big_h = [bound_value(BoundSpec("Curve", kappa=0), d, 10**9) for d in (2, 3, 4)]
        assert big_h == sorted(big_h, reverse=True)


class TestFamilies:
    def test_parametrized_matches_direct(self):
        for d in (3, 4):
            poly = CUSPIDAL_FAMILY.polynomial(d, Q)
            direct = enum_curve_points_proj(poly, 30).count
            assert direct == family_count(CUSPIDAL_FAMILY, d, 30, Q)

    def test_parametrized_matches_direct_ff(self):
        poly = CUSPIDAL_FAMILY.polynomial(3, F2)
        direct = enum_curve_points_proj(poly, 8).count
        assert direct == family_count(CUSPIDAL_FAMILY, 3, 8, F2)

    def test_ff_exact_power_height(self):
        # H = 3^5 = q^(d j) with j = 1; float log(H, q) / d falls just below 1
        F3 = GlobalField.function_field(3)
        assert family_count(CUSPIDAL_FAMILY, 5, 3**5, F3) == 28  # #P^1(F_3(t), 3)
        for H, j in ((3**5 - 1, 0), (3**10 - 1, 1), (3**10, 2)):
            assert family_count(CUSPIDAL_FAMILY, 5, H, F3) == enum_proj_points(1, 3**j, F3).count

    def test_huge_height_over_q(self):
        # X = floor((10^400)^(1/200)) = 100; the height exceeds float range
        assert family_count(CUSPIDAL_FAMILY, 200, 10**400, Q) == 12176  # #P^1(Q, 100)

    def test_integer_nth_root_exact(self):
        from ratgrowth.harness import _integer_nth_root

        for x in (1, 2, 7, 8, 9, 10**18 - 1, 10**18, 10**400, 3**500 + 1):
            for n in (1, 2, 3, 7, 200):
                r = _integer_nth_root(x, n)
                assert r**n <= x < (r + 1) ** n

    def test_line_family_is_p1(self):
        for H in (2, 5, 10):
            assert family_count(LINE_FAMILY, 1, H, Q) == enum_proj_points(1, H, Q).count


class TestExponentFit:
    def test_cuspidal_slope(self):
        hs = [10**k for k in range(2, 6)]
        fit = exponent_fit(CUSPIDAL_FAMILY, 3, hs, Q)
        assert abs(fit.slope - 2.0 / 3.0) <= 0.15

    def test_line_slope_is_two(self):
        fit = exponent_fit(LINE_FAMILY, 1, [5, 10, 20, 40], Q)
        assert abs(fit.slope - 2.0) <= 0.2

    def test_degenerate_flagged(self):
        fit = ols_loglog([2, 4, 8, 16], [7, 7, 7, 7])
        assert fit.degenerate and fit.slope == 0.0

    def test_needs_four_heights(self):
        with pytest.raises(ValueError):
            exponent_fit(CUSPIDAL_FAMILY, 3, [10, 100], Q)


class TestExperiment:
    CONFIG = {
        "families": [{"name": "cuspidal_monomial"}],
        "fields": ["Q"],
        "degrees": [3],
        "heights": [100, 1000, 10000],
        "bounds": {"c": 1.0, "kappa": 12},
        "seed": 7,
    }

    def test_conic_sweep_counts_match_enumeration(self):
        config = {
            "families": [{"name": "conic", "template": "x0*x2 - x1^2"}],
            "fields": ["Q"],
            "degrees": [2],
            "heights": [4, 8, 16, 32],
            "seed": 1,
        }
        reports, _ = run_experiment(config)
        conic = FamilySpec("conic", "x0*x2 - x1^2").polynomial(2, Q)
        for row in reports[0].rows:
            assert row.count == enum_curve_points_proj(conic, row.H).count

    def test_ff_sweep(self):
        config = {
            "families": [{"name": "projective_line"}],
            "fields": ["Fq(t):q=2"],
            "degrees": [1],
            "heights": [2, 4, 8, 16],
            "seed": 1,
        }
        reports, _ = run_experiment(config)
        counts = [r.count for r in reports[0].rows]
        expected = [enum_proj_points(1, h, F2).count for h in (2, 4, 8, 16)]
        assert counts == expected
        assert reports[0].fitted_exponent == ols_loglog([2, 4, 8, 16], expected).slope

    def test_user_family_is_enumerated(self):
        # a user template is enumerated even when it claims a
        # parametrization: x0 - x1 is a line with 128 points of height <= 10,
        # not the #P^1(Q, 2) = 8 of the cuspidal shortcut
        entry = {"name": "mine", "template": "x0 - x1"}
        config = {"families": [entry], "fields": ["Q"], "degrees": [3], "heights": [10]}
        hinted = dict(config, families=[dict(entry, enumerator_hint="parametrized")])
        # a built-in's name alone does not make the family built in
        renamed = dict(config, families=[dict(entry, name=CUSPIDAL_FAMILY.name)])
        for cfg in (config, hinted, renamed):
            assert run_experiment(cfg)[0][0].rows[0].count == 128

    def test_builtin_written_out_takes_the_shortcut(self):
        entry = {"name": CUSPIDAL_FAMILY.name, "template": CUSPIDAL_FAMILY.template}
        config = {"families": [entry], "fields": ["Q"], "degrees": [200], "heights": [10**400]}
        assert run_experiment(config)[0][0].rows[0].count == 12176  # #P^1(Q, 100)

    def test_huge_height_row(self):
        config = {"families": [{"name": "cuspidal_monomial"}], "fields": ["Q"], "degrees": [200], "heights": [10**400]}
        reports, csv_text = run_experiment(config)
        row = reports[0].rows[0]
        assert row.count == 12176  # #P^1(Q, 100)
        assert row.bound == pytest.approx(200 * 200 * 10**4 * math.log(10**400) ** 12)
        assert not row.regime_ok  # d = 200 is below (log H)^2
        assert parse_csv(csv_text)[0].count == 12176

    def test_huge_height_bound_reads_inf(self):
        # H^1 = 10^400 is beyond the float range: the CSV keeps inf
        config = {
            "families": [{"name": "cuspidal_monomial"}],
            "degrees": [200],
            "heights": [10**400],
            "bounds": {"theorem": "DimGrowthProj"},
        }
        reports, csv_text = run_experiment(config)
        row = reports[0].rows[0]
        assert (row.count, row.bound, row.ratio) == (12176, math.inf, 0.0)
        assert parse_csv(csv_text)[0].bound == math.inf

    def test_small_height_bound_reads_nan(self):
        # no bound is reported at H <= 2: the CSV keeps nan
        config = {
            "families": [{"name": "cuspidal_monomial"}],
            "fields": ["Q"],
            "degrees": [3],
            "heights": [2, 5],
        }
        reports, csv_text = run_experiment(config)
        small, large = reports[0].rows
        assert math.isnan(small.bound) and math.isfinite(large.bound)
        assert ",nan," in csv_text.splitlines()[1]
        assert math.isnan(parse_csv(csv_text)[0].bound)
        assert (small.H, small.ratio) == (2, None)

    def test_empty_config(self):
        reports, csv_text = run_experiment({"families": [], "heights": []})
        assert reports == []
        assert csv_text.splitlines()[0].startswith("family,")

    def test_budget_exceeded_rows_marked_not_dropped(self):
        config = {
            "families": [{"name": "wide_conic", "template": "x0*x2 - x1^2"}],
            "fields": ["Q"],
            "degrees": [2],
            "heights": [40],
            "budget": 1000,
            "seed": 1,
        }
        reports, csv_text = run_experiment(config)
        row = reports[0].rows[0]
        assert row.status == "budget_exceeded"
        assert row.count is None
        assert "budget_exceeded" in csv_text
        assert parse_csv(csv_text)[0].status == "budget_exceeded"

    def test_budget_reaches_builtin_families(self):
        config = {
            "families": [{"name": "cuspidal_monomial"}],
            "fields": ["Q"],
            "degrees": [2],
            "heights": [10**16, 10**40],
            "budget": 1000,
        }
        reports, _ = run_experiment(config)
        assert [(r.status, r.count) for r in reports[0].rows] == [("budget_exceeded", None)] * 2
        config["heights"] = [10**4]
        assert run_experiment(config)[0][0].rows[0].count == 12176  # #P^1(Q, 100)

    def test_huge_height_user_family_row_marked(self):
        config = {
            "families": [{"name": "mine", "template": "x1*x0^{d1} - x2^{d}"}],
            "degrees": [3],
            "heights": [100, 10**400],
        }
        reports, _ = run_experiment(config)
        small, huge = reports[0].rows
        assert (small.status, small.count) == ("ok", family_count(CUSPIDAL_FAMILY, 3, 100, Q))
        assert (huge.status, huge.count) == ("budget_exceeded", None)

    def test_bare_family_names(self):
        config = {"families": ["cuspidal_monomial", "projective_line"], "degrees": [3], "heights": [50]}
        reports, _ = run_experiment(config)
        assert [(r.family, r.rows[0].count) for r in reports] == [
            ("cuspidal_monomial", family_count(CUSPIDAL_FAMILY, 3, 50, Q)),
            ("projective_line", family_count(LINE_FAMILY, 3, 50, Q)),
        ]
        with pytest.raises(ValueError, match="unknown family 'nope'"):
            run_experiment({"families": ["nope"], "heights": [50]})

    def test_csv_round_trip(self):
        reports, csv_text = run_experiment(self.CONFIG)
        rows = [r for rep in reports for r in rep.rows]
        parsed = parse_csv(csv_text)
        assert parsed == rows

    def test_report_summary(self):
        reports, _ = run_experiment(self.CONFIG)
        assert reports[0].family == "cuspidal_monomial"
        assert reports[0].fitted_exponent is not None

    def test_deterministic(self):
        a = run_experiment(self.CONFIG)[1]
        b = run_experiment(self.CONFIG)[1]
        # elapsed_ms differs between runs; compare everything else
        strip = lambda text: [
            ",".join(line.split(",")[:8]) for line in text.splitlines()
        ]
        assert strip(a) == strip(b)

    def test_in_regime_rows_within_fitted_bound(self):
        from ratgrowth.baselines import BOUND_C_FIT

        config = {
            "families": [{"name": "cuspidal_monomial"}],
            "fields": ["Q"],
            "degrees": [3],
            "heights": [3, 4, 5],  # (log H)^2 < 3 < H^(3/2) here
            "bounds": {"c": BOUND_C_FIT, "kappa": 12},
            "seed": 5,
        }
        reports, _ = run_experiment(config)
        saw_regime_row = False
        for rep in reports:
            for row in rep.rows:
                if row.regime_ok and row.count is not None:
                    saw_regime_row = True
                    assert row.count <= row.bound
        assert saw_regime_row
