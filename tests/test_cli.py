"""CLI subcommands emit well-formed JSON."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ratgrowth.cli import main
from ratgrowth.globalfield import GlobalField


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCount:
    def test_projective_curve(self, capsys):
        code, payload = run_cli(
            capsys,
            "count", "--field", "Q", "--projective",
            "--poly", "x0*x2 - x1^2", "--height", "4", "--collect",
        )
        assert code == 0
        assert payload["count"] == 8
        assert len(payload["points"]) == 8

    def test_projective_space(self, capsys):
        code, payload = run_cli(
            capsys, "count", "--projective", "--nvars", "2", "--height", "2"
        )
        assert code == 0 and payload["count"] == 8

    def test_affine_with_sieve(self, capsys):
        code, payload = run_cli(
            capsys,
            "count", "--affine", "--poly", "x0*x1 - 2", "--nvars", "2",
            "--box", "2", "--sieve", "3,5",
        )
        assert code == 0
        assert payload["count"] == 4
        assert payload["sieve_rejections"] > 0

    def test_function_field(self, capsys):
        code, payload = run_cli(
            capsys,
            "count", "--field", "Fq(t):q=2", "--projective", "--nvars", "2",
            "--height", "2",
        )
        assert code == 0 and payload["count"] == 9

    # whitespace separates tokens and never joins digits: this curve was
    # counted as x0*x2 = 12*x1^2
    def test_digits_split_by_whitespace_refused(self, capsys):
        code, payload = run_cli(
            capsys, "count", "--projective", "--poly", "x0*x2 - 1 2*x1^2", "--height", "5"
        )
        assert code == 1
        assert payload == {"error": "ParseError", "message": "unexpected character '2' (at position 10)"}

    def test_field_q_is_ascii_digits(self, capsys):
        code, payload = run_cli(
            capsys, "count", "--field", "Fq(t):q=1_1", "--projective", "--nvars", "3", "--height", "2"
        )
        assert code == 1
        assert payload == {"error": "ValueError", "message": "unknown field descriptor 'Fq(t):q=1_1'"}


class TestCountBounds:
    # usage errors exit 2 with the message on stderr, as argparse's own
    # refusals do, so a script can tell them from a failed count (exit 1)
    @staticmethod
    def refused(capsys, *argv) -> str:
        with pytest.raises(SystemExit) as exc:
            main(["count", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_affine_count_rejects_height(self, capsys):
        # an affine count scans --box; --height used to be ignored silently
        err = self.refused(capsys, "--poly", "x0*x2 - x1^2", "--height", "180")
        assert "--height bounds a projective count" in err

    def test_projective_count_rejects_box(self, capsys):
        for argv in (("--poly", "x0*x2 - x1^2"), ()):
            err = self.refused(capsys, "--projective", *argv, "--box", "3")
            assert "--box bounds an affine count" in err

    def test_affine_count_requires_poly(self, capsys):
        assert "affine counting requires --poly" in self.refused(capsys, "--nvars", "2")

    def test_projective_sieve_refused(self, capsys):
        # neither projective enumerator reads a sieve; it used to be ignored
        for argv in (("--poly", "x0^2+x1^2-x2^2"), ("--nvars", "3")):
            err = self.refused(capsys, "--projective", *argv, "--height", "20", "--sieve", "3,5")
            assert "--sieve applies to affine counts only" in err

    def test_projective_curve_ignores_nvars(self, capsys):
        # a projective --poly is a plane curve whatever --nvars says
        _, plain = run_cli(capsys, "count", "--projective", "--poly", "x0*x2 - x1^2", "--height", "4")
        _, five = run_cli(
            capsys, "count", "--projective", "--poly", "x0*x2 - x1^2", "--nvars", "5", "--height", "4"
        )
        assert plain["count"] == five["count"] == 8

    def test_bound_below_one_refused(self, capsys):
        for argv in (("--projective", "--height", "0"), ("--poly", "x0*x2 - x1^2", "--box", "0")):
            code, payload = run_cli(capsys, "count", *argv)
            assert code == 1
            assert payload == {"error": "ValueError", "message": "bound must be >= 1"}

    def test_collect_above_the_cap_refused(self, capsys, monkeypatch):
        # 26 806 753 points from 3.2 * 10^7 cells, within the default budget
        def walk(*args):
            raise AssertionError("collect mode built the height box")

        monkeypatch.setattr(GlobalField, "box", walk)
        code, payload = run_cli(
            capsys, "count", "--projective", "--nvars", "3", "--height", "200", "--collect"
        )
        assert code == 1
        assert payload["error"] == "CollectCapExceededError"
        assert "collect mode would keep 26806753 points, above the cap of 1000000" in payload["message"]

    def test_unset_bounds_default_to_ten(self, capsys):
        conic = ("--poly", "x0*x2 - x1^2")
        _, affine = run_cli(capsys, "count", *conic)
        _, boxed = run_cli(capsys, "count", *conic, "--box", "10")
        assert affine["count"] == boxed["count"] == 113
        _, proj = run_cli(capsys, "count", "--projective", *conic)
        _, high = run_cli(capsys, "count", "--projective", *conic, "--height", "10")
        assert proj["count"] == high["count"]


class TestContradictoryFlags:
    # argparse refuses each contradictory pair with exit status 2, so
    # neither flag of a pair wins silently
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--projective", "--affine", "--poly", "x0*x2 - x1^2"),
            ("highmult", "--poly", "x0^4", "--prime", "5", "--k", "2", "--strict", "--nonstrict"),
        ],
        ids=["projective-affine", "strict-nonstrict"],
    )
    def test_pair_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


class TestMult:
    def test_plain(self, capsys):
        code, payload = run_cli(
            capsys, "mult", "--poly", "x1^2*x2 - x0^3", "--point", "0,0,1"
        )
        assert code == 0 and payload["mu"] == 2

    def test_mod_prime(self, capsys):
        code, payload = run_cli(
            capsys,
            "mult", "--poly", "x0^2 + 3*x1^2", "--point", "0,0,1", "--prime", "3",
        )
        assert code == 0 and payload["mu"] == 2 and payload["good"]

    def test_function_field_prime_and_point(self, capsys):
        code, payload = run_cli(
            capsys,
            "mult", "--field", "Fq(t):q=3", "--poly", "x0*x2 - x1^2",
            "--point", "1, t, t^2", "--prime", "t^2 + 1",
        )
        assert code == 0
        assert payload["prime"] == "t^2+1" and payload["point"] == "(1 : t : 2)"

    @pytest.mark.parametrize("prime", ["t^-1", "t^", "t^x", "2*t^2.5"])
    def test_bad_prime_text_is_a_parse_error(self, capsys, prime):
        code, payload = run_cli(
            capsys,
            "mult", "--field", "Fq(t):q=3", "--poly", "x0*x2 - x1^2",
            "--point", "1,0,0", "--prime", prime,
        )
        assert code == 1
        assert payload["error"] == "ParseError" and "position" in payload["message"]

    # an affine point is reduced coordinate by coordinate, as the affine
    # cover's chart does; it used to be read as a projective point
    @pytest.mark.parametrize(
        "point, prime, shown",
        [("2,4", "3", "(2, 1)"), ("0,0", "2", "(0, 0)")],
        ids=["on-the-curve", "origin"],
    )
    def test_affine_point_mod_prime(self, capsys, point, prime, shown):
        code, payload = run_cli(
            capsys,
            "mult", "--poly", "x1-x0^2", "--nvars", "2", "--point", point, "--prime", prime,
        )
        assert code == 0
        assert (payload["mu"], payload["point"], payload["prime"]) == (1, shown, prime)

    def test_affine_point_mod_function_field_prime(self, capsys):
        # (t, t^2 + 1) lies on x1 = x0^2 + 1, and so does its residue mod t
        code, payload = run_cli(
            capsys,
            "mult", "--field", "Fq(t):q=3", "--poly", "x1 - x0^2 - 1", "--nvars", "2",
            "--point", "t, t^2 + 1", "--prime", "t",
        )
        assert code == 0 and (payload["mu"], payload["point"]) == (1, "(0, 1)")

    # over Q too, an element of O_K is read by the polynomial grammar in one
    # variable, so a non-constant one is named as over F_q(t)
    @pytest.mark.parametrize(
        "field, prime, message",
        [("Fq(t):q=3", "x + t", "'x + t' is not an element of F_3[t]"), ("Q", "x", "'x' is not an element of Z")],
    )
    def test_non_constant_prime_text_named(self, capsys, field, prime, message):
        code, payload = run_cli(
            capsys,
            "mult", "--field", field, "--poly", "x0*x2 - x1^2",
            "--point", "1,0,0", "--prime", prime,
        )
        assert code == 1
        assert payload == {"error": "ValueError", "message": message}

    # int() used to read "1_0" as 10
    def test_rational_point_text_is_a_parse_error(self, capsys):
        code, payload = run_cli(
            capsys, "mult", "--poly", "x0^2+x1^2-x2^2", "--point", "1_0,2,3"
        )
        assert code == 1
        assert payload == {"error": "ParseError", "message": "unexpected character '_' (at position 1)"}

    def test_rational_elements_read_as_constants(self, capsys):
        code, payload = run_cli(
            capsys, "mult", "--poly", "x0^2+x1^2-x2^2", "--point", " 3, -4, +5", "--prime", "(2 + 3)"
        )
        assert code == 0
        assert (payload["mu"], payload["point"], payload["prime"]) == (1, "(1 : 2 : 0)", "5")

    # Rabin's test settles a prime of degree 61, whose trial division listed
    # the irreducibles of every degree up to 30 and did not finish; listing
    # is refused here so that it fails instead
    @pytest.fixture
    def no_listing(self, monkeypatch):
        from ratgrowth.algebra import fqpoly

        def refuse(q, n):
            raise AssertionError(f"listed the irreducibles of degree {n}")

        monkeypatch.setattr(fqpoly, "monic_irreducibles_of_degree", refuse)

    def test_large_function_field_prime(self, capsys, no_listing):
        code, payload = run_cli(
            capsys,
            "mult", "--field", "Fq(t):q=2", "--poly", "x0^2+x1^2-x2^2", "--point", "1,0,1",
            "--prime", "t^61+t^5+t^2+t+1",
        )
        assert code == 0 and (payload["mu"], payload["prime"]) == (2, "t^61+t^5+t^2+t+1")

    def test_reducible_function_field_prime_named(self, capsys, no_listing):
        code, payload = run_cli(
            capsys,
            "mult", "--field", "Fq(t):q=2", "--poly", "x0^2+x1^2-x2^2", "--point", "1,0,1",
            "--prime", "(t^31+t^3+1)*(t^31+t^6+1)",
        )
        assert code == 1
        assert payload == {"error": "ValueError", "message": "t^62+t^37+t^34+t^9+t^6+t^3+1 is not monic irreducible"}

    def test_large_prime_refused_by_name(self, capsys):
        # trial division to the square root of 10^18 + 3 would take about
        # 50 s; the divisors stop at 10^7 and the number is named
        code, payload = run_cli(
            capsys,
            "mult", "--poly", "x0^2+x1^2-x2^2", "--point", "3,4,5", "--prime", "1000000000000000003",
        )
        assert code == 1 and payload["error"] == "ValueError"
        assert payload["message"].startswith("1000000000000000003 is too large to factor")


class TestHighMult:
    def test_line_power(self, capsys):
        code, payload = run_cli(
            capsys,
            "highmult", "--poly", "x0^4", "--prime", "5", "--k", "2", "--cap", "5",
        )
        assert code == 0
        assert payload["degree"] == 1
        assert payload["poly"] == "x0"
        assert len(payload["locus_points"]) == 6

    def test_budget_refusal_names_the_locus_scan(self, capsys):
        # P^2(F_1511) has 2 284 633 points, above the locus budget
        code, payload = run_cli(
            capsys, "highmult", "--poly", "x0^2*x1", "--prime", "1511", "--k", "2",
        )
        assert code == 1
        assert payload == {
            "error": "BudgetExceededError",
            "message": "high-multiplicity locus budget exceeded: 2284633 > 2000000",
        }


class TestCover:
    def test_cover_json(self, capsys, tmp_path):
        out = tmp_path / "cover.json"
        code, payload = run_cli(
            capsys,
            "cover", "--poly", "x1*x0^25 - x2^26", "--height", "20",
            "--out", str(out),
        )
        assert code == 0 and payload["uncovered"] == 0
        data = json.loads(out.read_text())
        assert set(data) == {
            "curve", "H", "regime", "classes", "aux_polys",
            "high_mult", "uncovered", "counts",
        }
        assert data["counts"]["aux"] >= 1
        for cls in data["classes"]:
            assert set(cls) == {
                "prime", "prime_norm", "point", "mu", "aux_poly",
                "class_size", "aux_status",
            }
            assert cls["aux_poly"] is not None


class TestCoverFlags:
    # --N sets the projective high form's degree and --a the affine
    # monitors' slack; the other variant used to ignore each silently
    AFFINE = ("cover", "--affine", "--poly", "x0*x1*x2 - 1", "--nvars", "3", "--height", "4")
    PROJECTIVE = ("cover", "--poly", "x1*x0^25 - x2^26", "--height", "20")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (AFFINE + ("--N", "1"), "--N applies to projective covers only"),
            (PROJECTIVE + ("--a", "7"), "--a applies to affine covers only"),
        ],
        ids=["affine-N", "projective-a"],
    )
    def test_other_variants_flag_refused(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_own_flag_is_read(self, capsys):
        _, plain = run_cli(capsys, *self.AFFINE)
        _, slack = run_cli(capsys, *self.AFFINE, "--a", "7")
        assert plain["classes"] == slack["classes"]
        assert plain["counts"]["monitors"] != slack["counts"]["monitors"]
        _, plain = run_cli(capsys, *self.PROJECTIVE)
        _, line = run_cli(capsys, *self.PROJECTIVE, "--N", "0.4")
        assert (plain["high_mult"]["d_prime"], line["high_mult"]["d_prime"]) == (11, 1)


class TestNonFiniteParameters:
    # inf and nan used to raise OverflowError, run with a one-prime window
    # or write -Infinity into the JSON; each is now a ValueError naming the
    # parameter
    CONIC = ("cover", "--poly", "x0*x2-x1^2", "--height", "10")
    AFFINE = ("cover", "--affine", "--poly", "x0*x1*x2 - 1", "--nvars", "3", "--height", "4")
    HIGHMULT = ("highmult", "--poly", "x0^4", "--prime", "5")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (CONIC + ("--M", "inf"), "M must be finite, got inf"),
            (CONIC + ("--M", "nan"), "M must be finite, got nan"),
            (CONIC + ("--N", "inf"), "N must be finite, got inf"),
            (CONIC + ("--N", "nan"), "N must be finite, got nan"),
            (AFFINE + ("--M=-inf",), "M must be finite, got -inf"),
            (AFFINE + ("--a", "inf"), "a must be finite, got inf"),
            (HIGHMULT + ("--k", "inf"), "k must be finite, got inf"),
            (HIGHMULT + ("--k", "nan"), "k must be finite, got nan"),
        ],
        ids=["M-inf", "M-nan", "N-inf", "N-nan", "affine-M", "affine-a", "k-inf", "k-nan"],
    )
    def test_refused_with_the_parameter_named(self, capsys, argv, message):
        code, payload = run_cli(capsys, *argv)
        assert code == 1
        assert payload == {"error": "ValueError", "message": message}


class TestDetcert:
    def test_certificate(self, capsys):
        code, payload = run_cli(
            capsys,
            "detcert", "--poly", "x0*x2 - x1^2", "--prime", "5",
            "--residue", "1,0,0", "--height", "50",
        )
        assert code == 0
        assert payload["verdict"] in ("MeetsBound", "VanishesIdentically")
        assert payload["s"] == 3
        assert payload["norm_cap_ok"]


class TestExperiment:
    def test_runs_config(self, capsys, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(
            json.dumps(
                {
                    "families": [{"name": "cuspidal_monomial"}],
                    "fields": ["Q"],
                    "degrees": [3],
                    "heights": [100, 1000, 10000, 100000],
                    "bounds": {"c": 1.0, "kappa": 12},
                    "seed": 3,
                }
            )
        )
        out = tmp_path / "report.csv"
        code, payload = run_cli(
            capsys, "experiment", "--config", str(config), "--out", str(out)
        )
        assert code == 0
        assert payload["rows"] == 4
        header = out.read_text().splitlines()[0]
        assert header == "family,field,d,H,count,bound,ratio,regime_ok,elapsed_ms,status"


class TestErrors:
    def test_structured_error(self, capsys):
        code, payload = run_cli(
            capsys, "cover", "--poly", "x0 - x1", "--height", "20", "--affine"
        )
        assert code == 1
        assert payload["error"] == "NotApplicable"


class TestStartUp:
    def test_import_leaves_dataclasses_and_inspect_out(self):
        # the record classes are built without dataclasses, and so without
        # the inspect module it imports; a fresh process shows what the
        # package itself imports
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, ratgrowth, ratgrowth.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
