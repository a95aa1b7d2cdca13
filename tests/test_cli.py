"""End-to-end checks of the command line battery.

Everything runs in process through ``main(argv)``, where one quadrature
call evaluates all components of an integral on one panel grid; the
exit-code contract and both output formats are exercised against real
runs.
"""

import contextlib
import csv
import dataclasses
import io
import json
import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qmoments
from qmoments import MOMENT_SIGN_NOTE, cli, modulator_from_dict, quadrature
from qmoments.cli import SCHEMA_VERSION, _cases_or_refusals, main
from qmoments.quadrature import modulator_moment_factor

COS_MOD = '{"k": 0.5, "lambda": 0.1, "modes": [{"a": 1.0, "b": 1, "kind": "cosine"}]}'
SINE3_MOD = (
    '{"k": 1.0, "lambda": 0.9, "modes": ['
    '{"a": 0.5, "b": 1, "kind": "sine"}, '
    '{"a": 0.3, "b": 2, "kind": "sine"}, '
    '{"a": 0.2, "b": 5, "kind": "sine"}]}'
)


def sine1_mod(k):
    return f'{{"k": {k}, "lambda": 0.5, "modes": [{{"a": 1.0, "b": 1, "kind": "sine"}}]}}'


def run_json(tmp_path, args, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


class TestReportShape:
    def test_vanish_small_run(self, tmp_path):
        code, rep = run_json(
            tmp_path, ["vanish", "--k", "1", "--n", "0..2", "--j", "1..2"]
        )
        assert code == 0
        h = rep["header"]
        assert h["schema_version"] == 6
        assert h["command"] == "vanish"
        assert "backend" not in h
        assert h["moment_convention"] == MOMENT_SIGN_NOTE
        assert h["config"]["n"] == [0, 1, 2]
        assert h["config"]["j"] == [1, 2]
        assert rep["summary"] == {"total": 6, "passed": 6, "failed": 0}
        ids = [c["id"] for c in rep["cases"]]
        assert ids == sorted(ids)
        for c in rep["cases"]:
            assert abs(c["value"]) <= c["tolerance"]
            assert c["reference"] == 0.0
            assert c["error_estimate"] > 0.0
            assert c["pass"] is True

    def test_stdout_is_the_default_sink(self, capsys):
        code = main(["vanish", "--k", "1", "--n", "0..0", "--j", "1..1"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["summary"]["total"] == 1

    def test_csv_is_a_flat_projection(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            ["vanish", "--k", "1", "--n", "0..2", "--j", "1..2",
             "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == ["id", "pass", "value", "reference", "tolerance",
                           "error_estimate", "inputs"]
        assert len(rows) == 7
        for row in rows[1:]:
            assert row[1] == "True"
            parsed = json.loads(row[6])
            assert set(parsed) == {"k", "n", "j"}


class TestModulatorInput:
    def test_ratio_from_file(self, tmp_path):
        mod_file = tmp_path / "cos.json"
        mod_file.write_text(COS_MOD)
        code, rep = run_json(
            tmp_path, ["ratio", "--modulator", str(mod_file), "--n", "0..3"]
        )
        assert code == 0
        factor = modulator_moment_factor(modulator_from_dict(json.loads(COS_MOD)))
        per_n = [c for c in rep["cases"] if not c["id"].endswith("spread")]
        assert len(per_n) == 4
        for c in per_n:
            assert c["reference"] == factor
            assert abs(c["value"] - factor) <= 1e-12
        spread = [c for c in rep["cases"] if c["id"].endswith("spread")]
        assert len(spread) == 1
        assert spread[0]["value"] <= 1e-13

    def test_inline_json_accepted(self, tmp_path):
        code, rep = run_json(
            tmp_path, ["moments", "--modulator", SINE3_MOD, "--n", "0..3"]
        )
        assert code == 0
        for c in rep["cases"]:
            assert c["reference"] == 1.0
            assert abs(c["value"] - 1.0) <= 1e-11

    def test_gram_cross_case_appears(self, tmp_path):
        code, rep = run_json(
            tmp_path,
            ["gram", "--modulator", SINE3_MOD, "--degree", "3"],
        )
        assert code == 0
        ids = [c["id"] for c in rep["cases"]]
        assert any(i.endswith("/self") for i in ids)
        assert any("/cross/" in i for i in ids)
        for c in rep["cases"]:
            assert c["value"] <= 1e-10


class TestExitCodes:
    def test_failed_case_exits_one(self, tmp_path):
        # the window of --rel-tol 1e-2 drops a Gaussian tail of 2.0e-4, far
        # past the default tolerance of 1e-10 whatever the rounding
        code, rep = run_json(
            tmp_path,
            ["moments", "--k", "1", "--n", "0..0", "--rel-tol", "1e-2"],
        )
        assert code == 1
        assert rep["summary"]["failed"] == 1
        assert rep["cases"][0]["pass"] is False

    def test_planted_anchor_defect_fails_the_vanish_case(self, tmp_path, monkeypatch):
        # Nothing cross-checks the phase anchors at run time, so a
        # defect there must show as a FAIL: every other panel's anchor
        # moved by 1e-6 rad leaves 1.2e-7 of the scale, a number with a
        # bound, not a PASS and not a refusal.
        anchors = quadrature._phase_anchors

        def shifted(*args):
            out = anchors(*args)
            out[::2] += 1e-6
            return out

        monkeypatch.setattr(quadrature, "_phase_anchors", shifted)
        code, rep = run_json(
            tmp_path, ["vanish", "--k", "0.5", "--n", "0..0", "--j", "1..1"]
        )
        assert code == 1
        [case] = rep["cases"]
        assert case["pass"] is False and "reason" not in case["inputs"]
        assert abs(case["value"]) > case["tolerance"] > case["error_estimate"]

    def test_malformed_modulator_json(self, capsys):
        code = main(["moments", "--modulator", '{"k": 1.0, "lambda": }'])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_bad_modulator_field_is_named(self, capsys):
        bad = '{"k": 1.0, "lambda": 0.1, "modes": [{"a": 1.0, "b": 0, "kind": "sine"}]}'
        code = main(["moments", "--modulator", bad])
        assert code == 2
        assert "b" in capsys.readouterr().err

    def test_k_conflicts_with_modulator(self, capsys):
        code = main(["moments", "--k", "2", "--modulator", COS_MOD])
        assert code == 2
        assert "drop the --k flag" in capsys.readouterr().err

    def test_missing_modulator_file(self, capsys):
        code = main(["moments", "--modulator", "/nonexistent/mod.json"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_ratio_requires_modulator(self, capsys):
        assert main(["ratio", "--k", "1"]) == 2
        assert "needs --modulator" in capsys.readouterr().err

    def test_invalid_span_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["vanish", "--n", "5..2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["moments", "vanish"])
    def test_negative_span_in_the_equals_form(self, command, tmp_path):
        # argparse reads "--n -3..2" as an option, so README gives "--n=-3..2"
        code, rep = run_json(tmp_path, [command, "--n=-3..2"])
        assert code == 0
        assert sorted({c["inputs"]["n"] for c in rep["cases"]}) == list(range(-3, 3))

    def test_invalid_holder_profile(self, capsys):
        assert main(["holder", "--a", "1.2", "--b", "3"]) == 2

    @pytest.mark.parametrize("args, bound", [
        (["pearson", "--k", "1", "--points", "1000001"], "1000000"),
        (["hankel", "--k", "1", "--dim", "1001"], "1000"),
        (["holder", "--a", "0.5", "--b", "3", "--samples", "4097"], "4096"),
        (["holder", "--a", "0.5", "--b", "3", "--probes", "257"], "256"),
    ])
    def test_size_above_its_bound_exits_two(self, args, bound, capsys):
        assert main(args) == 2
        assert bound in capsys.readouterr().err

    def test_budget_exceeded_is_a_failed_case(self, tmp_path, capsys):
        # At --rel-tol 1e-300 (kT = 26.3, 71 panels) every component costs
        # the same 2272 nodes, so 60 000 modes (more than 29 537) need more
        # nodes than the default budget of 2^26 allows; the sweep must
        # report that, not crash, one failed case per order under the
        # order's own id, although the block of orders is refused as a whole.
        modes = [{"a": 1.0, "b": b, "kind": "sine"} for b in range(1, 60_001)]
        mod = tmp_path / "many_modes.json"
        mod.write_text(json.dumps({"k": 1.0, "lambda": 1e-5, "modes": modes}))
        code, rep = run_json(
            tmp_path, ["moments", "--modulator", str(mod), "--n", "0..2",
                       "--rel-tol", "1e-300"]
        )
        assert code == 1
        assert [c["id"] for c in rep["cases"]] == [
            f"moments/k=1.0/n={n}" for n in range(3)
        ]
        for case in rep["cases"]:
            assert case["pass"] is False
            assert case["value"] is None
            assert "budget" in case["inputs"]["reason"]

    @pytest.mark.parametrize("args, ids", [
        (["moments", "--k", "1e-160", "--n", "0..1"],
         [f"moments/k=1e-160/n={n}" for n in range(2)]),
        (["vanish", "--k", "1e-160", "--n", "0..2", "--j", "1..2"],
         [f"vanish/k=1e-160/n={n}/j={j}" for n in range(3) for j in (1, 2)]),
    ], ids=["moments", "vanish"])
    def test_unanchorable_k_is_a_named_failed_case(self, args, ids, tmp_path, capsys):
        # ln q is not a finite double-double at k = 1e-160: a numerical
        # refusal, one failed case per order, not a configuration error
        code, rep = run_json(tmp_path, args)
        assert code == 1
        assert [c["id"] for c in rep["cases"]] == ids
        for case in rep["cases"]:
            assert case["pass"] is False and case["value"] is None
            assert "k=1e-160" in case["inputs"]["reason"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("args, ids, reason", [
        (["moments", "--k", "1e-20", "--n", "0"], ["moments/k=1e-20/n=0"], "n=0 at k=1e-20"),
        (["hankel", "--k", "1e-200", "--dim", "2"], ["hankel/k=1e-200"], "n=0 at k=1e-200"),
        (["gram", "--k", "1e-200"], ["gram/k=1e-200/self"], "n=0 at k=1e-200"),
        (["gram", "--modulator", '{"k": 1e-200, "lambda": 0.5, '
          '"modes": [{"a": 1.0, "b": 1, "kind": "sine"}]}'],
         ["gram/k=1e-200/cross/modulated", "gram/k=1e-200/self"], "n=0 at k=1e-200"),
    ], ids=["moments-sigma", "hankel-closed-form", "gram-closed-form", "gram-cross"])
    def test_float64_exponent_limits_are_named_failed_cases(self, args, ids, reason,
                                                            tmp_path, capsys):
        # a window center whose rounding, u sqrt(sigma) of the width, may
        # reach 2**-4 in the quadrature, and a closed-form sigma with no
        # float64 value: numerical refusals, not configuration errors
        code, rep = run_json(tmp_path, args)
        assert code == 1
        assert sorted(c["id"] for c in rep["cases"]) == ids
        for case in rep["cases"]:
            assert case["pass"] is False and case["value"] is None
            assert reason in case["inputs"]["reason"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("args, ids, k", [
        (["gram", "--k", "1e-30"], ["gram/k=1e-30/self"], "1e-30"),
        (["gram", "--k", "100"], ["gram/k=100.0/self"], "100.0"),
        (["pearson", "--k", "1e-160"], ["pearson/k=1e-160"], "1e-160"),
        (["pearson", "--k", "1e160"], ["pearson/k=1e+160"], "1e+160"),
        (["qderiv", "--modulator", sine1_mod(0.025)], ["qderiv/k=0.025"], "0.025"),
        (["qderiv", "--modulator", sine1_mod(0.026)], ["qderiv/k=0.026"], "0.026"),
        (["qderiv", "--modulator", sine1_mod(1e8)], ["qderiv/k=100000000.0"],
         "100000000.0"),
        (["pearson", "--k", "10"], ["pearson/k=10.0"], "10.0"),
        (["pearson", "--k", "20"], ["pearson/k=20.0"], "20.0"),
        (["pearson", "--k", "50"], ["pearson/k=50.0"], "50.0"),
        (["pearson", "--k", "100"], ["pearson/k=100.0"], "100.0"),
        (["qderiv", "--modulator", sine1_mod(1e7)], ["qderiv/k=10000000.0"],
         "10000000.0"),
        (["hankel", "--k", "100"], ["hankel/k=100.0"], "100.0"),
        (["gram", "--k", "5"], ["gram/k=5.0/self"], "5.0"),
        (["gram", "--k", "10"], ["gram/k=10.0/self"], "10.0"),
    ], ids=["gram-broad", "gram-narrow", "pearson-tiny", "pearson-huge",
            "qderiv-q-zero", "qderiv-qx-zero", "qderiv-q-one", "pearson-k10",
            "pearson-k20", "pearson-k50", "pearson-k100", "qderiv-floor",
            "hankel-k100", "gram-k5", "gram-k10"])
    def test_numerical_limits_are_named_failed_cases(self, args, ids, k, tmp_path, capsys):
        # float64 has no answer here (no basis, ln q or q-step, the weight
        # underflows, the noise floor passes the tolerance everywhere, or
        # the Hankel spectrum is inside rounding): a named refusal per case,
        # exit 1, never a configuration error, a false FAIL or a vacuous PASS
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, rep = run_json(tmp_path, args)
        assert code == 1
        assert [c["id"] for c in rep["cases"]] == ids
        for case in rep["cases"]:
            assert case["pass"] is False and case["value"] is None
            assert f"k={k}" in case["inputs"]["reason"]
        err = capsys.readouterr().err
        assert "Traceback" not in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf"])
    @pytest.mark.parametrize("args", [
        ["vanish", "--k", "1", "--n", "0", "--j", "1"],
        ["moments", "--k", "1", "--n", "0"],
        ["ratio", "--modulator", COS_MOD, "--n", "0..1"],
        ["pearson", "--k", "1", "--points", "5"],
        ["qderiv", "--modulator", SINE3_MOD],
        ["gram", "--k", "1"],
        ["holder", "--a", "0.5", "--b", "3"],
    ], ids=["vanish", "moments", "ratio", "pearson", "qderiv", "gram", "holder"])
    def test_tolerance_must_be_finite_and_non_negative(self, args, value, capsys):
        # a threshold that no value can meet (nan, negative) or that every
        # value meets (inf) is a configuration error, not a verdict
        with pytest.raises(SystemExit) as exc:
            main(args + [f"--tolerance={value}"])
        assert exc.value.code == 2
        assert "--tolerance: must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["pearson", "--k", "1"],
        ["qderiv", "--modulator", SINE3_MOD],
        ["holder", "--a", "0.5", "--b", "3"],
    ], ids=["pearson", "qderiv", "holder"])
    def test_rel_tol_only_where_quadrature_runs(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--rel-tol", "1e-10"])
        assert exc.value.code == 2
        assert "--rel-tol" in capsys.readouterr().err

    def test_overflowing_noise_floor_is_a_named_failed_case(self, tmp_path, capsys):
        # log_slope_bound overflows for (a b)**N = 900**200; the floor it
        # sets is inf, and vals - inf would clip to 0 and pass
        mod = ('{"k": 1, "lambda": 0.01, "weierstrass": '
               '{"a": 0.9, "b": 1000, "N": 200, "kind": "sine"}}')
        code, rep = run_json(tmp_path, ["qderiv", "--modulator", mod])
        assert code == 1
        (case,) = rep["cases"]
        assert case["pass"] is False and case["value"] is None
        assert "phase-noise floor is not finite" in case["inputs"]["reason"]
        assert "Traceback" not in capsys.readouterr().err

    def test_overflowing_moment_factor_is_a_named_failed_case(self, tmp_path, capsys):
        # (pi k)**2 overflows at k = 1e200; the planner then refuses the
        # harmonic, whose oscillation per panel is not finite
        mod = ('{"k": 1e200, "lambda": 0.1, '
               '"modes": [{"a": 1, "b": 1, "kind": "cosine"}]}')
        code, rep = run_json(tmp_path, ["ratio", "--modulator", mod, "--n", "0..2"])
        assert code == 1
        assert len(rep["cases"]) == 3
        for case in rep["cases"]:
            assert case["pass"] is False and case["value"] is None
            assert "harmonic 1 at k=1e+200 cannot be integrated" in case["inputs"]["reason"]
        assert "Traceback" not in capsys.readouterr().err


    def test_numpy_warning_in_a_family_is_a_named_failed_case(self):
        heads = [("f/a", {"k": 1.0}), ("f/b", {"k": 1.0})]
        cases = _cases_or_refusals(heads, 0.0, lambda: np.ones(1) / np.zeros(1))
        assert [(c.id, c.passed, c.value) for c in cases] == [("f/a", False, None),
                                                               ("f/b", False, None)]
        assert cases[0].inputs["reason"] == "divide by zero encountered in divide"

    @pytest.mark.parametrize("k", [10, 20, 50, 100])
    def test_pearson_at_large_k_passes_where_the_weight_is_normal(self, k, tmp_path):
        # near x = 1 the weight stays normal and the identity is decided
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, rep = run_json(tmp_path, ["pearson", "--k", str(k),
                                            "--x-min", "0.99", "--x-max", "1.01"])
        assert code == 0
        (case,) = rep["cases"]
        assert case["pass"] is True and case["value"] <= 1e-15


class TestSmallK:
    @pytest.mark.parametrize("k, n", [(0.01, 10), (0.5, 999), (0.001, 999)])
    def test_small_k_moment_passes(self, k, n, tmp_path):
        # once refused: bounds with eps * sigma in them read 1.0e-10,
        # 3.3e-10 and 8.3e-5 against the tolerance 1e-10
        code, rep = run_json(tmp_path, ["moments", "--modulator", sine1_mod(k), "--n", str(n)])
        assert code == 0
        (case,) = rep["cases"]
        assert case["pass"] is True
        assert abs(case["value"] - 1.0) <= case["error_estimate"] < 1e-13


class TestGram:
    def test_high_degree_at_a_broad_weight_passes(self, tmp_path):
        code, rep = run_json(tmp_path, ["gram", "--k", "0.45", "--degree", "8"])
        assert code == 0
        (case,) = rep["cases"]
        assert case["pass"] is True
        assert case["value"] <= case["error_estimate"]
        assert case["value"] + case["error_estimate"] <= case["tolerance"]

    @pytest.mark.parametrize("degree", ["0", "1001"])
    def test_degree_outside_the_size_bound_is_a_configuration_error(self, degree, capsys):
        assert main(["gram", "--k", "1", "--degree", degree]) == 2
        assert "--degree must be in [1, 1000]" in capsys.readouterr().err

    @settings(max_examples=30, deadline=None)
    @given(k=st.floats(0.3, 10.0), degree=st.integers(1, 10))
    def test_true_identity_is_a_backed_pass_or_a_named_refusal(self, k, degree):
        # a sine modulator shares every moment with the weight, so both the
        # self and the cross case state true identities: never a FAIL
        mod = json.dumps({"k": k, "lambda": 0.5,
                          "modes": [{"a": 1.0, "b": 1, "kind": "sine"}]})
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["gram", "--modulator", mod, "--degree", str(degree)])
        rep = json.loads(out.getvalue())
        assert len(rep["cases"]) == 2
        for case in rep["cases"]:
            if case["value"] is None:
                assert case["pass"] is False
                assert f"k={k!r}, degree {degree}" in case["inputs"]["reason"]
            else:
                assert case["pass"] is True
                assert case["value"] <= case["error_estimate"]
                assert case["value"] + case["error_estimate"] <= case["tolerance"]
        assert code == (0 if rep["summary"]["failed"] == 0 else 1)


def shift_one_order(monkeypatch, name, order, by):
    """Wrap ``cli.<name>``, a block quadrature, so that ``order``'s value
    over scale comes out moved by ``by``: a planted defect the bound cannot
    see, with the program itself unchanged."""
    real = getattr(cli, name)

    def shifted(obj, orders, *args):
        orders = list(orders)
        for n, r in zip(orders, real(obj, orders, *args)):
            if n == order:
                r = dataclasses.replace(r, mantissa=r.mantissa + by)
            yield r

    monkeypatch.setattr(cli, name, shifted)


class TestDecisionRule:
    @pytest.mark.parametrize("args, name, tolerance", [
        (["vanish", "--k", "1", "--n", "0..2", "--j", "1"], "_vanishing_orders", 1e-10),
        (["moments", "--modulator", SINE3_MOD, "--n", "0..2"], "_integrate_orders", 1e-10),
        (["ratio", "--modulator", COS_MOD, "--n", "0..2"], "_integrate_orders", 1e-8),
    ], ids=["vanish", "invariance", "ratio"])
    def test_planted_defect_fails(self, args, name, tolerance, tmp_path, monkeypatch):
        # order 1 moved by 5 tolerances: its case, and a ratio spread, must
        # FAIL with a value and a bound, not PASS and not be refused
        shift_one_order(monkeypatch, name, 1, 5 * tolerance)
        code, rep = run_json(tmp_path, args)
        assert code == 1
        for case in rep["cases"]:
            planted = "n=1" in case["id"].split("/") or case["id"].endswith("/spread")
            assert case["pass"] is not planted
            assert case["value"] is not None and "reason" not in case["inputs"]
            if planted:
                miss = abs(case["value"] - case["reference"]) - case["error_estimate"]
                assert miss > case["tolerance"]
        assert sum(c["id"].endswith("/spread") for c in rep["cases"]) == (args[0] == "ratio")

    @pytest.mark.parametrize("mod, n", [(SINE3_MOD, 1), (sine1_mod(0.001), 999)],
                             ids=["battery", "small-k"])
    def test_shifted_centering_fails_a_moment(self, mod, n, tmp_path, monkeypatch):
        # c0 moved by 5 tolerances scales every integrand by exp(5e-10), so
        # the exponent is no longer the closed form's: the moment case must
        # FAIL with its value and bound, never be refused.  At k = 0.001, n
        # = 999 a bound with eps * sigma in it read 8.3e-5 and hid the shift.
        real = quadrature._center_residuals

        def shifted(k, n):
            mu, sigma, c0, c1 = real(k, n)
            return mu, sigma, c0 + 5e-10, c1

        monkeypatch.setattr(quadrature, "_center_residuals", shifted)
        code, rep = run_json(tmp_path, ["moments", "--modulator", mod, "--n", str(n)])
        assert code == 1
        (case,) = rep["cases"]
        assert case["pass"] is False and "reason" not in case["inputs"]
        assert abs(case["value"] - case["reference"]) - case["error_estimate"] > case["tolerance"]

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(["vanish", "moments", "ratio", "gram"]),
           log_k=st.floats(-4.0, 4.0), n=st.integers(-1000, 999),
           harmonic=st.integers(1, 63), lam=st.floats(-1.0, 1.0),
           degree=st.integers(1, 10))
    def test_true_identity_is_a_backed_pass_or_a_named_refusal(
            self, family, log_k, n, harmonic, lam, degree):
        # The integrals vanish, sine content keeps every moment, cosine
        # content scales them all by one factor, and both keep the
        # Stieltjes-Wigert basis orthonormal; one unit mode has sup 1, so
        # |lam| <= 1 keeps the density positive.  Each case states a true
        # identity: a PASS within its bound or a refusal naming its inputs.
        k = 10.0 ** log_k
        kind = "cosine" if family == "ratio" else "sine"
        mod = json.dumps({"k": k, "lambda": lam,
                          "modes": [{"a": 1.0, "b": harmonic, "kind": kind}]})
        orders = f"--n={n}..{n + 1}"
        args = {"vanish": ["vanish", "--k", repr(k), orders, "--j", str(harmonic)],
                "moments": ["moments", "--modulator", mod, orders],
                "ratio": ["ratio", "--modulator", mod, orders],
                "gram": ["gram", "--modulator", mod, "--degree", str(degree)]}[family]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(args)
        rep = json.loads(out.getvalue())
        for case in rep["cases"]:
            if case["value"] is None:
                assert case["pass"] is False
                named = {"gram": f"k={k!r}, degree {degree}"}.get(family, f"k={k!r}")
                if case["id"].endswith("/spread"):
                    named = f"orders {[n, n + 1]!r}"
                assert named in case["inputs"]["reason"]
            else:
                assert case["pass"] is True, case
                gap = abs(case["value"] - case["reference"])
                assert gap + case["error_estimate"] <= case["tolerance"]
        assert code == (0 if rep["summary"]["failed"] == 0 else 1)


# the sorted public API at each report schema version; a change to
# qmoments.__all__ needs a new SCHEMA_VERSION and a new entry here
_API_3 = [
    "BudgetExceededError", "DivergenceWitness", "GramReport", "HankelReport",
    "HolderEstimate", "LogNormalWeight", "LogScaled", "MOMENT_SIGN_NOTE",
    "Modulator", "MomentSequence", "PerturbedDensity", "QDerivativeSample",
    "QuadratureResult", "QuadratureSpec", "TrigMode", "WeierstrassSpec",
    "__version__", "base_moment_closed_form", "divergence_witness",
    "eval_density", "eval_modulator", "eval_weight", "hankel_check",
    "holder_estimate", "integrate_moment", "local_oscillation",
    "modulator_from_dict", "modulator_moment_factor", "modulator_to_dict",
    "positivity_bound", "q_derivative", "q_pearson_residual",
    "stieltjes_wigert_check", "vanishing_integral",
]
# schema 4 changed the verdict rule, schema 5 every seed's sample points
# and schema 6 QuadratureResult's fields, none of them __all__
PUBLIC_API = {3: _API_3, 4: _API_3, 5: _API_3, 6: _API_3}


def test_public_api_is_frozen_with_the_schema_version():
    assert sorted(qmoments.__all__) == PUBLIC_API[SCHEMA_VERSION]


def test_documented_schema_version_is_current():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    for text in (readme, cli.__doc__):
        assert re.findall(r'"schema_version": (\d+)', text) == [str(SCHEMA_VERSION)]


class TestDeterminism:
    def canon(self, rep):
        rep["header"]["timestamp"] = None
        return json.dumps(rep, sort_keys=True)

    def test_identical_config_identical_report(self, tmp_path):
        args = ["pearson", "--k", "1", "--points", "50"]
        _, first = run_json(tmp_path, args, "a.json")
        _, second = run_json(tmp_path, args, "b.json")
        assert self.canon(first) == self.canon(second)

    def test_seed_changes_sample_points(self, tmp_path):
        _, first = run_json(
            tmp_path, ["pearson", "--k", "1", "--seed", "1"], "a.json"
        )
        _, second = run_json(
            tmp_path, ["pearson", "--k", "1", "--seed", "2"], "b.json"
        )
        a = first["cases"][0]["inputs"]["x_min"]
        b = second["cases"][0]["inputs"]["x_min"]
        assert a != b


class TestFullBattery:
    def test_all_passes_everything(self, tmp_path):
        code, rep = run_json(tmp_path, ["all"])
        assert code == 0
        assert rep["summary"]["failed"] == 0
        assert rep["summary"]["total"] == 317
        ids = {c["id"] for c in rep["cases"]}
        assert "convention/positive-exponent" in ids
        assert "holder/smooth/alpha" in ids
        assert "hankel/quadrature/weier/dim=6/shifted" in ids
        assert "invariance/weier/lam=0.3/n=10" in ids
        assert "gram/k=1.0/cross/weier" in ids
        assert "pearson/density/weier" in ids
        conv = next(c for c in rep["cases"]
                    if c["id"] == "convention/positive-exponent")
        assert conv["value"] == 1.0
        assert math.isfinite(conv["reference"])

    def test_bounded_families_pass_within_their_bound(self, tmp_path):
        code, rep = run_json(tmp_path, ["all", "--seed", "1"])
        assert code == 0
        bounded = [c for c in rep["cases"] if c["id"].split("/")[0]
                   in ("vanish", "invariance", "ratio", "gram", "convention")]
        assert len(bounded) == 292
        assert sum(c["id"].endswith("/spread") for c in bounded) == 2
        for c in bounded:
            assert isinstance(c["error_estimate"], float), c["id"]
            assert c["pass"] is True, c["id"]
            gap = abs(c["value"] - c["reference"])
            assert gap + c["error_estimate"] <= c["tolerance"], c["id"]
