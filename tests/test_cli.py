"""End-to-end checks of the command line battery.

Everything runs in process through ``main(argv)``, where one quadrature
call evaluates both passes and all components of an integral; the
exit-code contract and both output formats are exercised against real
runs.
"""

import csv
import io
import json
import math
import warnings

import pytest

from qmoments import MOMENT_SIGN_NOTE, modulator_from_dict
from qmoments.cli import main
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
        assert h["schema_version"] == 2
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
        code, rep = run_json(
            tmp_path,
            ["vanish", "--k", "1", "--n", "0..0", "--j", "2..2",
             "--tolerance", "1e-18"],
        )
        assert code == 1
        assert rep["summary"]["failed"] == 1
        assert rep["cases"][0]["pass"] is False

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
        # Every component costs the same 1216 nodes at the default
        # rel_tol, so 60 000 modes (more than 55 188) need more nodes than
        # the default budget of 2^26 allows; the sweep must report that,
        # not crash, one failed case per order under the order's own id,
        # although the block of orders is refused as a whole.
        modes = [{"a": 1.0, "b": b, "kind": "sine"} for b in range(1, 60_001)]
        mod = tmp_path / "many_modes.json"
        mod.write_text(json.dumps({"k": 1.0, "lambda": 1e-5, "modes": modes}))
        code, rep = run_json(
            tmp_path, ["moments", "--modulator", str(mod), "--n", "0..2"]
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
        (["moments", "--k", "1", "--n", "10000000000"],
         ["moments/k=1.0/n=10000000000"], "n=10000000000 at k=1.0"),
        (["hankel", "--k", "1e-200", "--dim", "2"], ["hankel/k=1e-200"], "n=0 at k=1e-200"),
        (["gram", "--k", "1e-200"], ["gram/k=1e-200/self"], "n=0 at k=1e-200"),
        (["gram", "--modulator", '{"k": 1e-200, "lambda": 0.5, '
          '"modes": [{"a": 1.0, "b": 1, "kind": "sine"}]}'],
         ["gram/k=1e-200/cross/modulated", "gram/k=1e-200/self"], "n=0 at k=1e-200"),
    ], ids=["moments-sigma", "hankel-closed-form", "gram-closed-form", "gram-cross"])
    def test_float64_exponent_limits_are_named_failed_cases(self, args, ids, reason,
                                                            tmp_path, capsys):
        # eps * sigma >= 1 in the quadrature, and a closed-form sigma with
        # no float64 value: numerical refusals, not configuration errors
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
    ], ids=["gram-broad", "gram-narrow", "pearson-tiny", "pearson-huge",
            "qderiv-q-zero", "qderiv-qx-zero", "qderiv-q-one"])
    def test_numerical_limits_are_named_failed_cases(self, args, ids, k, tmp_path, capsys):
        # float64 has no answer here (no basis, ln q or q-step): a named
        # refusal per case, exit 1, never a configuration error
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
