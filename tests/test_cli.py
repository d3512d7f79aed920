"""The command-line driver: outputs, exit codes and error paths."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import tricomi_turan
from tricomi_turan import cli, suites
from tricomi_turan.bounds import CATALOG
from tricomi_turan.kernel import ParameterPoint, psi_quotients

# a tol-* key per suite, the flag being "--" + key: no suite takes a
# tolerance, so the CLI knows none of them
TOL_KEYS = tuple("tol-" + name.replace("_", "-") for name in suites.SUITES)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestCatalog:
    def test_json_lists_every_entry_in_order(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        ids = [entry["id"] for entry in json.loads(out)]
        assert len(ids) == 23 and ids == list(CATALOG)

    def test_csv_is_a_header_and_one_row_per_entry(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--format", "csv")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 24
        assert lines[0] == "id,target,side,region,anchor,gating"
        assert [line.split(",", 1)[0] for line in lines[1:]] == list(CATALOG)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_file_holds_the_stdout_form(self, capsys, tmp_path, fmt):
        out_file = tmp_path / f"catalog.{fmt}"
        code, out, _ = run_cli(capsys, "catalog", "--format", fmt, "--out", str(out_file))
        assert code == 0 and out == ""
        assert out_file.read_text(encoding="utf-8") == run_cli(
            capsys, "catalog", "--format", fmt)[1]

    def test_unwritable_out_is_an_output_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "catalog", "--out",
                               str(tmp_path / "missing" / "catalog.json"))
        assert code == 2 and "output error" in err


class TestSharpness:
    def test_default_pairs_print_one_line_per_limit_in_region(self, capsys):
        # 6 pairs: the zeta and vanish limits hold at all 6, the three
        # zero limits (a > 1, c < -1) at 4
        code, out, _ = run_cli(capsys, "sharpness")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 36
        # each x of a scan shows its deviation beside its rate
        assert all(" decreasing=" not in line and line.count(":rate=") in (3, 4)
                   for line in lines)

    def test_empty_grid_is_a_config_error(self, capsys):
        code, out, err = run_cli(capsys, "sharpness", "--grid-a", "", "--grid-c", "")
        assert code == 2 and out == ""
        assert err == "config error: grid for a is empty\n"

    def test_out_file_holds_the_stdout_form(self, capsys, tmp_path):
        grid = ("--grid-a=2,3", "--grid-c=-2.5,0.25")
        out_file = tmp_path / "scans.txt"
        code, out, _ = run_cli(capsys, "sharpness", *grid, "--out", str(out_file))
        assert code == 0 and out == ""
        text = out_file.read_text(encoding="utf-8")
        assert text == run_cli(capsys, "sharpness", *grid)[1]
        assert len(text.splitlines()) >= 4

    def test_unwritable_out_is_an_output_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sharpness", "--grid-a", "2",
                               "--grid-c", "-2.5", "--out",
                               str(tmp_path / "missing" / "scans.txt"))
        assert code == 2 and "output error" in err

    @pytest.mark.parametrize("flag", ["--grid-a", "--grid-c"])
    def test_one_grid_alone_is_a_config_error(self, capsys, flag):
        code, out, err = run_cli(capsys, "sharpness", flag, "7")
        assert code == 2 and "config error" in err and out == ""

    # at a = 200 every psi underflows, on the first scan, the zeta limit's:
    # at c = -1 no zero limit holds (c < -1), and the zeta limit comes first
    @pytest.mark.parametrize("a,c,reason", [
        ("200", "0.5", "underflows the double range"),
        ("200", "-1", "underflows the double range")])
    def test_evaluation_failure_is_exit_4(self, capsys, a, c, reason):
        code, out, err = run_cli(capsys, "sharpness", "--grid-a", a, f"--grid-c={c}")
        assert code == 4 and out == ""
        assert err.startswith("evaluation error: ") and reason in err

    def test_repeated_grid_value_is_a_config_error(self, capsys):
        code, out, err = run_cli(capsys, "sharpness", "--grid-a", "1,1", "--grid-c=-2.5")
        assert code == 2 and out == ""
        assert err.startswith("config error: grid a repeats a value")

    def test_integer_c_at_a_below_one_is_scanned(self, capsys):
        # the ratios read psi at a and a + 1 only, so no scan meets the
        # integer-c hole of psi at a - 1 = -0.5; the zeta and the three
        # vanish limits hold at (0.5, -1), the zero limits (a > 1) do not
        code, out, err = run_cli(capsys, "sharpness", "--grid-a", "0.5", "--grid-c=-1")
        assert code == 0 and err == "" and len(out.splitlines()) == 4


class TestEval:
    def test_psi(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "psi", "1", "2", "2")
        assert code == 0
        assert json.loads(out.splitlines()[-1])["value"] == pytest.approx(0.5)

    def test_flags_are_reported(self, capsys):
        # the connection series cancels at this point
        code, out, _ = run_cli(capsys, "eval", "psi", "-1.6", "-3.002", "10")
        human, machine = out.splitlines()
        assert code == 0
        assert human.endswith("[connection_series] flags=cancellation")
        assert json.loads(machine)["flags"] == ["cancellation"]

    def test_no_flags_is_an_empty_list(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "psi", "1", "2", "2")
        human, machine = out.splitlines()
        assert code == 0 and "flags" not in human
        assert json.loads(machine)["flags"] == []

    @pytest.mark.parametrize("op", ["ratio", "turanian"])
    def test_both_shift_turanian_and_ratio(self, capsys, op):
        # D = psi(1,-1)^2 - psi(0,-2) psi(2,0) at x = 1, with psi(0,-2) = 1,
        # and R = D/psi(1,-1)^2, against mpmath.hyperu at 40 digits
        code, out, _ = run_cli(capsys, "eval", f"{op}:both", "1", "-1", "1")
        human, machine = out.splitlines()
        got = json.loads(machine)
        assert code == 0
        assert human == (f"{op}[both](a=1, c=-1, x=1) = {got['value']:.17g} "
                         f"+/- {got['abs_error']:.3g} [quadrature]")
        assert {k: got[k] for k in ("what", "a", "c", "x", "method", "flags")} == {
            "what": f"{op}:both", "a": 1.0, "c": -1.0, "x": 1.0,
            "method": "quadrature", "flags": []}
        with mpmath.workdps(40):
            u0 = mpmath.hyperu(1, -1, 1)
            ref = u0 ** 2 - mpmath.hyperu(2, 0, 1)
            if op == "ratio":
                ref /= u0 ** 2
        assert got["value"] < 0.0
        assert abs(got["value"] - float(ref)) <= got["abs_error"]

    def test_bound(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "bound:T1L", "1", "0", "1")
        assert code == 0
        assert json.loads(out.splitlines()[-1])["status"] == "pass"

    @pytest.mark.parametrize("what", ["nope", "ratio:sideways", "bound:T9"])
    def test_bad_target(self, capsys, what):
        assert run_cli(capsys, "eval", what, "1", "-1", "1")[0] == 2

    def test_region_violation(self, capsys):
        assert run_cli(capsys, "eval", "bound:T1U", "0.5", "-2.5", "1")[0] == 3

    def test_phi(self, capsys):
        code, out, err = run_cli(capsys, "eval", "phi", "1.5", "-0.5", "2")
        human, machine = out.splitlines()
        got = json.loads(machine)
        assert code == 0 and err == ""
        assert human == (f"phi(a=1.5, c=-0.5, t=2) = {got['value']:.17g} "
                         f"+/- {got['abs_error']:.3g} [{got['method']}]")
        assert got["what"] == "phi" and got["value"] > 0.0

    def test_evaluation_failure(self, capsys):
        # psi(200, 0.5, 1) underflows the double range; at the second point
        # the connection coefficient Gamma(c-1)/Gamma(a) overflows it; at
        # the third the rounding sum of the pass overflows, which printed a
        # numpy RuntimeWarning first, or raised it where warnings are errors
        for point in (("200", "0.5", "1"),
                      ("-37.30799822046213", "184.17402383913083",
                       "6.851833336446353e-67"),
                      ("1.7133185347424188e+302", "-1.2360138296703366e+75",
                       "4.189046206866047e+113")):
            code, out, err = run_cli(capsys, "eval", "psi", "--", *point)
            assert code == 4 and out == "" and err.startswith("evaluation error: ")
            assert err.count("\n") == 1

    def test_i2_where_psi_squared_underflows(self, capsys):
        # psi(101, 0.5, 1) < 1.5e-154, so its square underflows to 0
        code, out, err = run_cli(capsys, "eval", "bound:I2", "100", "-0.5", "1")
        if code == 4:
            assert out == "" and "evaluation error" in err
        else:
            assert json.loads(out.splitlines()[-1])["status"] in (
                "pass", "fail", "inconclusive")

    @pytest.mark.parametrize("a,c,x", [("0.5", "3", "1e-200"),
                                       ("-0.5", "2.5", "1e-250"),
                                       ("-60.5", "0.5", "1e6")])
    def test_psi_beyond_the_double_range_is_exit_4(self, capsys, a, c, x):
        code, out, err = run_cli(capsys, "eval", "psi", a, c, x)
        assert code == 4 and out == ""
        assert err.startswith("evaluation error: ")
        assert "exceeds the double range" in err

    @pytest.mark.parametrize("a,c,t", [("1", "0.5", "nan"), ("1", "0.5", "inf"),
                                       ("inf", "0.5", "1"), ("1", "nan", "1"),
                                       ("1", "-inf", "1")])
    def test_phi_at_non_finite_arguments_is_a_region_error(self, capsys, a, c, t):
        # t = nan used to sum 10,000 Kummer terms first, a = inf to exit 4
        code, out, err = run_cli(capsys, "eval", "phi", "--", a, c, t)
        assert code == 3 and out == "" and err.startswith("region error: ")

    @pytest.mark.parametrize("what,a", [("phi", "1e308"), ("psi", "1e308"),
                                        ("psi", "-1e20")])
    def test_huge_a_is_exit_4(self, capsys, what, a):
        # log Gamma(1e308) overflows, and psi(-1e20, 0.5, 1), a terminating
        # polynomial of degree 1e20, stops at its first non-finite term
        code, out, err = run_cli(capsys, "eval", what, "--", a, "0.5", "1")
        assert code == 4 and out == "" and err.startswith("evaluation error: ")

    def test_underflowing_turanian_is_an_evaluation_failure(self, capsys):
        # psi(100, -0.5, 1) = 6.5e-167: the products of two psi values underflow
        code, out, err = run_cli(capsys, "eval", "turanian:second", "100", "-0.5", "1")
        assert code == 4 and out == "" and "underflow" in err


# fuzzed points where the CLI ended in a traceback (an OverflowError in I2's
# power (G0 psi)^(1/a), a ZeroDivisionError at a subnormal a) or exited 0
# having printed a NaN or an infinite value, budget or rate (the raw
# Turanians, the zeta limit's scan, psi at a subnormal a, and the x->0+
# limit of I1 and I3, where ln G0's error of 2.45e288 times 1/a = 1e300
# passes the largest double)
FUZZED = {
    "i2-power": ("eval", "bound:I2", "--", "4.574711093407372e-190",
                 "-56.064997628840494", "0.19819728788641733"),
    "run-i2-power": ("run", "--suites", "bounds", "--grid-a", "4.574711093407372e-190",
                     "--grid-c=-56.064997628840494", "--grid-x", "0.19819728788641733"),
    "turanian-nan": ("eval", "turanian:second", "--", "-1.0498223014813028",
                     "11.180985560020886", "3.676203893710691e+244"),
    "turanian-inf-budget": ("eval", "turanian:first", "--", "-23.778218622771682",
                            "-3.4185697950490476e+75", "1.6278328138092446"),
    "zeta-rate-inf": ("sharpness", "--grid-a", "2.6289344176285844e-195",
                      "--grid-c=-3.0246065475647724e154"),
    "psi-subnormal-a": ("eval", "psi", "--", "5e-324", "3.5", "1e-5"),
    "psi-subnormal-nan": ("eval", "psi", "--", "-4.9933301694917e-311",
                          "0.5261279034598146", "9.919739284624609e-89"),
    "i1-limit-inf-budget": ("eval", "bound:I1", "--", "1e-300", "-1e300", "1"),
    "i3-limit-inf-budget": ("eval", "bound:I3", "--", "1e-300", "-1e300", "1"),
}


@pytest.mark.parametrize("argv", FUZZED.values(), ids=FUZZED)
def test_fuzzed_extremes_are_exit_4(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and out == "" and err.startswith("evaluation error: ")


def quotients_within_budget(a, c, x) -> bool:
    """r and s of psi_quotients(a, c, x) within their budgets of 40-digit
    mpmath.hyperu quotients."""
    _, r, s = psi_quotients(ParameterPoint(a, c, x))
    with mpmath.workdps(40):
        A, C, X = mpmath.mpf(a), mpmath.mpf(c), mpmath.mpf(x)
        u0 = mpmath.hyperu(A, C, X)
        return all(abs(value - float(ref)) <= err for (value, err), ref in (
            (r, mpmath.hyperu(A + 1, C, X) / u0), (s, mpmath.hyperu(A + 1, C + 1, X) / u0)))


# fuzzed points where a x t0 underflows, although r and s are normal
# doubles: each exited 4 before r and s were formed from mantissas
TINY_AX = {
    "ratio-tiny-ax": (("eval", "ratio:both", "--", "1.3461539331676207e-242",
                       "-5.5192215979636075", "1.6787938574856139e-206"),
                      [(1.3461539331676207e-242, -5.5192215979636075, 1.6787938574856139e-206)]),
    "run-tiny-ax": (("run", "--suites", "monotonicity", "--grid-a", "1e-250",
                     "--grid-c=-8.775", "--grid-x", "1e-300,1e-299"),
                    [(1e-250, -8.775, 1e-300), (1e-250, -8.775, 1e-299)]),
}


@pytest.mark.parametrize("argv,points", TINY_AX.values(), ids=TINY_AX)
def test_fuzzed_tiny_a_x_delivers(capsys, argv, points):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    if argv[0] == "run":
        # the three auxiliary monotonicity rows, whose margins lie within
        # their budgets
        assert out.splitlines() == ["monotonicity: pass=0 fail=0 inconclusive=3",
                                    "total rows=3 gating_fails=0 advisory_fails=0"]
    assert all(quotients_within_budget(*p) for p in points)


def rejected(capsys, *argv) -> str:
    """The stderr of an argparse rejection of argv, which exits 2."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    return err


class TestRun:
    def test_small_run_from_a_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.args"
        cfg.write_text("--suites=dominance,sharpness\n--grid-a=2\n--grid-c=-2.5\n"
                       "--grid-x=0.1,1\n")
        code, out, _ = run_cli(capsys, "run", f"@{cfg}")
        assert code == 0
        assert out.startswith("dominance: pass=")

    def test_flag_after_the_file_overrides_it(self, capsys, tmp_path):
        cfg = tmp_path / "run.args"
        cfg.write_text("--suites=dominance,sharpness\n--grid-a=2\n--grid-c=-2.5\n"
                       "--grid-x=0.1,1\n")
        code, out, _ = run_cli(capsys, "run", f"@{cfg}", "--suites", "sharpness")
        assert code == 0
        assert out.startswith("sharpness: pass=") and "dominance" not in out
        # and the file overrides a flag before it
        code, out, _ = run_cli(capsys, "run", "--suites", "sharpness", f"@{cfg}")
        assert code == 0 and out.startswith("dominance: pass=")

    def test_blank_and_comment_lines_of_a_settings_file_are_skipped(self, capsys,
                                                                     tmp_path):
        cfg = tmp_path / "run.args"
        cfg.write_text("# sharpness only\n--suites=sharpness\n\n  # comment\n   \n")
        code, out, err = run_cli(capsys, "run", f"@{cfg}")
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "sharpness: pass=28 fail=0 inconclusive=0"

    def test_an_indented_settings_line_is_its_argument(self, capsys, tmp_path):
        flags = ["--suites=dominance", "--grid-a=2", "--grid-c=-2.5", "--grid-x=0.1,1"]
        cfg = tmp_path / "run.args"
        cfg.write_text("".join(f"{pad}{flag}\n"
                               for pad, flag in zip(("", "  ", "\t", " "), flags)))
        code, out, err = run_cli(capsys, "run", f"@{cfg}")
        assert code == 0 and err == ""
        assert out.startswith("dominance: pass=")
        assert out == run_cli(capsys, "run", *flags)[1]
        # a line is still one whole argument
        cfg.write_text("  --format csv\n")
        err = rejected(capsys, "run", f"@{cfg}")
        assert err.endswith("unrecognized arguments: --format csv\n")

    def test_trailing_spaces_of_a_settings_line_are_dropped(self, capsys, tmp_path):
        cfg = tmp_path / "run.args"
        cfg.write_text(f"--suites=sharpness  \n--out={tmp_path / 'o.csv'}  \n")
        code, _, err = run_cli(capsys, "run", f"@{cfg}")
        assert code == 0 and err == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv", "run.args"]

    def test_missing_settings_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "missing.args"
        err = rejected(capsys, "run", f"@{missing}")
        assert "No such file or directory" in err and str(missing) in err

    @pytest.mark.parametrize("flag", ["--config", "--gate-advisory"])
    def test_retired_flags_are_rejected(self, capsys, tmp_path, flag):
        err = rejected(capsys, "run", flag, str(tmp_path / "run.cfg"))
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("command", ["run", "sharpness"])
    def test_bad_numeric_list_names_the_list(self, capsys, command):
        err = rejected(capsys, command, "--grid-a", "abc", "--grid-c", "1")
        assert "argument --grid-a: bad numeric list 'abc'" in err

    def test_empty_suites_flag_is_a_config_error(self, capsys):
        code, out, err = run_cli(capsys, "run", "--suites", "")
        assert code == 2 and out == ""
        assert err == "config error: no suites selected\n"

    def test_empty_suites_key_is_a_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.args"
        cfg.write_text("--suites=\n")
        code, out, err = run_cli(capsys, "run", f"@{cfg}")
        assert code == 2 and out == ""
        assert err == "config error: no suites selected\n"

    # each line of the settings file is "--" + line
    @pytest.mark.parametrize("line", ["tol-moments=oops",
                                      "gate-advisory=maybe", "tol-dominance=0",
                                      "tol-bounds=1e-12",
                                      *(key + "=0.01" for key in TOL_KEYS)])
    def test_bad_config_value_is_a_config_error(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.args"
        cfg.write_text(f"--{line}\n")
        err = rejected(capsys, "run", f"@{cfg}")
        assert err.endswith(f"unrecognized arguments: --{line}\n")

    @pytest.mark.parametrize("flags", [["--grid-x", "nan,1"], ["--grid-a", "inf"]])
    def test_bad_values_are_config_errors(self, capsys, flags):
        code, _, err = run_cli(capsys, "run", *flags)
        assert code == 2 and "config error" in err

    def test_repeated_grid_value_is_a_config_error(self, capsys):
        code, out, err = run_cli(capsys, "run", "--grid-a", "1,2,1")
        assert code == 2 and out == ""
        assert err.startswith("config error: grid a repeats a value")

    @pytest.mark.parametrize("failing", [1, 2])
    def test_evaluation_failure_is_exit_4(self, capsys, failing):
        # psi(200, -1, 0.03) underflows; the pair (0.5, -1) evaluates, so
        # the error comes from the block of the failing pair, whether it is
        # the first or the second pair of the grid
        grid_a = "200,0.5" if failing == 1 else "0.5,200"
        code, out, err = run_cli(capsys, "run", "--suites", "bounds",
                                 "--grid-a", grid_a, "--grid-c", "-1",
                                 "--grid-x", "0.03,1")
        assert code == 4 and out == ""
        assert err.startswith("evaluation error: psi(a=200.0, c=-1.0, x=0.03) "
                              "underflows the double range")

    def test_integer_c_at_a_below_one_is_evaluated(self, capsys):
        # the Turanians and S1 read psi at a and a + 1 only, so no row meets
        # the integer-c hole of psi at a - 1 = -0.5
        code, out, err = run_cli(capsys, "run", "--suites", "bounds",
                                 "--grid-a", "0.5,1", "--grid-c", "-1",
                                 "--grid-x", "0.03,1")
        assert code == 0 and err == ""
        assert "bounds: pass=60 fail=0 inconclusive=0" in out.splitlines()

    def test_closed_form_beyond_the_double_range_is_exit_4(self, capsys):
        # T1L's (c-a-1)/x^2 divides by an x^2 that underflows to 0
        code, out, err = run_cli(capsys, "run", "--suites", "bounds", "--grid-a", "0.5",
                                 "--grid-c", "0.5", "--grid-x", "1e-200")
        assert code == 4 and out == ""
        assert err.startswith("evaluation error: closed form of T1L")

    @pytest.mark.parametrize("a", ["70", "100"])
    def test_s_family_delivers_where_psi_products_underflow(self, capsys, tmp_path, a):
        # the S2 product of three psi values underflows from about a = 70 at
        # x = 1, and used to abort the run; checked against R_c, the
        # S-family forms no product of two psi values, and the run reports
        out = tmp_path / "report.csv"
        code, stdout, err = run_cli(capsys, "run", "--suites", "bounds",
                                    "--grid-a", a, "--grid-c=-0.5", "--grid-x", "1",
                                    "--out", str(out))
        assert code == 0 and err == ""
        assert "total rows=18 gating_fails=0 advisory_fails=1" in stdout.splitlines()
        claims = [line.split(",")[1] for line in out.read_text().splitlines()
                  if line.startswith("bounds,")]
        assert len(claims) == 18 and {"S1", "S2", "S2H"} <= set(claims)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("missing", [True, False], ids=["missing-dir", "empty"])
    def test_unwritable_out_is_an_output_error(self, capsys, tmp_path, missing, fmt):
        # an empty path names no file, as a path in a missing directory does
        out = str(tmp_path / "missing" / f"report.{fmt}") if missing else ""
        code, _, err = run_cli(capsys, "run", "--suites", "dominance",
                               "--grid-a", "2", "--grid-c=-2.5", "--grid-x", "1",
                               "--format", fmt, "--out", out)
        assert code == 2 and "output error" in err

    def test_tol_dominance_flag_is_rejected(self, capsys):
        # as is the --tol-* flag of every other suite
        for flag in ("--" + key for key in TOL_KEYS):
            with pytest.raises(SystemExit) as exc:
                cli.main(["run", flag, "0.01"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    package; return its last line of output."""
    src = str(Path(tricomi_turan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return out.splitlines()[-1]


class TestDependencies:
    def test_every_exported_name_resolves(self):
        missing = [n for n in tricomi_turan.__all__ if not hasattr(tricomi_turan, n)]
        assert missing == []
        namespace: dict = {}
        exec("from tricomi_turan import *", namespace)
        assert all(namespace[n] is getattr(tricomi_turan, n)
                   for n in tricomi_turan.__all__)
        assert set(tricomi_turan.__all__) <= set(dir(tricomi_turan))
        assert tricomi_turan.psi is tricomi_turan.kernel.psi
        with pytest.raises(AttributeError, match="'tricomi_turan' has no attribute 'nope'"):
            tricomi_turan.nope

    def test_first_psi_call_loads_only_the_kernel(self):
        code = (
            "import json, sys\n"
            "import tricomi_turan\n"
            "tricomi_turan.psi(tricomi_turan.ParameterPoint(1.5, -0.5, 2.0))\n"
            "loaded = sorted(m for m in sys.modules if m.startswith(\n"
            "    ('tricomi_turan.', 'multiprocessing', 'concurrent.futures',\n"
            "     'numpy.polynomial')))\n"
            "print(json.dumps([loaded, type(tricomi_turan.suites).__name__]))\n")
        assert json.loads(run_python(code)) == [["tricomi_turan.kernel"], "module"]

    @pytest.mark.parametrize("argv", [
        ["run", "--grid-a", "2.0", "--grid-c=-2.5,0.25", "--grid-x", "0.5,1.0"],
        ["eval", "psi", "1.5", "-0.5", "2.0"]], ids=["run", "eval-psi"])
    def test_a_command_that_does_not_pool_loads_no_pool(self, argv):
        code = (
            "import contextlib, io, json, sys\n"
            "from tricomi_turan import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = cli.main({argv!r})\n"
            "print(json.dumps([status, sorted(m for m in sys.modules if m.startswith(\n"
            "    ('multiprocessing', 'concurrent.futures')))]))\n")
        assert json.loads(run_python(code)) == [0, []]

    def test_eval_phi_overflow_is_exit_4_with_warnings_as_errors(self):
        # as `python -W error -m tricomi_turan.cli eval phi ...`
        code = (
            "import contextlib, io, json, warnings\n"
            "warnings.simplefilter('error')\n"
            "from tricomi_turan import cli\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            "    status = cli.main(['eval', 'phi', '2.83945484647252',\n"
            "                       '-7.39957633803421', '6.555282404372128e+221'])\n"
            "print(json.dumps([status, err.getvalue()]))\n")
        status, err = json.loads(run_python(code))
        assert status == 4
        assert err.startswith("evaluation error: ") and err.count("\n") == 1

    def test_numpy_is_the_only_numerical_dependency(self):
        code = (
            "import json, sys\n"
            "import tricomi_turan.cli\n"
            "from tricomi_turan import (ParameterPoint, RunConfig, WeightDensity,\n"
            "                           phi, psi, run)\n"
            "psi(ParameterPoint(1.5, -0.5, 2.0))\n"
            "phi(WeightDensity(1.5, -0.5), 2.0)\n"
            "run(RunConfig(grid_a=(2.0,), grid_c=(-2.5,), grid_x=(0.5, 1.0)))\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.startswith(('scipy', 'numpy.polynomial')))))\n")
        # the phi tables' Gauss-Legendre rule is constants: no numpy.polynomial
        assert json.loads(run_python(code)) == []
