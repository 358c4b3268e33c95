import io
import json
import re

import pytest

from skewpuiseux import bits, parse_poly, puiseux_ring, series_to_str
from skewpuiseux.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_factor_remark_final(capsys):
    code, out, _ = run_cli(capsys, "factor", "--alpha", "2", "--prec", "40",
                           "--json", "t^2 - 2*t + 1")
    assert code == 0
    payload = json.loads(out)
    assert payload["factors"] == ["t - 1", "t - 1"]
    assert float(payload["residual"]) == 0.0


def test_factor_output_is_deterministic(capsys):
    args = ("factor", "--alpha", "3/2", "--prec", "12", "--json",
            "t^2 - (2+x)*t + (1+2*x)")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sigma_zero_command(capsys):
    code, out, _ = run_cli(capsys, "sigma-zero", "--alpha", "2", "--prec", "10",
                           "--json", "t^2 - (2+x)*t + (1+2*x)")
    assert code == 0
    payload = json.loads(out)
    from mpmath import mp

    from skewpuiseux import bits, parse_series
    with bits(128):
        z = parse_series(payload["zero"])
        assert abs(z.coeff(0) - 1) < mp.mpf(2) ** -96
        assert abs(z.coeff(1) + 1) < mp.mpf(2) ** -96
        assert abs(z.coeff(2) + 1) < mp.mpf(2) ** -96


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_sigma_zero_of_a_constant_is_a_usage_error(capsys, json_flag):
    code, out, err = run_cli(capsys, "sigma-zero", "--alpha", "2", "5", *json_flag)
    assert code == 1
    assert out == ""
    assert err == "error: sigma_zero needs degree >= 1\n"


def test_hensel_twist_failure_exit_code(capsys):
    code, out, _ = run_cli(capsys, "hensel", "--alpha", "1", "--prec", "8",
                           "--json", "t^2 - (2+x)*t + (1+2*x)", "t - 1", "t - 1")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "twist_coprime_failed"
    assert payload["n"] == 1


def test_hensel_success(capsys):
    code, out, _ = run_cli(capsys, "hensel", "--alpha", "2", "--prec", "8",
                           "--json", "t^2 - (2+x)*t + (1+2*x)", "t - 1", "t - 1")
    assert code == 0
    payload = json.loads(out)
    assert payload["achieved_order"] in ("8", "inf")
    assert payload["h_hat"].startswith("t + (-1 + x + x^2")


def test_hensel_conj_series_base(capsys):
    code, out, _ = run_cli(capsys, "hensel", "--base", "conj-series", "--prec", "6",
                           "--json", "t^2 + (1+x)", "t + i", "t - i")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "twist_coprime_failed"
    assert payload["n"] == 1
    assert payload["witness"] == "t + 1i"


def test_obstruction_exit_code(capsys):
    code, out, _ = run_cli(capsys, "sigma-zero", "--alpha", "i", "--prec", "8",
                           "--json", "t^2 - (1+x^2)")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "obstruction"
    assert payload["q"] == "2"


def test_complex_alpha_restricted(capsys):
    code, _, err = run_cli(capsys, "factor", "--alpha", "i", "t^2 - 1")
    assert code == 1
    assert "complex" in err


def test_eval_command(capsys):
    code, out, _ = run_cli(capsys, "eval", "--alpha", "2", "--json",
                           "t^2", "x")
    assert code == 0
    assert json.loads(out)["value"] == "2*x^2"


def test_eval_conj_base(capsys):
    # in C[[x,rho]][t] the variable t is central: t^2 - 1 at i gives -2,
    # and the rho-twist shows up through x instead
    code, out, _ = run_cli(capsys, "eval", "--base", "conj-series", "--json",
                           "t^2 - 1", "i")
    assert code == 0
    assert json.loads(out)["value"] == "-2"
    code, out, _ = run_cli(capsys, "mul", "--base", "conj-series", "--json",
                           "(x)*t", "i")
    assert code == 0
    assert json.loads(out)["product"] == "(-1i*x)*t"


def test_mul_and_divmod(capsys):
    code, out, _ = run_cli(capsys, "mul", "--alpha", "2", "--json", "t", "x")
    assert code == 0
    assert json.loads(out)["product"] == "(2*x)*t"
    code, out, _ = run_cli(capsys, "divmod", "--alpha", "2", "--json",
                           "t^2", "t - 1")
    assert code == 0
    payload = json.loads(out)
    assert payload["quotient"] == "t + 1"
    assert payload["remainder"] == "1"


def test_mul_and_divmod_keep_truncated_zeros(capsys):
    # a coefficient that is zero known only to O(x^3) carries its
    # truncation into the product and into the remainder
    code, out, _ = run_cli(capsys, "mul", "--alpha", "2", "--json",
                           "(O(x^3))*t + 1", "t + 1")
    assert code == 0
    assert json.loads(out)["product"] == "(O(x^3))*t^2 + (1 + O(x^3))*t + 1"
    code, out, _ = run_cli(capsys, "divmod", "--alpha", "2", "--json",
                           "(O(x^3))*t^2 + t + 1", "t + 1")
    assert code == 0
    payload = json.loads(out)
    assert payload["quotient"] == "(O(x^3))*t + (1 + O(x^3))"
    assert payload["remainder"] == "(O(x^3))"


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--alpha", "2", "--json",
                           "t^2 - 2*t + 1", "1", "1")
    assert code == 0
    payload = json.loads(out)
    assert float(payload["residual"]) == 0.0


def test_verify_command_reports_failure(capsys):
    # (t-5)(t-7) is not t^2 - 2t + 1: the residual is far above the noise
    code, out, _ = run_cli(capsys, "verify", "--alpha", "2", "--json",
                           "t^2 - 2*t + 1", "5", "7")
    assert code == 3
    payload = json.loads(out)
    assert payload["ok"] is False
    assert float(payload["residual"]) == 34.0
    code, out, _ = run_cli(capsys, "verify", "--alpha", "2",
                           "t^2 - 2*t + 1", "5", "7")
    assert code == 3
    assert out.splitlines()[-1] == "ok: false"


def test_verify_reads_back_a_printed_zero_in_exponent_notation(capsys):
    # the sigma-zero prints its x^14 coefficient as (3.14...e-13)*x^14;
    # verify takes it with the left zero of the same factorization.  The
    # zeros stop at O(x^16), the target order, so x^14 is computed
    args = ("--alpha", "3", "--prec", "16", "--bits", "128")
    f = "t^2 - (1+x^2)"
    code, out, _ = run_cli(capsys, "sigma-zero", *args, f)
    assert code == 0
    zero = out.splitlines()[0].removeprefix("zero: ")
    assert "e-13)*x^14" in zero
    code, out, _ = run_cli(capsys, "factor", *args, "--json", f)
    assert code == 0
    with bits(128):
        left = parse_poly(json.loads(out)["factors"][0], puiseux_ring(3))
        left_zero = series_to_str(-left.coeffs[0])
    code, out, _ = run_cli(capsys, "verify", *args, f, left_zero, zero)
    assert code == 0
    assert out.splitlines()[-1] == "ok: true"


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("t^2 - 2*t + 1"))
    code, out, _ = run_cli(capsys, "factor", "--alpha", "2", "--json", "-")
    assert code == 0
    assert json.loads(out)["factors"] == ["t - 1", "t - 1"]


def test_env_var_bits(capsys, monkeypatch):
    monkeypatch.setenv("SKEWPUISEUX_BITS", "96")
    code, out, _ = run_cli(capsys, "sigma-zero", "--alpha", "2", "--prec", "6",
                           "--json", "t^2 - (2+x)*t + (1+2*x)")
    assert code == 0


@pytest.mark.parametrize("value", ["0", "1", "-5", "48"])
def test_bits_below_the_least_precision_are_rejected(capsys, value):
    code, out, err = run_cli(capsys, "factor", "--alpha", "2", "--bits", value,
                             "t^2 - 3*t + 2")
    assert code == 1
    assert out == ""
    assert err == f"error: bits must be at least 49, not {value}\n"


def test_least_precision_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "factor", "--alpha", "2", "--bits", "49",
                           "--prec", "5", "--json", "t^2 - 3*t + 2")
    assert code == 0
    assert json.loads(out)["factors"] == ["t + (-1 + O(x^5))", "t + (-2 + O(x^5))"]


@pytest.mark.parametrize("value", ["abc", "12.5", "0"])
def test_bad_env_var_bits_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("SKEWPUISEUX_BITS", value)
    code, out, err = run_cli(capsys, "factor", "--alpha", "2", "t - 1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_bits_help_states_the_least_precision(capsys):
    code, out, _ = run_cli(capsys, "factor", "--help")
    assert code == 0
    assert "at least 49" in " ".join(out.split())


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "factor", "--alpha", "2", "t^^2")
    assert code == 1
    assert "position" in err


def test_usage_error_without_alpha(capsys):
    code, _, err = run_cli(capsys, "factor", "t^2 - 1")
    assert code == 1
    assert "alpha" in err


@pytest.mark.parametrize("argv, message", [
    (("factor", "--alpha", "2", "--prec", "abc", "t^2-1"),
     "error: --prec must be a rational number, not 'abc'\n"),
    (("factor", "--alpha", "2", "--prec", "1/0", "t^2-1"),
     "error: --prec must be a rational number, not '1/0'\n"),
    (("eval", "--alpha", "2", "t^2", "1/0"), "error: division by zero at position 2\n"),
    (("factor", "--alpha", "2", "t^2 - x^(1/0)"), "error: division by zero at position 11\n"),
    (("factor", "--alpha", "2", "--prec", "-3", "t^2-3*t+2"),
     "error: the target order must be positive, not -3\n"),
    (("factor", "--alpha", "2", "--prec", "0", "t^2-3*t+2"),
     "error: the target order must be positive, not 0\n"),
    (("hensel", "--alpha", "2", "--prec", "-2", "t^2-3*t+2", "t-1", "t-2"),
     "error: the target order must be positive, not -2\n"),
    (("factor", "--alpha", "2", "t^2e1 - 1"), "error: t-degrees must be integers at position 2\n"),
    (("factor", "--alpha", "2", "t^2 - x^(1e2)"),
     "error: exponents must be integers or fractions at position 9\n"),
], ids=["prec-word", "prec-zero-denominator", "scalar-zero-divisor", "exponent-zero-denominator",
        "prec-negative", "prec-zero", "hensel-prec-negative", "t-degree-in-exponent-notation",
        "x-exponent-in-exponent-notation"])
def test_malformed_input_is_a_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--tol-root", "--tol-orbit", "--zero-bits",
                                  "--ramification-cap", "--max-classical-iterations"])
def test_removed_tolerance_flags_are_rejected(capsys, flag):
    code, out, err = run_cli(capsys, "factor", "--alpha", "2", flag, "40", "t^2 - 1")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


def test_zeros_of_a_real_cubic_print_no_imaginary_dust(capsys):
    # Newton polishing left imaginary parts of ~1e-216 on the real residue
    # roots, and every zero printed them as (-1.5+1.47e-216i)*x + ...
    args = ("factor", "--alpha", "3/2", "--prec", "6", "t^3 - x*t + x^2")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and out.count("\nfactor: ") == 3
    assert re.search(r"\di", out) is None, out
    code, out, _ = run_cli(capsys, *args, "--json")
    assert code == 0 and len(json.loads(out)["factors"]) == 3
    assert re.search(r"\di", out) is None, out


@pytest.mark.parametrize("args, count", [
    (("--alpha", "1", "--prec", "6", "t^4 - (2+x)*t^2 + 1"), 4),
    (("--alpha", "3", "--prec", "8", "t^3 - 2*t^2 + (1+x)*t - x^2"), 3),
])
def test_refined_factor_pairs_print_no_imaginary_dust(capsys, args, count):
    # these real polynomials have double residue roots; the residue factor
    # pairs, the products of the roots, must leave no imaginary parts on
    # their zeros (a Newton correction of the pair once left ~1e-41 and ~1e-58)
    code, out, _ = run_cli(capsys, "factor", *args)
    assert code == 0 and out.count("\nfactor: ") == count
    assert re.search(r"\di", out) is None, out


@pytest.mark.parametrize("prec, out", [
    ("5/2", "g_hat: t + (-1 + O(x^3))\nh_hat: t + (-2 + O(x^3))\nachieved_order: 3\n"),
    ("1/2", "g_hat: t + (-1 + O(x))\nh_hat: t + (-2 + O(x))\nachieved_order: 1\n"),
])
def test_hensel_lifts_to_at_least_a_fractional_prec(capsys, prec, out):
    # the target order is rounded up: a floor would stop short of --prec,
    # and at 1/2 would drop the exact constant terms of the inputs
    code, got, err = run_cli(capsys, "hensel", "--alpha", "2", "--prec", prec,
                             "t^2-(3+x^3)*t+2", "t-1", "t-2")
    assert (code, got, err) == (0, out, "")


def test_sigma_zero_order_check_reads_the_zero_at_its_own_bits(capsys):
    # the zero, to O(x^10) at target order 10, has coefficients that grow
    # to 9.7e21 at x^9 and hold 217-bit mantissas; t - z negates them
    # exactly, so the check divides by z itself, not by its 128-bit
    # rounding, and reaches order 10
    code, out, _ = run_cli(capsys, "sigma-zero", "--alpha", "1/2", "--prec", "10",
                           "--bits", "128", "t^4 - 2*t^2 + x")
    assert code == 0
    assert out.splitlines()[-1] == "check_ord: 10"
