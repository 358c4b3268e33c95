"""Golden CLI transcripts: a fixed corpus of commands, in text and --json
form, must print exactly these bytes and exit with these codes.

Regenerate a row only when a change is meant to alter that output, and say
so in CHANGES.md.
"""

import pytest

from skewpuiseux.cli import main

Q2 = "t^2 - (2+x)*t + (1+2*x)"
# at 128 bits every split of this cubic lifts to its target, and the
# factorization misses its residual bound
CUBIC = "t^3 - (6+x)*t^2 + (11+3*x)*t - (6+2*x)"

# (argv, exit code, stdout, stderr)
GOLDEN = [
    (["factor", "--alpha", "2", "--prec", "40", "t^2 - 2*t + 1"],
     0, 'f = t^2 - 2*t + 1\nfactor: t - 1\nfactor: t - 1\nresidual: 0.0  order: 40  ramification: 1\n',
     ''),
    (["factor", "--alpha", "2", "--prec", "40", "t^2 - 2*t + 1", "--json"],
     0, '{"factors": ["t - 1", "t - 1"], "order": "40", "ramification": 1, "residual": "0.0"}\n',
     ''),
    (["factor", "--alpha", "2", "--prec", "5", "t^2 - 3*t + 2"],
     0, 'f = t^2 - 3*t + 2\nfactor: t + (-1 + O(x^9))\nfactor: t + (-2 + O(x^9))\nresidual: 0.0  order: 5  ramification: 1\n',
     ''),
    (["factor", "--alpha", "2", "--prec", "5", "t^2 - 3*t + 2", "--json"],
     0, '{"factors": ["t + (-1 + O(x^9))", "t + (-2 + O(x^9))"], "order": "5", "ramification": 1, "residual": "0.0"}\n',
     ''),
    (["factor", "--alpha", "2", "--prec", "6", "t^2 - (1+x)*t"],
     0, 'f = t^2 + (-1 - x)*t\nfactor: t + (O(x^10))\nfactor: t + (-1 - 0.5*x + O(x^10))\nresidual: 0.0  order: 6  ramification: 1\n',
     ''),
    (["factor", "--alpha", "2", "--prec", "6", "t^2 - (1+x)*t", "--json"],
     0, '{"factors": ["t + (O(x^10))", "t + (-1 - 0.5*x + O(x^10))"], "order": "6", "ramification": 1, "residual": "0.0"}\n',
     ''),
    (["factor", "--alpha", "1", "--prec", "6", "t^2 - x"],
     0, 'f = t^2 + (-x)\nfactor: t + (x^(1/2) + O(x^(23/2)))\nfactor: t + (-x^(1/2) + O(x^(23/2)))\nresidual: 0.0  order: 6  ramification: 2\n',
     ''),
    (["factor", "--alpha", "1", "--prec", "6", "t^2 - x", "--json"],
     0, '{"factors": ["t + (x^(1/2) + O(x^(23/2)))", "t + (-x^(1/2) + O(x^(23/2)))"], "order": "6", "ramification": 2, "residual": "0.0"}\n',
     ''),
    # non-monic: the lead is split off as a left unit
    (["factor", "--alpha", "2", "--prec", "4", "2*t^2 - 2"],
     0, 'f = 2*t^2 - 2\nunit: 2\nfactor: t + (1 + O(x^8))\nfactor: t + (-1 + O(x^8))\nresidual: 0.0  order: 4  ramification: 1\n',
     ''),
    (["factor", "--alpha", "2", "--prec", "4", "2*t^2 - 2", "--json"],
     0, '{"factors": ["t + (1 + O(x^8))", "t + (-1 + O(x^8))"], "order": "4", "ramification": 1, "residual": "0.0", "unit": "2"}\n',
     ''),
    (["sigma-zero", "--alpha", "2", "--prec", "4", "t^2 - (1+x)*t"],
     0, 'zero: 1 + 0.5*x + O(x^8)\ncheck_ord: 8\n',
     ''),
    (["sigma-zero", "--alpha", "2", "--prec", "4", "t^2 - (1+x)*t", "--json"],
     0, '{"check_ord": "8", "zero": "1 + 0.5*x + O(x^8)"}\n',
     ''),
    (["sigma-zero", "--alpha", "i", "--prec", "8", "t^2 - (1+x^2)"],
     2, '',
     'obstruction: obstruction at exponent 2: vanishing pivot with nonzero forcing term\n'),
    (["sigma-zero", "--alpha", "i", "--prec", "8", "t^2 - (1+x^2)", "--json"],
     2, '{"error": "obstruction", "q": "2"}\n',
     ''),
    (["eval", "--alpha", "2", "t^2 + x*t", "1 + x"],
     0, '1 + 4*x + 3*x^2\n',
     ''),
    (["eval", "--alpha", "2", "t^2 + x*t", "1 + x", "--json"],
     0, '{"value": "1 + 4*x + 3*x^2"}\n',
     ''),
    (["mul", "--alpha", "3/2", "t + x", "t - x^(1/2)"],
     0, 't^2 + (-1.2247448713915890490986420373529456959834*x^(1/2) + x)*t + (-x^(3/2))\n',
     ''),
    (["mul", "--alpha", "3/2", "t + x", "t - x^(1/2)", "--json"],
     0, '{"product": "t^2 + (-1.2247448713915890490986420373529456959834*x^(1/2) + x)*t + (-x^(3/2))"}\n',
     ''),
    (["divmod", "--base", "conj-series", "t^3 + (i+x)*t", "t - i"],
     0, 'quotient: t^2 + 1i*t + ((-1+1i) + x)\nremainder: ((-1-1i) - 1i*x)\n',
     ''),
    (["divmod", "--base", "conj-series", "t^3 + (i+x)*t", "t - i", "--json"],
     0, '{"quotient": "t^2 + 1i*t + ((-1+1i) + x)", "remainder": "((-1-1i) - 1i*x)"}\n',
     ''),
    (["verify", "--alpha", "2", "t^2 - 2*t + 1", "5", "7"],
     3, 'residual: 34.0\neval_ord: 0\nok: false\n',
     ''),
    (["verify", "--alpha", "2", "t^2 - 2*t + 1", "5", "7", "--json"],
     3, '{"eval_ord": "0", "ok": false, "residual": "34.0"}\n',
     ''),
    (["hensel", "--alpha", "2", "--prec", "8", Q2, "t - 1", "t - 1"],
     0, 'g_hat: t + (-1 - 3*x - 4*x^2 - 8*x^3 - 16*x^4 - 32*x^5 - 64*x^6 - 128*x^7 + O(x^8))\nh_hat: t + (-1 + x + x^2 + x^3 + x^4 + x^5 + x^6 + x^7 + O(x^8))\nachieved_order: 8\n',
     ''),
    (["hensel", "--alpha", "2", "--prec", "8", Q2, "t - 1", "t - 1", "--json"],
     0, '{"achieved_order": "8", "g_hat": "t + (-1 - 3*x - 4*x^2 - 8*x^3 - 16*x^4 - 32*x^5 - 64*x^6 - 128*x^7 + O(x^8))", "h_hat": "t + (-1 + x + x^2 + x^3 + x^4 + x^5 + x^6 + x^7 + O(x^8))"}\n',
     ''),
    (["hensel", "--alpha", "1", "--prec", "8", Q2, "t - 1", "t - 1"],
     2, '',
     'obstruction: residues not coprime against the twist at n=1 (common factor t - 1)\n'),
    (["hensel", "--alpha", "1", "--prec", "8", Q2, "t - 1", "t - 1", "--json"],
     2, '{"error": "twist_coprime_failed", "n": 1, "witness": "t - 1"}\n',
     ''),
    (["hensel", "--base", "conj-series", "--prec", "6", "t^2 - 3*t + (2+x)", "t - 2", "t - 1"],
     0, 'g_hat: t + (-2 + x + x^2 + 2*x^3 + 5*x^4 + 14*x^5 + O(x^6))\nh_hat: t + (-1 - x - x^2 - 2*x^3 - 5*x^4 - 14*x^5 + O(x^6))\nachieved_order: 6\n',
     ''),
    (["hensel", "--base", "conj-series", "--prec", "6", "t^2 - 3*t + (2+x)", "t - 2", "t - 1", "--json"],
     0, '{"achieved_order": "6", "g_hat": "t + (-2 + x + x^2 + 2*x^3 + 5*x^4 + 14*x^5 + O(x^6))", "h_hat": "t + (-1 - x - x^2 - 2*x^3 - 5*x^4 - 14*x^5 + O(x^6))"}\n',
     ''),
    (["hensel", "--base", "conj-series", "--prec", "6", "t^2 + (1+x)", "t + i", "t - i"],
     2, '',
     'obstruction: residues not coprime against the twist at n=1 (common factor t + 1i)\n'),
    (["hensel", "--base", "conj-series", "--prec", "6", "t^2 + (1+x)", "t + i", "t - i", "--json"],
     2, '{"error": "twist_coprime_failed", "n": 1, "witness": "t + 1i"}\n',
     ''),
    (["factor", "--alpha", "2", "--prec", "15", CUBIC],
     4, '',
     'error: factorization residual 4.8655e-15 above 5.9631e-19\n'),
    (["factor", "--alpha", "2", "--prec", "15", CUBIC, "--json"],
     4, '{"error": "numerical", "kind": "PrecisionExhausted", "message": "factorization residual 4.8655e-15 above 5.9631e-19"}\n',
     ''),
    # ramification 257 trips the budget at the top level, before any lift
    (["factor", "--alpha", "2", "--prec", "4", "t^257 - x"],
     4, '',
     'error: ramification budget 256 exhausted\n'),
    (["factor", "--alpha", "2", "--prec", "4", "t^257 - x", "--json"],
     4, '{"error": "numerical", "kind": "PrecisionExhausted", "message": "ramification budget 256 exhausted"}\n',
     ''),
    # a constant is all unit: no factor
    (["factor", "--alpha", "2", "--prec", "4", "2"],
     0, 'f = 2\nunit: 2\nresidual: 0.0  order: 4  ramification: 1\n',
     ''),
    (["factor", "--alpha", "2", "--prec", "4", "2", "--json"],
     0, '{"factors": [], "order": "4", "ramification": 1, "residual": "0.0", "unit": "2"}\n',
     ''),
    # a coefficient known to O(x^0) leaves the lift no order to reach
    (["factor", "--alpha", "2", "--prec", "4", "t^2 - 3*t + (2 + O(x^0))"],
     4, '',
     'error: no series precision left for lifting\n'),
    (["factor", "--alpha", "2", "--prec", "4", "t^2 - 3*t + (2 + O(x^0))", "--json"],
     4, '{"error": "numerical", "kind": "PrecisionExhausted", "message": "no series precision left for lifting"}\n',
     ''),
    # alpha = i: the quadratic oracle's pivot vanishes at even k, and so
    # does its forcing term
    (["sigma-zero", "--alpha", "i", "--prec", "4", "t^2 - 1"],
     0, 'zero: -1 + O(x^4)\ncheck_ord: 4\n',
     ''),
    (["sigma-zero", "--alpha", "i", "--prec", "4", "t^2 - 1", "--json"],
     0, '{"check_ord": "4", "zero": "-1 + O(x^4)"}\n',
     ''),
]


@pytest.mark.parametrize("argv, code, out, err", GOLDEN,
                         ids=[" ".join(row[0]) for row in GOLDEN])
def test_cli_golden(capsys, argv, code, out, err):
    assert main(list(argv)) == code
    got = capsys.readouterr()
    assert got.out == out
    assert got.err == err
