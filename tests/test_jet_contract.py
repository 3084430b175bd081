"""Taylor jets pinned bit for bit against a recorded contract.

``tests/data/jet_contract.json`` holds, for every (expression, x0, m) case
below, the jet coefficients as ``float.hex`` strings or the exception type
and message.  Its first part was recorded before the constant folder became
exact-only, the ``SHAPES`` part before expressions were compiled once,
and the ``DEGREE_RULES`` part before jet rules were priced by degree.
Each recorded (expression, order) group is also replayed as one batch of
jets, ``jet_provider(expr).many``, which must give the same bits at every
point.  Regenerate the file from a checkout with

    PYTHONPATH=src python tests/test_jet_contract.py > tests/data/jet_contract.json

Exact equality is required.  The one message that was renamed then, for a
non-positive base under a variable exponent, is mapped through
``RENAMED_MESSAGES``; the exponent forms whose value or message changed
are asserted separately, in ``TestExponentRules``.  A regenerated file
therefore differs from the committed one in the entries that carry the old
message: it records them under the new one.
"""

import json
import math
from pathlib import Path

import pytest

from hermquad.cli import main
from hermquad.expressions import EvalDomainError, jet_eval, jet_provider, parse

#: One of each benchmark factor kind per parameter, two rendered benchmark
#: integrands, and the test corpus.
FACTORS = tuple(
    [f"exp({p}*x)" for p in ("0.5", "-0.5", "1", "-1", "1.5")]
    + [f"{fn}({p}*x)" for fn in ("sin", "cos") for p in ("1", "2", "3")]
    + ["log(1+x^2)"]
    + [f"1/({p}+x^2)" for p in ("1", "2", "3")]
    + [f"sqrt({p}+x)" for p in ("2", "3", "4")]
    + ["x^2", "x^3"]
    + ["0.3*exp(0.5*x)*sin(2*x) + 1.5*x^3", "2.5*log(1+x^2)*1/(2+x^2) + 0.5*sqrt(3+x)"]
)
CORPUS = ("exp(x)", "sin(x)", "x^2*sin(x)", "1/(1+x^2)")
KNOWN_DEFECTS = ("exp(-100000000*(x-0.30001)^2)", "sin(1/x)")
CONSTANTS = (
    "pi*x", "x+pi", "pi^2*x", "sin(1)*x", "exp(2)+x", "sqrt(2)*x", "log(3)/x",
    "cos(pi)*x^2", "2^0.5*x", "(-8)^(1/3)+x",
)
RATIONAL_EXPONENTS = (
    "x^(3/2)", "x^(0.1+0.2)", "x^(4/2)", "x^(0.5*4)", "x^(2^-1)", "x^-3", "x^0",
)
VARIABLE_EXPONENTS = ("x^x", "2^x", "(-2)^x", "x^(1/0)")

EXPRESSIONS = FACTORS + CORPUS + KNOWN_DEFECTS + CONSTANTS + RATIONAL_EXPONENTS + VARIABLE_EXPONENTS
POINTS = (0.7, 1.3, -0.4)
ORDERS = (0, 3, 12)

#: Precedence of "^" and unary minus, exponents that fold (or do not) to an
#: exact integer or rational, zero and negative bases, and expressions with
#: two faults, where the one met first in evaluation order must surface.
SHAPES = (
    "2^x^2", "x^2^-1", "x^-2^2", "-x^2",
    "x^(6/3)", "x^((-2)^2)", "x^(2^2^-1*4)", "x^(pi/2)", "x^log(2)", "x^(2^20)",
    "(x-x)^-1", "1/(x-x)", "(-x)^0.5", "(-x)^x",
    "log(-x)^sqrt(-x)", "sqrt(-x)+log(-x)", "log(-x)+1e400", "1e400+log(-x)",
    "x^(1e400/1e399)", "x^(1/(1-1))", "(x^2)^(1/2)", "sin(x)^cos(x)",
)
SHAPE_POINTS = POINTS + (0.0,)

#: Products priced by degree (constant times jet on either side, the banded
#: product, integer powers), and a constant added to or subtracted from a
#: jet, divided by a polynomial, or inside exp, sin, cos or log of one,
#: where a signed zero decides the result and where an operand holds inf or
#: nan, so that a rule that skips zero terms must fall back to the dense one.
#: The last product's t_2 at 0 is 1e16 + 1 - 1e16: 0.0 summed left to right,
#: 1.0 if compensated, as sum() of floats is from Python 3.12.
DEGREE_RULES = (
    "-2*(x-x)", "(x-x)*-2", "-3*x", "x*-3",
    "1+-x", "-1+-x", "-x+1", "-x+-1", "1-x", "-1-x", "x-(-1)", "-x-(-1)",
    "(x+1)^3*(x-1)^2", "(1-x)^5", "(-x)^3", "-1/(1+x^2)", "(x-x)/(2+x)",
    "exp(-x)*sin(-x)*cos(0*x)*log(1+x^2)",
    "1e308*10*x", "x*(1e308*10)", "1e308*10+x", "x-1e308*10",
    "(1e308*10-1e308*10)*x^2", "x^2*exp(1e308*10*x)", "(x*1e308*10)^2", "1/(1e308*10+x^2)",
    "(1e16 + x - 1e16*x^2) * (1 + x + x^2)",
)
DEGREE_POINTS = (0.0, -0.0, 0.7, 1e200)

CASES = (
    [(t, x0, m) for t in EXPRESSIONS for x0 in POINTS for m in ORDERS]
    + [(t, x0, m) for t in SHAPES for x0 in SHAPE_POINTS for m in ORDERS]
    + [(t, x0, m) for t in DEGREE_RULES for x0 in DEGREE_POINTS for m in ORDERS]
)

#: Before the exponent rules were unified, a variable exponent on a
#: non-positive base had a message of its own.
RENAMED_MESSAGES = {
    "power of a non-positive base": "non-integer power of a non-positive base",
}

ONE_MESSAGE = "non-integer power of a non-positive base"


def record(text, x0, m) -> dict:
    entry = {"fn": text, "x0": x0, "m": m}
    try:
        entry["jet"] = [t.hex() for t in jet_eval(parse(text), x0, m).coeffs]
    except (ValueError, OverflowError) as exc:  # errors are part of the contract
        entry["error"] = type(exc).__name__
        entry["message"] = str(exc)
    return entry


def _renamed(message: str) -> str:
    head, sep, tail = message.partition(" in '")
    return RENAMED_MESSAGES.get(head, head) + sep + tail


CONTRACT = ([] if __name__ == "__main__" else
            json.loads((Path(__file__).parent / "data" / "jet_contract.json").read_text()))


def test_contract_covers_every_case():
    recorded = [(e["fn"], e["x0"], e["m"]) for e in CONTRACT]
    assert recorded == CASES


@pytest.mark.parametrize("want", CONTRACT, ids=lambda e: f"{e['fn']}@{e['x0']}/{e['m']}")
def test_jet_contract(want):
    got = record(want["fn"], want["x0"], want["m"])
    if "message" in want:
        want = dict(want, message=_renamed(want["message"]))
    assert got == want


def _groups() -> dict:
    """The recorded entries by (expression, order), points in recorded order."""
    groups = {}
    for entry in CONTRACT:
        groups.setdefault((entry["fn"], entry["m"]), []).append(entry)
    return groups


GROUPS = _groups()


@pytest.mark.parametrize("fn, m", GROUPS, ids=str)
def test_jet_contract_as_one_batch(fn, m):
    # Each point's derivatives are k! t_k of its recorded coefficients, bit for bit.
    entries = GROUPS[fn, m]
    many = jet_provider(parse(fn)).many
    fine = [e for e in entries if "jet" in e]
    want = [[(math.factorial(k) * float.fromhex(t)).hex() for k, t in enumerate(e["jet"])]
            for e in fine]
    assert [[t.hex() for t in jet] for jet in many([e["x0"] for e in fine], m)] == want
    failing = [e for e in entries if "error" in e]
    if failing:  # the batch of all the points raises the first failing point's error
        with pytest.raises(EvalDomainError) as err:
            many([e["x0"] for e in entries], m)
        assert (type(err.value).__name__, str(err.value)) == (
            failing[0]["error"], _renamed(failing[0]["message"]))


class TestExponentRules:
    """Exponents that are not exact rationals evaluate as exp(e * log(base))."""

    @pytest.mark.parametrize("exponent", ["pi", "sin(1)", "2^0.5"])
    @pytest.mark.parametrize("x0", [0.7, 1.3])
    def test_non_rational_exponent_is_exp_e_log(self, exponent, x0):
        got = jet_eval(parse(f"x^({exponent})"), x0, 12).coeffs
        want = jet_eval(parse(f"exp(({exponent})*log(x))"), x0, 12).coeffs
        assert [t.hex() for t in got] == [t.hex() for t in want]

    def test_square_root_of_two_is_not_folded_with_pow(self):
        # 2^0.5 evaluates the same way inside an exponent as outside one.
        value = jet_eval(parse("x^(2^0.5)"), math.e, 0).value
        assert value == math.exp(math.exp(0.5 * math.log(2.0)) * math.log(math.e))
        assert jet_eval(parse("2^0.5"), 0.0, 0).value == math.exp(0.5 * math.log(2.0))

    @pytest.mark.parametrize("text", ["x^pi", "x^sin(1)", "x^(2^0.5)", "x^x", "(-2)^x"])
    def test_one_message_for_a_non_positive_base(self, text):
        with pytest.raises(EvalDomainError) as err:
            jet_eval(parse(text), -0.4, 3)
        assert str(err.value).startswith(ONE_MESSAGE + " in ")

    @pytest.mark.parametrize("text", ["x^((-8)^(1/3))", "x^sin((-8)^(1/3))"])
    def test_complex_exponent_is_a_domain_error(self, text):
        with pytest.raises(EvalDomainError) as err:
            jet_eval(parse(text), 1.5, 3)
        assert str(err.value) == f"{ONE_MESSAGE} in '(-8 ^ (1 / 3))'"

    @pytest.mark.parametrize("fn", ["x^((-8)^(1/3))", "x^sin((-8)^(1/3))"])
    def test_complex_exponent_exits_2(self, capsys, fn):
        code = main(["integrate", "--n", "2", "--a", "1", "--b", "2", "--fn", fn])
        err = capsys.readouterr().err
        assert code == 2
        assert "numerical failure" in err and "Traceback" not in err


if __name__ == "__main__":
    cases = [record(t, x0, m) for t, x0, m in CASES]
    print("[\n" + ",\n".join(json.dumps(case) for case in cases) + "\n]")
