"""Output of ``composite`` pinned byte for byte against a recorded contract.

``tests/data/composite_contract.json`` holds, for every argv in CASES, the
exit code, stdout and stderr of ``hermquad.cli.main``: composite tables for
rule orders 1..8 in every format, on intervals ending at pi and at decimals,
with doubling and non-doubling panel counts, and a domain error at a node.
A table prints floats formed from node jets, exact widths and rounded
weights, so this pins how the jets are batched and the widths are read,
not only what they approximate.  Regenerate the data from a checkout with

    PYTHONPATH=src python tests/test_composite_contract.py > tests/data/composite_contract.json
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from hermquad.cli import main

#: Endpoints at pi, whose 2^-51 denominator makes the node grid widest, at
#: decimals and at a rational.
INTERVALS = (("0", "pi"), ("-0.3141", "1.4142"), ("-0.75", "pi"), ("1/3", "7/2"))

#: Benchmark-shaped integrands, a Runge function and a polynomial the
#: highest orders integrate exactly.
INTEGRANDS = (
    "exp(x)",
    "0.3*exp(0.5*x)*sin(2*x) + 1.5*x^3",
    "2.5*log(1+x^2)*1/(2+x^2) + 0.5*sqrt(3+x)",
    "1/(1+25*x^2)",
    "x^2*sin(x)",
    "cos(3*x)*exp(-x)",
    "sqrt(2+x)",
    "x^7 - 2*x^3",
)

#: Doubling counts, and counts whose ratios are not 2.
PANEL_COUNTS = ("1,2,4,8,16,32,64", "1,3,5,6,10,100")

CASES = (
    [["composite", "--n", str(n), f"--a={a}", f"--b={b}", f"--fn={fn}", f"--m={ms}", "--format", fmt]
     for i, (n, fmt) in enumerate((n, fmt) for n in range(1, 9) for fmt in ("text", "csv", "json"))
     for (a, b), fn, ms in [(INTERVALS[i % 4], INTEGRANDS[i % 8], PANEL_COUNTS[i % 2])]]
    # sqrt fails at the node 0 of the m = 3 row, never at a reference sample.
    + [["composite", "--n", "3", "--a=-1", "--b=2", "--fn=sqrt(x^2)", "--m=1,3"]]
)


def record(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


#: Empty while regenerating: the shell has already truncated the data file.
CONTRACT = ([] if __name__ == "__main__" else
            json.loads((Path(__file__).parent / "data" / "composite_contract.json").read_text()))


def test_contract_covers_every_case():
    assert [case["argv"] for case in CONTRACT] == CASES


@pytest.mark.parametrize("want", CONTRACT, ids=lambda case: " ".join(case["argv"][1:]))
def test_composite_contract(want):
    assert record(want["argv"]) == want


if __name__ == "__main__":
    print("[\n" + ",\n".join(json.dumps(record(argv)) for argv in CASES) + "\n]")
