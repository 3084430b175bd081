"""Output of ``bounds`` and ``integrate`` pinned byte for byte against a recorded contract.

``tests/data/bounds_contract.json`` holds, for every argv in CASES, the
exit code, stdout and stderr of ``hermquad.cli.main``: bounds for rule
orders 1..12 at their default derivative order, every derivative order
n..2n for n = 2, 3 and 4, orders 25 and 26 (above the batch order 23)
for n = 13, and ``integrate`` rows, in every format, on intervals ending
at pi, at decimals and at rationals.  Bounds print floats formed from a
513-point derivative grid, and the order-2n error integrates sampled
derivatives, so this pins how those samples are batched, not only what
they estimate.  The ``sin(1/x)`` job spends the reference's panel budget
and exits 2, and two integrands fail only at points of the derivative
grid, which the reference never samples.  Regenerate the data from a
checkout with

    PYTHONPATH=src python tests/test_bounds_contract.py > tests/data/bounds_contract.json
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from hermquad.cli import main

#: Endpoints at pi, at decimals and at rationals.
INTERVALS = (("0", "pi"), ("-0.3141", "1.4142"), ("-0.75", "pi"), ("1/3", "7/2"))

#: Benchmark-shaped integrands, a Runge function and a polynomial whose
#: derivatives above order 7 vanish.
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

FORMATS = ("text", "csv", "json")

#: (command, n, --bound-order or None for the default order n).
SPECS = (
    [("bounds", n, None) for n in range(1, 13)]
    + [("bounds", n, order) for n in (2, 3, 4) for order in range(n + 1, 2 * n + 1)]
    + [("integrate", n, None) for n in (1, 6, 12)]
)

#: Points 77 and 131 of the 513-point derivative grid over [-0.3141, 1.4142].
#: sqrt((x - c)^2) fails only at x = c, and no reference sample lands there.
GRID_POINTS = ("-0.054179882812500024", "0.1281017578125")
ON_THE_GRID = (
    f"sqrt((x-{GRID_POINTS[0]})^2)",
    # The walk meets the second point's sqrt first; the first failing point names its own.
    f"sqrt((x-{GRID_POINTS[1]})^2) + sqrt((x-{GRID_POINTS[0]})^2)",
)

CASES = (
    [[cmd, "--n", str(n), f"--a={a}", f"--b={b}", f"--fn={INTEGRANDS[3 * i % 8]}", "--format", fmt]
     + ([] if order is None else ["--bound-order", str(order)])
     for i, (cmd, n, order) in enumerate(SPECS)
     for (a, b), fmt in [(INTERVALS[i % 4], FORMATS[i % 3])]]
    # Above the batch order 23 each grid point, and each sample of the
    # order-2n error integral, gets its own jet.
    + [["bounds", "--n", "13", "--a=-0.75", "--b=pi", "--fn=exp(x)*sin(3*x)", "--bound-order", order,
        "--format", fmt] for order, fmt in [("25", "text"), ("26", "json")]]
    # The reference spends its panel budget and exits 2 before any bound.
    + [["bounds", "--n", "2", "--a=1/1000000", "--b=1", "--fn=sin(1/x)", "--format", "json"]]
    + [[cmd, "--n", "2", "--a=-0.3141", "--b=1.4142", f"--fn={fn}"]
       for cmd, fn in [("integrate", ON_THE_GRID[0]), ("bounds", ON_THE_GRID[0]),
                       ("bounds", ON_THE_GRID[1])]]
)


def record(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


#: Empty while regenerating: the shell has already truncated the data file.
CONTRACT = ([] if __name__ == "__main__" else
            json.loads((Path(__file__).parent / "data" / "bounds_contract.json").read_text()))


def test_contract_covers_every_case():
    assert [case["argv"] for case in CONTRACT] == CASES


def test_grid_points_are_on_the_derivative_grid():
    lo, hi = -0.3141, 1.4142
    step = (hi - lo) / 512
    assert [float(p) for p in GRID_POINTS] == [lo + 77 * step, lo + 131 * step]


@pytest.mark.parametrize("want", CONTRACT, ids=lambda case: " ".join(case["argv"][1:]))
def test_bounds_contract(want):
    assert record(want["argv"]) == want


if __name__ == "__main__":
    print("[\n" + ",\n".join(json.dumps(record(argv)) for argv in CASES) + "\n]")
