"""Output of the exact commands pinned byte for byte against a recorded contract.

``tests/data/exact_contract.json`` holds, for every argv in CASES, the
exit code, stdout and stderr of ``hermquad.cli.main``: ``weights`` and
``kernel`` in every format, ``verify``, and the exact commands' usage
errors.  These commands print exact rationals, so any change to their
output is a change of result, not of rounding.  Regenerate the data from a
checkout with

    PYTHONPATH=src python tests/test_exact_contract.py > tests/data/exact_contract.json
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from hermquad.cli import main

#: Unit interval, a signed rational interval, and a 7-digit decimal one.
INTERVALS = (("0", "1"), ("-2/3", "5/4"), ("0.3141593", "1.4142136"))

CASES = (
    [[cmd, "--n", str(n), f"--a={a}", f"--b={b}", "--format", fmt]
     for cmd in ("weights", "kernel")
     for n in (1, 3, 8, 12)
     for a, b in INTERVALS
     for fmt in ("json", "csv", "text")]
    + [["verify", "--n", str(n), f"--a={a}", f"--b={b}"]
       for n in range(1, 7)
       for a, b in INTERVALS[:2]]
    + [[cmd, *args]
       for cmd in ("weights", "kernel", "verify")
       for args in (
           ("--n", "65", "--a=0", "--b=1"),
           ("--n", "3", "--a=1", "--b=1"),
           ("--n", "3", "--a=5/4", "--b=-2/3"),
           ("--n", "3", "--a=0", "--b=pi"),
           ("--n", "3", "--a=0", "--b=1/0"),
       )]
    # High orders, where coefficient sizes are largest.
    + [["kernel", "--n", str(n), f"--a={a}", f"--b={b}", "--format", "text"]
       for n, (a, b) in ((64, INTERVALS[0]), (32, INTERVALS[2]))]
    + [["verify", "--n", "24", f"--a={INTERVALS[1][0]}", f"--b={INTERVALS[1][1]}"]]
    # Sign-change separators at the order cap, and a symmetric interval,
    # where every other kernel parameter is 0.
    + [["verify", "--n", "64", f"--a={INTERVALS[2][0]}", f"--b={INTERVALS[2][1]}"],
       ["verify", "--n", "12", "--a=-3/2", "--b=3/2"],
       ["kernel", "--n", "48", "--a=-3/2", "--b=3/2", "--format", "json"]]
    # An order with more kernel parameters than the three leading ones.
    + [["verify", "--n", "8", f"--a={INTERVALS[2][0]}", f"--b={INTERVALS[2][1]}"]]
)


def record(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


#: Empty while regenerating: the shell has already truncated the data file.
CONTRACT = ([] if __name__ == "__main__" else
            json.loads((Path(__file__).parent / "data" / "exact_contract.json").read_text()))


def test_contract_covers_every_case():
    assert [case["argv"] for case in CONTRACT] == CASES


@pytest.mark.parametrize("want", CONTRACT, ids=lambda case: " ".join(case["argv"]))
def test_exact_contract(want):
    assert record(want["argv"]) == want


if __name__ == "__main__":
    print("[\n" + ",\n".join(json.dumps(record(argv)) for argv in CASES) + "\n]")
