"""CLI outputs against a golden file captured before the code they run was
simplified.

`data/cli_golden.json` holds the argv, exit code and stdout of each command,
captured in-process through `fracflow.cli.main` at commit 936d282: `check
--json` for every model in `models.catalog()`, `analyze X same` for the
paper's three counterexamples and for Corey `s^4` (plus the Corey pair), and
the `riemann` fans of Corey 1 -> 0 and counterexample 3 0 -> 1.  The text
with its numbers masked must match exactly, and each number within 1e-9
(absolute and relative).

The golden file must never be regenerated to absorb a change.  A mismatch
means that a verdict, root or wave moved; that is mended in the program.
"""

import json
import math
import re
from pathlib import Path

import pytest

from fracflow import models
from fracflow.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
TOL = 1e-9


def test_golden_covers_the_catalog():
    checked = {c["argv"][1] for c in GOLDEN["commands"] if c["argv"][0] == "check"}
    assert {str(m) for m in models.catalog().values()} <= checked


@pytest.mark.parametrize("command", GOLDEN["commands"], ids=lambda c: " ".join(c["argv"]))
def test_cli_output_matches_golden(command, capsys):
    code = main(list(command["argv"]))
    out = capsys.readouterr().out
    assert code == command["exit"]
    want = command["stdout"]
    assert NUMBER.sub("#", out) == NUMBER.sub("#", want)
    for got, expected in zip(NUMBER.findall(out), NUMBER.findall(want)):
        assert math.isclose(float(got), float(expected), rel_tol=TOL, abs_tol=TOL), (got, expected)
