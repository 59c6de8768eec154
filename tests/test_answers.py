"""The committed answer diff (tests/answers.py) on the first entry of each
pool stratum: a dump diffed with itself reports no change, and a moved
number, a changed verdict and an error are each found in a perturbed copy."""

import ast
import copy

import answers


def test_answer_diff_finds_nothing_in_a_dump_and_each_change_in_a_perturbed_copy():
    dump = answers.collect(per_stratum=1)
    assert answers.compare(dump, dump) == [
        "check_sweep: 6 identical, 0 changed",
        "analyze_sweep: 4 identical, 0 changed",
        "riemann_fans: 3 identical, 0 changed",
    ]
    changed = copy.deepcopy(dump)
    fan = changed["riemann_fans"]["counterexample/0"]
    profile = ast.literal_eval(fan["profile"])
    profile[100] += 1e-9
    fan["profile"] = repr(profile)
    report = changed["check_sweep"]["chierici/0"]
    report["c1"] = repr("fail" if ast.literal_eval(report["c1"]) == "pass" else "pass")
    changed["analyze_sweep"]["known/0"] = {"error": "DomainError: float overflow"}
    lines = answers.compare(dump, changed)
    assert lines[0] == "check_sweep: 5 identical, 1 changed"
    assert lines[1] == "  c1: 1 changed in form, first at chierici/0"
    assert lines[2:4] == ["analyze_sweep: 3 identical, 1 changed",
                          "  error appears at known/0: DomainError: float overflow"]
    assert lines[4] == "riemann_fans: 2 identical, 1 changed"
    assert lines[5].startswith("  profile: 1 changed, largest move 1e-09 at counterexample/0, relative ")
    assert len(lines) == 6
    assert "  error vanishes at known/0: DomainError: float overflow" in answers.compare(changed, dump)


def test_numeric_move_reads_numbers_and_not_digits_in_names():
    assert answers.numeric_move("[np.float64(0.5), c4]", "[np.float64(0.75), c4]") == (0.25, 0.25 / 0.75)
    assert answers.numeric_move("Witness(s=1e-06, value=-2.0)", "Witness(s=1e-06, value=-2.0)") == (0.0, 0.0)
    assert answers.numeric_move("[nan, inf]", "[nan, 1.0]") == (float("inf"), float("inf"))
    assert answers.numeric_move("'pass'", "'fail'") is None
    assert answers.numeric_move("[0.1]", "[0.1, 0.2]") is None
