"""The committed answer diff (tests/answers.py) on the first entry of each
pool stratum, on the cli commands and on the programs of the catalog's and
those entries' trees and pairs: a dump diffed with itself reports no change,
and a moved number, a changed verdict, an error, a changed file and a
changed program are each found in a perturbed copy."""

import ast
import copy

import answers


def test_answer_diff_finds_nothing_in_a_dump_and_each_change_in_a_perturbed_copy():
    dump = answers.collect(per_stratum=1)
    assert answers.compare(dump, dump) == [
        "check_sweep: 6 identical, 0 changed",
        "analyze_sweep: 4 identical, 0 changed",
        "riemann_fans: 3 identical, 0 changed",
        "cli: 5 identical, 0 changed",
        "programs: 240 identical, 0 changed",
    ]
    assert all(dump["cli"][name]["exit"] == "0" for name in ("check_s2", "analyze_ce3", "figures", "riemann"))
    assert dump["cli"]["check_ce1"]["exit"] == "1"
    assert dump["cli"]["figures"]["stdout"] == "wrote 6 data files and manifest.json to <out>/figs\n"
    changed = copy.deepcopy(dump)
    fan = changed["riemann_fans"]["counterexample/0"]
    profile = ast.literal_eval(fan["profile"])
    profile[100] += 1e-9
    fan["profile"] = repr(profile)
    report = changed["check_sweep"]["chierici/0"]
    report["c1"] = repr("fail" if ast.literal_eval(report["c1"]) == "pass" else "pass")
    changed["analyze_sweep"]["known/0"] = {"error": "DomainError: float overflow"}
    check = changed["cli"]["check_s2"]
    check["stdout"] = check["stdout"].replace("criterion_T3: -1536.0", "criterion_T3: -1536.0000000000002")
    changed["cli"]["riemann"]["profile.csv sha256"] = "0" * 64
    program = changed["programs"]["tree s^2 order 3 array"]
    program["source sha256"] = program["outputs sha256"] = "0" * 64
    lines = answers.compare(dump, changed)
    assert lines[0] == "check_sweep: 5 identical, 1 changed"
    assert lines[1] == "  c1: 1 changed in form, first at chierici/0"
    assert lines[2:4] == ["analyze_sweep: 3 identical, 1 changed",
                          "  error appears at known/0: DomainError: float overflow"]
    assert lines[4] == "riemann_fans: 2 identical, 1 changed"
    assert lines[5].startswith("  profile: 1 changed, largest move 1e-09 at counterexample/0, relative ")
    assert lines[6:9] == ["cli: 3 identical, 2 changed",
                          "  stdout: 1 changed, largest move 2.27e-13 at check_s2, relative 1.48e-16 at check_s2",
                          "  profile.csv sha256: 1 changed in form, first at riemann"]
    assert lines[9:12] == ["programs: 239 identical, 1 changed",
                           "  source sha256: 1 changed in form, first at tree s^2 order 3 array",
                           "  outputs sha256: 1 changed in form, first at tree s^2 order 3 array"]
    assert len(lines) == 12
    assert "  error vanishes at known/0: DomainError: float overflow" in answers.compare(changed, dump)


def test_numeric_move_reads_numbers_and_not_digits_in_names():
    assert answers.numeric_move("[np.float64(0.5), c4]", "[np.float64(0.75), c4]") == (0.25, 0.25 / 0.75)
    assert answers.numeric_move("Witness(s=1e-06, value=-2.0)", "Witness(s=1e-06, value=-2.0)") == (0.0, 0.0)
    assert answers.numeric_move("[nan, inf]", "[nan, 1.0]") == (float("inf"), float("inf"))
    assert answers.numeric_move("'pass'", "'fail'") is None
    assert answers.numeric_move("[0.1]", "[0.1, 0.2]") is None
