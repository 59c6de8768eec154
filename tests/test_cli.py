"""Command-line interface: exit codes, report formats, data files."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fracflow.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def test_check_admissible_exits_zero(capsys):
    code, out, _ = run(capsys, "check", "s^2")
    assert code == 0
    assert "in_class_M: true" in out


def test_check_power_whose_m_to_the_fourth_underflows_exits_zero(capsys):
    code, out, err = run(capsys, "check", "s^300")
    assert (code, err) == (0, "")
    assert "in_class_M: true" in out
    t3 = float(next(line for line in out.splitlines() if line.startswith("criterion_T3:")).split()[1])
    # m''/m^3 = 300*299*s^-602, so T3 = -300*299*602*2^603, here in exact integers
    assert abs(t3 - -300 * 299 * 602 * 2 ** 603) <= 1e-12 * abs(t3)


def test_check_counterexample_exits_one(capsys):
    code, out, _ = run(capsys, "check", "s^1.1 * exp(s^10)")
    assert code == 1
    assert "c4: fail" in out


def test_check_concave_root_exits_one(capsys):
    code, out, _ = run(capsys, "check", "s^0.5")
    assert code == 1
    assert "c3: fail" in out


@pytest.mark.parametrize("model, code, lines", [
    ("1e-5 + s^2", 1, ["c1: fail", "witness: c1 s=1e-06 value=1.0000001e-05 kind=fail"]),
    ("0.001*s", 1, ["c2: fail"]),
    ("1e10*s^2", 0, ["in_class_M: true"]),
])
def test_check_endpoint_limits_do_not_depend_on_scale(model, code, lines, capsys):
    # m(0) = 1e-5 and m'(0) = 0.001 do not vanish however small they are,
    # and 1e10*s^2 is a member like s^2
    got, out, _ = run(capsys, "check", model)
    assert got == code
    assert set(lines) <= set(out.splitlines())


def test_check_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "check", "s^^2")
    assert code == 2
    assert "error" in err


def test_check_overflowing_literal_exits_two(capsys):
    code, out, err = run(capsys, "check", "s^1e999")
    assert code == 2
    assert out == ""
    assert err.startswith("error: number out of range (at position 2)")
    assert "Traceback" not in err


@pytest.mark.parametrize("model", ["(" * 600 + "s" + ")" * 600, "exp(" * 400 + "s" + ")" * 400],
                         ids=["600 parentheses", "400 exp"])
def test_check_nesting_deeper_than_the_stack_exits_two(model, capsys):
    # the position depends on the stack depth, so it is not pinned
    code, out, err = run(capsys, "check", model)
    assert code == 2 and out == ""
    assert err.startswith("error: expression nested too deeply (at position ") and err.count("\n") == 1


def test_check_json_round_trips_at_full_precision(capsys):
    code, out, _ = run(capsys, "check", "s^1.1 * exp(s^10)", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["c4"] == "fail"
    assert doc["in_class_M"] is False
    # numeric fields survive a dump/load cycle exactly
    again = json.loads(json.dumps(doc))
    assert again["criterion_T3"] == doc["criterion_T3"]
    for w1, w2 in zip(doc["witnesses"], again["witnesses"]):
        assert w1["s"] == w2["s"] and w1["value"] == w2["value"]


def _strict_json(text):
    """text parsed as strict JSON (RFC 8259), which has no NaN or Infinity."""
    def reject(name):
        raise ValueError(f"not strict JSON: {name}")
    return json.loads(text, parse_constant=reject)


def test_check_json_is_strict_where_criterion_T3_is_not_finite(tmp_path, capsys):
    # 1e-300*s^2: the criterion overflows to -inf; s - s: m(0.5) = 0 leaves it nan
    for model in ("1e-300*s^2", "s - s"):
        code, out, err = run(capsys, "check", model, "--json")
        assert code in (0, 1) and not err
        assert _strict_json(out)["criterion_T3"] is None
    spec = tmp_path / "both.model"
    spec.write_text("m_a = 1e-300*s^2\nm_b = s^2\n")
    code, out, _ = run(capsys, "check", str(spec), "--json")
    doc = _strict_json(out)
    assert doc["m_a"]["criterion_T3"] is None and doc["m_b"]["criterion_T3"] < 0.0
    code, out, _ = run(capsys, "check", "1e-300*s^2")
    assert "criterion_T3: -inf" in out  # the text report keeps the value


def test_check_model_file(tmp_path, capsys):
    spec = tmp_path / "quadratic.model"
    spec.write_text("# symmetric quadratic\nm_a = s^2\nm_b = s^2\n")
    code, out, _ = run(capsys, "check", str(spec))
    assert code == 0
    assert "[m_a]" in out and "[m_b]" in out


def test_check_usage_error_exits_two(capsys):
    assert main(["check"]) == 2


NEG = "-s^2+2*s^2"  # s^2, typed with a leading minus


@pytest.mark.parametrize("argv, after_dashes", [
    (["check", NEG], ["check", "--", NEG]),
    (["check", NEG, "--json"], ["check", "--json", "--", NEG]),
    (["check", "--grid", "2000", NEG], ["check", "--grid", "2000", "--", NEG]),
    (["analyze", NEG, "same"], ["analyze", "--", NEG, "same"]),
    (["analyze", "s^4", NEG, "--tol", "1e-10"], ["analyze", "--tol", "1e-10", "--", "s^4", NEG]),
    (["riemann", NEG, "same", "1", "0"], ["riemann", "--", NEG, "same", "1", "0"]),
    (["riemann", "s^4", NEG, "0.2", "0.9"], ["riemann", "--", "s^4", NEG, "0.2", "0.9"]),
    (["check", "-s^"], ["check", "--", "-s^"]),
], ids=["check", "check json", "check grid", "analyze", "analyze second", "riemann", "riemann second",
        "parse error"])
def test_a_model_that_begins_with_a_minus_is_positional(argv, after_dashes, capsys):
    # argparse would take "-s^2+2*s^2" for an unknown option and miss the model
    assert run(capsys, *argv) == run(capsys, *after_dashes)
    code, out, err = run(capsys, *argv)
    if argv[1] == "-s^":
        assert (code, out, err) == (2, "", "error: expected a numeric exponent after '^' (at position 3)\n")
    else:
        assert code in (0, 1) and out and not err


def test_help_options_and_negative_states_keep_their_meaning(capsys):
    code, out, _ = run(capsys, "check", "-h")
    assert code == 0 and out.startswith("usage: fracflow check")
    code, out, _ = run(capsys, "check", "s^2", "--json")
    assert code == 0 and json.loads(out)["in_class_M"] is True
    code, out, err = run(capsys, "riemann", "s^2", "same", "-0.5", "0")
    assert (code, out) == (2, "") and err.startswith("error: states must lie in [0,1], got s_L=-0.5")
    code, _, err = run(capsys, "check", "s^2", "--jsn")
    assert code == 2 and "unrecognized arguments: --jsn" in err


def test_riemann_on_a_pair_with_no_valid_point_names_the_first_sample_that_is_not_an_end(capsys):
    code, out, err = run(capsys, "riemann", "0", "0", "0", "1")
    assert (code, out, err) == (2, "", "error: zero total mobility at s[1]=0.000244140625\n")


def test_analyze_symmetric_quartic(capsys):
    code, out, _ = run(capsys, "analyze", "s^4", "s^4")
    assert code == 0
    assert out.count("inflection:") == 1
    assert "s_shaped: true" in out


def test_analyze_same_keyword_and_counts(capsys):
    code, out, _ = run(capsys, "analyze", "s^1.1*(1+15*s^10)", "same")
    assert code == 0
    assert out.count("inflection:") == 3
    code, out, _ = run(capsys, "analyze", "s^1.1*(1+15*s^30)", "same")
    assert out.count("inflection:") == 5


def _inflections(out):
    return [float(line.split()[1][2:]) for line in out.splitlines() if line.startswith("inflection:")]


@pytest.mark.parametrize("tol", ["1e-16", "1e-320"])
def test_analyze_tol_below_the_float_spacing_ends_next_to_the_roots(tol, capsys):
    # below the float spacing at a root the solver stops at two neighbouring
    # floats; a subprocess with a timeout keeps a solver that never ends
    # from hanging the suite
    _, out, _ = run(capsys, "analyze", "s^1.1*(1+15*s^30)", "same", "--tol", "1e-15")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "fracflow.cli", "analyze", "s^1.1*(1+15*s^30)", "same", "--tol", tol],
                          capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr[-300:]
    roots, near = _inflections(proc.stdout), _inflections(out)
    assert len(roots) == len(near) == 5
    assert max(abs(a - b) for a, b in zip(roots, near)) <= 2.5e-16


def test_library_warnings_print_as_one_line_each(capsys):
    code, out, err = run(capsys, "analyze", "s^1.1 * (1 + 15*s^30)", "same")
    assert code == 0 and "inflection: s=0.5" in out
    assert err == "warning: s2 has 5 sign changes; reporting the first\n"


def test_analyze_csv_output(tmp_path, capsys):
    out_csv = tmp_path / "flux.csv"
    code, _, _ = run(capsys, "analyze", "s^2", "s^2", "--csv", str(out_csv), "--grid", "1001")
    assert code == 0
    header, rows = read_csv(out_csv)
    assert header == ["s", "f", "f2"]
    assert len(rows) == 1001
    assert rows[0][0] == 0.0 and rows[0][1] == 0.0
    assert rows[-1][0] == 1.0 and rows[-1][1] == 1.0


def test_analyze_csv_deterministic(tmp_path, capsys):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    run(capsys, "analyze", "s^2", "s^3", "--csv", str(p1), "--grid", "2001")
    run(capsys, "analyze", "s^2", "s^3", "--csv", str(p2), "--grid", "2001")
    assert p1.read_bytes() == p2.read_bytes()


def test_analyze_svg_output(tmp_path, capsys):
    out_svg = tmp_path / "flux.svg"
    code, _, _ = run(capsys, "analyze", "s^2", "s^2", "--svg", str(out_svg), "--grid", "1001")
    assert code == 0
    text = out_svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_analyze_input_error(capsys):
    code, _, err = run(capsys, "analyze", "s^2", "t^2")
    assert code == 2


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_analyze_tol_that_is_not_positive_exits_two(tol, capsys):
    code, out, err = run(capsys, "analyze", "s^2", "same", "--tol", tol)
    assert code == 2
    assert "tol must be positive" in err and not out


def test_analyze_non_finite_second_derivative_exits_two(capsys):
    code, out, err = run(capsys, "analyze", "exp(1000*s)", "same")
    assert code == 2
    assert "non-finite sample at s[0]=1e-06" in err and not out


def test_figures_manifest_counts(tmp_path, capsys):
    outdir = tmp_path / "figs"
    code, _, _ = run(capsys, "figures", "--out", str(outdir), "--grid", "801")
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    counts = [p["inflections"] for p in manifest["pairs"]]
    assert counts == [3, 3, 5]
    assert len(manifest["pairs"]) == 3
    for entry in manifest["pairs"]:
        assert (outdir / entry["f_csv"]).exists()
        assert (outdir / entry["f2_csv"]).exists()


def test_figures_f_files_span_unit_box(tmp_path, capsys):
    outdir = tmp_path / "figs"
    run(capsys, "figures", "--out", str(outdir), "--grid", "801")
    for name in ("counterexample-1", "counterexample-2", "counterexample-3"):
        header, rows = read_csv(outdir / f"{name}_f.csv")
        assert header == ["s", "f"]
        assert rows[0] == [0.0, 0.0]
        assert rows[-1] == [1.0, 1.0]


def test_figures_f2_sign_pattern_around_half(tmp_path, capsys):
    # first pair: f'' goes negative -> positive through s = 0.5
    outdir = tmp_path / "figs"
    run(capsys, "figures", "--out", str(outdir), "--grid", "801")
    _, rows = read_csv(outdir / "counterexample-1_f2.csv")
    below = [r[1] for r in rows if 0.45 <= r[0] < 0.5]
    above = [r[1] for r in rows if 0.5 < r[0] <= 0.55]
    assert all(v < 0 for v in below)
    assert all(v > 0 for v in above)


def test_figures_svg(tmp_path, capsys):
    outdir = tmp_path / "figs"
    code, _, _ = run(capsys, "figures", "--out", str(outdir), "--grid", "401", "--svg")
    assert code == 0
    assert (outdir / "counterexample-1_f.svg").exists()
    assert (outdir / "counterexample-3_f2.svg").exists()


def test_figures_io_error_exits_three(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("file in the way")
    code, _, err = run(capsys, "figures", "--out", str(blocker / "sub"))
    assert code == 3


@pytest.mark.parametrize("grid", ["0", "-1"])
def test_figures_grid_below_one_exits_two_before_writing(grid, tmp_path, capsys):
    outdir = tmp_path / "figs"
    code, out, err = run(capsys, "figures", "--out", str(outdir), "--grid", grid)
    assert (code, out, err) == (2, "", f"error: --grid must be >= 1, got {grid}\n")
    assert not outdir.exists()


def test_figures_grid_of_one_writes_one_row(tmp_path, capsys):
    code, _, _ = run(capsys, "figures", "--out", str(tmp_path), "--grid", "1", "--svg")
    assert code == 0
    header, rows = read_csv(tmp_path / "counterexample-1_f.csv")
    assert header == ["s", "f"] and rows == [[0.0, 0.0]]


def test_riemann_welge_fan(capsys):
    code, out, _ = run(capsys, "riemann", "s^2", "s^2", "1", "0")
    assert code == 0
    assert "rarefaction:" in out and "shock:" in out
    shock_line = [l for l in out.splitlines() if l.startswith("shock:")][0]
    left_state = float(shock_line.split()[1])
    assert abs(left_state - 1.0 / math.sqrt(2.0)) <= 1e-5


def test_riemann_equal_states(capsys):
    code, out, _ = run(capsys, "riemann", "s^2", "s^2", "0.4", "0.4")
    assert code == 0
    assert "constant state" in out


def test_riemann_mirror_states(capsys):
    _, out_down, _ = run(capsys, "riemann", "s^2", "s^2", "1", "0")
    _, out_up, _ = run(capsys, "riemann", "s^2", "s^2", "0", "1")
    shock_down = [l for l in out_down.splitlines() if l.startswith("shock:")][0]
    shock_up = [l for l in out_up.splitlines() if l.startswith("shock:")][0]
    assert abs(float(shock_up.split()[1]) - (1.0 - float(shock_down.split()[1]))) <= 1e-8


def test_riemann_profile_csv(tmp_path, capsys):
    prof = tmp_path / "profile.csv"
    code, _, _ = run(
        capsys, "riemann", "s^2", "s^2", "1", "0", "--profile", str(prof), "--samples", "101"
    )
    assert code == 0
    header, rows = read_csv(prof)
    assert header == ["xi", "s"]
    assert len(rows) == 101
    assert rows[0][1] == 1.0 and rows[-1][1] == 0.0
    svals = [r[1] for r in rows]
    assert all(a >= b - 1e-9 for a, b in zip(svals, svals[1:]))


@pytest.mark.parametrize("samples", ["0", "-1"])
@pytest.mark.parametrize("profile", [True, False])
def test_riemann_samples_below_one_exit_two_before_any_output(samples, profile, tmp_path, capsys):
    prof = tmp_path / "profile.csv"
    argv = ["riemann", "s^2", "s^2", "1", "0", "--samples", samples] + (["--profile", str(prof)] if profile else [])
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: --samples must be >= 1, got {samples}\n")
    assert not prof.exists()


def test_riemann_one_sample_profile(tmp_path, capsys):
    prof = tmp_path / "profile.csv"
    code, out, _ = run(capsys, "riemann", "s^2", "s^2", "1", "0", "--profile", str(prof), "--samples", "1")
    assert code == 0 and "shock:" in out
    header, rows = read_csv(prof)
    assert header == ["xi", "s"] and len(rows) == 1 and rows[0][1] == 1.0


def test_riemann_state_out_of_range_exits_two(capsys):
    code, _, err = run(capsys, "riemann", "s^2", "s^2", "1.5", "0")
    assert code == 2
    assert "error" in err


def test_riemann_non_finite_flux_exits_two(capsys):
    code, out, err = run(capsys, "riemann", "exp(1000*s)", "exp(1000*s)", "0", "1")
    assert code == 2
    assert "non-finite flux value at s[" in err and not out


def test_check_non_finite_condition_values_exit_two(capsys):
    code, out, err = run(capsys, "check", "s^2*exp(800*s)")
    assert code == 2
    assert err.startswith("error: non-finite c4 value at s[1757]=0.4290599709401709") and not out


@pytest.mark.parametrize("argv", [
    ("analyze", "exp(1000*s)", "same"),
    ("check", "exp(1000*s)"),
    ("riemann", "exp(1000*s)", "exp(1000*s)", "0", "1"),
], ids=lambda argv: argv[0])
def test_overflowing_inputs_print_only_the_error_line(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert err.startswith("error: non-finite") and err.count("\n") == 1


@pytest.mark.parametrize("states", [("0.2", "0"), ("0", "0.2")])
def test_riemann_scalar_power_overflow_exits_two(states, capsys):
    # (1000*(1 - s))^201 overflows a float ** at a scalar flux or slope evaluation
    code, out, err = run(capsys, "riemann", "s^2", "(1000*s)^201", *states)
    assert code == 2 and not out
    assert err.startswith("error: float overflow while evaluating (1000*s)^201 at s=")
    assert err.count("\n") == 1


@pytest.mark.parametrize("states", [("0.2", "0"), ("0", "0.2")])
def test_riemann_scalar_exp_overflow_exits_two(states, capsys):
    # exp(1000*(1 - s)) leaves the flux samples finite (s^2/(s^2 + inf) = 0),
    # but a scalar flux evaluation overflows math.exp, which raises
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "riemann", "s^2", "exp(1000*s)", *states)
    assert code == 2 and not out
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert err.startswith("error: float overflow while evaluating exp(1000*s) at s=")
    assert err.count("\n") == 1


# constants from 1e-300 to ~1e301 and exponents up to +-300, as model text
_CONSTANTS = st.tuples(st.floats(1.0, 9.75), st.integers(-300, 300)).map(lambda t: repr(t[0] * 10.0 ** t[1]))
_EXPONENTS = st.one_of(st.integers(-300, 300), st.floats(-300.0, 300.0).map(lambda p: round(p, 3)))


def _model_texts(depth: int):
    """Model text of an expression tree of at most `depth` levels above its leaves."""
    leaf = st.one_of(st.just("s"), _CONSTANTS)
    if depth == 0:
        return leaf
    sub = _model_texts(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        st.tuples(sub, _EXPONENTS).map(lambda t: f"({t[0]})^{t[1]!r}"),
        sub.map(lambda t: f"exp({t})"),
    )


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_model_texts(3), _model_texts(3), st.sampled_from(["0", "0.2", "0.9", "1"]),
       st.sampled_from(["0", "0.2", "0.9", "1"]))
def test_extreme_models_give_an_exit_code_and_only_error_or_warning_lines(capsys, m_a, m_b, s_left, s_right):
    # no np.errstate masks the commands: a numpy RuntimeWarning, which is an
    # error here, or any other exception escaping main fails the test
    for argv in (("check", "--grid", "100", m_a), ("analyze", "--grid", "1000", m_a, m_b),
                 ("riemann", m_a, m_b, s_left, s_right)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2), argv
        assert all(line.startswith(("error:", "warning:")) for line in err.splitlines()), (argv, err)
