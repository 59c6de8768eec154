"""Command-line interface: exit codes, report formats, data files."""

import csv
import json
import math
import os
import warnings

import pytest

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


def test_check_counterexample_exits_one(capsys):
    code, out, _ = run(capsys, "check", "s^1.1 * exp(s^10)")
    assert code == 1
    assert "c4: fail" in out


def test_check_concave_root_exits_one(capsys):
    code, out, _ = run(capsys, "check", "s^0.5")
    assert code == 1
    assert "c3: fail" in out


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


def test_check_model_file(tmp_path, capsys):
    spec = tmp_path / "quadratic.model"
    spec.write_text("# symmetric quadratic\nm_a = s^2\nm_b = s^2\n")
    code, out, _ = run(capsys, "check", str(spec))
    assert code == 0
    assert "[m_a]" in out and "[m_b]" in out


def test_check_usage_error_exits_two(capsys):
    assert main(["check"]) == 2


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
