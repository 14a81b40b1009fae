"""Command-line interface tests: exit codes, output contracts, determinism."""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import treecast
from treecast import (InvalidParameter, cli, deep_policy, evolve_to_depth,
                      diagnostics, llr_step, make_channel)
from treecast.cli import main
from treecast.sampling import NODE_CAP

KS_EPS_K2 = 0.14644660940672624  # root of 2*(1-2*eps)**2 = 1 in (0, 1/2)


def run_cli(argv, capsys):
    """Invoke the in-process entry point and capture stdout/stderr."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    """Parse an emitted curve/coupling CSV into (config, header, rows)."""
    comment_lines = []
    data_lines = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                comment_lines.append(line[2:])
            elif line:
                data_lines.append(line)
    config = json.loads("\n".join(comment_lines))
    header = data_lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in data_lines[1:]]
    return config, header, rows


def column(header, rows, name):
    idx = header.index(name)
    return [row[idx] for row in rows]


# ---------------------------------------------------------------------------
# argument validation and exit codes


def test_missing_subcommand_exits_2(capsys):
    code, _, _ = run_cli([], capsys)
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_cli(["bounds", "--no-such-flag"], capsys)
    assert code == 2


# each subcommand takes only the run flags its handler reads; the base argv
# is a valid, cheap call, so only the extra flag can make it fail
DROPPED_FLAG_BASE = {
    "bounds": ["bounds", "--symmetric", "--k", "2"],
    "threshold": ["threshold", "--symmetric", "--engine", "exact", "--depth", "4",
                  "--tol", "0.1", "--bracket", "0.05", "0.45"],
    "couple": ["couple", "--symmetric", "0.2", "--depth", "2"],
    "hardcore-check": ["hardcore-check", "--hardcore-w", "1.0", "--depth", "2",
                       "--pop-size", "100"],
    "verify": ["verify", "--matrix", "0.6", "0.3"],
}
DROPPED_FLAGS = [
    ("bounds", "--depth", "3"), ("bounds", "--engine", "exact"),
    ("bounds", "--format", "json"),
    ("threshold", "--format", "json"),
    ("couple", "--engine", "population"),
    ("hardcore-check", "--engine", "exact"), ("hardcore-check", "--format", "json"),
    ("verify", "--depth", "9"), ("verify", "--engine", "exact"),
    ("verify", "--format", "json"),
    ("bounds", "--pop-size", "1000"), ("bounds", "--seed", "1"),
    ("couple", "--pop-size", "1000"), ("couple", "--seed", "1"),
    ("verify", "--pop-size", "1000"),
]


@pytest.mark.parametrize("command,flag,value", DROPPED_FLAGS)
def test_flag_the_handler_ignores_exits_2(command, flag, value, capsys):
    code, out, err = run_cli(DROPPED_FLAG_BASE[command] + [flag, value], capsys)
    assert code == 2
    assert f"unrecognized arguments: {flag} {value}" in err
    assert out == ""


def test_no_channel_spec_exits_2(capsys):
    code, _, err = run_cli(["evolve", "--k", "2", "--depth", "3"], capsys)
    assert code == 2
    assert "exactly one channel spec" in err


def test_two_channel_specs_exit_2(capsys):
    code, _, err = run_cli(
        ["evolve", "--symmetric", "0.2", "--matrix", "0.7", "0.2"], capsys)
    assert code == 2
    assert "exactly one channel spec" in err


def test_family_only_flag_rejected_where_value_needed(capsys):
    code, _, err = run_cli(["evolve", "--symmetric", "--depth", "3"], capsys)
    assert code == 2
    assert "EPS" in err

    code, _, err = run_cli(["evolve", "--hardcore", "--depth", "3"], capsys)
    assert code == 2
    assert "--hardcore-w" in err


# ---------------------------------------------------------------------------
# bounds


def test_bounds_hardcore_k2_reports_kelly(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    code, _, _ = run_cli(
        ["bounds", "--hardcore", "--k", "2", "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["kelly"] == 4.0
    assert payload["config"]["channel"]["kind"] == "hardcore"
    assert payload["config"]["seed"] is None
    assert payload["config"]["k"] == 2


def test_bounds_hardcore_large_k_reports_kelly(capsys):
    """k = 51 is the first k whose activity at w = 1e6 overflows float64."""
    code, out, _ = run_cli(["bounds", "--hardcore", "--k", "51"], capsys)
    assert code == 0
    report = json.loads(out)["report"]
    for key in ("mp_crossover_lambda", "geometric_crossover_lambda"):
        assert report[key] == pytest.approx(report["kelly"], rel=1e-10)


def test_bounds_hardcore_k1_exits_2_naming_restriction(capsys):
    code, _, err = run_cli(["bounds", "--k", "1", "--hardcore"], capsys)
    assert code == 2
    assert "k >= 2" in err


def test_bounds_symmetric_k2_reports_ks_eps(capsys):
    code, out, _ = run_cli(["bounds", "--symmetric", "--k", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["report"]["ks_eps"] - KS_EPS_K2) < 1e-6


def test_bounds_rejects_matrix_and_csv(capsys):
    code, _, _ = run_cli(["bounds", "--matrix", "0.7", "0.2"], capsys)
    assert code == 2
    code, _, _ = run_cli(
        ["bounds", "--symmetric", "--k", "2", "--format", "csv"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# evolve


def test_evolve_uninformative_curve_all_zero(tmp_path, capsys):
    out = tmp_path / "flat.csv"
    code, _, _ = run_cli(
        ["evolve", "--symmetric", "0.5", "--k", "2", "--depth", "6",
         "--out", str(out)], capsys)
    assert code == 0
    config, header, rows = read_csv(out)
    assert header == ["depth", "tv", "mean_gap", "var_A"]
    assert column(header, rows, "depth") == [1, 2, 3, 4, 5, 6]
    for name in ("tv", "mean_gap", "var_A"):
        assert all(value == 0.0 for value in column(header, rows, name))
    assert config["channel"] == {"kind": "symmetric", "eps": 0.5}


def test_evolve_hardcore_exact_tv_positive_decreasing(tmp_path, capsys):
    out = tmp_path / "hc.csv"
    code, _, _ = run_cli(
        ["evolve", "--hardcore-lambda", "1.0", "--k", "2", "--depth", "10",
         "--out", str(out)], capsys)
    assert code == 0
    _, header, rows = read_csv(out)
    tv = column(header, rows, "tv")
    assert len(tv) == 10
    assert all(value > 0.0 for value in tv)
    assert all(b < a for a, b in zip(tv, tv[1:]))


def test_evolve_vanishing_stationary_weight_has_finite_var_a(tmp_path, capsys):
    """p01 = 0 puts a -inf atom where pi1 = 0: var_A is 0, not NaN."""
    for engine in ("exact", "population"):
        out = tmp_path / f"p01zero-{engine}.csv"
        code, _, _ = run_cli(
            ["evolve", "--matrix", "1.0", "0.3", "--k", "2", "--depth", "4",
             "--engine", engine, "--pop-size", "2000", "--out", str(out)], capsys)
        assert code == 0
        _, header, rows = read_csv(out)
        var_a = column(header, rows, "var_A")
        assert len(var_a) == 4
        assert all(0.0 <= value <= 1e-15 for value in var_a), engine
        assert all(value == math.inf for value in column(header, rows, "mean_gap"))
        if engine == "population":
            assert column(header, rows, "se_var_A") == [0.0] * 4


def test_evolve_population_csv_has_se_columns(tmp_path, capsys):
    out = tmp_path / "pop.csv"
    code, _, _ = run_cli(
        ["evolve", "--symmetric", "0.2", "--k", "2", "--depth", "3",
         "--engine", "population", "--pop-size", "2000", "--seed", "5",
         "--out", str(out)], capsys)
    assert code == 0
    config, header, rows = read_csv(out)
    assert header == ["depth", "tv", "se_tv", "mean_gap", "se_mean_gap",
                      "var_A", "se_var_A", "inf_mass0", "inf_mass1", "tilt_ess"]
    assert config["engine"] == "population"
    assert config["seed"] == 5
    assert all(se >= 0.0 for se in column(header, rows, "se_tv"))


def evolve_rows(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["evolve", *argv, "--format", "json"]) == 0
    return json.loads(buf.getvalue())["rows"]


@pytest.mark.parametrize("flags,every_depth", [
    (["--symmetric", "0.13", "--depth", "30"], False),
    (["--hardcore-lambda", "30", "--depth", "12"], False),
    (["--matrix", "0.6", "0.15", "--k", "5", "--depth", "10"], False),
    # p01 = 0: the root-0 law is one atom, so the population is exact
    (["--matrix", "1.0", "0.3", "--depth", "8"], True),
])
def test_evolve_population_agrees_with_lattice_at_depth(flags, every_depth):
    """The population curve stays within 4 SEs of the lattice
    upper law, which is within ~LATTICE_WIDTH of the exact law."""
    pop = evolve_rows([*flags, "--engine", "population", "--pop-size", "20000",
                       "--seed", "7"])
    lattice = evolve_rows(flags)
    pairs = list(zip(pop, lattice)) if every_depth else [(pop[-1], lattice[-1])]
    for p, ref in pairs:
        assert abs(p["tv"] - ref["tv"]) <= 4 * p["se_tv"] + 1e-9, (p["depth"], p, ref)


def test_evolve_population_gap_and_variance_never_negative():
    """The mean gap and var_A are means of non-negative per-sample terms,
    so no row reads below 0, even where both fall below 1e-9."""
    rows = evolve_rows(["--symmetric", "0.3", "--depth", "20", "--engine", "population",
                        "--pop-size", "20000", "--seed", "1"])
    assert len(rows) == 20 and rows[-1]["mean_gap"] < 1e-9
    assert all(row["mean_gap"] >= 0.0 and row["var_A"] >= 0.0 for row in rows)


def test_evolve_json_format(capsys):
    code, out, _ = run_cli(
        ["evolve", "--symmetric", "0.3", "--depth", "3", "--format", "json"],
        capsys)
    assert code == 0
    payload = json.loads(out)
    assert [row["depth"] for row in payload["rows"]] == [1, 2, 3]
    assert payload["config"]["format"] == "json"
    assert set(payload["rows"][0]) == {"depth", "tv", "mean_gap", "var_A"}


def test_evolve_rerun_byte_identical(tmp_path, capsys, monkeypatch):
    # identical config incl. the relative --out; only the resolution dir moves
    argv = ["evolve", "--symmetric", "0.25", "--k", "2", "--depth", "4",
            "--engine", "population", "--pop-size", "3000", "--seed", "7",
            "--out", "curve.csv"]
    monkeypatch.setenv("TREECAST_OUT_DIR", str(tmp_path / "run_a"))
    assert run_cli(argv, capsys)[0] == 0
    monkeypatch.setenv("TREECAST_OUT_DIR", str(tmp_path / "run_b"))
    assert run_cli(argv, capsys)[0] == 0
    bytes_a = (tmp_path / "run_a" / "curve.csv").read_bytes()
    assert bytes_a == (tmp_path / "run_b" / "curve.csv").read_bytes()
    assert bytes_a  # nonempty


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    """``main`` builds its parser on its first call, not at import, and
    reuses it: consecutive calls with different subcommands, one of them a
    parse error, print the bytes and exit codes of calls made each with a
    newly built parser."""
    proc = run_fresh_interpreter("import treecast.cli\nprint(treecast.cli._PARSER is None)")
    assert proc.returncode == 0 and proc.stdout.strip() == "True", proc.stderr
    calls = [["bounds", "--hardcore", "--k", "2"],
             ["evolve", "--symmetric", "0.2", "--k", "3", "--depth", "3"],
             ["evolve", "--hardcore-lambda", "2", "--depth", "3", "--format", "json"],
             ["evolve", "--depth"],
             ["couple", "--symmetric", "0.3", "--depth", "2"],
             ["bounds", "--symmetric", "--k", "3"]]
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", None)
    together = [run_cli(argv, capsys) for argv in calls]
    assert len(built) == 1
    alone = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        alone.append(run_cli(argv, capsys))
    assert together == alone
    assert [code for code, _, _ in together] == [0, 0, 0, 2, 0, 0]


# ---------------------------------------------------------------------------
# couple


def test_couple_csv_weights_sum_to_one(tmp_path, capsys):
    out = tmp_path / "coupling.csv"
    code, _, _ = run_cli(
        ["couple", "--symmetric", "0.2", "--k", "2", "--depth", "3",
         "--out", str(out)], capsys)
    assert code == 0
    config, header, rows = read_csv(out)
    assert header == ["y0", "y1", "weight"]
    weights = column(header, rows, "weight")
    assert abs(sum(weights) - 1.0) < 1e-12
    assert all(w > 0.0 for w in weights)
    assert config["command"] == "couple"


def test_couple_json_marginals_and_crossing(capsys):
    code, out, _ = run_cli(
        ["couple", "--symmetric", "0.3", "--k", "2", "--depth", "4",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["marginal_residual0"] <= 1e-12
    assert payload["marginal_residual1"] <= 1e-12
    assert payload["crossing_ok"] is True
    assert payload["mean_difference"] >= 0.0
    assert payload["pairs"]


# ---------------------------------------------------------------------------
# hardcore-check


def test_hardcore_check_passes(tmp_path, capsys):
    out = tmp_path / "hc.json"
    code, _, _ = run_cli(
        ["hardcore-check", "--hardcore-w", "1.0", "--k", "2", "--depth", "3",
         "--pop-size", "20000", "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True
    names = {chk["name"] for chk in payload["checks"]}
    assert names == {"single_site_conditional_rooted",
                     "single_site_conditional_center_root",
                     "no_adjacent_occupied"}


def test_hardcore_check_wrong_family_exits_2(capsys):
    code, _, err = run_cli(["hardcore-check", "--symmetric", "0.2"], capsys)
    assert code == 2
    assert "hardcore" in err


@pytest.mark.parametrize("pop_size", ["-5", "0"])
def test_hardcore_check_without_samples_exits_2(pop_size, capsys):
    """No samples is an input error, not a numpy traceback or a vacuous pass."""
    code, out, err = run_cli(
        ["hardcore-check", "--hardcore-w", "1", "--k", "2", "--depth", "3",
         "--pop-size", pop_size], capsys)
    assert code == 2 and out == ""
    assert "sample count" in err and "Traceback" not in err


def test_hardcore_check_without_interior_nodes_exits_2(capsys):
    """A depth-1 rooted truncation has no interior node for the sweep."""
    code, out, err = run_cli(
        ["hardcore-check", "--hardcore-w", "1", "--k", "2", "--depth", "1",
         "--pop-size", "100"], capsys)
    assert code == 2 and out == ""
    assert "error: no interior nodes at depth 1" in err


def test_hardcore_check_oversized_depth_exits_3_with_hint(capsys):
    """The node cap bounds the whole batch: at depth 12 one sample has only
    8191 nodes, but the default 1e5 samples exceed it.  At depth 20000 the
    node count has more digits than an int may print."""
    for depth in ("25", "12", "20000"):
        code, _, err = run_cli(
            ["hardcore-check", "--hardcore-w", "1.0", "--k", "2",
             "--depth", depth], capsys)
        assert code == 3, depth
        assert "hint: lower --pop-size or --depth" in err


def test_exit_3_hint_names_flags_the_subcommand_takes(capsys):
    code, _, err = run_cli(["couple", "--symmetric", "0.2", "--k", "40",
                            "--depth", "3"], capsys)
    assert code == 3
    assert "hint: lower --depth or --k" in err and "--engine" not in err
    code, _, err = run_cli(["evolve", "--symmetric", "0.05", "--k", "5",
                            "--depth", "12"], capsys)
    assert code == 3
    assert "hint: the population engine (--engine population)" in err


# ---------------------------------------------------------------------------
# verify


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_default_suite_passes(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code, _, _ = run_cli(["verify", "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True
    names = {chk["name"] for chk in payload["checks"]}
    assert {"mean_gap_identity", "coupling_marginals", "sandwich_inequality",
            "single_site_conditional", "bound_ordering",
            "kernel_peak"} <= names
    assert all(chk["passed"] for chk in payload["checks"])
    # p01 = 0: the root-1 law has mass at -inf, so both sides of the
    # mean-gap identity are +inf, which is agreement, not NaN; but nothing
    # was compared, and the record says so
    for matrix in (["1.0", "0.5"], ["1.0", "0.3"]):
        code, out, _ = run_cli(["verify", "--matrix", *matrix], capsys)
        assert code == 0, matrix
        by_name = {chk["name"]: chk for chk in json.loads(out)["checks"]}
        assert by_name["mean_gap_identity"]["residual"] == 0.0
        assert by_name["mean_gap_identity"]["tested"] is False
        assert "tested" not in by_name["coupling_marginals"]
    # the hard-core mean gap is +inf at depth 1 only, so the sides compared
    code, out, _ = run_cli(["verify", "--hardcore-w", "1"], capsys)
    assert code == 0 and "tested" not in out


def test_verify_rows_equal_matrix_reports_zero_gap(capsys):
    code, out, _ = run_cli(["verify", "--matrix", "0.7", "0.7"], capsys)
    assert code == 0
    payload = json.loads(out)
    by_name = {chk["name"]: chk for chk in payload["checks"]}
    gap_check = by_name["rows_equal_mean_gap"]
    assert gap_check["residual"] <= 1e-12
    assert gap_check["passed"] is True


def test_verify_kernel_peak_fails_at_a_wrong_argmax(capsys, monkeypatch):
    """The check compares the bound with the kernel's slope at the returned
    argmax, so it is not 0 by construction and a wrong argmax fails it."""
    def kernel_check():
        code, out, _ = run_cli(["verify", "--matrix", "0.6", "0.3"], capsys)
        by_name = {chk["name"]: chk for chk in json.loads(out)["checks"]}
        return code, by_name["kernel_peak_closed_form"]

    code, check = kernel_check()
    assert code == 0 and check["passed"] and 0.0 < check["residual"] <= 1e-8
    real = cli.gap_kernel_peak
    monkeypatch.setattr(cli, "gap_kernel_peak", lambda c: (real(c)[0] + 0.1, real(c)[1]))
    code, check = kernel_check()
    assert code == 1 and not check["passed"] and check["residual"] > 1e-6


def test_verify_channel_uses_k(capsys, monkeypatch):
    real, ks = cli.base_pair, []

    def recording(c, k):
        ks.append(k)
        return real(c, k)

    monkeypatch.setattr(cli, "base_pair", recording)
    code, out, _ = run_cli(["verify", "--matrix", "0.6", "0.3", "--k", "3"], capsys)
    assert code == 0
    assert ks == [3]
    assert json.loads(out)["config"]["k"] == 3


CLI_VALUES = [math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 1e-17, 1e-9,
              0.3, 0.5, 1.0, 2.0, 1e308]
CLI_CHANNELS = ["--hardcore-lambda", "--hardcore-w", "--matrix", "--symmetric"]
CLI_COUNTS = ["-1", "0", "1000", str(NODE_CAP + 1), str(10 ** 23)]


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["evolve", "evolve-population", "couple",
                                    "verify", "bounds", "threshold",
                                    "hardcore-check"]))

    def value():
        return repr(draw(st.sampled_from(CLI_VALUES)))

    if command == "threshold":
        channel = [draw(st.sampled_from(["--symmetric", "--hardcore"]))]
    elif (flag := draw(st.sampled_from(CLI_CHANNELS))) == "--matrix":
        # argparse reads a separate "-inf" as an option, so here (and after
        # "--bracket") it exits 2 before the channel checks run
        channel = [flag, value(), value()]
    else:
        # "--flag=VALUE" hands even "-inf" to the channel checks
        channel = [f"{flag}={value()}"]
    argv = [command.removesuffix("-population"), *channel,
            "--k", str(draw(st.integers(-1, 3)))]
    if command in ("evolve", "evolve-population", "couple", "hardcore-check"):
        argv += ["--depth", str(draw(st.integers(-1, 3)))]
    if command == "evolve-population":
        argv += ["--engine", "population"]
    # a seed or size: negative, 0, small, or above the cap, which is refused
    # before anything of that size is allocated
    if command in ("evolve-population", "hardcore-check", "threshold"):
        argv += ["--pop-size", draw(st.sampled_from(CLI_COUNTS))]
    if command in ("evolve", "evolve-population", "hardcore-check", "threshold", "verify"):
        argv += ["--seed", draw(st.sampled_from(CLI_COUNTS))]
    if command == "threshold":
        argv += ["--bracket", value(), value(),
                 "--engine", "exact", "--depth", "3", "--tol", "0.1"]
    return argv


@settings(derandomize=True, max_examples=280, deadline=None)
@given(cli_argv())
@example(["evolve", "--matrix", "1.0", "1e-20", "--depth", "3"])
@example(["evolve", "--matrix", "0.5", "1e-17", "--depth", "3"])
@example(["evolve", "--hardcore-lambda", "1e308", "--depth", "2"])
@example(["evolve", "--matrix", "0.0", "1.0", "--depth", "2"])
@example(["evolve", "--symmetric", "1e-300", "--k", "2", "--depth", "2"])
@example(["evolve", "--symmetric=-inf", "--depth", "2"])
def test_cli_never_leaks_a_python_exception(argv):
    """Edge channels end in a documented exit code, never a traceback."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), argv


@pytest.mark.parametrize("command", ["couple", "verify"])
def test_refused_coupling_exits_2(command, capsys, monkeypatch):
    """Every typed error the handlers raise maps to an exit code, including
    one that build_coupling raises."""
    def refuse(pair, c):
        raise InvalidParameter("coupling weight sums to 0.5, not 1")

    monkeypatch.setattr(cli, "build_coupling", refuse)
    code, out, err = run_cli([command, "--symmetric", "0.3"], capsys)
    assert code == 2 and out == ""
    assert err == "error: coupling weight sums to 0.5, not 1\n"


def test_edge_channels_answer_or_refuse(capsys):
    # the whole root-1 law sits at -inf from depth 2 on: TV is 1
    assert [row["tv"] for row in evolve_rows(["--matrix", "1.0", "1e-20",
                                              "--depth", "3"])] == [1.0] * 3
    c = make_channel(1.0, 1e-20)
    assert diagnostics(evolve_to_depth(c, 2, 3, deep_policy()), c)["tv"] == 1.0
    # p01 rounds to 0 and the finite root-1 mass (1e-300)**k to 0: the
    # lattice step puts all of root 1 at -inf, where it made 0/0
    for k in ("2", "3"):
        assert [row["tv"] for row in evolve_rows(["--symmetric", "1e-300", "--k", k,
                                                  "--depth", "3"])] == [1.0] * 3
    # g nears ln(c0/c1) = ln(1e-17), which llr_step keeps to a few ulps
    mpmath = pytest.importorskip("mpmath")
    c = make_channel(0.5, 1e-17)
    with mpmath.workdps(50):
        e, c0, c1 = mpmath.exp(-50), mpmath.mpf(c.c0), mpmath.mpf(c.c1)
        want = float(mpmath.log((e + c0) / (e + c1)))
    assert abs(llr_step(c, -50.0) - want) <= 2 * math.ulp(want)
    code, out, _ = run_cli(["verify", "--matrix", "0.5", "1e-17"], capsys)
    assert code == 0 and json.loads(out)["all_passed"]
    code, _, err = run_cli(["evolve", "--matrix", "0.5", "1e-17", "--depth", "3"], capsys)
    assert code == 3 and "atom pairs" in err
    # the exact law needs 1.3e11 pairs; no sample of root 0 is finite
    code, _, err = run_cli(["evolve", "--hardcore-lambda", "1e308", "--depth", "2"],
                           capsys)
    assert code == 3 and "atom pairs" in err
    code, _, err = run_cli(["evolve", "--hardcore-lambda", "1e308", "--depth", "2",
                            "--engine", "population", "--pop-size", "1000"], capsys)
    assert code == 3 and "hint: raise --pop-size" in err


@pytest.mark.parametrize("argv", [
    ["evolve", "--symmetric", "0.2", "--engine", "population", "--pop-size", "1000",
     "--depth", "2"],
    ["threshold", "--symmetric", "--pop-size", "1000", "--depth", "2"],
    ["verify"],
    ["hardcore-check", "--hardcore-w", "1.0", "--pop-size", "100", "--depth", "2"],
])
def test_negative_seed_exits_2(argv, capsys):
    code, out, err = run_cli([*argv, "--seed", "-1"], capsys)
    assert code == 2 and out == ""
    assert err == "error: need an integer seed >= 0, got seed=-1\n"


@pytest.mark.parametrize("command", [
    ["evolve", "--symmetric", "0.2", "--engine", "population", "--depth", "2"],
    ["threshold", "--symmetric", "--depth", "2"]])
@pytest.mark.parametrize("size", [NODE_CAP // 2 + 1, NODE_CAP + 1, 10 ** 23])
def test_population_over_the_cap_exits_3_before_allocating(command, size, capsys,
                                                          monkeypatch):
    """At k = 2 a step holds 2N values, so even N = NODE_CAP // 2 + 1 is
    refused, and before the first population is drawn."""
    def never(*args):
        raise AssertionError("drew a population whose step the cap refuses")

    monkeypatch.setattr(cli, "population_from_pair", never)
    monkeypatch.setattr(treecast.threshold, "population_from_pair", never)
    code, out, err = run_cli([*command, "--pop-size", str(size)], capsys)
    assert code == 3 and out == ""
    assert f"more than {NODE_CAP} (the cap)" in err
    assert "hint: lower --pop-size" in err and "raise" not in err


def test_verify_broken_channel_exits_2(capsys):
    code, _, err = run_cli(["verify", "--matrix", "1.1", "0.3"], capsys)
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# threshold


def test_threshold_degenerate_bracket_exits_4(capsys):
    for bracket in (["0.3", "0.3"], ["0.1", "inf"], ["nan", "5"], ["0.1", "nan"]):
        code, _, err = run_cli(
            ["threshold", "--symmetric", "--k", "2", "--engine", "exact",
             "--depth", "6", "--bracket", *bracket], capsys)
        assert code == 4, bracket
        assert err.startswith("error: bracket must be finite with lo < hi"), err


def test_threshold_bad_tol_exits_2(capsys):
    for tol in ("0", "-1", "nan"):
        code, _, err = run_cli(
            ["threshold", "--symmetric", "--k", "2", "--engine", "exact",
             "--depth", "6", "--tol", tol], capsys)
        assert code == 2, tol
        assert "tol" in err


def test_threshold_agreeing_bracket_exits_4(capsys):
    # both endpoints read as decaying at this shallow exact depth
    code, _, _ = run_cli(
        ["threshold", "--symmetric", "--k", "2", "--engine", "exact",
         "--depth", "6", "--bracket", "0.38", "0.46"], capsys)
    assert code == 4


def test_threshold_symmetric_defaults_near_closed_form(tmp_path, capsys):
    out = tmp_path / "sym.json"
    code, _, _ = run_cli(
        ["threshold", "--symmetric", "--k", "2", "--seed", "1",
         "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    est = payload["estimate"]
    assert abs(est["estimate"] - KS_EPS_K2) <= 0.01
    assert est["engine"] == "population"
    assert est["depth"] == 40
    assert est["history"]
    assert payload["config"]["seed"] == 1


def test_threshold_hardcore_defaults_exceed_lower_bound(tmp_path, capsys):
    out = tmp_path / "hc.json"
    code, _, _ = run_cli(
        ["threshold", "--hardcore", "--k", "2", "--seed", "0",
         "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    est = payload["estimate"]
    assert est["estimate"] > math.e - 1.0 - 0.05
    assert est["engine"] == "exact"
    lo, hi = est["bracket_final"]
    assert lo <= est["estimate"] <= hi


# ---------------------------------------------------------------------------
# output plumbing


def test_relative_out_resolves_under_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TREECAST_OUT_DIR", str(tmp_path))
    code, _, _ = run_cli(
        ["bounds", "--symmetric", "--k", "2", "--out", "sub/report.json"],
        capsys)
    assert code == 0
    target = tmp_path / "sub" / "report.json"
    assert target.is_file()
    json.loads(target.read_text())


def test_absolute_out_ignores_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TREECAST_OUT_DIR", str(tmp_path / "ignored"))
    out = tmp_path / "direct.json"
    code, _, _ = run_cli(
        ["bounds", "--symmetric", "--k", "2", "--out", str(out)], capsys)
    assert code == 0
    assert out.is_file()
    assert not (tmp_path / "ignored").exists()


def test_default_output_is_stdout(capsys):
    code, out, _ = run_cli(["bounds", "--symmetric", "--k", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["out"] is None


def test_bounds_rerun_byte_identical(tmp_path, capsys, monkeypatch):
    argv = ["bounds", "--hardcore", "--k", "3", "--out", "report.json"]
    monkeypatch.setenv("TREECAST_OUT_DIR", str(tmp_path / "run_a"))
    assert run_cli(argv, capsys)[0] == 0
    monkeypatch.setenv("TREECAST_OUT_DIR", str(tmp_path / "run_b"))
    assert run_cli(argv, capsys)[0] == 0
    assert ((tmp_path / "run_a" / "report.json").read_bytes()
            == (tmp_path / "run_b" / "report.json").read_bytes())


# ---------------------------------------------------------------------------
# pinned output bytes: a change that moves any emitted number must update
# the digest here and say which number moved and why

PINNED_OUTPUTS = {
    # the two crossovers come from a bisection down to adjacent floats:
    # geometric_crossover_lambda 3.9999999999999991, mp_crossover_lambda 4
    # (Kelly's threshold at k=2 is 4)
    "bounds": (
        ["bounds", "--hardcore", "--k", "2", "--out", "bounds.json"],
        "8fc282af38ab46af9c83e7d8336583cc3bbf66c4d0aeea9ffe96082dd143d682"),
    # the symmetric rows: Kesten-Stigum and the two solved crossovers
    "bounds-symmetric": (
        ["bounds", "--symmetric", "--k", "2", "--out", "bounds_symmetric.json"],
        "adfd8f4c601ebdd9d667ab939d1a9850041b8cf198efb52d9c53338791d22c1f"),
    # k=3: the first k with the bw_* comparison-curve fields
    "bounds-k3": (
        ["bounds", "--hardcore", "--k", "3", "--out", "bounds_k3.json"],
        "2728ee6aa98b73da48d98462010aec92a4be496a4a639565a7624d5968b5ce1c"),
    "hardcore-check": (
        ["hardcore-check", "--hardcore-w", "1.0", "--k", "2", "--depth", "3",
         "--pop-size", "5000", "--seed", "2", "--out", "hardcore.json"],
        "aadfea5d1a3e4eba4ef6c7807b82a66057502de0a3144080855e3caf2b655c78"),
    "evolve-exact": (
        ["evolve", "--symmetric", "0.2", "--k", "2", "--depth", "5",
         "--out", "evolve.csv"],
        "0b4f97a23f0efe02ecc0317343fa10277a04083b869aac3bdfaf786140b7c351"),
    # k=3 at depth 4: a law the exact engine refuses (its last fold is
    # above PAIR_BUDGET), so only the lattice step computes this curve
    "evolve-exact-k3": (
        ["evolve", "--symmetric", "0.2", "--k", "3", "--depth", "4",
         "--out", "evolve_k3_d4.csv"],
        "fafc3b5d619ec77b9e27603a5572b44969b2eca3b880dd42d253c77f42584f81"),
    "evolve-population": (
        ["evolve", "--symmetric", "0.2", "--k", "2", "--depth", "4",
         "--engine", "population", "--pop-size", "4000", "--seed", "9",
         "--out", "pop.csv"],
        "f69b46383e5ea4d978eaf20116f60a89880890b03aea6a6362d49ea796d0bcf4"),
    "couple-csv": (
        ["couple", "--symmetric", "0.3", "--k", "2", "--depth", "3",
         "--out", "coupling.csv"],
        "c76485611a368ca5db4b37aa07926fdf0e183343e0a047fa5c70808be06a121b"),
    "couple-json": (
        ["couple", "--symmetric", "0.3", "--k", "2", "--depth", "3",
         "--format", "json", "--out", "coupling.json"],
        "9e0608ded46ec45c6e7bf5953d418183c33373930fcbee7ead0440dcad3bdbb0"),
    "verify-suite": (
        ["verify", "--out", "suite.json"],
        "726e71fe381ef9243b0c6b7f24e32287e17d39245eccc44011aa3c8611900bfa"),
    "verify-matrix": (
        ["verify", "--matrix", "0.6", "0.3", "--out", "verify.json"],
        "4a9a0380fa49a2f8a0f2382ff40df4ae5802f867118f47d4a2fc8b84138b85f7"),
    "threshold-exact": (
        ["threshold", "--symmetric", "--k", "2", "--engine", "exact",
         "--depth", "4", "--tol", "0.1", "--bracket", "0.05", "0.45",
         "--seed", "4", "--out", "threshold.json"],
        "5fd269e90a582444e57c8caaa2ff71dfe40b0c7fa84422c0cf8a8f8df71f2c25"),
    # the population bisection path: population draws, steps and TV curve
    "threshold-population": (
        ["threshold", "--symmetric", "--k", "2", "--pop-size", "2000",
         "--depth", "12", "--tol", "0.05", "--seed", "3",
         "--out", "threshold_pop.json"],
        "849105516c33cd74b4498f81277ede457be42479ea1b5d4bf816983fd0a008a9"),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_output_bytes_pinned(name, tmp_path, capsys, monkeypatch):
    argv, digest = PINNED_OUTPUTS[name]
    monkeypatch.setenv("TREECAST_OUT_DIR", str(tmp_path))
    assert run_cli(argv, capsys)[0] == 0
    data = (tmp_path / argv[-1]).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# ---------------------------------------------------------------------------
# hooks the benchmark harness relies on


def _load_tracer(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file executes
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_trace_targets_resolve(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    for home, attr, _layer, _counter in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(f"treecast.{home}"), attr)), \
            (home, attr)
    for name in tracer.MODULES:
        importlib.import_module(f"treecast.{name}")


def test_benchmark_tracer_counts_merges(monkeypatch):
    """The installed tracer binds ``grid_merge``'s ``values`` and ``tol`` by
    name on the exact step and the coupling; every name it patches is
    restored afterwards."""
    tracer = _load_tracer(monkeypatch)
    modules = [importlib.import_module(f"treecast.{name}") for name in tracer.MODULES]
    targets = [getattr(importlib.import_module(f"treecast.{home}"), attr)
               for home, attr, _layer, _counter in tracer.TARGETS]
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if any(value is fn for fn in targets):
                monkeypatch.setattr(mod, key, value)
    evolution = importlib.import_module("treecast.evolution")
    conditioning = importlib.import_module("treecast.conditioning")
    monkeypatch.setattr(conditioning.Coupling, "marginal_residuals",
                        conditioning.Coupling.marginal_residuals)
    recorder = tracer.Tracer()
    recorder.install()
    c = treecast.make_channel(0.7, 0.4)
    pair = evolution.evolve(evolution.base_pair(c, 2), c, 2, evolution.exact_policy())
    conditioning.build_coupling(pair, c)
    names = {span.name for span in recorder.spans}
    assert {"evolution.evolve", "conditioning.build_coupling"} <= names
    merges = [span for span in recorder.spans if span.name == "atoms.grid_merge"]
    assert merges
    for span in merges:
        assert set(span.counts) == {"atoms_in", "atoms_out", "tol"}, span.counts


def test_evolve_steps_through_cli_evolve(capsys, monkeypatch):
    """The deep-curves workload collects pairs by wrapping ``cli.evolve``."""
    real, calls = cli.evolve, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "evolve", counting)
    code, _, _ = run_cli(["evolve", "--symmetric", "0.2", "--depth", "4"], capsys)
    assert code == 0
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# runtime dependencies: numpy and the standard library only

SCIPY_FREE_RUNS = [
    ["bounds", "--hardcore", "--k", "2"],
    ["bounds", "--symmetric", "--k", "2"],
    ["evolve", "--symmetric", "0.2", "--k", "2", "--depth", "4"],
    ["evolve", "--symmetric", "0.2", "--k", "2", "--depth", "4",
     "--engine", "population", "--pop-size", "2000", "--seed", "1"],
    ["threshold", "--hardcore", "--k", "2"],
    ["couple", "--symmetric", "0.3", "--k", "2", "--depth", "3"],
    ["verify"],
    ["hardcore-check", "--hardcore-w", "1.0", "--k", "2", "--depth", "3",
     "--pop-size", "2000", "--seed", "2"],
]


def run_fresh_interpreter(code):
    src = Path(treecast.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=600)


def test_cli_import_loads_no_scipy():
    proc = run_fresh_interpreter(
        "import sys, treecast.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_logging_or_concurrent():
    """Each command pays for its imports at start-up: ``concurrent.futures``
    pulls in ``logging`` (about 12 ms), so the population bisection imports
    it only when it runs, and ``import treecast.cli`` loads neither."""
    proc = run_fresh_interpreter(
        "import sys, treecast.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('logging', 'concurrent')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_subcommand_runs_with_scipy_blocked():
    """``sys.modules["scipy"] = None`` makes any scipy import raise."""
    proc = run_fresh_interpreter(
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from treecast.cli import main\n"
        "codes = []\n"
        f"for argv in {SCIPY_FREE_RUNS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps(codes))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(SCIPY_FREE_RUNS), proc.stderr
