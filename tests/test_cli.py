import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stopred import cli
from stopred.cli import (ASSET_TEXT, build_parser, load_asset, main,
                         parse_matrix_text, render_matrix_text)
from stopred.field import MAX_ORDER, make_field
from stopred.linalg import Matrix
from stopred.stopping import stopping_distance


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            code, out, _ = run_cli(capsys, "mindist", "--assets", "hexacode")
            assert code == 0 and out == "4\n"
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()


def test_sd_asset(capsys):
    code, out, _ = run_cli(capsys, "sd", "--assets", "h24")
    assert code == 0 and out.strip() == "4"


def test_sd_cap_and_json(capsys):
    code, out, _ = run_cli(capsys, "sd", "--assets", "hp24", "--cap", "8",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["s"] == 8 and data["at_least"] is True


def test_mindist(capsys):
    code, out, _ = run_cli(capsys, "mindist", "--assets", "hexacode")
    assert code == 0 and out.strip() == "4"


def test_bounds_parameter_mode(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "6", "--k", "3", "--mds",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["combined_lower"] == 6
    assert data["combined_upper"] == 10
    assert all("theorem" in e for e in data["entries"])


def test_bounds_matrix_mode(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--assets", "h24")
    assert code == 0
    assert "combined" in out and "2509" in out


def test_psi_stop_csv(capsys):
    code, out, _ = run_cli(capsys, "psi", "stop", "--assets", "hp24",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w,count"
    assert len(lines) == 26  # header + w = 0..24
    assert lines[9] == "8,3598"
    assert lines[13] == "12,2556402"


def test_psi_ml_wmax(capsys):
    code, out, _ = run_cli(capsys, "psi", "ml", "--assets", "h12",
                           "--wmax", "6", "--format", "csv")
    assert code == 0
    assert "6,132" in out


def test_curve_pipeline(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "psi", "stop", "--assets", "h12",
                           "--format", "csv")
    psi_file = tmp_path / "psi.csv"
    psi_file.write_text(out)
    code, out, _ = run_cli(capsys, "curve", "--psi", str(psi_file),
                           "--pgrid", "0,0.3,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,prob"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == 0.0
    assert float(lines[3].split(",")[1]) == 1.0


def test_assets_round_trip(capsys):
    for name, want_s in (("h24", 4), ("hp24", 8), ("h12", 3),
                         ("hp12", 6), ("hexacode", 4)):
        code, out, _ = run_cli(capsys, "assets", name)
        assert code == 0
        again = parse_matrix_text(out)
        assert again == load_asset(name)
        assert stopping_distance(again).s == want_s


SUPPORTED_ORDERS = [4] + [p for p in range(2, MAX_ORDER + 1)
                          if all(p % f for f in range(2, p))]


@st.composite
def text_matrices(draw):
    q = draw(st.sampled_from(SUPPORTED_ORDERS))
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n,
                                  max_size=n), min_size=m, max_size=m))
    return Matrix(make_field(q), np.array(rows, dtype=np.uint8))


@settings(max_examples=200, deadline=None)
@given(text_matrices())
@example(Matrix(make_field(4), [[3]]))
@example(Matrix(make_field(3), [[2, 0, 1, 2]]))
@example(Matrix(make_field(251), [[250], [0], [17]]))
def test_matrix_text_round_trip(m):
    assert parse_matrix_text(render_matrix_text(m)) == m


def test_ternary_dash_normalization():
    m = parse_matrix_text("3 3\n1 - 0\n")
    assert m.data.tolist() == [[1, 2, 0]]
    assert render_matrix_text(m).splitlines()[1] == "1 2 0"


def test_construct_rm(capsys):
    code, out, _ = run_cli(capsys, "construct", "rm", "--r", "1", "--m", "3")
    assert code == 0
    m = parse_matrix_text(out)
    assert m.n_rows == 5 and m.n_cols == 8


@pytest.mark.parametrize("extra", [[], ["--generator"]],
                         ids=["stopping", "generator"])
def test_construct_rm_guard(capsys, extra):
    # refused from the closed-form row count, before any allocation
    code, out, err = run_cli(capsys, "construct", "rm", "--r", "2",
                             "--m", "40", *extra)
    assert code == 1 and out == "" and "2^26 guard" in err


def test_construct_mds(capsys):
    code, out, _ = run_cli(capsys, "construct", "mds", "--assets", "hexacode")
    assert code == 0
    m = parse_matrix_text(out)
    assert m.n_rows == 15


def test_greedy_command(capsys):
    code, out, _ = run_cli(capsys, "greedy", "--assets", "hexacode")
    assert code == 0
    m = parse_matrix_text(out)
    assert stopping_distance(m).s == 4


def test_rho_exact_command(capsys):
    code, out, _ = run_cli(capsys, "rho-exact", "--assets", "hexacode")
    assert code == 0 and out.strip() == "6"


def test_domain_error_exit_code(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sd", "--file", str(tmp_path / "nope.mat"))
    assert code == 1 and "error:" in err
    bad = tmp_path / "bad.mat"
    bad.write_text("6 3\n1 2 3\n")  # unsupported field order
    code, _, err = run_cli(capsys, "sd", "--file", str(bad))
    assert code == 1 and "unsupported" in err


@pytest.mark.parametrize("kind", ["stop", "ml"])
def test_negative_wmax_is_refused(capsys, kind):
    code, out, err = run_cli(capsys, "psi", kind, "--assets", "h12",
                             "--wmax", "-1", "--format", "csv")
    assert code == 1 and out == ""
    assert err == "error: w_max must be >= 0, got -1\n"


def test_negative_budget_is_refused(capsys):
    code, out, err = run_cli(capsys, "rho-exact", "--assets", "hexacode",
                             "--budget", "-3")
    assert code == 1 and out == ""
    assert err == "error: budget must be >= 0, got -3\n"
    # budget 0 stays valid: the greedy incumbent, flagged as a bound only
    code, out, _ = run_cli(capsys, "rho-exact", "--assets", "hexacode",
                           "--budget", "0")
    assert code == 0 and out == "6 (upper bound only)\n"


@pytest.mark.parametrize("text, message", [
    ("2 x\n1 0\n", "header must be two integers: q n, got '2 x'"),
    ("2\n1 0\n", "header must be two integers: q n, got '2'"),
    ("2 -2\n1 0\n", "header column count n must be >= 1, got -2"),
    ("2 0\n\n", "header column count n must be >= 1, got 0"),
    ("2 1_2\n1 0\n", "header must be two integers: q n, got '2 1_2'"),
], ids=["not-an-integer", "one-token", "negative-n", "zero-n", "underscore"])
def test_matrix_header_errors_name_the_header(text, message):
    with pytest.raises(ValueError) as exc:
        parse_matrix_text(text)
    assert str(exc.value) == message


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_input_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "sd")
    assert code == 1 and "--file or --assets" in err


@pytest.mark.parametrize("argv, message", [
    (["construct", "directsum", "--assets", "h12", "--assets2", "h12",
      "--file2", "/nonexistent"],
     "exactly one of --file2 or --assets2 is required"),
    (["construct", "directsum", "--assets", "h12"],
     "exactly one of --file2 or --assets2 is required"),
    (["bounds", "--n", "6", "--k", "3", "--mds", "--assets", "h24"],
     "--n, --k and --mds take no --file or --assets"),
    (["bounds", "--n", "6", "--k", "3", "--mds", "--file", "/nonexistent"],
     "--n, --k and --mds take no --file or --assets"),
    (["bounds", "--assets", "h24", "--mds"],
     "--n, --k and --mds take no --file or --assets"),
    (["bounds", "--mds"], "parameter mode needs --n, --k and --mds together"),
    (["bounds", "--n", "6", "--k", "3"],
     "parameter mode needs --n, --k and --mds together"),
], ids=["directsum-both", "directsum-neither", "bounds-params-and-asset",
        "bounds-params-and-file", "bounds-asset-and-mds", "bounds-mds-only",
        "bounds-no-mds"])
def test_conflicting_inputs_are_refused(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("grid, message", [
    ("", "--pgrid needs at least one erasure probability"),
    (",", "--pgrid needs at least one erasure probability"),
    (" , ,", "--pgrid needs at least one erasure probability"),
    ("0.1,abc", "--pgrid entry 'abc' is not a number"),
    ("0.1, 0x2 ,0.5", "--pgrid entry '0x2' is not a number"),
], ids=["empty", "comma", "blanks", "word", "hex"])
def test_bad_pgrid_is_refused(capsys, tmp_path, grid, message):
    # the grid is read before the psi file, which is valid here anyway
    path = tmp_path / "psi.csv"
    path.write_text("w,count\n0,0\n1,1\n")
    code, out, err = run_cli(capsys, "curve", "--psi", str(path),
                             "--pgrid", grid)
    assert code == 1 and out == "" and err == f"error: {message}\n"


def test_asset_header_counts():
    for name, text in ASSET_TEXT.items():
        m = parse_matrix_text(text)
        q, n = (int(x) for x in text.splitlines()[0].split())
        assert m.field.q == q and m.n_cols == n


def test_greedy_and_rho_exact_complete_the_span(capsys, tmp_path):
    path = tmp_path / "two_rep.mat"
    path.write_text("2 4\n1 1 0 0\n0 0 1 1\n")
    code, out, _ = run_cli(capsys, "greedy", "--file", str(path))
    assert code == 0
    m = parse_matrix_text(out)
    assert m.n_rows == 2 and stopping_distance(m).s == 2
    code, out, _ = run_cli(capsys, "rho-exact", "--file", str(path))
    assert code == 0 and out == "2\n"


@pytest.mark.parametrize("table, shown", [
    ("w,count\n0,0,1\n1,1\n", "line 2: .*'0,0,1'"),
    ("w,count\n0,0\n\n1,1\n", "line 3: .*''"),
    ("w,count\n0,x\n1,1\n", "line 2: .*'0,x'"),
    ("w,count\n0,0\n+2,1_0\n", "line 3: .*'\\+2,1_0'"),
    ("w,count\n0,0\n\u0663,1\n", "line 3: .*'\u0663,1'"),
], ids=["extra-field", "blank-line", "not-an-integer", "plus-underscore",
        "arabic-indic-digit"])
def test_malformed_psi_csv_names_the_line(capsys, tmp_path, table, shown):
    path = tmp_path / "psi.csv"
    path.write_text(table, encoding="utf-8")
    code, out, err = run_cli(capsys, "curve", "--psi", str(path),
                             "--pgrid", "0.5")
    assert code == 1 and out == "" and re.search(shown, err)


def test_header_only_psi_csv_is_refused(capsys, tmp_path):
    path = tmp_path / "psi.csv"
    path.write_text("w,count\n")
    code, out, err = run_cli(capsys, "curve", "--psi", str(path),
                             "--pgrid", "0.5")
    assert code == 1 and out == ""
    assert "no weight rows follow the 'w,count' header" in err


@pytest.mark.parametrize("argv", [
    ["mindist", "--assets", "h12"], ["construct", "hstar", "--assets", "h12"],
    ["greedy", "--assets", "h12"], ["assets", "h12"]],
    ids=["mindist", "construct", "greedy", "assets"])
def test_format_option_only_where_it_is_used(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "json"])
    assert exc.value.code == 2


def test_truncated_psi_csv_is_refused(capsys, tmp_path):
    path = tmp_path / "t3.mat"
    path.write_text("3 3\n1 1 0\n0 1 1\n1 0 1\n")
    code, out, err = run_cli(capsys, "psi", "stop", "--file", str(path),
                             "--wmax", "2", "--format", "csv")
    assert code == 1 and out == "" and "weight 3" in err
