import io
import json
import re

import pytest

from cablefloer.cli import RunConfig, main, run

from conftest import DELTA_11N50, DELTA_TREFOIL, GOLDEN_11N50_5_16


def run_main(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_poly_terms(text):
    """Invert the x^a y^m rendering back into a {(a, m): rank} dict."""
    terms = {}
    for chunk in text.strip().split(" + "):
        match = re.fullmatch(r"(\d+)?(?:x(?:\^(-?\d+))?)?(?:y(?:\^(-?\d+))?)?|1", chunk)
        assert match, chunk
        rank = int(match.group(1) or 1)
        a = int(match.group(2)) if match.group(2) else (1 if "x" in chunk else 0)
        m = int(match.group(3)) if match.group(3) else (1 if "y" in chunk else 0)
        terms[(a, m)] = rank
    return terms


def test_tsv_unknot(capsys):
    code, out, _ = run_main(capsys, "--delta", "1", "--tau", "0", "--p", "2", "--n", "1",
                            "--format", "tsv")
    assert code == 0
    assert out == "1\t0\t1\n0\t-1\t1\n-1\t-2\t1\n"


def test_tau_mode(capsys):
    code, out, _ = run_main(capsys, "--delta", DELTA_TREFOIL, "--tau", "1", "--p", "3",
                            "--q", "2", "--mode", "tau")
    assert code == 0
    assert out == "4\n"


def test_tau_mode_accepts_n(capsys):
    code, out, _ = run_main(capsys, "--delta", "1", "--tau", "0", "--p", "2", "--n", "1",
                            "--mode", "tau")
    assert code == 0
    assert out == "1\n"


def test_tau_mode_needs_exactly_one_parameter(capsys):
    code, _, err = run_main(capsys, "--delta", "1", "--tau", "0", "--p", "2",
                            "--mode", "tau")
    assert code == 1
    code, _, err = run_main(capsys, "--delta", "1", "--tau", "0", "--p", "2",
                            "--n", "1", "--q", "3", "--mode", "tau")
    assert code == 1


def test_golden_poly_output(capsys):
    code, out, _ = run_main(capsys, "--delta", DELTA_11N50, "--tau", "0", "--p", "5",
                            "--n", "3", "--format", "poly")
    assert code == 0
    assert parse_poly_terms(out) == GOLDEN_11N50_5_16
    # published text conventions: no unit coefficients, bare y for exponent 1
    assert "2x^40y^2" in out
    assert "x^25y^-2 " in out or out.endswith("x^25y^-2\n")
    assert "2x^39y " in out
    assert "3y^-18" in out


def test_json_schema(capsys):
    code, out, _ = run_main(capsys, "--delta", DELTA_11N50, "--tau", "0", "--p", "5",
                            "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == {
        "delta": [2, -6, 9, -6, 2], "tau": 0, "p": 5, "n": 3, "q": 16,
    }
    assert payload["tau"] == 30
    assert payload["total_rank"] == 181
    assert payload["checks"]["symmetry"] is True
    assert payload["checks"]["euler"] is True
    assert payload["checks"]["table"] == {"value": 181, "match": True}
    assert set(payload) == {"input", "tau", "total_rank", "ranks", "checks"}
    ranks = {(entry["a"], entry["m"]): entry["rank"] for entry in payload["ranks"]}
    assert ranks == GOLDEN_11N50_5_16
    # deterministic ordering: descending alexander, then descending maslov
    keys = [(entry["a"], entry["m"]) for entry in payload["ranks"]]
    assert keys == sorted(keys, key=lambda am: (-am[0], -am[1]))


def test_trefoil_cable_table_matches(capsys):
    code, out, _ = run_main(capsys, "--delta", DELTA_TREFOIL, "--tau", "1", "--p", "2",
                            "--n", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_rank"] == 5
    assert payload["checks"]["table"] == {"value": 5, "match": True}


def test_table_mismatch_exits_two(capsys, monkeypatch):
    from cablefloer import invariants

    table_rank = invariants.table_rank
    monkeypatch.setattr(invariants, "table_rank", lambda *args: table_rank(*args) + 1)
    code, out, err = run_main(capsys, "--delta", "1", "--tau", "0", "--p", "2", "--n", "1")
    assert code == 2
    assert json.loads(out)["checks"]["table"] == {"value": 4, "match": False}
    assert "internal consistency failure: table check failed" in err


def test_svg_and_ascii_formats(capsys):
    code, out, _ = run_main(capsys, "--delta", "1", "--tau", "0", "--p", "2", "--n", "1",
                            "--format", "svg")
    assert code == 0 and out.count("<circle") == 3
    code, out, _ = run_main(capsys, "--delta", "1", "--tau", "0", "--p", "2", "--n", "1",
                            "--format", "ascii")
    assert code == 0 and "|" in out


def test_ascii_plot_over_cell_limit_refused(capsys):
    # the chain case of record spans about 5e11 Alexander x Maslov cells
    code, out, err = run_main(capsys, "--delta", "1,-1,2,-3,2,-1,1", "--tau", "3", "--p", "60",
                              "--n", "200", "--format", "ascii")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ascii plot needs")


def test_grading_error_exits_two(capsys, monkeypatch):
    from cablefloer import pairing
    from cablefloer.gradings import GradingError

    def broken(*args):
        raise GradingError("injected")

    monkeypatch.setattr(pairing, "normalize_double_coset", broken)
    code, out, err = run_main(capsys, "--delta", "1", "--tau", "0", "--p", "2", "--n", "1")
    assert code == 2
    assert out == ""
    assert "internal consistency failure: injected" in err


def test_unexpected_exception_exits_two(capsys, monkeypatch):
    """Any exception outside the named clauses is a bug: exit 2, no traceback."""
    from cablefloer import pipeline

    def broken(complex_):
        raise KeyError("injected")

    monkeypatch.setattr(pipeline, "reduce_complex", broken)
    code, out, err = run_main(capsys, "--delta", "1", "--tau", "0", "--p", "2", "--n", "1")
    assert code == 2
    assert out == ""
    assert err == "internal consistency failure: KeyError: 'injected'\n"


def test_validation_errors_exit_one(capsys):
    assert run_main(capsys, "--delta", "1,-1", "--tau", "0", "--p", "2", "--n", "1")[0] == 1
    assert run_main(capsys, "--delta", "1,2,1", "--tau", "0", "--p", "2", "--n", "1")[0] == 1
    assert run_main(capsys, "--delta", "1", "--tau", "0", "--p", "2")[0] == 1
    assert run_main(capsys, "--delta", "1", "--tau", "1", "--p", "2", "--n", "1")[0] == 1
    assert run_main(capsys, "--tau", "0", "--p", "2", "--n", "1")[0] == 1


@pytest.mark.parametrize("bad", [("--format", "bogus"), ("--tau", "x"), ("--filter", "strict")])
def test_usage_errors_exit_one(capsys, bad):
    args = {"--delta": "1", "--tau": "0", "--p": "2", "--n": "1"}
    argv = [item for flag, value in args.items() if flag != bad[0] for item in (flag, value)]
    code, out, err = run_main(capsys, *argv, *bad)
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_help_exits_zero(capsys):
    code, out, _ = run_main(capsys, "--help")
    assert code == 0
    assert "--format" in out


def test_json_input_file(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"delta": [2, -6, 9, -6, 2], "tau": 0}))
    code, out, _ = run_main(capsys, "--input", str(path), "--p", "5", "--n", "3",
                            "--format", "json")
    assert code == 0
    assert json.loads(out)["total_rank"] == 181

    assert run_main(capsys, "--input", str(tmp_path / "absent.json"), "--p", "2", "--n", "1")[0] == 1


@pytest.mark.parametrize("tau", ["x", 1.7, True, None])
def test_input_file_tau_must_be_integer(tmp_path, capsys, tau):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"delta": [1, -1, 1], "tau": tau}))
    code, out, err = run_main(capsys, "--input", str(path), "--p", "2", "--n", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot read input file")


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.tsv"
    code = main(["--delta", "1", "--tau", "0", "--p", "2", "--n", "1",
                 "--format", "tsv", "--output", str(path)])
    assert code == 0
    assert path.read_text() == "1\t0\t1\n0\t-1\t1\n-1\t-2\t1\n"


def test_output_into_missing_directory(tmp_path, capsys):
    code, out, err = run_main(capsys, "--delta", "1", "--tau", "0", "--p", "2", "--n", "1",
                              "--output", str(tmp_path / "absent" / "out.json"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write output file")


def test_refused_run_creates_no_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, out, err = run_main(capsys, "--delta", "1,-1", "--tau", "0", "--p", "2", "--n", "1",
                              "--output", str(path))
    assert code == 1
    assert err.startswith("error:")
    assert not path.exists()


def test_refused_run_keeps_existing_output_file(tmp_path, capsys):
    path = tmp_path / "out.txt"
    path.write_text("earlier result\n")
    code, out, err = run_main(capsys, "--delta", "1", "--tau", "0", "--p", "2", "--n", "1",
                              "--q", "3", "--output", str(path))
    assert code == 1
    assert err.startswith("error:")
    assert path.read_text() == "earlier result\n"


def test_run_config_stream():
    config = RunConfig(delta="1", tau=0, p=2, n=1, fmt="poly")
    stream = io.StringIO()
    assert run(config, stream) == 0
    assert stream.getvalue() == "x + y^-1 + x^-1y^-2\n"


def test_selfcheck_mode(capsys):
    code, out, _ = run_main(capsys, "--mode", "selfcheck")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("ok   ") >= 8


def test_negated_delta_accepted(capsys):
    # global sign of the polynomial is unconstrained; the homology and its
    # checks come out the same
    code, out, _ = run_main(capsys, "--delta", "1,-3,1", "--tau", "0", "--p", "3",
                            "--n", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"]["euler"] is True and payload["checks"]["symmetry"] is True


def test_hfk_mode_rejects_q(capsys):
    assert run_main(capsys, "--delta", "1", "--tau", "0", "--p", "2", "--n", "1",
                    "--q", "3")[0] == 1
