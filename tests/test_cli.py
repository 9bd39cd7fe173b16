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


@pytest.mark.parametrize("name, stage, broken", [
    ("symmetry", "check_symmetry", lambda real: lambda table: False),
    ("euler", "euler_characteristic", lambda real: lambda table: -real(table)),
    ("table", "table_rank", lambda real: lambda *args: real(*args) + 1),
], ids=["symmetry", "euler", "table"])
def test_failed_check_exits_two(capsys, monkeypatch, name, stage, broken):
    """Each of the three checks, failing alone, exits 2 and is the one named,
    by a single run and by the selfcheck."""
    from cablefloer import invariants

    monkeypatch.setattr(invariants, stage, broken(getattr(invariants, stage)))
    code, out, err = run_main(capsys, "--delta", "1", "--tau", "0", "--p", "2", "--n", "1")
    assert code == 2
    checks = json.loads(out)["checks"]
    assert list(checks) == ["symmetry", "euler", "table"]
    assert checks["table"]["value"] == (4 if name == "table" else 3)
    verdicts = {**checks, "table": checks["table"]["match"]}
    assert verdicts == {"symmetry": name != "symmetry", "euler": name != "euler", "table": name != "table"}
    assert err == f"internal consistency failure: {name} check failed\n"

    code, out, _ = run_main(capsys, "--mode", "selfcheck")
    assert code == 2
    label = {"symmetry": "symmetry", "euler": "euler characteristic", "table": "total-rank table"}[name]
    assert [line[5:line.index(":")] for line in out.splitlines() if line.startswith("FAIL ")] == [label]


def test_run_path_forms_no_satellite_product(monkeypatch):
    """The Euler check cross-multiplies binomials: neither the CLI nor the
    pipeline forms the satellite polynomial or any polynomial product."""
    from cablefloer import LaurentPolynomial, compute_cable_hfk, invariants, synthesize_delta

    def unreachable(*args):
        raise AssertionError("a polynomial product was formed on the run path")

    for owner, name in ((invariants, "cable_alexander"), (invariants, "torus_knot_delta"),
                        (LaurentPolynomial, "__mul__")):
        monkeypatch.setattr(owner, name, unreachable)
    stream = io.StringIO()
    assert run(RunConfig(delta=DELTA_11N50, tau=0, p=5, n=3), stream) == 0
    checks = json.loads(stream.getvalue())["checks"]
    assert checks == {"symmetry": True, "euler": True, "table": {"value": 181, "match": True}}
    # the chain case of record: one square at level 0, tau = 3, |q| = 12001
    result = compute_cable_hfk(synthesize_delta(3, {0: 1}), 3, 60, 200)
    assert result.checks == {"symmetry": True, "euler": True, "table": True}


@pytest.mark.parametrize("p, n, message", [
    ("2", "100000000", "the (2, 200000001)-cable needs 200000004 generators, over the budget of 1000000"),
    ("2000", "3", "the (2000, 6001)-cable's satellite polynomial spans 11994000 degrees, "
                  "over the budget of 10000000"),
], ids=["generators", "satellite-degrees"])
def test_oversized_cable_refused_before_building(capsys, monkeypatch, p, n, message):
    from cablefloer import pipeline

    def unreachable(*args):
        raise AssertionError("a module was built for a refused cable")

    monkeypatch.setattr(pipeline, "build_typed", unreachable)
    code, out, err = run_main(capsys, "--delta", "1", "--tau", "0", "--p", p, "--n", n)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_budget_counts_every_generator_and_degree(monkeypatch):
    """At its exact predicted size a cable runs; one below, it is refused."""
    from cablefloer import cable_alexander, compute_cable_hfk, parse_delta, pipeline

    delta, tau, p, n = parse_delta(DELTA_11N50), 0, 5, 3
    generators = len(compute_cable_hfk(delta, tau, p, n).complex.generators) + 2 * p - 1
    degrees = cable_alexander(delta, p, p * n + 1).support()
    degrees = degrees[-1] - degrees[0]
    for name, size, word in (("MAX_GENERATORS", generators, "generators"),
                             ("MAX_SATELLITE_DEGREES", degrees, "degrees")):
        monkeypatch.setattr(pipeline, name, size)
        assert compute_cable_hfk(delta, tau, p, n).table.total == 181
        monkeypatch.setattr(pipeline, name, size - 1)
        with pytest.raises(ValueError, match=f" {size} {word}, over the budget of {size - 1}$"):
            compute_cable_hfk(delta, tau, p, n)
        monkeypatch.undo()


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


def test_complement_grading_error_exits_two(capsys, monkeypatch):
    """A complement grading that does not normalize fails in the pairing
    itself, not in an injected normalization, and still exits 2."""
    from dataclasses import replace

    from cablefloer import (GradingElement, GradingError, build_model, build_typea_minus, pair_modules,
                            parse_delta, pipeline)

    real = pipeline.build_typed

    def odd_c_slot(model, n):
        module = real(model, n)
        first = replace(module.generators[0], grading=GradingElement(0, 0, 1, 0))
        return replace(module, generators=(first,) + module.generators[1:])

    with pytest.raises(GradingError) as raised:
        pair_modules(build_typea_minus(2), odd_c_slot(build_model(parse_delta("1"), 0), 1), 0, 1)
    monkeypatch.setattr(pipeline, "build_typed", odd_c_slot)
    code, out, err = run_main(capsys, "--delta", "1", "--tau", "0", "--p", "2", "--n", "1")
    assert code == 2
    assert out == ""
    assert err == f"internal consistency failure: {raised.value}\n"


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


@pytest.mark.parametrize("delta", ["1", ["1", "-1", "1"], ["1,-1", 1], [1, True, 1], [1, -1.0, 1],
                                   {"0": 1}, None])
def test_input_file_delta_must_be_integer_list(tmp_path, capsys, delta):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"delta": delta, "tau": 0}))
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
