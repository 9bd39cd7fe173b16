import contextlib
import hashlib
import io
import json
import os
import random
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cablefloer import CableHomology, RankTable, build_model, compute_cable_hfk, parse_delta, synthesize_delta
from cablefloer.cli import RunConfig, _json_text, main, run

from conftest import (DELTA_11N50, DELTA_TREFOIL, GOLDEN_11N50_5_16, oracle_cable_delta, oracle_json_text,
                      with_generators)

# sha256 of golden 11n50's (5,16) CLI output in each format; any change to a
# renderer that is not byte-identical shows here
GOLDEN_DIGESTS = {
    "json": "f4a7c46ae902f0f8b9934fba1f8bfe7b4449c9161f5e196197454f02324c2df9",
    "tsv": "47dd697f2608f792c062461a5cc4d7d202816cc59b3ba61dd44271d4a1eb08c1",
    "poly": "732741d4d520d32eb7803c7d61b8d7045d73d7b9f08dc226d2c6c38bb1a0f69e",
    "svg": "75d7d23eff2de8aedf018f50eeae8d76a3db81b93e7faabbe95c781d790cd7cb",
    "ascii": "7979d910aaeb593d4598aa03e709d9cb8e801f98b3f3b383c66892e60f5d4298",
}


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


@pytest.mark.parametrize("fmt", GOLDEN_DIGESTS)
def test_golden_output_digest(capsys, fmt):
    code, out, _ = run_main(capsys, "--delta", DELTA_11N50, "--tau", "0", "--p", "5",
                            "--n", "3", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS[fmt]


def grid_sample():
    """48 fixed grid-domain cables: |tau| <= 4, p 2..6, |n| <= 8, with and
    without squares, some with delta negated."""
    rng = random.Random(2009)
    cases = []
    for _ in range(48):
        tau = rng.randint(-4, 4)
        counts = rng.choice(({}, {0: 1}, {1: 1, -1: 1}, {2: 1, -2: 1, 1: 1, -1: 1}))
        delta = synthesize_delta(tau, counts)
        cases.append((delta if rng.random() < 0.5 else -delta, tau, rng.randint(2, 6), rng.randint(-8, 8)))
    return cases


def with_fields(result: CableHomology, **changes) -> CableHomology:
    """result with changes to some of its fields, built anew: a CableHomology is no tuple."""
    return CableHomology(**{**{name: getattr(result, name) for name in CableHomology.__slots__}, **changes})


def test_json_writer_matches_json_dumps():
    """The writer equals json.dumps(payload, indent=2) byte for byte on golden
    11n50 and the grid sample, each also with an empty table and with every
    check false."""
    cases = [(parse_delta(DELTA_11N50), 0, 5, 3)] + grid_sample()
    for result in (compute_cable_hfk(*case) for case in cases):
        for variant in (result, with_fields(result, table=RankTable({})),
                        with_fields(result, checks=dict.fromkeys(result.checks, False))):
            assert _json_text(variant) == oracle_json_text(variant)


def test_json_writer_chain_record():
    # one square at level 0, tau = 3, p = 60, n = 200: a 1.6 MB text
    result = compute_cable_hfk(synthesize_delta(3, {0: 1}), 3, 60, 200)
    assert _json_text(result) == oracle_json_text(result)


def test_failed_check_still_writes_json(monkeypatch):
    """A run that exits 2 writes the same bytes the encoder would."""
    from cablefloer import invariants

    monkeypatch.setattr(invariants, "symmetry_holds", lambda table: False)
    stream = io.StringIO()
    assert run(RunConfig(delta=DELTA_11N50, tau=0, p=5, n=3), stream) == 2
    assert stream.getvalue() == oracle_json_text(compute_cable_hfk(parse_delta(DELTA_11N50), 0, 5, 3))


def test_trefoil_cable_table_matches(capsys):
    code, out, _ = run_main(capsys, "--delta", DELTA_TREFOIL, "--tau", "1", "--p", "2",
                            "--n", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_rank"] == 5
    assert payload["checks"]["table"] == {"value": 5, "match": True}


@pytest.mark.parametrize("name, stage, broken", [
    ("symmetry", "symmetry_holds", lambda real: lambda table: False),
    ("euler", "euler_holds", lambda real: lambda *args: False),
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


def test_run_path_forms_no_satellite_product():
    """The Euler check cross-multiplies binomials: the package defines no
    satellite polynomial and no polynomial product, and the CLI and the
    pipeline still pass every check."""
    from cablefloer import LaurentPolynomial, compute_cable_hfk, invariants, synthesize_delta

    for owner, name in ((invariants, "cable_alexander"), (invariants, "torus_knot_delta"),
                        (LaurentPolynomial, "__mul__"), (LaurentPolynomial, "__add__"),
                        (LaurentPolynomial, "inflate")):
        assert not hasattr(owner, name), name
    stream = io.StringIO()
    assert run(RunConfig(delta=DELTA_11N50, tau=0, p=5, n=3), stream) == 0
    checks = json.loads(stream.getvalue())["checks"]
    assert checks == {"symmetry": True, "euler": True, "table": {"value": 181, "match": True}}
    # the chain case of record: one square at level 0, tau = 3, |q| = 12001
    result = compute_cable_hfk(synthesize_delta(3, {0: 1}), 3, 60, 200)
    assert result.checks == {"symmetry": True, "euler": True, "table": True}


def test_run_path_calls_no_cell_by_cell_check():
    """The checks read the chain as progressions at every length: the
    package defines no cell-by-cell check (the tests keep them), and cables
    without a chain, with a short one and with a long one, and golden
    11n50, still pass every check."""
    from cablefloer import compute_cable_hfk, invariants, synthesize_delta

    for name in ("check_symmetry", "euler_characteristic"):
        assert not hasattr(invariants, name), name
    cases = [(synthesize_delta(1, {0: 1}), 1, 3, 2),           # m = 0: no chain
             (synthesize_delta(-2, {}), -2, 4, 3),             # |m| = 7
             (synthesize_delta(2, {1: 1, -1: 1}), 2, 5, -96),  # |m| = 100
             (parse_delta(DELTA_11N50), 0, 5, 3)]              # |m| = 3
    for delta, tau, p, n in cases:
        result = compute_cable_hfk(delta, tau, p, n)
        assert bool(result.table.progressions) == (abs(2 * tau - n) > 2)
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


@pytest.mark.parametrize("delta, tau, p, n, under, message", [
    # generator counts are even, so n = 499,998 (1,000,000 generators) is the last one in
    ("1", 0, 2, 499_999, (2, 499_998), "the (2, 999999)-cable needs 1000002 generators, over the budget of 1000000"),
    (DELTA_TREFOIL, 1, 1826, 3, (1825, 3), "the (1826, 5479)-cable's satellite polynomial spans 10001002 degrees, "
                                           "over the budget of 10000000"),
], ids=["generators", "satellite-degrees"])
def test_just_over_a_budget_edge_exits_one(tmp_path, capsys, monkeypatch, delta, tau, p, n, under, message):
    """One step past either edge of the budget a cable exits 1 with one
    error line, writes no --output file and builds no module; one step
    back, _check_budget accepts it (and the cable is not run)."""
    from cablefloer import pipeline

    pipeline._check_budget(build_model(parse_delta(delta), tau).params, *under)

    def unreachable(*args):
        raise AssertionError("a module was built for a refused cable")

    monkeypatch.setattr(pipeline, "build_typed", unreachable)
    path = tmp_path / "out.json"
    code, out, err = run_main(capsys, f"--delta={delta}", "--tau", str(tau), "--p", str(p), "--n", str(n),
                              "--output", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not path.exists()


def test_budget_counts_every_generator_and_degree(monkeypatch):
    """At its exact predicted size a cable runs; one below, it is refused."""
    from cablefloer import compute_cable_hfk, parse_delta, pipeline

    delta, tau, p, n = parse_delta(DELTA_11N50), 0, 5, 3
    generators = len(compute_cable_hfk(delta, tau, p, n).complex.generators) + 2 * p - 1
    degrees = oracle_cable_delta(delta, p, p * n + 1)
    degrees = max(degrees) - min(degrees)
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
    from cablefloer import (GradingElement, GradingError, build_model, build_typea_minus, pair_modules,
                            parse_delta, pipeline)

    real = pipeline.build_typed

    def odd_c_slot(model, n):
        module = real(model, n)
        first = module.generators[0]._replace(grading=GradingElement(0, 0, 1, 0))
        return with_generators(module, (first,) + module.generators[1:])

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


def test_input_file_nested_too_deep(tmp_path, capsys):
    """JSON nested deeper than the parser's recursion limit is an input file
    that cannot be read: one error line and exit 1, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_main(capsys, "--input", str(path), "--p", "2", "--n", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot read input file:") and err.count("\n") == 1


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


def test_selfcheck_compares_every_square_level(capsys, monkeypatch):
    """The module stores each cable's square at its lowest level; a closed
    form wrong only at level 3, which only the squares at levels 1 and 3
    (tau = -2) reach, and never as their stored level, still fails the
    grading check."""
    from cablefloer import invariants

    real = invariants._square

    def wrong_at_level_three(corner, k, t, *args):
        value = real(corner, k, t, *args)
        return (value[0] + 1, value[1]) if corner == "x1" and t == 3 else value

    monkeypatch.setattr(invariants, "_square", wrong_at_level_three)
    code, out, _ = run_main(capsys, "--mode", "selfcheck")
    assert code == 2
    assert [line[5:line.index(":")] for line in out.splitlines() if line.startswith("FAIL ")] == [
        "closed-form gradings agree"]


def test_negated_delta_accepted(capsys):
    # global sign of the polynomial is unconstrained; the homology and its
    # checks come out the same
    code, out, _ = run_main(capsys, "--delta", "1,-3,1", "--tau", "0", "--p", "3",
                            "--n", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"]["euler"] is True and payload["checks"]["symmetry"] is True


@pytest.mark.parametrize("mode", ["hfk", "tau"])
def test_wrong_thin_signs_exit_one(capsys, mode):
    # magnitudes fit a tau = 2 staircase, but a_0 = -1 breaks eps * (-1)^(d - tau)
    code, out, err = run_main(capsys, "--delta=1,-1,-1,-1,1", "--tau", "2", "--p", "2", "--n", "0",
                              "--mode", mode)
    assert code == 1
    assert out == ""
    assert "not one global sign" in err


def test_leading_minus_delta_needs_equals(capsys):
    """argparse reads a separate argument that starts with '-' as an
    option, so --delta -1,3,-1 is a usage error that exits 1, and
    --delta=-1,3,-1 runs."""
    code, out, err = run_main(capsys, "--delta", "-1,3,-1", "--tau", "0", "--p", "2", "--n", "1")
    lines = err.splitlines()
    assert (code, out) == (1, "")
    assert lines[0].startswith("usage: ") and lines[-1].endswith("error: argument --delta: expected one argument")
    assert run_main(capsys, "--delta=-1,3,-1", "--tau", "0", "--p", "2", "--n", "1")[0] == 0


def test_hfk_mode_rejects_q(capsys):
    assert run_main(capsys, "--delta", "1", "--tau", "0", "--p", "2", "--n", "1",
                    "--q", "3")[0] == 1


@pytest.mark.parametrize("flags, message", [
    (("--n", "0", "--q", "3"), "hfk mode does not take --q (the cable is (p, p*n+1))"),  # --q alone at fault
    (("--q", "3"), "hfk mode does not take --q (the cable is (p, p*n+1)); give --n"),
    ((), "hfk mode needs --n (the cable is (p, p*n+1))"),
])
def test_hfk_mode_names_the_flag_at_fault(capsys, flags, message):
    code, out, err = run_main(capsys, "--delta", "1", "--tau", "0", "--p", "2", *flags)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert ("--n" in flags) == ("--n" not in err)  # asks for --n only when it is missing


FORMATS = tuple(GOLDEN_DIGESTS)


@st.composite
def thin_argv(draw):
    """argv of a thin cable under a size cap: tau, a symmetric square
    multiset, p >= 2 and n, negative n, n = 2*tau and p = 2 included, in
    any format."""
    tau = draw(st.integers(-3, 3), label="tau")
    levels = draw(st.lists(st.integers(0, 3), max_size=2, unique=True), label="levels")
    counts = {}
    for i in levels:
        counts[i] = counts[-i] = draw(st.integers(1, 2), label=f"c_{i}")
    p = draw(st.integers(2, 5), label="p")
    n = draw(st.one_of(st.integers(-8, 8), st.just(2 * tau)), label="n")
    delta = ",".join(map(str, centered(synthesize_delta(tau, counts))))
    fmt = draw(st.sampled_from(FORMATS), label="format")
    return [f"--delta={delta}", "--tau", str(tau), "--p", str(p), "--n", str(n), "--format", fmt], True


def centered(delta):
    """delta's coefficient list from degree -g to g."""
    g = delta.top_degree
    return [delta.coeff(d) for d in range(-g, g + 1)]


@st.composite
def malformed_argv(draw):
    """argv of a malformed run: a delta of even length, asymmetric, with
    |delta(1)| != 1 or with thin signs broken, a value that is no integer,
    hfk mode given --q, or tau mode given both or neither of --n and --q."""
    small = st.integers(-4, 4)
    args = {"--delta": "1,-1,1", "--tau": "-1", "--p": str(draw(st.integers(2, 4), label="p")), "--n": "1"}
    kind = draw(st.sampled_from(("even", "asymmetric", "delta(1)", "signs", "not-int", "hfk-q", "tau-n-q")),
                label="kind")
    if kind == "even":
        coeffs = draw(st.lists(small, min_size=1, max_size=3)) * 2
    elif kind == "asymmetric":
        coeffs = draw(st.lists(small, min_size=3, max_size=7).filter(lambda c: len(c) % 2 and c != c[::-1]))
    elif kind == "delta(1)":
        half = draw(st.lists(small, min_size=1, max_size=4))  # the lower half and the centre
        coeffs = half + half[-2::-1]
        if abs(sum(coeffs)) == 1:
            coeffs[len(coeffs) // 2] += 2
    elif kind == "signs":
        tau = draw(st.integers(-3, 3), label="tau")
        coeffs = centered(synthesize_delta(tau, draw(st.sampled_from(({}, {0: 1}, {1: 1, -1: 1})))))
        d = draw(st.integers(0, len(coeffs) // 2), label="flipped")
        coeffs[d], coeffs[-d - 1] = -coeffs[d], -coeffs[-d - 1]
        args["--tau"] = str(tau)
    else:
        coeffs = [1, -1, 1]
    args["--delta"] = ",".join(map(str, coeffs))
    if kind == "not-int":
        flag = draw(st.sampled_from(("--delta", "--tau", "--p", "--n")), label="flag")
        args[flag] = draw(st.sampled_from(("x", "1.5", "", "1,x,1" if flag == "--delta" else "2e1")))
    elif kind == "hfk-q":
        args["--q"] = str(draw(small))
    elif kind == "tau-n-q":
        args["--mode"] = "tau"
        if draw(st.booleans(), label="both"):
            args["--q"] = str(draw(small))
        else:
            del args["--n"]
    return [f"{flag}={value}" for flag, value in args.items()], False


def not_json(data) -> bool:
    try:
        json.loads(data)
    except ValueError:  # UnicodeDecodeError and JSONDecodeError among them
        return True
    return False


# a JSON value of each type; an int is the only one that fits tau, a list of ints the only one that fits delta
JSON_TYPES = {int: st.integers(-3, 3), list: st.lists(st.integers(-3, 3), max_size=3),
              dict: st.dictionaries(st.text(max_size=3), st.integers()), None: st.one_of(
                  st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=5))}


def json_values(*but) -> st.SearchStrategy:
    """JSON values of every type but those named."""
    return st.one_of(*(values for kind, values in JSON_TYPES.items() if kind not in but))


@st.composite
def bad_input_file(draw):
    """argv of a run whose --input file cannot be read, writing to
    --output, with the file's bytes: text that is not JSON (or not UTF-8),
    a top-level value that is no object, an object missing delta or tau,
    or one whose delta is no list of integers or whose tau is no integer.
    INPUT and OUTPUT stand for the two paths."""
    kind = draw(st.sampled_from(("not-json", "not-object", "missing", "delta-type", "tau-type")), label="kind")
    payload = {"delta": [1, -1, 1], "tau": -1}
    if kind == "not-json":
        data = draw(st.one_of(st.text(max_size=12).map(str.encode), st.binary(min_size=1, max_size=6)).filter(not_json))
    else:
        if kind == "not-object":
            payload = draw(json_values(dict))
        elif kind == "missing":
            for key in draw(st.sampled_from((["delta"], ["tau"], ["delta", "tau"])), label="missing"):
                del payload[key]
        elif kind == "delta-type":
            payload["delta"] = draw(st.one_of(json_values(list), st.lists(json_values(), min_size=1, max_size=3).filter(
                lambda values: any(type(value) is not int for value in values))))
        else:
            payload["tau"] = draw(json_values(int))
        data = json.dumps(payload).encode()
    argv = ["--input", "INPUT", "--p", str(draw(st.integers(2, 4))), "--n", "1", "--output", "OUTPUT"]
    return argv, False, data


@settings(max_examples=225, deadline=None)
@given(st.one_of(thin_argv(), malformed_argv(), bad_input_file()))
def test_exit_code_contract(case):
    """Exit 0 with output, in JSON a document whose checks all hold, or
    exit 1 with nothing written and one `error:` line or a usage message;
    never exit 2 and never an exception out of main.  A thin cable under
    the size cap always exits 0.  An --input file that cannot be read
    exits 1 with one `error:` line, and no --output file is made."""
    argv, thin, *data = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if data:
            paths = {"INPUT": os.path.join(tmp, "input.json"), "OUTPUT": os.path.join(tmp, "out.json")}
            with open(paths["INPUT"], "wb") as handle:
                handle.write(data[0])
            argv = [paths.get(arg, arg) for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        made = os.listdir(tmp)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if data:
        assert (code, out, made) == (1, "", ["input.json"]), (code, err)
        assert err.startswith("error: cannot read input file: ") and err.count("\n") == 1, err
        return
    if code == 1:
        assert out == ""
        lines = err.splitlines()
        assert (len(lines) == 1 and lines[0].startswith("error: ")) or (
            lines[0].startswith("usage: ") and ": error: " in lines[-1]), err
        assert not thin, err
        return
    assert code == 0 and out and err == "", (code, err)
    if "--mode=tau" in argv:
        assert re.fullmatch(r"-?\d+\n", out)
    elif "--format" not in argv or argv[argv.index("--format") + 1] == "json":
        checks = json.loads(out)["checks"]
        assert checks["symmetry"] is checks["euler"] is checks["table"]["match"] is True


@settings(max_examples=25, deadline=None)
@given(thin_argv())
def test_tau_mode_agrees_with_json_tau(case):
    """For the same cable, tau mode prints the value the JSON gives as "tau"."""
    cable = case[0][:7]  # without --format
    outputs = []
    for argv in (cable, cable + ["--mode=tau"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        outputs.append(out.getvalue())
    assert outputs[1] == f"{json.loads(outputs[0])['tau']}\n"
