"""Command line behaviour: exit codes, JSON round trips, artifacts."""

import json
from fractions import Fraction

import pytest

from martpoly import models, parse_rational
from martpoly.cli import main


EX4_DOC = {"rate": "0", "spot": ["1"], "payoffs": [["2", "0", "0", "0"]]}
EX1_DOC = {
    "rate": "0",
    "spot": ["15", "123"],
    "payoffs": [["18", "-6", "-6", "75"], ["99", "-33", "-33", "291"]],
}
EMPTY_ASSETS_DOC = {"rate": "0", "spot": [], "payoffs": [], "outcomes": 2}
TRINOMIAL_DOC = {"rate": "0", "spot": ["1"], "payoffs": [["1/2", "1", "2"]]}
BINOMIAL_TREE_DOC = {
    "assets": 1,
    "rates": ["0", "0"],
    "nodes": [
        {"id": "r", "time": 0, "children": ["u", "d"], "prices": ["1"]},
        {"id": "u", "time": 1, "children": ["uu", "ud"], "prices": ["2"]},
        {"id": "d", "time": 1, "children": ["du", "dd"], "prices": ["1/2"]},
        {"id": "uu", "time": 2, "children": [], "prices": ["4"]},
        {"id": "ud", "time": 2, "children": [], "prices": ["1"]},
        {"id": "du", "time": 2, "children": [], "prices": ["1"]},
        {"id": "dd", "time": 2, "children": [], "prices": ["1/4"]},
    ],
}


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze_example_market(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", EX4_DOC)
    code, doc = run_json(capsys, ["analyze", path, "--json"])
    assert code == 0
    assert doc["viable"] is True
    assert doc["complete"] is False
    assert len(doc["generators"]) == 3
    gens = {tuple(parse_rational(x) for x in g) for g in doc["generators"]}
    assert (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)) in gens


def test_analyze_market_without_measures(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", EX1_DOC)
    code, doc = run_json(capsys, ["analyze", path, "--json"])
    assert code == 0
    assert doc["viable"] is False
    assert doc["generators"] == []


def test_analyze_empty_assets_market(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", EMPTY_ASSETS_DOC)
    code, doc = run_json(capsys, ["analyze", path, "--json"])
    assert code == 0
    assert doc["viable"] is True
    assert doc["complete"] is False
    assert doc["generators"] == [["1", "0"], ["0", "1"]]


def test_analyze_json_round_trips_exactly(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", EX4_DOC)
    _, doc = run_json(capsys, ["analyze", path, "--json"])
    witness = tuple(parse_rational(x) for x in doc["witness"])
    assert witness == (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))


def test_analyze_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2
    missing = tmp_path / "nope.json"
    assert main(["analyze", str(missing)]) == 2


# one asset over 17 outcomes: above the default guard of 16, yet only 17 unit
# faces and 136 pairs to solve
WIDE_DOC = {"rate": "0", "spot": ["0"], "payoffs": [[str(v) for v in range(-8, 9)]]}


def test_analyze_limit_exceeded(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", EX4_DOC)
    assert main(["analyze", path, "--max-outcomes", "3"]) == 3
    # a guard below one is malformed input, not an exceeded limit
    assert main(["analyze", path, "--max-outcomes", "0"]) == 2
    assert main(["analyze", path, "--max-outcomes", "-1"]) == 2
    assert "at least 1" in capsys.readouterr().err


def test_analyze_raised_limit_reaches_every_verdict(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", WIDE_DOC)
    assert main(["analyze", path]) == 3
    capsys.readouterr()
    code, doc = run_json(capsys, ["analyze", path, "--max-outcomes", "20", "--json"])
    assert code == 0
    gen_code, gen_doc = run_json(
        capsys, ["generators", path, "--max-outcomes", "20", "--json"]
    )
    assert gen_code == 0
    assert doc["generators"] == gen_doc["generators"]
    assert len(doc["generators"]) == 1 + 8 * 8
    assert doc["viable"] is True
    assert doc["complete"] is False


def test_max_outcomes_env_override(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, "m.json", EX4_DOC)
    monkeypatch.setenv("MARTPOLY_MAX_OUTCOMES", "3")
    assert main(["analyze", path]) == 3
    # an explicit flag wins over the environment
    assert main(["analyze", path, "--max-outcomes", "8"]) == 0
    for bad in ("0", "-3", "many"):
        monkeypatch.setenv("MARTPOLY_MAX_OUTCOMES", bad)
        assert main(["analyze", path]) == 2
    wide = write_doc(tmp_path, "wide.json", WIDE_DOC)
    monkeypatch.setenv("MARTPOLY_MAX_OUTCOMES", "20")
    assert main(["analyze", wide]) == 0


def test_generators_command(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", EX4_DOC)
    code, doc = run_json(capsys, ["generators", path, "--json"])
    assert code == 0
    assert doc["generators"] == [
        ["1/2", "1/2", "0", "0"],
        ["1/2", "0", "1/2", "0"],
        ["1/2", "0", "0", "1/2"],
    ]


def test_bounds_command(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", TRINOMIAL_DOC)
    code, doc = run_json(capsys, ["bounds", path, "--payoff", "0,0,1", "--json"])
    assert code == 0
    assert doc["low"] == "0"
    assert doc["high"] == "1/3"
    assert doc["low_attained_by_emm"] is False
    assert doc["high_attained_by_emm"] is False


def test_bounds_replicable_payoff(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", TRINOMIAL_DOC)
    code, doc = run_json(capsys, ["bounds", path, "--payoff", "1/2,1,2", "--json"])
    assert code == 0
    assert doc["low"] == doc["high"] == "1"


def test_bounds_not_viable(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", EX1_DOC)
    assert main(["bounds", path, "--payoff", "1,0,0,0"]) == 4


def test_bounds_malformed_payoff(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", TRINOMIAL_DOC)
    assert main(["bounds", path, "--payoff", "1,,2"]) == 2
    assert main(["bounds", path, "--payoff", "1,2"]) == 2


def test_complete_command_with_weights(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", EX4_DOC)
    out = str(tmp_path / "ext.json")
    code, doc = run_json(
        capsys,
        ["complete", path, "--weights", "1/3,1/3,1/3", "--apply", out, "--json"],
    )
    assert code == 0
    assert doc["added_rows"] == [["0", "1", "0", "0"], ["0", "0", "1", "0"]]
    assert doc["prices"] == ["1/6", "1/6"]
    extended = json.loads((tmp_path / "ext.json").read_text())
    code2, doc2 = run_json(capsys, ["analyze", str(tmp_path / "ext.json"), "--json"])
    assert code2 == 0
    assert doc2["viable"] is True and doc2["complete"] is True
    assert extended["spot"] == ["1", "1/6", "1/6"]


def test_complete_already_complete(tmp_path, capsys):
    path = write_doc(
        tmp_path, "m.json", {"rate": "0", "spot": ["1"], "payoffs": [["1/2", "2"]]}
    )
    code, doc = run_json(capsys, ["complete", path, "--json"])
    assert code == 0
    assert doc["already_complete"] is True
    assert doc["added_rows"] == []


def test_complete_rejects_bad_weights(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", EX4_DOC)
    assert main(["complete", path, "--weights", "1/2,1/2,0"]) == 2


def test_complete_not_viable(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", EX1_DOC)
    assert main(["complete", path]) == 4


def test_tree_analyze(tmp_path, capsys):
    path = write_doc(tmp_path, "t.json", BINOMIAL_TREE_DOC)
    code, doc = run_json(capsys, ["tree", "analyze", path, "--json"])
    assert code == 0
    assert doc["viable"] is True and doc["complete"] is True
    assert len(doc["components"]) == 3


def test_tree_complete(tmp_path, capsys):
    trinomial_tree = {
        "assets": 1,
        "rates": ["0"],
        "nodes": [
            {"id": "r", "time": 0, "children": ["a", "b", "c"], "prices": ["1"]},
            {"id": "a", "time": 1, "children": [], "prices": ["1/2"]},
            {"id": "b", "time": 1, "children": [], "prices": ["1"]},
            {"id": "c", "time": 1, "children": [], "prices": ["2"]},
        ],
    }
    path = write_doc(tmp_path, "t.json", trinomial_tree)
    code, doc = run_json(capsys, ["tree", "complete", path, "--json"])
    assert code == 0
    assert len(doc["plans"]) == 1
    assert doc["plans"][0]["node"] == "r"


def test_tree_malformed(tmp_path, capsys):
    bad = {
        "assets": 1,
        "rates": ["0"],
        "nodes": [
            {"id": "r", "time": 0, "children": ["a"], "prices": ["1"]},
            {"id": "a", "time": 2, "children": [], "prices": ["1"]},
        ],
    }
    path = write_doc(tmp_path, "t.json", bad)
    assert main(["tree", "analyze", path]) == 2


def test_kkl_command_writes_surface(tmp_path, capsys):
    out = str(tmp_path / "surface.csv")
    code, doc = run_json(
        capsys,
        [
            "kkl", "--s0", "1", "--lambda", "1/4", "--eta", "1/4", "--rate", "0",
            "--horizon", "1", "--steps", "1", "--emm-p", "1/2", "--out", out,
            "--json",
        ],
    )
    assert code == 0
    assert doc["viable"] is True
    assert doc["put_root_value"] == "1/4"
    lines = (tmp_path / "surface.csv").read_text().splitlines()
    assert lines[0] == "t,k,value"
    assert "0,1,1/4" in lines


def test_kkl_not_viable_still_reports(capsys):
    code, doc = run_json(
        capsys,
        [
            "kkl", "--s0", "1", "--lambda", "1/8", "--eta", "1/8", "--rate", "2",
            "--horizon", "1", "--steps", "1", "--json",
        ],
    )
    assert code == 0
    assert doc["viable"] is False
    assert "put_root_value" not in doc


def test_kkl_epsilon_requires_viable_lattice(capsys):
    code = main(
        [
            "kkl", "--s0", "1", "--lambda", "1/8", "--eta", "1/8", "--rate", "2",
            "--horizon", "1", "--steps", "1", "--epsilon", "1/100", "--json",
        ]
    )
    assert code == 4
    assert capsys.readouterr().out == ""


def test_kkl_rejects_max_outcomes(capsys):
    # kkl enumerates no faces, so the guard flag is a usage error, not ignored
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "kkl", "--s0", "1", "--lambda", "1/8", "--eta", "1/8",
                "--steps", "2", "--max-outcomes", "-5",
            ]
        )
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-outcomes" in capsys.readouterr().err


def test_kkl_invalid_params(capsys):
    code = main(
        [
            "kkl", "--s0", "2", "--lambda", "1/4", "--eta", "1/4",
            "--horizon", "1", "--steps", "1",
        ]
    )
    assert code == 2


def test_kkl_refuses_a_huge_grid_before_building_it(tmp_path, monkeypatch, capsys):
    # valid and viable at a million steps, but about 5 * 10^11 grid states
    def no_range(*args):
        raise AssertionError("the grid was built before the guard")

    monkeypatch.setattr(models, "range", no_range, raising=False)
    out = str(tmp_path / "surface.csv")
    code = main(
        [
            "kkl", "--s0", "1", "--lambda", "1/8", "--eta", "1/8",
            "--steps", "1000000", "--epsilon", "1/100", "--out", out, "--json",
        ]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "500002500001 states" in captured.err
    assert f"limit of {models.MAX_GRID_STATES} states" in captured.err
    assert not (tmp_path / "surface.csv").exists()


def test_kkl_perturbation(tmp_path, capsys):
    code, doc = run_json(
        capsys,
        [
            "kkl", "--s0", "2", "--lambda", "1/16", "--eta", "1/16", "--rate",
            "1/10", "--horizon", "1", "--steps", "2", "--epsilon", "1/100",
            "--seed", "7", "--json",
        ],
    )
    assert code == 0
    assert doc["completion_violations"] != []
    assert doc["perturbation"]["attempts"] >= 1
    deviation = parse_rational(doc["perturbation"]["max_deviation"])
    assert deviation < Fraction(1, 100)


def test_human_output_runs(tmp_path, capsys):
    path = write_doc(tmp_path, "m.json", EX4_DOC)
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "viable" in out and "(1/2, 1/2, 0, 0)" in out
