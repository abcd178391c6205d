"""Command line behaviour: exit codes, JSON round trips, artifacts."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import martpoly
from martpoly import InternalContractError, MartingaleSystem, models, multiperiod, parse_rational
from martpoly.cli import _json_text, main
from martpoly.errors import (
    InputError,
    LimitExceededError,
    MartpolyError,
    NotViableError,
    PerturbationError,
)


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
    assert main(["analyze", path]) == 0
    assert capsys.readouterr().out == (
        "outcomes: 4  assets: 2\n"
        "viable (arbitrage-free): False\n"
        "complete: False\n"
        "generators (0):\n"
        "equivalent measures: mixtures with positive weight meeting, per outcome:\n"
        + "".join(f"  outcome {i}: impossible (no generator has mass here)\n" for i in range(1, 5))
    )


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
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"rate": "\xff"}')
    assert main(["analyze", str(latin)]) == 2
    assert f"{latin} is not valid JSON" in capsys.readouterr().err
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["analyze", str(deep)]) == 2
    assert f"{deep} is not valid JSON" in capsys.readouterr().err
    scalar = write_doc(tmp_path, "scalar.json", {**TRINOMIAL_DOC, "probabilities": 5})
    assert main(["analyze", scalar]) == 2
    assert "expected a list of rationals, got 5" in capsys.readouterr().err


def test_no_asset_market_too_wide_to_walk_is_refused_before_its_system_is_reduced(
    tmp_path, capsys, monkeypatch
):
    def refuse(self):
        raise AssertionError("reduced a system the guard should have refused")

    monkeypatch.setattr(MartingaleSystem, "reduced", property(refuse))
    doc = {"rate": "0", "spot": [], "payoffs": [], "outcomes": 1_000_000_000}
    path = write_doc(tmp_path, "wide.json", doc)
    assert main(["analyze", path]) == 3
    assert "1000000000 outcomes exceeds" in capsys.readouterr().err


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
    assert main(["complete", path]) == 0
    assert capsys.readouterr().out == "market is already complete; nothing to add\n"


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
    # a price string once read one character per asset
    root = {**BINOMIAL_TREE_DOC["nodes"][0], "prices": "1"}
    spelled = {**BINOMIAL_TREE_DOC, "nodes": [root] + BINOMIAL_TREE_DOC["nodes"][1:]}
    assert main(["tree", "analyze", write_doc(tmp_path, "s.json", spelled)]) == 2
    capsys.readouterr()
    assert main(["tree", "analyze", write_doc(tmp_path, "l.json", [BINOMIAL_TREE_DOC])]) == 2
    assert capsys.readouterr().err == "error: tree document must be a JSON object\n"
    # a parse error names the node and field, or the rates, it came from
    nodes = BINOMIAL_TREE_DOC["nodes"]
    top = nodes[0]
    weighted = [
        {**n, "probabilities": ["1/2", "x" if n["id"] == "d" else "1/2"]} if n["children"] else n
        for n in nodes
    ]
    cases = [
        ({"nodes": [{**nodes[0], "prices": "11"}] + nodes[1:]},
         "node 'r' prices: expected a list of rationals, got '11'"),
        ({"nodes": weighted}, "node 'd' probabilities: malformed rational 'x'"),
        ({"rates": ["0", "1/0"]}, "rates: zero denominator in rational '1/0'"),
        # a detached two-node cycle: each node has one parent, neither is reached
        ({"nodes": nodes + [
            {"id": "a", "time": 1, "children": ["b"], "prices": ["1"]},
            {"id": "b", "time": 1, "children": ["a"], "prices": ["1"]},
        ]}, "nodes unreachable from the root: ['a', 'b']"),
        ({"nodes": {"r": top}}, "nodes and rates must be lists"),
        ({"rates": "0"}, "nodes and rates must be lists"),
        ({"nodes": ["r"]}, "each node must be a JSON object"),
        ({"nodes": [{"id": "r", "time": 0}]}, "node document lacks key 'prices'"),
        ({"nodes": [{**top, "id": 0}]}, "node ids must be strings"),
        ({"nodes": [{**top, "time": False}]}, "node 'r': time must be an integer"),
        ({"nodes": [{**top, "time": "0"}]}, "node 'r': time must be an integer"),
        ({"nodes": [{**top, "children": "u"}]}, "node 'r': children must be a list of ids"),
        ({"nodes": [{**top, "children": ["u", 1]}]}, "node 'r': children must be a list of ids"),
        ({"nodes": [{**top, "children": ["u", "u"]}] + nodes[1:]},
         "node 'r' lists child 'u' more than once"),
        ({"assets": -1}, "negative asset count"),
        ({"nodes": [{**top, "prices": ["1", "1"]}] + nodes[1:]},
         "node 'r' has 2 prices for 1 assets"),
    ]
    for change, message in cases:
        path = write_doc(tmp_path, "named.json", {**BINOMIAL_TREE_DOC, **change})
        assert main(["tree", "analyze", path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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


def test_unwritable_output_paths_are_malformed_input(tmp_path, capsys):
    market = write_doc(tmp_path, "m.json", EX4_DOC)
    apply_to = str(tmp_path / "missing" / "ext.json")
    assert main(["complete", market, "--apply", apply_to]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {apply_to}: ")
    out = str(tmp_path / "missing" / "surface.csv")
    kkl = ["kkl", "--s0", "1", "--lambda", "1/4", "--eta", "1/4", "--steps", "1"]
    assert main(kkl + ["--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert not (tmp_path / "missing").exists()


def test_values_too_long_to_print_exit_3(tmp_path, capsys):
    # each input fits the digit limit; the grown right-hand side, or the
    # lattice root after 200 steps at this rate, does not
    tiny = {"rate": "1e-4000", "spot": ["3e-4000"], "payoffs": [["0", "1"]]}
    kkl = [
        "kkl", "--s0", "2", "--lambda", "1/64", "--eta", "1/64", "--steps", "200",
        "--rate", "1e-30",
    ]
    for argv in (["analyze", write_doc(tmp_path, "tiny.json", tiny)], kkl):
        for json_flag in ([], ["--json"]):
            assert main(argv + json_flag) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: a ")
            assert captured.err.endswith(
                "-bit rational is too long to print: over the limit of 4300 decimal digits\n"
            )


def test_a_value_past_the_current_digit_limit_is_refused_when_read(tmp_path, capsys):
    # the digit limit the reports print by is the one the parser reads: the
    # payoff used to be priced and then exit 3 when printed
    path = write_doc(tmp_path, "trinomial.json", TRINOMIAL_DOC)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert main(["bounds", path, "--payoff=1e1000,0,1"]) == 2
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: rational '1e1000' would need 1001 decimal digits, over the limit of 640\n"
    )


def test_kkl_json_report_leaves_dt_unformatted(capsys):
    # dt = horizon / 11 is one digit too long to print, and only the human
    # report shows it: --json exits 0 (it exited 3 while both modes formatted dt)
    argv = ["kkl", "--s0", "1", "--lambda", "1", "--eta", "1", "--steps", "11",
            "--horizon", "1e-4299"]
    code, doc = run_json(capsys, argv + ["--json"])
    assert code == 0 and doc["params"]["horizon"] == "1/1" + "0" * 4299
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("over the limit of 4300 decimal digits\n")


def long_market_doc(digits):
    """b=4, n=2: payoffs of up to ``digits`` digits, spot rhs/10 at rate 9."""
    rng = random.Random(3)
    payoffs = [[rng.randrange(10**digits) for _ in range(4)] for _ in range(2)]
    weights = [rng.randint(0, 3) for _ in range(4)]
    rhs = [Fraction(sum(p * w for p, w in zip(row, weights)), sum(weights)) for row in payoffs]
    return {
        "rate": "9",
        "spot": [str(x / 10) for x in rhs],
        "payoffs": [[str(x) for x in row] for row in payoffs],
    }


def too_long(bits):
    return (
        f"error: a {bits}-bit rational is too long to print: "
        "over the limit of 640 decimal digits\n"
    )


@pytest.mark.parametrize("digits,expected", [
    # the witness is too long to print; the generators and the bounds are not
    (300, {
        "analyze": (3, too_long(7965), None),
        "complete": (3, too_long(7964), None),
        "generators": (0, "", "4d17403d69664e4ff3e0aa5cb1b609c8615f7be4f36d62f307f3cb647e25bad8"),
        "bounds": (0, "", "cb2eb3f0ef24e71ba53a88d15c3ea335aac9c9d310ce048f8fb9acdbde8f7886"),
    }),
    # a generator is too long to print
    (400, {
        "analyze": (3, too_long(5308), None),
        "complete": (0, "", "ceb9e238a55da71cfcf82ed9cb92f4dc87a6489e8347bb65814f85426dacdb55"),
        "generators": (3, too_long(5308), None),
        "bounds": (0, "", "b2779cf61634c77d0ed51dd29c8e73778a7e8c00b01da03e830a5968e03098de"),
    }),
], ids=["long witness", "long generator"])
def test_print_limit_is_format_rationals_on_every_report(tmp_path, capsys, digits, expected):
    # generator strings, witness, bounds and prices print from integer rays;
    # each refuses a value past the digit limit as format_rational does
    path = write_doc(tmp_path, "long.json", long_market_doc(digits))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for command, (code, err, digest) in expected.items():
            extra = ["--payoff=1,0,0,0"] if command == "bounds" else []
            assert main([command, path, "--json"] + extra) == code, command
            captured = capsys.readouterr()
            assert captured.err == err, command
            if digest is None:
                assert captured.out == ""
            else:
                assert hashlib.sha256(captured.out.encode()).hexdigest() == digest, command
    finally:
        sys.set_int_max_str_digits(limit)


def test_one_period_json_reports_never_form_the_fraction_generators(tmp_path, capsys, monkeypatch):
    # analyze, generators, bounds and complete print from the integer rays,
    # the human reports as well as the --json ones
    from martpoly import analysis

    records = []
    real_characterize = analysis.characterize

    def recording(*args, **kwargs):
        records.append(real_characterize(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(analysis, "characterize", recording)
    for doc in (EX4_DOC, TRINOMIAL_DOC):
        path = write_doc(tmp_path, "m.json", doc)
        payoff = ",".join(["1"] + ["0"] * (len(doc["payoffs"][0]) - 1))
        for argv in (
            ["analyze", path],
            ["generators", path],
            ["bounds", path, "--payoff", payoff],
            ["complete", path],
        ):
            for json_flag in ([], ["--json"]):
                assert main(argv + json_flag) == 0, argv
    capsys.readouterr()
    assert len(records) == 16
    for char in records:
        assert len(char.generators) > 0
        assert "generators" not in vars(char.generators)


DEMOS = Path(__file__).resolve().parent.parent / "demos" / "data"


@pytest.mark.parametrize("argv", [
    ["analyze", "incomplete_market.json"],
    ["analyze", "trinomial_market.json"],
    ["generators", "incomplete_market.json"],
    ["bounds", "trinomial_market.json", "--payoff=1,0,0"],
    ["bounds", "incomplete_market.json", "--payoff=0,1,0,3"],
    ["complete", "incomplete_market.json"],
    ["complete", "trinomial_market.json", "--weights=1/3,2/3"],
    ["tree", "analyze", "binomial_tree.json"],
    ["tree", "complete", "trinomial_tree.json"],
], ids=" ".join)
def test_human_reports_format_each_value_once(argv, monkeypatch):
    """A human report reads its document: it formats no rational the JSON does not."""
    from martpoly import cli

    calls = []

    def counted(real):
        return lambda *args: calls.append(args) or real(*args)

    monkeypatch.setattr(cli, "format_rational", counted(cli.format_rational))
    monkeypatch.setattr(cli, "format_ratio", counted(cli.format_ratio))
    argv = [str(DEMOS / a) if a.endswith(".json") else a for a in argv]
    assert main(argv + ["--json"]) == 0
    json_calls = len(calls)
    assert main(argv) == 0
    assert len(calls) - json_calls == json_calls > 0


def test_json_reports_print_zeros_unformatted(capsys, monkeypatch):
    from martpoly import cli

    calls = []  # the numerator of each value formatted
    real_rational, real_ratio = cli.format_rational, cli.format_ratio
    monkeypatch.setattr(cli, "format_rational", lambda x: calls.append(x) or real_rational(x))
    monkeypatch.setattr(cli, "format_ratio", lambda n, d: calls.append(n) or real_ratio(n, d))
    code, doc = run_json(capsys, ["complete", str(DEMOS / "incomplete_market.json"), "--json"])
    assert code == 0 and "0" in doc["price_map"][0]
    assert len(calls) == 9 and 0 not in calls


def test_internal_errors_are_reported_and_raised(tmp_path, capsys, monkeypatch):
    from martpoly import analysis

    def broken(*args, **kwargs):
        raise InternalContractError("unreachable branch taken")

    monkeypatch.setattr(analysis, "characterize", broken)
    with pytest.raises(InternalContractError, match="unreachable branch taken"):
        main(["analyze", write_doc(tmp_path, "m.json", EX4_DOC), "--json"])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: unreachable branch taken\n"


def test_main_reuses_one_parser(tmp_path, capsys):
    from martpoly import cli

    market = write_doc(tmp_path, "m.json", EX4_DOC)
    parser = cli.build_parser()
    assert main(["generators", market, "--json"]) == 0
    with pytest.raises(SystemExit):
        main(["analyze"])
    assert main(["bounds", market, "--payoff", "1,0,0,0"]) == 0
    assert cli.build_parser() is parser
    assert capsys.readouterr().err.startswith("usage: martpoly analyze")


def test_json_reports_build_no_human_lines(tmp_path, capsys, monkeypatch):
    from martpoly import cli

    def refuse(v):
        raise AssertionError("a --json report formatted a human line")

    monkeypatch.setattr(cli, "_fmt_vec", refuse)
    monkeypatch.setattr(cli, "_describe_supports", refuse)
    market = write_doc(tmp_path, "m.json", EX4_DOC)
    tree = write_doc(tmp_path, "t.json", {
        "assets": 1, "rates": ["0"],
        "nodes": [
            {"id": "r", "time": 0, "children": ["u", "m", "d"], "prices": ["1"]},
            {"id": "u", "time": 1, "children": [], "prices": ["2"]},
            {"id": "m", "time": 1, "children": [], "prices": ["1"]},
            {"id": "d", "time": 1, "children": [], "prices": ["1/2"]},
        ],
    })
    for argv in (
        ["analyze", market],
        ["generators", market],
        ["bounds", market, "--payoff", "1,0,0,0"],
        ["complete", market, "--apply", str(tmp_path / "out.json")],
        ["tree", "complete", tree],
    ):
        assert main(argv + ["--json"]) == 0, argv
        capsys.readouterr()
        # the human report does format them
        with pytest.raises(AssertionError, match="human line"):
            main(argv)


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


def test_kkl_exhausted_perturbation_exits_5(capsys, monkeypatch):
    monkeypatch.setattr(models, "_PERTURB_ATTEMPTS", 0)
    argv = ["kkl", "--s0", "2", "--lambda", "1/8", "--eta", "1/8", "--steps", "4",
            "--epsilon", "1/100"]
    for json_flag in ([], ["--json"]):
        assert main(argv + json_flag) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no completing perturbation found in 0 attempts\n"


def test_kkl_epsilon_requires_viable_lattice(capsys):
    code = main(
        [
            "kkl", "--s0", "1", "--lambda", "1/8", "--eta", "1/8", "--rate", "2",
            "--horizon", "1", "--steps", "1", "--epsilon", "1/100", "--json",
        ]
    )
    assert code == 4
    assert capsys.readouterr().out == ""


def test_kkl_out_requires_viable_lattice(tmp_path, capsys):
    out = tmp_path / "surface.csv"
    argv = ["kkl", "--s0", "1", "--lambda", "1/8", "--eta", "1/8", "--rate", "2",
            "--steps", "1", "--out", str(out)]
    for json_flag in ([], ["--json"]):
        assert main(argv + json_flag) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no surface to write: the lattice is not viable\n"
        assert not out.exists()


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


KKL_SMALL = ["kkl", "--s0", "1", "--lambda", "1/8", "--eta", "1/8", "--steps", "2", "--json"]


@pytest.mark.parametrize(
    "extra,flag",
    [
        (["--seed", "3"], "--seed"),  # nothing to seed without --epsilon
        (["--emm-p", "5"], "--emm-p"),
        (["--emm-p", "5", "--rate", "10"], "--emm-p"),  # on a non-viable lattice
        (["--emm-p", "0", "--rate", "10"], "--emm-p"),
        (["--emm-p", "1"], "--emm-p"),
        (["--epsilon", "0"], "--epsilon"),
        (["--epsilon=-1/100"], "--epsilon"),
    ],
)
def test_kkl_refuses_flags_it_would_ignore(extra, flag, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("kkl started work before checking its flags")

    monkeypatch.setattr(models, "kkl_params", no_work)
    assert main(KKL_SMALL + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} ")


def test_kkl_refuses_values_too_long_to_print_before_pricing(capsys):
    code = main(
        [
            "kkl", "--s0", "1", "--lambda", "1/64", "--eta", "1/64", "--steps", "40",
            "--rate", "1e-4000", "--json",
        ]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: lattice values over 40 steps need a 531802-bit scale, over the limit "
        "of 28570 bits past which their root is too long to print\n"
    )


def test_kkl_valid_seed_and_emm_p_are_unchanged(capsys):
    code, doc = run_json(capsys, KKL_SMALL + ["--emm-p", "1/3", "--rate", "10"])
    assert code == 0 and doc["viable"] is False
    perturbed = KKL_SMALL + ["--epsilon", "1/100"]
    assert main(perturbed) == 0
    default_seed = capsys.readouterr().out
    assert main(perturbed + ["--seed", "0"]) == 0
    assert capsys.readouterr().out == default_seed
    assert json.loads(default_seed)["perturbation"]["seed"] == 0


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


@pytest.mark.parametrize("s0, steps", [(3, 30), (9, 4)])
def test_kkl_report_builds_no_grid(s0, steps, tmp_path, monkeypatch, capsys):
    # the report counts the grid in closed form and reads each layer's states
    # off the one shape rule, so its bytes do not depend on kkl_grid
    out = tmp_path / "surface.csv"
    argv = ["kkl", "--s0", str(s0), "--lambda", "1/8", "--eta", "1/8", "--steps", str(steps),
            "--epsilon", "1/1000", "--out", str(out), "--json"]
    assert main(argv) == 0
    report, surface = capsys.readouterr().out, out.read_bytes()
    assert json.loads(report)["grid_states"] == models.kkl_grid_size(s0, steps)
    out.unlink()

    def no_grid(*args):
        raise AssertionError("the kkl report built the grid")

    monkeypatch.setattr(models, "kkl_grid", no_grid)
    assert main(argv) == 0
    assert capsys.readouterr().out == report
    assert out.read_bytes() == surface


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


def shared_at_two_depths(inner: st.SearchStrategy) -> st.SearchStrategy:
    """One object placed at two depths of a document."""
    return inner.map(lambda x: {"outer": x, "nested": [[x], x]})


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u4e2d\U0001f600", "\u2028"])
)
JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    | shared_at_two_depths(inner),
    max_leaves=24,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(JSON_DOCUMENTS)
@example([[], {}, [[]], {"": {}}])
@example({"b": -(10**50), "a": [True, False, None], "\u00e9": "\ud83d\ude00"})
@example({"a": [[[1, "x", [True, []], {"k": [2]}]]], "b": [[]], "c": {"d": {}}})
@example({"pairs": [[0, 1], [2, "x"], [True, 0], [0, None], []]})
def test_json_text_matches_json_dumps(document):
    assert _json_text(document) == json.dumps(document, sort_keys=True, indent=2)


def test_json_text_renders_a_shared_list_at_each_depth():
    shared = ["x", ["y"]]
    document = {"a": shared, "b": [shared, {"c": shared}], "d": [shared]}
    assert _json_text(document) == json.dumps(document, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, (1,), {1: "a"}, Fraction(1, 2), b"x"])
def test_json_text_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json_text({"value": [value]})


def test_tree_reports_share_each_records_fragments(tmp_path, monkeypatch, capsys):
    """A record or plan that components share is rendered once per report."""
    from martpoly import cli

    encoded = Counter()

    def counting(text):
        encoded[text] += 1
        return json.encoder.encode_basestring_ascii(text)

    monkeypatch.setattr(cli, "encode_basestring_ascii", counting)
    # the root, and then nodes a, b and c alike, are incomplete trinomial markets
    nodes = [{"id": "r", "time": 0, "children": ["a", "b", "c"], "prices": ["1"]}]
    for node in "abc":
        kids = [node + kid for kid in "xyz"]
        nodes.append({"id": node, "time": 1, "children": kids, "prices": ["1"]})
        nodes += [
            {"id": kid, "time": 2, "prices": [price]} for kid, price in zip(kids, ["1/2", "1", "2"])
        ]
    path = write_doc(tmp_path, "tree.json", {"assets": 1, "rates": ["0", "0"], "nodes": nodes})
    for command, key, field in (("analyze", "components", "generators"),
                                ("complete", "plans", "added_rows")):
        encoded.clear()
        code, report = run_json(capsys, ["tree", command, path, "--json"])
        assert code == 0
        assert [entry["node"] for entry in report[key]] == ["r", "a", "b", "c"]
        # one entry rendered for the root's record or plan, one for the shared one
        assert encoded[field] == 2
        assert all(encoded[node] == 1 for node in "rabc")


# node ids that JSON escapes, or that equal the renderer's own hole marker
NODE_IDS = st.text(max_size=4) | st.sampled_from(
    ['"', "\\", "\x00", "\x01\x1f\x7f", "\u00e9\u4e2d\U0001f600", "\u2028"]
)


# prices of one node's leaf children: viable at rate 0 (spot 1), and not at 1/2
# for "1" alone or repeated
LEAF_PRICES = [["1"], ["1/2", "2"], ["1", "1"], ["1/2", "1", "2"], ["2", "1", "1/2"]]


@st.composite
def tree_documents(draw):
    """A chain of `chain` single-child nodes, then a full subtree of random
    depth and fan-out; every node but a leaf has price 1. So times reach past
    100, and components share markets, are complete or are not viable."""
    chain = draw(st.sampled_from([0, 0, 1, 12, 120]))
    depth = draw(st.integers(0, 3))
    nodes = [{"id": f"chain {t}", "time": t, "children": [f"chain {t + 1}"], "prices": ["1"]}
             for t in range(chain)]
    root = draw(NODE_IDS)
    if chain:
        nodes[-1]["children"] = [root]
    used = {root} | {node["id"] for node in nodes}
    frontier = [{"id": root, "time": chain, "children": [], "prices": ["1"]}]
    for level in range(depth):
        nodes += frontier
        children = []
        for parent in frontier:
            if level == depth - 1:
                prices = draw(st.sampled_from(LEAF_PRICES))
            else:
                prices = ["1"] * draw(st.integers(1, 3))
            for price in prices:
                node_id = draw(NODE_IDS)
                while node_id in used:
                    node_id += str(len(used))
                used.add(node_id)
                parent["children"].append(node_id)
                children.append({"id": node_id, "time": parent["time"] + 1, "children": [],
                                 "prices": [price]})
        frontier = children
    nodes += frontier
    rates = ["0"] * chain + draw(st.lists(st.sampled_from(["0", "0", "0", "1/2"]),
                                          min_size=depth, max_size=depth))
    return {"assets": 1, "rates": rates, "nodes": nodes}


BINARY_TREE = {
    "assets": 1,
    "rates": ["0"],
    "nodes": [{"id": "\u2028", "time": 0, "children": ["\x00", '"'], "prices": ["1"]},
              {"id": "\x00", "time": 1, "prices": ["2"]},
              {"id": '"', "time": 1, "prices": ["1/2"]}],
}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(tree_documents())
@example({"assets": 1, "rates": [], "nodes": [{"id": "r", "time": 0, "prices": ["1"]}]})
@example(BINARY_TREE)  # complete: "plans": []
@example({**BINARY_TREE, "rates": ["2"]})  # not viable
def test_tree_reports_match_json_dumps_of_their_documents(tmp_path_factory, doc):
    """Spliced per-node entries give the bytes of the per-node document."""
    from martpoly.cli import _plan_document, _vec_strings

    path = write_doc(tmp_path_factory.mktemp("tree"), "tree.json", doc)
    tm = multiperiod.tree_market_from_json_dict(doc)
    report = multiperiod.analyze_tree(tm)
    analyzed = {
        "viable": report.viable,
        "complete": report.complete,
        "components": [
            {
                "time": r.component.time,
                "node": r.component.node_id,
                "outcomes": r.component.market.outcomes,
                "viable": r.viable,
                "complete": r.complete,
                "generators": [_vec_strings(g) for g in r.characterization.generators],
            }
            for r in report.components
        ],
    }
    expected = [(0, analyzed)]
    if report.viable:
        plans = multiperiod.complete_tree(tm)
        completed = {"plans": [{"time": p.time, "node": p.node_id, **_plan_document(p.plan)}
                               for p in plans]}
        expected.append((0, completed))
    else:
        expected.append((4, None))
    for command, (code, document) in zip(("analyze", "complete"), expected):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert main(["tree", command, path, "--json"]) == code
        text = "" if document is None else json.dumps(document, sort_keys=True, indent=2) + "\n"
        assert out.getvalue() == text


@pytest.mark.parametrize(
    "doc, message",
    [
        ({**EMPTY_ASSETS_DOC, "outcomes": 0}, "a market needs at least one outcome"),
        ({**TRINOMIAL_DOC, "probabilities": ["1/2", "1/2"]}, "one probability per outcome required"),
        ({**TRINOMIAL_DOC, "outcomes": 4}, "payoff rows have 3 columns, outcomes=4"),
    ],
)
def test_market_document_refusals_exit_2(tmp_path, capsys, doc, message):
    assert main(["analyze", write_doc(tmp_path, "m.json", doc), "--json"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--steps", "0"], "step count must be a positive integer"),
        (["--steps", "3", "--horizon", "0"], "horizon must be positive"),
    ],
)
def test_kkl_step_and_horizon_refusals_exit_2(capsys, extra, message):
    assert main(["kkl", "--s0", "2", "--lambda", "1/8", "--eta", "1/8", *extra]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


USER_ERRORS = [
    (InputError, 2),
    (LimitExceededError, 3),
    (NotViableError, 4),
    (PerturbationError, 5),
]


@pytest.mark.parametrize("error, code", USER_ERRORS)
def test_each_user_error_carries_its_exit_code(error, code):
    class Narrower(error):
        pass

    assert error.exit_code == error("x").exit_code == Narrower.exit_code == code


def test_internal_errors_carry_no_exit_code():
    assert MartpolyError.exit_code is None
    assert InternalContractError.exit_code is None


@pytest.fixture
def failing_generators(monkeypatch):
    """Make the ``generators`` command raise a given error, through a fresh parser."""
    from martpoly import cli

    def install(exc):
        def command(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_generators", command)
        cli.build_parser.cache_clear()

    yield install
    cli.build_parser.cache_clear()


@pytest.mark.parametrize("error, code", USER_ERRORS)
def test_main_returns_the_exit_code_of_the_error_a_command_raises(
    failing_generators, tmp_path, capsys, error, code
):
    failing_generators(error("refused for a reason"))
    path = write_doc(tmp_path, "m.json", EX4_DOC)
    for json_flag in ([], ["--json"]):
        assert main(["generators", path, *json_flag]) == code
        assert capsys.readouterr() == ("", "error: refused for a reason\n")


@pytest.mark.parametrize("error", [MartpolyError, InternalContractError])
def test_errors_without_an_exit_code_are_internal_and_propagate(
    failing_generators, tmp_path, capsys, error
):
    failing_generators(error("a bug"))
    with pytest.raises(error, match="^a bug$"):
        main(["generators", write_doc(tmp_path, "m.json", EX4_DOC), "--json"])
    assert capsys.readouterr() == ("", "internal error: a bug\n")


@pytest.mark.parametrize("buffered", [True, False])
def test_a_stdout_closed_before_the_report_exits_0_quietly(buffered):
    # the pipe's reading end is closed before the child starts, so its first
    # write of the report fails; buffered, that write is the flush in main
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(martpoly.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "martpoly.cli", "bounds",
             str(DEMOS / "trinomial_market.json"), "--payoff", "0,0,1"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")


def test_a_stream_that_breaks_its_pipe_in_process_exits_0(tmp_path, capsys):
    # such a stream has no file descriptor to point at devnull
    class BrokenPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    stream = BrokenPipe()
    with redirect_stdout(stream):
        assert main(["analyze", write_doc(tmp_path, "m.json", EX4_DOC), "--json"]) == 0
    assert capsys.readouterr() == ("", "")
    assert stream.getvalue() == ""
