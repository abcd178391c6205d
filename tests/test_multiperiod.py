"""Event trees: validation, decomposition, verdicts, and tree completion."""

import json
import random
from contextlib import suppress
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from martpoly import analysis, multiperiod
from martpoly import (
    EventTree,
    InputError,
    NotViableError,
    OnePeriodMarket,
    TreeMarket,
    TreeNode,
    analyze_tree,
    apply_completion,
    characterize,
    complete_market,
    complete_tree,
    components,
    augmented_matrix,
    build_system,
    is_complete,
    kkl_build,
    kkl_params,
    kkl_viability,
    rank,
    tree_market_from_json_dict,
    tree_market_to_json_dict,
)


def binomial_tree(levels: int, up=Fraction(2), down=Fraction(1, 2), s0=Fraction(1)):
    """Non-recombining binomial information tree with multiplicative prices."""
    nodes = [TreeNode("r", 0, ("ru", "rd"))]
    prices = {"r": (s0,)}
    frontier = [("r", s0)]
    for t in range(levels):
        nxt = []
        for node_id, price in frontier:
            for tag, factor in (("u", up), ("d", down)):
                child = node_id + tag
                nxt.append((child, price * factor))
                prices[child] = (price * factor,)
        frontier = nxt
        for node_id, _ in nxt:
            children = (node_id + "u", node_id + "d") if t + 1 < levels else ()
            nodes.append(TreeNode(node_id, t + 1, children))
    tree = EventTree(nodes)
    return TreeMarket(tree, assets=1, prices=prices, rates=("0",) * levels)


def trinomial_tree(levels: int, factors=("1/2", "1", "2"), s0=Fraction(1)):
    nodes = [TreeNode("r", 0, tuple("r" + t for t in "abc"))]
    prices = {"r": (s0,)}
    frontier = [("r", s0)]
    for t in range(levels):
        nxt = []
        for node_id, price in frontier:
            for tag, factor in zip("abc", factors):
                child = node_id + tag
                nxt.append((child, price * Fraction(factor)))
                prices[child] = (price * Fraction(factor),)
        frontier = nxt
        for node_id, _ in nxt:
            children = (
                tuple(node_id + t for t in "abc") if t + 1 < levels else ()
            )
            nodes.append(TreeNode(node_id, t + 1, children))
    tree = EventTree(nodes)
    return TreeMarket(tree, assets=1, prices=prices, rates=("0",) * levels)


def test_binomial_decomposition():
    tm = binomial_tree(2)
    comps = components(tm)
    assert len(comps) == 3
    assert all(c.market.outcomes == 2 for c in comps)
    assert [c.node_id for c in comps] == ["r", "ru", "rd"]


def test_single_period_tree_matches_direct_market():
    tm = binomial_tree(1)
    comps = components(tm)
    assert len(comps) == 1
    mkt = comps[0].market
    assert mkt.spot == (Fraction(1),)
    assert mkt.payoffs.entries == ((Fraction(2), Fraction(1, 2)),)
    report = analyze_tree(tm)
    assert report.viable == (characterize(mkt).emm_exists)
    assert report.complete == is_complete(mkt)


def test_trinomial_decomposition():
    tm = trinomial_tree(2)
    comps = components(tm)
    assert len(comps) == 4
    assert all(c.market.outcomes == 3 for c in comps)


def test_binomial_tree_viable_and_complete():
    report = analyze_tree(binomial_tree(2))
    assert report.viable and report.complete


def test_trinomial_tree_viable_not_complete():
    report = analyze_tree(trinomial_tree(2))
    assert report.viable
    assert not report.complete
    assert all(r.viable and not r.complete for r in report.components)


def test_all_children_above_grown_price_kills_viability():
    nodes = [TreeNode("r", 0, ("a", "b")), TreeNode("a", 1, ()), TreeNode("b", 1, ())]
    tm = TreeMarket(
        EventTree(nodes),
        assets=1,
        prices={"r": ("1",), "a": ("2",), "b": ("3",)},
        rates=("0",),
    )
    report = analyze_tree(tm)
    assert not report.viable


def test_complete_tree_empty_when_complete():
    assert complete_tree(binomial_tree(2)) == ()


def test_complete_tree_trinomial_plans():
    tm = trinomial_tree(2)
    plans = complete_tree(tm)
    assert len(plans) == 4
    assert all(p.plan.added_payoff_rows.rows == 1 for p in plans)
    # applying each plan to its component closes the gap everywhere
    by_node = {p.node_id: p.plan for p in plans}
    for comp in components(tm):
        plan = by_node.get(comp.node_id)
        market = comp.market if plan is None else apply_completion(comp.market, plan)
        assert is_complete(market)
        assert complete_market(market).is_empty


def test_complete_tree_mixed_nodes():
    nodes = [
        TreeNode("r", 0, ("a", "b")),
        TreeNode("a", 1, ("a1", "a2", "a3")),
        TreeNode("b", 1, ("b1", "b2")),
        TreeNode("a1", 2, ()),
        TreeNode("a2", 2, ()),
        TreeNode("a3", 2, ()),
        TreeNode("b1", 2, ()),
        TreeNode("b2", 2, ()),
    ]
    prices = {
        "r": ("1",),
        "a": ("2",),
        "b": ("1/2",),
        "a1": ("1",),
        "a2": ("2",),
        "a3": ("4",),
        "b1": ("1/4",),
        "b2": ("1",),
    }
    tm = TreeMarket(EventTree(nodes), assets=1, prices=prices, rates=("0", "0"))
    plans = complete_tree(tm)
    assert [p.node_id for p in plans] == ["a"]


def test_complete_tree_requires_viability():
    nodes = [TreeNode("r", 0, ("a", "b")), TreeNode("a", 1, ()), TreeNode("b", 1, ())]
    tm = TreeMarket(
        EventTree(nodes),
        assets=1,
        prices={"r": ("1",), "a": ("2",), "b": ("3",)},
        rates=("0",),
    )
    with pytest.raises(NotViableError):
        complete_tree(tm)


def test_every_edge_in_exactly_one_component():
    tm = trinomial_tree(2)
    edges = set()
    for comp in components(tm):
        node = tm.tree.node(comp.node_id)
        for child in node.children:
            assert (comp.node_id, child) not in edges
            edges.add((comp.node_id, child))
    expected = {
        (n.id, c) for n in tm.tree.nodes for c in n.children
    }
    assert edges == expected


def test_per_step_rates_feed_components():
    nodes = [
        TreeNode("r", 0, ("a",)),
        TreeNode("a", 1, ("b",)),
        TreeNode("b", 2, ()),
    ]
    tm = TreeMarket(
        EventTree(nodes),
        assets=1,
        prices={"r": ("1",), "a": ("11/10",), "b": ("121/100",)},
        rates=("1/10", "1/10"),
    )
    comps = components(tm)
    assert [c.market.rate for c in comps] == [Fraction(1, 10), Fraction(1, 10)]
    assert analyze_tree(tm).viable


@pytest.mark.parametrize(
    "nodes",
    [
        # child at the wrong time
        [TreeNode("r", 0, ("a",)), TreeNode("a", 2, ())],
        # two roots
        [TreeNode("r", 0, ()), TreeNode("s", 0, ())],
        # duplicate id
        [TreeNode("r", 0, ("a", "a")), TreeNode("a", 1, ())],
        # unknown child
        [TreeNode("r", 0, ("ghost",))],
        # leaves at mixed depths
        [
            TreeNode("r", 0, ("a", "b")),
            TreeNode("a", 1, ("c",)),
            TreeNode("b", 1, ()),
            TreeNode("c", 2, ()),
        ],
        # root not at time zero
        [TreeNode("r", 1, ())],
    ],
)
def test_tree_validation_rejects(nodes):
    with pytest.raises(InputError):
        EventTree(nodes)


def test_long_node_ids_are_not_echoed_whole():
    long_id = "n" * 5000
    duplicated = [TreeNode(long_id, 0, ()), TreeNode(long_id, 0, ())]
    unknown_child = [TreeNode("r", 0, (long_id,))]
    for nodes in (duplicated, unknown_child):
        with pytest.raises(InputError) as exc:
            EventTree(nodes)
        assert len(str(exc.value)) < 200
        assert "5000 characters" in str(exc.value)


def test_short_node_ids_are_echoed_whole():
    with pytest.raises(InputError, match=r"^duplicate node id 'a'$"):
        EventTree([TreeNode("a", 0, ()), TreeNode("a", 0, ())])
    with pytest.raises(InputError, match=r"^node 'r' references unknown child 'ghost'$"):
        EventTree([TreeNode("r", 0, ("ghost",))])


def test_tree_market_validation():
    tree = EventTree([TreeNode("r", 0, ("a",)), TreeNode("a", 1, ())])
    with pytest.raises(InputError):
        TreeMarket(tree, assets=1, prices={"r": ("1",)}, rates=("0",))
    with pytest.raises(InputError):
        TreeMarket(tree, assets=1, prices={"r": ("1",), "a": ("1",)}, rates=())
    with pytest.raises(InputError):
        TreeMarket(
            tree,
            assets=1,
            prices={"r": ("1",), "a": ("1",)},
            rates=("0",),
            branch_probabilities={"a": ("1",)},
        )


def test_tree_json_round_trip():
    tm = trinomial_tree(2)
    doc = json.loads(json.dumps(tree_market_to_json_dict(tm)))
    back = tree_market_from_json_dict(doc)
    assert back.assets == tm.assets
    assert back.rates == tm.rates
    assert back.prices == tm.prices
    assert [n.id for n in back.tree.nodes] == [n.id for n in tm.tree.nodes]


def one_step_tree(root: dict, down: dict, assets: int = 1) -> dict:
    return {
        "assets": assets,
        "rates": ["0"],
        "nodes": [
            {"id": "r", "time": 0, "children": ["u", "d"], **root},
            {"id": "u", "time": 1, "children": [], "prices": ["2"] * assets},
            {"id": "d", "time": 1, "children": [], **down},
        ],
    }


def test_tree_json_schema_example():
    doc = {
        "assets": 1,
        "rates": ["0"],
        "nodes": [
            {"id": "root", "time": 0, "children": ["u", "d"], "prices": ["1"]},
            {"id": "u", "time": 1, "children": [], "prices": ["2"]},
            {"id": "d", "time": 1, "children": [], "prices": ["1/2"]},
        ],
    }
    tm = tree_market_from_json_dict(doc)
    report = analyze_tree(tm)
    assert report.viable and report.complete


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"assets": 1, "rates": []},
        {"assets": "1", "rates": [], "nodes": []},
        {
            "assets": 1,
            "rates": ["0"],
            "nodes": [{"id": "r", "time": 0, "children": ["a"], "prices": ["1"]}],
        },
        {
            "assets": 1,
            "rates": ["0"],
            "nodes": [
                {"id": "r", "time": 0, "children": ["a"], "prices": ["1"]},
                {"id": "a", "time": 2, "children": [], "prices": ["1"]},
            ],
        },
        # a list field that is not a list; two assets whose price strings
        # were once read one character each
        one_step_tree({"prices": 5}, {"prices": ["1/2"]}),
        one_step_tree({"prices": ["1"], "probabilities": 3}, {"prices": ["1/2"]}),
        one_step_tree({"prices": "11"}, {"prices": "00"}, assets=2),
    ],
)
def test_tree_json_rejects_malformed(doc):
    with pytest.raises(InputError):
        tree_market_from_json_dict(doc)


def test_flat_tree_matches_one_period_verdicts():
    rng = random.Random(6001)
    for _ in range(20):
        b = rng.randint(1, 5)
        kid_prices = [Fraction(rng.randint(-4, 8), rng.randint(1, 3)) for _ in range(b)]
        spot = Fraction(rng.randint(-3, 6), rng.randint(1, 2))
        nodes = [TreeNode("r", 0, tuple(f"c{i}" for i in range(b)))]
        nodes += [TreeNode(f"c{i}", 1, ()) for i in range(b)]
        prices = {"r": (spot,)}
        prices.update({f"c{i}": (kid_prices[i],) for i in range(b)})
        tm = TreeMarket(EventTree(nodes), assets=1, prices=prices, rates=("0",))
        from martpoly import make_market

        direct = make_market(rate=0, spot=[spot], payoffs=[kid_prices])
        report = analyze_tree(tm)
        assert report.viable == characterize(direct).emm_exists
        assert report.complete == is_complete(direct)


KKL_CASES = [
    (s0, steps, rate)
    for s0 in (1, 2, 3)
    for steps in (1, 2, 3, 4)
    for rate in ("0", "1/10", "3")
]


def count_builds_and_analyses(monkeypatch) -> dict[str, int]:
    """Count every OnePeriodMarket construction and every characterize call."""
    counts = {"markets": 0, "characterize": 0}
    post_init = OnePeriodMarket.__post_init__
    real_characterize = analysis.characterize

    def counted_post_init(self):
        counts["markets"] += 1
        post_init(self)

    def counted_characterize(*args, **kwargs):
        counts["characterize"] += 1
        return real_characterize(*args, **kwargs)

    monkeypatch.setattr(OnePeriodMarket, "__post_init__", counted_post_init)
    for module in (analysis, multiperiod):
        monkeypatch.setattr(module, "characterize", counted_characterize)
    return counts


@pytest.mark.parametrize("s0,steps,rate", KKL_CASES)
def test_tree_verdicts_match_per_component_walk(s0, steps, rate, monkeypatch):
    """Sharing records between repeated markets changes no report or plan."""
    params = kkl_params(s0=s0, lam="1/32", eta="1/64", rate=rate, horizon=1, steps=steps)
    tm = kkl_build(params)
    distinct = len({comp.market for comp in components(tm)})
    counts = count_builds_and_analyses(monkeypatch)
    analyze_tree(tm)
    assert counts == {"markets": distinct, "characterize": distinct}
    counts.update(markets=0, characterize=0)
    with suppress(NotViableError):
        complete_tree(tm)
    assert counts == {"markets": distinct, "characterize": distinct}
    monkeypatch.undo()
    walk = []
    for comp in components(tm):
        char = characterize(comp.market)
        full_rank = rank(augmented_matrix(build_system(comp.market))) == comp.market.outcomes
        walk.append((comp, char, char.emm_exists, char.emm_exists and full_rank))
    report = analyze_tree(tm)
    assert [
        (r.component, r.characterization, r.viable, r.complete) for r in report.components
    ] == walk
    assert report.viable == all(w[2] for w in walk) == kkl_viability(params)
    assert report.complete == all(w[3] for w in walk)
    if not report.viable:
        with pytest.raises(NotViableError):
            complete_tree(tm)
        return
    expected = [
        (comp.time, comp.node_id, complete_market(comp.market))
        for comp, _, _, complete in walk
        if not complete
    ]
    assert [(p.time, p.node_id, p.plan) for p in complete_tree(tm)] == expected


def test_components_share_exactly_the_equal_markets(monkeypatch):
    """One market object per distinct (rate, spot, child prices, probabilities)."""
    ids = ["r" + "".join(path) for t in range(4) for path in product("ab", repeat=t)]
    nodes = [TreeNode(i, len(i) - 1, (i + "a", i + "b") if len(i) < 4 else ()) for i in ids]
    probs = {i: ("1/3", "2/3") if i == "rb" else ("1/2", "1/2") for i in ids if len(i) < 4}
    tm = TreeMarket(
        EventTree(nodes),
        assets=1,
        prices={i: ("1",) for i in ids},
        rates=("0", "0", "1/10"),
        branch_probabilities=probs,
    )
    market = {comp.node_id: comp.market for comp in components(tm)}
    # equal markets at times 0 and 1, under equal rates, are one object
    assert market["ra"] is market["r"]
    # a market that differs only in its probabilities is not shared
    assert market["rb"] is not market["ra"]
    assert replace(market["rb"], probabilities=market["ra"].probabilities) == market["ra"]
    # nor is one that differs only in its step rate
    assert market["raa"] is not market["r"]
    assert replace(market["raa"], rate=market["r"].rate) == market["r"]
    assert market["rbb"] is market["raa"]
    assert len({id(m) for m in market.values()}) == 3
    counts = count_builds_and_analyses(monkeypatch)
    analyze_tree(tm)
    assert counts == {"markets": 3, "characterize": 3}
