"""Finite event-tree markets and their one-period components.

Information is a rooted tree: a node is a market state observable at its
time, its children are the states it can refine into one step later. Between
a node and its children sits an ordinary one-period market, the node's
component, and the whole tree is arbitrage-free (complete) exactly when all
components are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .analysis import CompletionPlan, EmmCharacterization, _plan_from_record, characterize
from .analysis import complete_market  # noqa: F401 -- wrapped by name in benchmarks/tracing.py
from .errors import InputError, NotViableError, quoted
from .geometry import DEFAULT_MAX_OUTCOMES
from .market import OnePeriodMarket
from .market import build_system  # noqa: F401 -- wrapped by name in benchmarks/tracing.py
from .rationals import Matrix, RationalLike, Vector, format_rational, vector
from .rationals import rank  # noqa: F401 -- wrapped by name in benchmarks/tracing.py


@dataclass(frozen=True)
class TreeNode:
    id: str
    time: int
    children: tuple[str, ...]


class EventTree:
    """Validated rooted tree with uniform leaf depth.

    Nodes are exposed in breadth-first order; every non-root node has exactly
    one parent at the previous time, and all leaves sit at the horizon.
    """

    def __init__(self, nodes: Iterable[TreeNode]):
        node_list = list(nodes)
        by_id: dict[str, TreeNode] = {}
        for node in node_list:
            if node.id in by_id:
                raise InputError(f"duplicate node id {quoted(node.id)}")
            by_id[node.id] = node

        parents: dict[str, str] = {}
        for node in node_list:
            for child in node.children:
                if child not in by_id:
                    raise InputError(f"node {quoted(node.id)} references unknown child {quoted(child)}")
                if child in parents:
                    raise InputError(f"node {quoted(child)} has more than one parent")
                parents[child] = node.id

        roots = [n for n in node_list if n.id not in parents]
        if len(roots) != 1:
            raise InputError(f"expected a single root, found {len(roots)}")
        root = roots[0]
        if root.time != 0:
            raise InputError(f"root {quoted(root.id)} must sit at time 0, not {quoted(root.time)}")

        order: list[TreeNode] = []
        frontier = [root]
        seen = {root.id}
        while frontier:
            order.extend(frontier)
            nxt: list[TreeNode] = []
            for node in frontier:
                for child_id in node.children:
                    child = by_id[child_id]
                    if child.time != node.time + 1:
                        raise InputError(
                            f"child {quoted(child_id)} at time {quoted(child.time)} under "
                            f"{quoted(node.id)} at time {quoted(node.time)}"
                        )
                    seen.add(child_id)
                    nxt.append(child)
            frontier = nxt
        if len(seen) != len(node_list):
            orphans = sorted(set(by_id) - seen)
            raise InputError(f"nodes unreachable from the root: {quoted(orphans)}")

        leaf_times = {n.time for n in node_list if not n.children}
        if len(leaf_times) != 1:
            raise InputError(f"leaves at mixed times {quoted(sorted(leaf_times))}")

        self._by_id = by_id
        self._order = tuple(order)
        self.root = root.id
        self.horizon = leaf_times.pop()

    @property
    def nodes(self) -> tuple[TreeNode, ...]:
        """All nodes, breadth first from the root."""
        return self._order

    def node(self, node_id: str) -> TreeNode:
        return self._by_id[node_id]

    def internal_nodes(self) -> tuple[TreeNode, ...]:
        return tuple(n for n in self._order if n.children)

    def leaves(self) -> tuple[TreeNode, ...]:
        return tuple(n for n in self._order if not n.children)


class TreeMarket:
    """Event tree with adapted asset prices and one rate per time step.

    ``branch_probabilities``, when given, assigns each internal node the
    physical probabilities of its children in child order; they are validated
    through the component markets and ignored by all pricing logic.
    """

    def __init__(
        self,
        tree: EventTree,
        assets: int,
        prices: Mapping[str, Sequence[RationalLike]],
        rates: Sequence[RationalLike],
        branch_probabilities: Mapping[str, Sequence[RationalLike]] | None = None,
    ):
        if assets < 0:
            raise InputError("negative asset count")
        self.tree = tree
        self.assets = assets
        self.prices: dict[str, Vector] = {}
        for node in tree.nodes:
            if node.id not in prices:
                raise InputError(f"no price vector for node {quoted(node.id)}")
            pv = vector(prices[node.id])
            if len(pv) != assets:
                raise InputError(
                    f"node {quoted(node.id)} has {len(pv)} prices for {assets} assets"
                )
            self.prices[node.id] = pv
        self.rates = vector(rates)
        if len(self.rates) != tree.horizon:
            raise InputError(
                f"{len(self.rates)} rates for a horizon of {tree.horizon} steps"
            )
        self.branch_probabilities: dict[str, Vector] | None = None
        if branch_probabilities is not None:
            internal = {n.id for n in tree.internal_nodes()}
            given = set(branch_probabilities)
            if given != internal:
                raise InputError(
                    "branch probabilities must cover exactly the internal nodes"
                )
            self.branch_probabilities = {
                node_id: vector(ps) for node_id, ps in branch_probabilities.items()
            }


@dataclass(frozen=True)
class Component:
    """The one-period submarket between a node and its children."""

    time: int
    node_id: str
    market: OnePeriodMarket


def components(tm: TreeMarket) -> tuple[Component, ...]:
    """One component per internal node, in breadth-first order.

    The component's spot vector is the node's prices, payoff column w is the
    prices at child w, and the rate is the step rate at the node's time.
    Components with equal markets share one ``OnePeriodMarket``: it is built
    once per distinct (rate, spot, child price vectors, probabilities), so a
    caller may key its records by the market's identity.
    """
    markets: dict[tuple, OnePeriodMarket] = {}
    out: list[Component] = []
    for node in tm.tree.internal_nodes():
        probs = None
        if tm.branch_probabilities is not None:
            probs = tm.branch_probabilities[node.id]
        kid_prices = tuple(tm.prices[kid] for kid in node.children)
        key = (tm.rates[node.time], tm.prices[node.id], kid_prices, probs)
        market = markets.get(key)
        if market is None:
            market = markets[key] = OnePeriodMarket(
                rate=tm.rates[node.time],
                spot=tm.prices[node.id],
                payoffs=Matrix(kid_prices, tm.assets).transpose(),
                probabilities=probs,
            )
        out.append(Component(time=node.time, node_id=node.id, market=market))
    return tuple(out)


@dataclass(frozen=True)
class ComponentReport:
    component: Component
    characterization: EmmCharacterization
    viable: bool
    complete: bool


@dataclass(frozen=True)
class TreeReport:
    viable: bool
    complete: bool
    components: tuple[ComponentReport, ...]


def analyze_tree(
    tm: TreeMarket, *, max_outcomes: int = DEFAULT_MAX_OUTCOMES
) -> TreeReport:
    """Aggregate verdicts: the tree passes exactly when every component does.

    Each distinct component market is characterized once: components that
    share a market object (see ``components``) share its record.
    """
    chars: dict[int, EmmCharacterization] = {}
    reports: list[ComponentReport] = []
    for comp in components(tm):
        char = chars.get(id(comp.market))
        if char is None:
            char = chars[id(comp.market)] = characterize(comp.market, max_outcomes=max_outcomes)
        reports.append(ComponentReport(comp, char, char.emm_exists, char.complete))
    return TreeReport(
        viable=all(r.viable for r in reports),
        complete=all(r.complete for r in reports),
        components=tuple(reports),
    )


@dataclass(frozen=True)
class TreeCompletion:
    time: int
    node_id: str
    plan: CompletionPlan


def complete_tree(
    tm: TreeMarket, *, max_outcomes: int = DEFAULT_MAX_OUTCOMES
) -> tuple[TreeCompletion, ...]:
    """Completion plans for every incomplete component of a viable tree.

    Each plan's assets live on one component: they trade between times t and
    t+1 conditional on the component's node. Applying every plan to its
    component makes all components, and hence the tree, complete. Each shared
    market gets one plan, read off its ``analyze_tree`` record as in ``complete_market``.
    """
    report = analyze_tree(tm, max_outcomes=max_outcomes)
    if not report.viable:
        raise NotViableError("only arbitrage-free trees can be completed")
    plans: dict[int, CompletionPlan] = {}
    out: list[TreeCompletion] = []
    for comp_report in report.components:
        if comp_report.complete:
            continue
        comp = comp_report.component
        plan = plans.get(id(comp.market))
        if plan is None:
            plan = plans[id(comp.market)] = _plan_from_record(
                comp.market, comp_report.characterization, None
            )
        out.append(TreeCompletion(time=comp.time, node_id=comp.node_id, plan=plan))
    return tuple(out)


def tree_market_from_json_dict(doc: Mapping) -> TreeMarket:
    """Parse the tree document.

    Schema: ``{"assets": n, "rates": [...], "nodes": [{"id", "time",
    "children", "prices", optional "probabilities"}, ...]}`` with all numbers
    as rational strings.
    """
    if not isinstance(doc, Mapping):
        raise InputError("tree document must be a JSON object")
    try:
        assets = doc["assets"]
        rates = doc["rates"]
        raw_nodes = doc["nodes"]
    except KeyError as missing:
        raise InputError(f"tree document lacks key {missing}") from None
    if isinstance(assets, bool) or not isinstance(assets, int):
        raise InputError("assets must be an integer")
    if not isinstance(raw_nodes, list) or not isinstance(rates, list):
        raise InputError("nodes and rates must be lists")
    nodes: list[TreeNode] = []
    prices: dict[str, list] = {}
    probabilities: dict[str, list] = {}
    for raw in raw_nodes:
        if not isinstance(raw, Mapping):
            raise InputError("each node must be a JSON object")
        try:
            node_id = raw["id"]
            time = raw["time"]
            node_prices = raw["prices"]
        except KeyError as missing:
            raise InputError(f"node document lacks key {missing}") from None
        if not isinstance(node_id, str):
            raise InputError("node ids must be strings")
        if isinstance(time, bool) or not isinstance(time, int):
            raise InputError(f"node {quoted(node_id)}: time must be an integer")
        children = raw.get("children", [])
        if not isinstance(children, list) or not all(isinstance(c, str) for c in children):
            raise InputError(f"node {quoted(node_id)}: children must be a list of ids")
        nodes.append(TreeNode(id=node_id, time=time, children=tuple(children)))
        prices[node_id] = node_prices
        if "probabilities" in raw:
            probabilities[node_id] = raw["probabilities"]
    tree = EventTree(nodes)
    return TreeMarket(
        tree=tree,
        assets=assets,
        prices=prices,
        rates=rates,
        branch_probabilities=probabilities or None,
    )


def tree_market_to_json_dict(tm: TreeMarket) -> dict:
    nodes = []
    for node in tm.tree.nodes:
        entry: dict = {
            "id": node.id,
            "time": node.time,
            "children": list(node.children),
            "prices": [format_rational(p) for p in tm.prices[node.id]],
        }
        if tm.branch_probabilities is not None and node.children:
            entry["probabilities"] = [
                format_rational(p) for p in tm.branch_probabilities[node.id]
            ]
        nodes.append(entry)
    return {
        "assets": tm.assets,
        "rates": [format_rational(r) for r in tm.rates],
        "nodes": nodes,
    }
