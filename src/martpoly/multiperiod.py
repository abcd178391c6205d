"""Finite event-tree markets and their one-period components.

Information is a rooted tree: a node is a market state observable at its
time, its children are the states it can refine into one step later. Between
a node and its children sits an ordinary one-period market, the node's
component, and the whole tree is arbitrage-free (complete) exactly when all
components are.

``EventTree`` checks that ids are strings and times ints (``require_count``);
``TreeMarket`` checks its asset count likewise and coerces every rational by
``vector``. So the reader checks only the document's shape.

The per-node records, ``TreeNode``, ``Component``, ``ComponentReport`` and
``TreeCompletion``, are named tuples, built once per node at a tuple's cost:
immutable and hashable, with named fields. Like any tuple they also unpack
and index by position, and equal a plain tuple of the same fields.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .analysis import CompletionPlan, EmmCharacterization, _plan_from_record, characterize
from .analysis import complete_market  # noqa: F401 -- wrapped by name in benchmarks/tracing.py
from .errors import InputError, NotViableError, quoted
from .geometry import DEFAULT_MAX_OUTCOMES
from .market import OnePeriodMarket
from .market import build_system  # noqa: F401 -- wrapped by name in benchmarks/tracing.py
from .rationals import Matrix, RationalLike, Vector, format_rational, require_count, vector
from .rationals import rank  # noqa: F401 -- wrapped by name in benchmarks/tracing.py


class TreeNode(NamedTuple):
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
            node_id, time, children = node
            if not isinstance(node_id, str):
                raise InputError("node ids must be strings")
            if type(time) is not int:  # an exact int passes; skip the call
                require_count(time, None, "node {}: time must be an integer", node_id)
            for child in children:  # costs a node less than all() over a generator
                if not isinstance(child, str):
                    raise InputError(f"node {quoted(node_id)}: children must be a list of ids")
            if node_id in by_id:
                raise InputError(f"duplicate node id {quoted(node_id)}")
            by_id[node_id] = node

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
                    nxt.append(child)
            frontier = nxt
        if len(order) != len(node_list):
            orphans = sorted(set(by_id).difference(n.id for n in order))
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

    Every price vector, probability vector and rate is parsed once per
    distinct value: a list of strings seen before is looked up, not parsed
    again, and equal values, however written ("1/2" and "2/4"), are one
    object. ``components`` relies on this to key its markets by identity.
    A parse error names the node and field, or ``rates``, it came from.
    """

    def __init__(
        self,
        tree: EventTree,
        assets: int,
        prices: Mapping[str, Sequence[RationalLike]],
        rates: Sequence[RationalLike],
        branch_probabilities: Mapping[str, Sequence[RationalLike]] | None = None,
    ):
        require_count(assets, 0, "assets must be an integer", below="negative asset count")
        self.tree = tree
        self.assets = assets
        values = _DocumentValues()
        parse = values.vector
        self.prices: dict[str, Vector] = {}
        for node in tree.nodes:
            if node.id not in prices:
                raise InputError(f"no price vector for node {quoted(node.id)}")
            pv = parse(prices[node.id], "prices", node.id)
            if len(pv) != assets:
                raise InputError(
                    f"node {quoted(node.id)} has {len(pv)} prices for {assets} assets"
                )
            self.prices[node.id] = pv
        self.rates = values.scalars(rates, "rates")
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
                node_id: parse(ps, "probabilities", node_id)
                for node_id, ps in branch_probabilities.items()
            }


class _DocumentValues:
    """The parsed values of one tree document, each distinct one held once."""

    def __init__(self) -> None:
        # a list of strings, as a tuple -> its interned vector
        self._parsed: dict[tuple[str, ...], Vector] = {}
        # a vector or a scalar -> the one object with its value
        self._interned: dict = {}

    def vector(
        self, values: Sequence[RationalLike], field: str, node_id: str | None = None
    ) -> Vector:
        """``vector(values)``, interned; an error in it names the field and node.

        Only lists of ``str`` are stored by their raw entries: ``True``,
        ``1`` and ``1.0`` compare equal to each other, so storing any other
        list could let a refused value borrow an accepted one. A lookup may
        try any list, since a ``str`` equals no other JSON value; one with an
        unhashable entry misses.
        """
        sequence = isinstance(values, (list, tuple))
        if sequence:
            key = tuple(values)
            try:
                parsed = self._parsed.get(key)
            except TypeError:
                parsed = None
            if parsed is not None:
                return parsed
        strings = sequence and all(type(v) is str for v in values)
        try:
            v = vector(values)
        except InputError as exc:
            where = field if node_id is None else f"node {quoted(node_id)} {field}"
            raise InputError(f"{where}: {exc}") from None
        v = self._interned.setdefault(v, v)
        if strings:
            self._parsed[key] = v
        return v

    def scalars(self, values: Sequence[RationalLike], field: str) -> Vector:
        """``vector(values)`` with each entry interned, so equal entries are one object."""
        return tuple(self._interned.setdefault(x, x) for x in self.vector(values, field))


class Component(NamedTuple):
    """The one-period submarket between a node and its children."""

    time: int
    node_id: str
    market: OnePeriodMarket


def components(tm: TreeMarket) -> tuple[Component, ...]:
    """One component per internal node, in breadth-first order.

    The component's spot vector is the node's prices, payoff column w is the
    prices at child w, and the rate is the step rate at the node's time.
    Components share one ``OnePeriodMarket`` exactly when their rate, spot,
    child price vectors and probabilities are the same objects, so a caller
    may key its records by the market's identity. Identity never merges
    unequal markets, and since ``TreeMarket`` holds each distinct value as
    one object, every pair of equal markets shares one.
    """
    markets: dict[tuple, OnePeriodMarket] = {}
    out: list[Component] = []
    prices, rates, probabilities = tm.prices, tm.rates, tm.branch_probabilities
    for node_id, time, children in tm.tree.nodes:
        if not children:
            continue
        probs = None if probabilities is None else probabilities[node_id]
        kid_prices = [prices[kid] for kid in children]
        rate, spot = rates[time], prices[node_id]
        key = (id(rate), id(spot), id(probs), *map(id, kid_prices))
        market = markets.get(key)
        if market is None:
            market = markets[key] = OnePeriodMarket(
                rate=rate,
                spot=spot,
                payoffs=Matrix(kid_prices, tm.assets).transpose(),
                probabilities=probs,
            )
        out.append(Component(time, node_id, market))
    return tuple(out)


class ComponentReport(NamedTuple):
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
    share a market object (see ``components``) share its record, and the
    tree's verdicts are read off the distinct records.
    """
    # market id -> (record, viable, complete), one per distinct market
    verdicts: dict[int, tuple[EmmCharacterization, bool, bool]] = {}
    reports: list[ComponentReport] = []
    for comp in components(tm):
        verdict = verdicts.get(id(comp.market))
        if verdict is None:
            char = characterize(comp.market, max_outcomes=max_outcomes)
            verdict = verdicts[id(comp.market)] = (char, char.emm_exists, char.complete)
        reports.append(ComponentReport(comp, *verdict))
    return TreeReport(
        viable=all(viable for _, viable, _ in verdicts.values()),
        complete=all(complete for _, _, complete in verdicts.values()),
        components=tuple(reports),
    )


class TreeCompletion(NamedTuple):
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
    for comp, char, _, complete in report.components:
        if complete:
            continue
        plan = plans.get(id(char))
        if plan is None:
            plan = plans[id(char)] = _plan_from_record(comp.market, char, None)
        out.append(TreeCompletion(comp.time, comp.node_id, plan))
    return tuple(out)


def tree_market_from_json_dict(doc: Mapping) -> TreeMarket:
    """Parse the tree document.

    Schema: ``{"assets": n, "rates": [...], "nodes": [{"id", "time",
    "children", "prices", optional "probabilities"}, ...]}`` with all numbers
    as rational strings. ``EventTree`` and ``TreeMarket`` check every value.
    """
    if not isinstance(doc, Mapping):
        raise InputError("tree document must be a JSON object")
    try:
        assets = doc["assets"]
        rates = doc["rates"]
        raw_nodes = doc["nodes"]
    except KeyError as missing:
        raise InputError(f"tree document lacks key {missing}") from None
    if not isinstance(raw_nodes, list) or not isinstance(rates, list):
        raise InputError("nodes and rates must be lists")
    nodes: list[TreeNode] = []
    prices: dict[str, list] = {}
    probabilities: dict[str, list] = {}
    for raw in raw_nodes:
        if type(raw) is not dict and not isinstance(raw, Mapping):
            raise InputError("each node must be a JSON object")
        try:
            node_id = raw["id"]
            time = raw["time"]
            node_prices = raw["prices"]
        except KeyError as missing:
            raise InputError(f"node document lacks key {missing}") from None
        children = raw.get("children", [])
        if not isinstance(children, list):
            raise InputError(f"node {quoted(node_id)}: children must be a list of ids")
        nodes.append(TreeNode(node_id, time, tuple(children)))
        try:
            prices[node_id] = node_prices
            if "probabilities" in raw:
                probabilities[node_id] = raw["probabilities"]
        except TypeError:
            pass  # an unhashable id is no string, and EventTree refuses it
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
