"""Seeded inputs for the benchmark workloads.

Each workload turns a run seed into a pool of op items for the timed phase
and a few small warm-up items. The two come from separate ``random.Random``
streams, and warm-up inputs are smaller than timed ones, so no timed op sees
a market the process has already analysed. Items carry only parameters; an
op's input document is rendered and written just before the op runs.

An item's ``keys`` name every market it hands to the library, components of
event trees included. ``run.py`` checks that no timed op repeats a key seen
earlier in the same process, so the library's market cache can only hit on
repetition inside one input.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# facewalk: one-period markets, analysed by the staged face walk.
FACEWALK_OUTCOMES = 12
FACEWALK_ASSETS = 3
PAYOFF_BOUND = 9
FACEWALK_COMMANDS = ("analyze", "generators", "bounds", "complete")
# Op i has kind FACEWALK_KINDS[i % 7]: two in seven markets are degenerate.
# The cycle length is prime to the command rotation, so every command meets
# every kind.
FACEWALK_KINDS = ("generic",) * 5 + ("dependent", "centred")

# tree: literal birth-death event trees, completed component by component.
TREE_STEPS = 7
# lattice: the birth-death lattice priced by backward induction.
LATTICE_STEPS = 100
LATTICE_EPSILON = Fraction(1, 1000)
# Starting prices cycle with the op index so every run sees the same mix of
# tree sizes and lattice widths. Tree cost rises steeply with s0; with three
# classes the median op falls inside the middle one, not between two.
S0_CYCLE = (1, 2, 3)

WARMUP_OUTCOMES = 5
WARMUP_ASSETS = 2
WARMUP_TREE_STEPS = 3
WARMUP_LATTICE_STEPS = 10


@dataclass(frozen=True)
class Market:
    """A one-period market with integer payoffs, viable by construction.

    ``rhs`` is (1 + rate) * spot, the right-hand side of payoffs @ q = rhs.
    """

    kind: str
    rate: Fraction
    payoffs: tuple[tuple[int, ...], ...]
    rhs: tuple[Fraction, ...]

    @property
    def outcomes(self) -> int:
        return len(self.payoffs[0])

    def document(self) -> dict:
        grown = 1 + self.rate
        return {
            "rate": str(self.rate),
            "spot": [str(x / grown) for x in self.rhs],
            "payoffs": [[str(x) for x in row] for row in self.payoffs],
            "outcomes": self.outcomes,
        }


@dataclass(frozen=True)
class FacewalkItem:
    index: int
    command: str
    market: Market
    payoff: tuple[int, ...] | None

    @property
    def keys(self) -> frozenset:
        m = self.market
        return frozenset({("market", m.rate, m.payoffs, m.rhs)})

    def argv(self, work: Path) -> list[str]:
        path = work / "market.json"
        path.write_text(json.dumps(self.market.document()), encoding="utf-8")
        argv = [self.command, str(path), "--json"]
        if self.payoff is not None:
            # A leading "-5,..." would parse as a flag without the "=" form.
            argv.append("--payoff=" + ",".join(str(x) for x in self.payoff))
        return argv


def draw_market(rng: random.Random, kind: str, b: int, n: int) -> Market:
    """Viable market of the given kind.

    * generic: random payoffs, rhs = payoffs @ q for a strictly positive q;
    * dependent: as generic, but the last asset pays the sum of the first
      two, so the measure polytope has higher dimension and smaller vertex
      supports;
    * centred: one or two outcomes pay exactly rhs and the others come in
      pairs reflected through it, so unit and two-point measures are
      generators and many faces are underdetermined.
    """
    rate = Fraction(rng.randint(0, 10), 100)
    if kind == "centred":
        centre = [rng.randint(-3, 3) for _ in range(n)]
        cols = [centre] * (2 - b % 2)
        while len(cols) < b:
            a = [c + rng.randint(-6, 6) for c in centre]
            cols += [a, [2 * c - x for c, x in zip(centre, a)]]
        rng.shuffle(cols)
        payoffs = tuple(tuple(col[i] for col in cols) for i in range(n))
        return Market(kind, rate, payoffs, tuple(Fraction(c) for c in centre))
    rows = [[rng.randint(-PAYOFF_BOUND, PAYOFF_BOUND) for _ in range(b)] for _ in range(n)]
    if kind == "dependent" and n >= 3:
        for j in range(b):
            x = rng.randint(-PAYOFF_BOUND, PAYOFF_BOUND)
            y = rng.randint(max(-PAYOFF_BOUND, -PAYOFF_BOUND - x),
                            min(PAYOFF_BOUND, PAYOFF_BOUND - x))
            rows[0][j], rows[1][j], rows[n - 1][j] = x, y, x + y
    weights = [rng.randint(1, 9) for _ in range(b)]
    total = sum(weights)
    rhs = tuple(Fraction(sum(r * w for r, w in zip(row, weights)), total) for row in rows)
    return Market(kind, rate, tuple(tuple(row) for row in rows), rhs)


def _facewalk_item(rng: random.Random, index: int, b: int, n: int) -> FacewalkItem:
    command = FACEWALK_COMMANDS[index % len(FACEWALK_COMMANDS)]
    market = draw_market(rng, FACEWALK_KINDS[index % len(FACEWALK_KINDS)], b, n)
    payoff = None
    if command == "bounds":
        payoff = tuple(rng.randint(-5, 5) for _ in range(b))
    return FacewalkItem(index, command, market, payoff)


@dataclass(frozen=True)
class TreeItem:
    """A literal birth-death tree, as ``kkl_build`` would expand it."""

    index: int
    s0: int
    lam: Fraction
    eta: Fraction
    rate: Fraction
    steps: int

    @property
    def dt(self) -> Fraction:
        return Fraction(1, self.steps)

    def transition(self, k: int) -> tuple[Fraction, ...]:
        if k == 0:
            return (Fraction(1),)
        kdt = k * self.dt
        return (self.eta * kdt, 1 - (self.lam + self.eta) * kdt, self.lam * kdt)

    def internal_nodes(self) -> list[tuple[int, str, int]]:
        """(time, node id, state) of every branching node, breadth first."""
        out: list[tuple[int, str, int]] = []
        frontier = [(str(self.s0), self.s0)]
        for t in range(self.steps):
            nxt = []
            for node_id, k in frontier:
                out.append((t, node_id, k))
                kids = (0,) if k == 0 else (k - 1, k, k + 1)
                nxt += [(f"{node_id}.{c}", c) for c in kids]
            frontier = nxt
        return out

    def document(self) -> dict:
        nodes = []
        frontier = [(str(self.s0), self.s0)]
        for t in range(self.steps + 1):
            nxt = []
            for node_id, k in frontier:
                node: dict = {"id": node_id, "time": t, "children": [], "prices": [str(k)]}
                if t < self.steps:
                    kids = (0,) if k == 0 else (k - 1, k, k + 1)
                    ids = [f"{node_id}.{c}" for c in kids]
                    node["children"] = ids
                    node["probabilities"] = [str(p) for p in self.transition(k)]
                    nxt += list(zip(ids, kids))
                nodes.append(node)
            frontier = nxt
        step_rate = str(self.rate * self.dt)
        return {"assets": 1, "rates": [step_rate] * self.steps, "nodes": nodes}

    @property
    def keys(self) -> frozenset:
        step_rate = self.rate * self.dt
        states = {k for _, _, k in self.internal_nodes()}
        return frozenset(
            {("tree", self.s0, self.lam, self.eta, self.rate, self.steps)}
            | {("market", step_rate, k, self.transition(k)) for k in states}
        )

    def argv(self, work: Path) -> list[str]:
        path = work / "tree.json"
        path.write_text(json.dumps(self.document()), encoding="utf-8")
        return ["tree", "complete", str(path), "--json"]


def _tree_item(rng: random.Random, index: int, steps: int, rates: set) -> TreeItem:
    # Every tree gets its own rate, so no component market recurs across
    # trees; the zero state's component depends on nothing else.
    while True:
        rate = Fraction(rng.randrange(1, 10**6), 10**7)
        if rate not in rates:
            rates.add(rate)
            break
    return TreeItem(
        index=index,
        s0=S0_CYCLE[index % len(S0_CYCLE)],
        lam=Fraction(rng.randint(1, 5), 16),
        eta=Fraction(rng.randint(1, 5), 16),
        rate=rate,
        steps=steps,
    )


@dataclass(frozen=True)
class LatticeItem:
    index: int
    s0: int
    lam: Fraction
    eta: Fraction
    rate: Fraction
    emm_p: Fraction
    epsilon: Fraction
    perturb_seed: int
    steps: int

    @property
    def keys(self) -> frozenset:
        return frozenset({("kkl", self.s0, self.lam, self.eta, self.rate, self.emm_p,
                           self.steps)})

    def argv(self, work: Path) -> list[str]:
        return [
            "kkl", "--s0", str(self.s0), "--lambda", str(self.lam),
            "--eta", str(self.eta), "--rate", str(self.rate), "--horizon", "1",
            "--steps", str(self.steps), "--emm-p", str(self.emm_p),
            "--epsilon", str(self.epsilon), "--seed", str(self.perturb_seed),
            "--out", str(work / "surface.csv"), "--json",
        ]


def _lattice_item(rng: random.Random, index: int, steps: int, used: set) -> LatticeItem:
    # Fixed denominators keep the numbers' bit sizes alike from op to op.
    s0 = S0_CYCLE[index % len(S0_CYCLE)]
    while True:
        lam = Fraction(rng.randint(1, 6), 32)
        eta = Fraction(rng.randint(1, 6), 32)
        rate = Fraction(rng.randrange(1, 10, 2), 64)
        emm_p = Fraction(rng.randrange(1, 8, 2), 8)
        if (s0, lam, eta, rate, emm_p) not in used:
            used.add((s0, lam, eta, rate, emm_p))
            break
    return LatticeItem(index, s0, lam, eta, rate, emm_p, LATTICE_EPSILON,
                       rng.randrange(1 << 30), steps)


# Timed ops per run at most: several times what a run needs today, so a
# faster library still fills --seconds.
POOL_SIZES = {"facewalk": 600, "tree": 200, "lattice": 200}


def _streams(name: str, seed: int) -> tuple[random.Random, random.Random]:
    return random.Random(f"{name}:{seed}:timed"), random.Random(f"{name}:{seed}:warmup")


def pool(name: str, seed: int) -> list:
    """Timed op items for one run, in the order they are issued."""
    rng = _streams(name, seed)[0]
    size = POOL_SIZES[name]
    if name == "facewalk":
        return [_facewalk_item(rng, i, FACEWALK_OUTCOMES, FACEWALK_ASSETS)
                for i in range(size)]
    used: set = set()
    if name == "tree":
        return [_tree_item(rng, i, TREE_STEPS, used) for i in range(size)]
    return [_lattice_item(rng, i, LATTICE_STEPS, used) for i in range(size)]


def warmup(name: str, seed: int) -> list:
    """Small inputs that touch every code path the timed ops use."""
    rng = _streams(name, seed)[1]
    if name == "facewalk":
        return [_facewalk_item(rng, i, WARMUP_OUTCOMES, WARMUP_ASSETS)
                for i in range(len(FACEWALK_COMMANDS))]
    used: set = set()
    if name == "tree":
        return [_tree_item(rng, i, WARMUP_TREE_STEPS, used) for i in range(2)]
    return [_lattice_item(rng, i, WARMUP_LATTICE_STEPS, used) for i in range(2)]
