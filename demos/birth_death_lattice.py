"""Price and complete a derivative on the integer birth-death lattice.

The price moves up or down by one with intensities proportional to itself, or
stays put; zero absorbs. Every branching node is a trinomial market with
factors (1 - 1/k, 1, 1 + 1/k), so the market is viable but incomplete, and a
strike-one put is the classical candidate for the completing asset. Its exact
payoff fails the completion test high on the grid; an arbitrarily small
rational perturbation of the terminal values repairs it.
"""

from fractions import Fraction

from martpoly import (
    analyze_tree,
    kkl_backward_induction,
    kkl_build,
    kkl_completion_check,
    kkl_grid,
    kkl_node_weights,
    kkl_params,
    kkl_perturb_terminal,
    kkl_viability,
    put_terminal,
)

params = kkl_params(s0=2, lam="1/8", eta="1/8", rate="1/10", horizon=1, steps=4)
levels = kkl_grid(params)
print("grid states per step:", [len(level) for level in levels])
print("viable:", kkl_viability(params))

# the literal event tree agrees, component by component (small steps only:
# the path tree grows like 3^steps)
small = kkl_params(s0=2, lam="1/8", eta="1/8", rate="1/10", horizon=1, steps=2)
report = analyze_tree(kkl_build(small))
print(f"2-step path tree: viable={report.viable} complete={report.complete} "
      f"({len(report.components)} components)")

weights = kkl_node_weights(params, Fraction(1, 2))
surface = kkl_backward_induction(weights, put_terminal(params))
print("\nstrike-1 put values at the first two steps:")
for t in (0, 1):
    row = {k: str(surface.value(t, k)) for k in levels[t]}
    print(f"   t={t}: {row}")

violations = kkl_completion_check(surface)
print(f"\ncompletion check: {len(violations)} violating nodes (put payoff is flat")
print("   across high states, so second differences vanish):", violations[:6], "...")

result = kkl_perturb_terminal(weights, epsilon="1/1000", seed=7)
deviation = max(
    abs(result.terminal[k] - base) for k, base in put_terminal(params).items()
)
print(f"\nperturbed terminal values (attempt {result.attempts}),",
      f"max deviation {deviation} < 1/1000")
print("completion check now:", kkl_completion_check(result.surface))
print("root value moved from", surface.value(0, params.s0),
      "to", result.surface.value(0, params.s0))
