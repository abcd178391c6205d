"""Price an unreplicable payoff, then complete the market so prices pin down.

On a viable but incomplete market a payoff generally has a whole interval of
arbitrage-free prices: the discounted values under the generator measures
bound it, and an equivalent measure reaches an endpoint only when the range is
a single price, so one flag tells whether both ends are closed.
"""

from fractions import Fraction

from martpoly import (
    apply_completion,
    characterize,
    complete_market,
    is_complete,
    make_market,
    price_bounds,
)

trinomial = make_market(rate=0, spot=[1], payoffs=[["1/2", "1", "2"]])

digital = [0, 0, 1]  # pays one only in the top outcome
bounds = price_bounds(trinomial, digital)
lo, hi = "[]" if bounds.low_attained_by_emm else "()"
print(f"digital payoff price range: {lo}{bounds.low}, {bounds.high}{hi}")

stock = trinomial.payoffs.row(0)
replicable = price_bounds(trinomial, stock)
print(f"the stock itself prices uniquely at {replicable.low}")

bond = price_bounds(trinomial, [1, 1, 1])
print(f"the sure payoff prices at {bond.low} (pure discounting)\n")

# completing the market: add independent payoff rows until rank b
sparse = make_market(rate=0, spot=[1], payoffs=[[2, 0, 0, 0]])
plan = complete_market(sparse, weights=["1/3", "1/3", "1/3"])
print("assets added to complete the sparse market:")
for row, gen_prices, price in zip(
    plan.added_payoff_rows.entries, plan.price_map, plan.prices
):
    print(
        "   payoffs", tuple(str(x) for x in row),
        "| admissible prices mix", tuple(str(v) for v in gen_prices),
        "| chosen", price,
    )

extended = apply_completion(sparse, plan)
print("extended market complete:", is_complete(extended))
only = characterize(extended).generators.generators[0]
print("its unique measure:", tuple(str(x) for x in only))

# any admissible weights are fine; each choice prices the new assets anew
other = complete_market(sparse, weights=[Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
print("same rows under different weights price at:", [str(p) for p in other.prices])
