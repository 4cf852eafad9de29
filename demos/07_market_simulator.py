"""
The seeded market simulator
===========================

A ground truth plants the value model -- coefficients, leaf means,
noise, a willingness link -- and the generator turns it into a survey
sample, deterministically: same truth, same bytes.  That gives the
statistics something to be checked against.
"""

import dataclasses

from cvmkit import datasets
from cvmkit.regression import fit_hierarchy
from cvmkit.simulate import GroundTruth, generate_market
from cvmkit.tree import parse_tree_spec

tree = parse_tree_spec(
    """\
tree: demo_market
root: value
node: value | Value | root | quality price
node: quality | Quality | attribute |
node: price | Price | attribute |
"""
)

truth = GroundTruth(
    tree=tree,
    name="demo",
    seed=2718,
    own_supplier="us",
    n_per_supplier={"us": 3000, "them": 3000},
    coefficients={"value": {"quality": 0.51, "price": 0.35}},
    intercepts={"value": 0.77},
    leaf_means={
        "us": {"quality": 5.8, "price": 5.2},
        "competitors": {"quality": 5.5, "price": 5.5},
    },
    noise_sd={"value": 0.55, "quality": 1.8, "price": 1.8},
    willingness_link={r: (r - 1) / 9 for r in range(1, 11)},
)

sample = generate_market(truth)
print(f"generated {len(sample)} respondents for {sample.suppliers()}")

# Determinism: regenerating from the same truth gives the same sample;
# changing only the seed gives a different market with the same plan.
assert generate_market(truth) == sample
reseeded = generate_market(dataclasses.replace(truth, seed=99))
assert reseeded != sample
print("same seed -> identical sample; new seed -> new sample")

# The planted coefficients are recoverable from the generated ratings --
# the whole point of simulating: the estimator can be tested against a
# known answer.
fit = fit_hierarchy(sample, tree).models["value"].fit
print(f"planted quality slope 0.51, fitted {fit.coefficients['quality']:.3f}")
print(f"planted price   slope 0.35, fitted {fit.coefficients['price']:.3f}")
print(f"R^2 = {fit.r_squared:.2f} on n = {fit.n}")

# The bundled 2000-respondent fixture was produced exactly this way: a
# calibrated truth (shipped as market_truth.json) regenerates it
# byte-for-byte.  See cvmkit.simulate.calibrate_to_tables for how the
# truth was tuned to land every displayed table cell.
shipped = datasets.market_truth()
regenerated = generate_market(shipped)
print(f"\nbundled truth regenerates {len(regenerated)} respondents "
      f"(seed {shipped.seed})")
