"""
The value map
=============

Each supplier plotted by relative quality and relative price
satisfaction (100 = market parity on both axes).  The anti-diagonal
through parity is the fair-value line: above it customers get more than
they pay for, below it less.  Because price is rated as *satisfaction*,
higher is better on both axes.
"""

from cvmkit import datasets
from cvmkit.analytics import relative_rating, value_map
from cvmkit.rendering import render_value_map
from cvmkit.survey import node_mean, split_by_supplier

sample = datasets.market_survey()
tree = sample.tree
quality_node, price_node = tree.children_of(tree.root)


# For every supplier: its mean quality / price satisfaction relative to
# the rest of the market pooled together.
points = []
for supplier in sample.suppliers():
    mine, rest = split_by_supplier(sample, supplier)
    points.append(
        (
            supplier,
            float(relative_rating(node_mean(mine, quality_node).mean,
                                  node_mean(rest, quality_node).mean)),
            float(relative_rating(node_mean(mine, price_node).mean,
                                  node_mean(rest, price_node).mean)),
        )
    )

placed = value_map(points, band=3.0)
print(render_value_map(placed, band=3.0))

for p in placed:
    print(f"{p.supplier:8s} quality {p.relative_quality:5.0f}  "
          f"price {p.relative_price:5.0f}  ->  {p.zone}")
