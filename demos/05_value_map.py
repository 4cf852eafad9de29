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
from cvmkit.analytics import supplier_value_points, value_map
from cvmkit.rendering import render_value_map

sample = datasets.market_survey()

# For every supplier: its mean quality / price satisfaction relative to
# the rest of the market pooled together.
points = supplier_value_points(sample)

placed = value_map(points, band=3.0)
print(render_value_map(placed, band=3.0))

for p in placed:
    print(f"{p.supplier:8s} quality {p.relative_quality:5.0f}  "
          f"price {p.relative_price:5.0f}  ->  {p.zone}")
