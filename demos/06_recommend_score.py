"""
Net promoter score, and what it hides
=====================================

The 0-10 recommend question banded into promoters (9-10), passives
(7-8) and detractors (0-6); the score is promoter% minus detractor%.
Shown next to the customer-value score (CVA), which comes with drill-down
tables, and contrasted with the top-box trap the score was meant to fix.
"""

from cvmkit import datasets
from cvmkit.analytics import retention_projection, top_box_rate
from cvmkit.nps import nps_vs_cva_report
from cvmkit.rendering import render_nps_vs_cva

# The score's segments, then side by side with CVA.  The score is one
# number; the value model tells you which lever to pull when the number
# disappoints.  The report splits the survey into the own customers and
# the rest, and fits the value tree, itself.
comparison = nps_vs_cva_report(datasets.market_survey())
print(render_nps_vs_cva(comparison))

# The classic top-box trap: fold the top two boxes of a 4-point scale
# together and a mediocre base reads as "95% satisfied".
answers = ["excellent"] * 35 + ["good"] * 60 + ["fair"] * 4 + ["poor"]
print(f"top-two-box satisfaction: {top_box_rate(answers, ['good', 'excellent']):.0f}%")
print("  ...even though only 35% sit in the box that predicts loyalty")

# Why the distinction matters: retention compounds.  Keep 90% of 1200
# customers a year and fewer than 500 remain after nine years.
for years in (3, 6, 9):
    left = retention_projection(1200, 0.9, years)
    print(f"after {years} years at 90% retention: {left:7.1f} customers")
