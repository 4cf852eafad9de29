"""Customer-value analytics on tree-structured survey ratings.

The package covers the full workflow of competitive customer-value
management: define a value tree (worth-what-paid-for at the root, quality
and price drivers, rated leaf attributes), ingest 1-10 survey ratings, fit
one small linear driver model per internal node, and read the results as
competitive profile tables (impact weights, relative ratings, an overall
CVA score), improvement priorities, loyalty curves, value maps, and NPS.
A seeded market simulator with known planted parameters backs all of it
with testable ground truth.

Typical use::

    import cvmkit

    tree = cvmkit.datasets.automobile_tree()
    sample = cvmkit.datasets.market_survey()
    hierarchy = cvmkit.fit_hierarchy(sample, tree)
    report = cvmkit.competitive_report(sample, hierarchy, target=0.80)
    print(cvmkit.render_report(report))      # or cvmkit.report_records(report)
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# The re-exported submodules, tried in this order.  A public name is declared
# once, in its module's ``__all__``, and its module is imported on first use
# (PEP 562), so ``import cvmkit.cli`` loads only what the CLI needs.
_MODULES = ("errors", "rounding", "rng", "tree", "survey", "regression", "analytics",
            "rendering", "nps", "simulate")


def _submodule(name: str) -> types.ModuleType:
    return importlib.import_module(f".{name}", __name__)


def __getattr__(name: str):
    if name == "__all__":
        value = ["__version__", "datasets"]
        for module in _MODULES:
            value += _submodule(module).__all__
    elif name in _MODULES or name == "datasets":
        module = _submodule(name)
        value = getattr(module, name) if name in module.__all__ else module
    else:
        home = next((m for m in map(_submodule, _MODULES) if name in m.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Loading a submodule binds it on the package, unless the submodule
        # exports its own name: the function nps stays cvmkit.nps.
        if name not in getattr(value, "__all__", ()):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
