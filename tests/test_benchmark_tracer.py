"""The benchmark tracer (``perfbench/tracer.py``) wraps library entry points
by name and restores them afterwards; renaming a wrapped method breaks the
traced benchmark run, so the round trip is checked here."""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

import expansions

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _attributes():
    """Every attribute of every ``expansions`` module and of the classes they define."""
    owners = [module for name, module in sys.modules.items()
              if module is not None and name.split(".")[0] == "expansions"]
    owners += [value for module in list(owners) for value in vars(module).values()
               if isinstance(value, type) and value.__module__.startswith("expansions")]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_install_and_uninstall_restore_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    before = _attributes()
    tracer.install(expansions)
    try:
        installed = _attributes()
    finally:
        tracer.uninstall()
    assert installed != before
    assert _attributes() == before


def test_tracer_counts_each_norm_taylor_reconstruct_once(monkeypatch):
    # norm-taylor's backward pass is the per-level reconstruct chain, one
    # traced call per level
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install(expansions)
    try:
        expansions.convergent_from_code(expansions.NormTaylorSystem(),
                                        [Fraction(1, 4), Fraction(1, 2), Fraction(-1, 4)])
    finally:
        tracer.uninstall()
    assert tracer.calls["seriessys.reconstruct"] == 3
