"""Finite-field kernel for Moebius group orbits, invariant rational functions,
and structured factorization of c*T^(q+1) + d*T^q - a*T - b.

Submodules load on first use (PEP 562): ``orbitfactor.gf``,
``from orbitfactor import gf`` and ``from orbitfactor import *`` each import
only what they name."""

import importlib

from .errors import AlgebraError

__all__ = [
    "AlgebraError",
    "classes",
    "gf",
    "grouporbit",
    "invariants",
    "moebius",
    "structfactor",
    "upoly",
]


def __getattr__(name: str):
    if name in __all__:  # every name but AlgebraError is a submodule
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
