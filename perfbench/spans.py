"""Outside-in span recorder for the traced benchmark run.

Spans are taken at the public functions of each orbitfactor module by
replacing the module or class attribute with a timing wrapper.  Every
module reaches its siblings as ``from . import x`` and calls ``x.f(...)``,
and calls inside a module go through the module's globals, so a patched
attribute sees every call.  ``FieldElem`` arithmetic is never wrapped: it
runs millions of times per workload and the wrapper would dominate.

Spans live in flat arrays until the run ends; self time (duration minus the
time covered by child spans) is computed afterwards.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

# layer -> public functions and methods, as "<module>.<attribute path>"
LAYERS = {
    "gf": ["gf.field_create", "gf.extend", "gf.extension_of", "gf.least_irreducible",
           "gf.FieldCtx.tables", "gf.minimal_poly"],
    "upoly": ["upoly.Poly.__mul__", "upoly.Poly.__divmod__", "upoly.powmod", "upoly.gcd",
              "upoly.factorize", "upoly.least_degree_factor", "upoly.is_irreducible",
              "upoly.roots_in"],
    "moebius": ["moebius.Moebius.order", "moebius.Moebius.fixed_points",
                "moebius.Moebius.lift_to"],
    "grouporbit": ["grouporbit.generate", "grouporbit.full_pgl",
                   "grouporbit.orbit_decomposition", "grouporbit.riemann_hurwitz_audit",
                   "grouporbit.a5_subgroup"],
    "invariants": ["invariants.orbit_polynomial", "invariants.invariant_generator",
                   "invariants.pgl_generator"],
    "structfactor": ["structfactor.factor_by_orbit", "structfactor.factor_general_k",
                     "structfactor.root_extension", "structfactor.connected_centralizer",
                     "structfactor.lambda_family_report"],
    "classes": ["classes.conjugacy_classes", "classes.class_of", "classes.class_of_lambda",
                "classes.lang_solve"],
    "cli": ["cli.run"],
}
SPAN_NAMES = [name for names in LAYERS.values() for name in names]

# spans whose arguments are remembered, to count calls a cache could have saved
ARG_KEYS = {
    "gf.extend": lambda base, h, *rest, **kw: (base, h),
    "invariants.orbit_polynomial": lambda G: G,
}

ROOT = "op"


class Recorder:
    """Wraps the named functions of the ``orbitfactor`` package and records
    one span per call while enabled."""

    def __init__(self, names=SPAN_NAMES):
        self.names = [ROOT] + list(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.stack: list[int] = []
        self.enabled = False
        self.missing: list[str] = []
        self.seen = {name: set() for name in ARG_KEYS}
        self.repeats = {name: 0 for name in ARG_KEYS}
        self._saved: list[tuple] = []

    # -- patching ------------------------------------------------------------

    @staticmethod
    def _resolve(name: str):
        """(owner, attribute) for "<module>.<attribute path>", or None when
        the function does not exist (or is only inherited)."""
        module, *path = name.split(".")
        owner = importlib.import_module(f"orbitfactor.{module}")
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
        if owner is None or not callable(vars(owner).get(path[-1])):
            return None
        return owner, path[-1]

    def install(self) -> None:
        """Replace every named function that exists; the rest are missing."""
        for name in self.names[1:]:
            found = self._resolve(name)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr = found
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        ident = self.index[name]
        key_of = ARG_KEYS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if key_of is not None:
                self._note_args(name, key_of(*args, **kwargs))
            slot = self._open(ident)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self._close(slot, clock(), failed)

        return wrapper

    def _note_args(self, name: str, key) -> None:
        seen = self.seen[name]
        if key in seen:
            self.repeats[name] += 1
        else:
            seen.add(key)

    def _open(self, ident: int) -> int:
        slot = len(self.name_of)
        self.name_of.append(ident)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.failed.append(0)
        self.stack.append(slot)
        self.start.append(time.perf_counter())
        return slot

    def _close(self, slot: int, end: float, failed: bool) -> None:
        self.end[slot] = end
        self.failed[slot] = failed
        self.stack.pop()

    @contextmanager
    def root(self):
        """One span around a whole benchmark operation."""
        slot = self._open(0)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(slot, time.perf_counter(), failed)

    @contextmanager
    def paused(self):
        """Calls made inside (such as correctness checks) record nothing."""
        before, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = before

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self time in seconds, and calls that raised."""
        n = len(self.name_of)
        child = [0.0] * n
        for i in range(n):
            parent = self.parent[i]
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name_of[i]]]
            entry["calls"] += 1
            entry["self_s"] += self.end[i] - self.start[i] - child[i]
            entry["errors"] += self.failed[i]
        return {
            "spans": out,
            "repeats": {name: [out[name]["calls"], self.repeats[name]]
                        for name in ARG_KEYS if name in out},
            "missing": list(self.missing),
        }
