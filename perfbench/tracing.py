"""Spans around the package's public functions, installed from outside.

Modules bind names with ``from .exact import rref``, so a wrapper replaces
the function at every binding site: each ``liecert`` module attribute that
is the function object.  Calls made inside the defining module go through
its own (replaced) global, so every call passes exactly one wrapper.  A span
records its parent, which gives self time (duration minus the time covered
by child spans).  Spans stay in memory and are summarised at the end.
"""

from __future__ import annotations

import sys
import time

# (module, function) pairs that get a span.  The affine bracket and
# Fraction construction are too frequent for a span; the counted run
# (cProfile) gives their exact call counts instead.
TRACED = [
    ("rootsys", "build_root_system"),
    ("chevalley", "build_semisimple"),
    ("chevalley", "killing_form"),
    ("chevalley", "extract_subalgebra"),
    ("qgraded", "enumerate_minimal"),
    ("qgraded", "spans_q"),
    ("qgraded", "certify"),
    ("dercalc", "derivation_space"),
    ("dercalc", "centroid_space"),
    ("dercalc", "verify_aid_eq_inn"),
    ("dercalc", "aid_membership"),
    ("loopalg", "loop_context"),
    ("loopalg", "toral_center_witness"),
    ("loopalg", "aid_obstruction_check"),
    ("loopalg", "global_inner_match"),
    ("loopalg", "bracket_match"),
    ("exact", "rref"),
    ("exact", "kernel_basis"),
    ("exact", "solve"),
    ("exact", "solve_sparse"),
    ("exact", "smith_normal_form"),
]


def _matrix_sizes(args, kwargs, result):
    m = args[0]
    return {"rows": m.rows, "cols": m.cols, "cells": m.rows * m.cols}


def _sparse_sizes(args, kwargs, result):
    rows, _, ncols = args[:3]
    return {"equations": len(rows), "unknowns": ncols, "nonzeros": sum(len(r) for r in rows)}


SIZES = {
    "exact.rref": _matrix_sizes,
    "exact.kernel_basis": _matrix_sizes,
    "exact.solve_sparse": _sparse_sizes,
    "chevalley.build_semisimple": lambda a, k, r: {"ambient_dim": r.dim},
    "qgraded.enumerate_minimal": lambda a, k, r: {"found": len(r)},
}


class Tracer:
    """Records spans while ``active``; otherwise wrappers only pass through."""

    def __init__(self):
        self.active = False
        self.job = None
        self.spans = []  # [name, site, job, parent, start, end, sizes]
        self._stack = []
        self._installed = []  # (module, attribute, original)

    # -- recording -------------------------------------------------------

    def open(self, name: str, site: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, site, self.job, parent, time.perf_counter(), None, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, sizes=None) -> None:
        span = self.spans[idx]
        span[5] = time.perf_counter()
        span[6] = sizes
        self._stack.pop()

    def _wrap(self, fn, name: str, site: str):
        sizes_of = SIZES.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name, site)
            sizes = None
            try:
                result = fn(*args, **kwargs)
                if sizes_of is not None:
                    try:
                        sizes = sizes_of(args, kwargs, result)
                    except (AttributeError, TypeError, IndexError, ValueError):
                        sizes = None  # a changed signature loses the sizes, not the run
                return result
            finally:
                tracer.close(idx, sizes)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "liecert" or name.startswith("liecert."))
        }
        for module, func in TRACED:
            home = modules.get("liecert." + module)
            fn = getattr(home, func, None) if home is not None else None
            if fn is None:
                continue
            name = f"{module}.{func}"
            for mod_name, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        site = mod_name.rpartition(".")[2]
                        self._installed.append((mod, attr, value))
                        setattr(mod, attr, self._wrap(fn, name, site))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()

    # -- summary ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total s (outermost instances), self s and
        summed sizes; per (site, name): calls and summed sizes."""
        child = [0.0] * len(self.spans)
        for name, site, job, parent, start, end, sizes in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for idx, (name, site, job, parent, start, end, sizes) in enumerate(self.spans):
            dur = end - start
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", dur - child[idx])
            outermost = True
            p = parent
            while p >= 0:
                if self.spans[p][0] == name:
                    outermost = False
                    break
                p = self.spans[p][3]
            if outermost:
                add(f"{name}.s", dur)
            site_key = f"{site}.{name.partition('.')[2]}"
            add(f"{site_key}.site_calls", 1)
            for key, value in (sizes or {}).items():
                add(f"{name}.{key}", value)
                add(f"{site_key}.site_{key}", value)
        return out
