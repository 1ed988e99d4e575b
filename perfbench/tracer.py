"""Per-layer spans recorded around abc2d's public functions.

The tracer replaces module attributes with timing wrappers, from outside the
package: every module of abc2d that holds a reference to a traced function
(``from .specfn import kummer_m`` included) gets the wrapper, so calls between
modules are seen as well as calls from the benchmark.  No file of the program
changes.

Spans stay in memory as flat arrays (name, start, end, parent) and are written
out once, when the run ends.  A layer's self time is its span's duration minus
the part its child spans cover.  A call that re-enters a function already on
the stack (``kummer_m`` applying Kummer's transformation to itself) counts as
part of the outer span, not as a call of its own.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# Traced public functions, by module.  reduction is microseconds per call, so
# it is not traced on its own; its time falls in cli self time.
TARGETS = {
    "specfn": ("ln_gamma", "kummer_m"),
    "bound": ("spectrum", "eval_bound_wavefunction"),
    "scatter": ("sigma_sample", "eval_scattering_field", "sample_scattering_field"),
    "oracle": ("shoot_with_nodes", "quad_norm"),
    "verify": ("check_gamma_identities", "check_gamma_functional",
               "check_kummer_transform", "check_kummer_polynomial",
               "check_shooting", "check_norm_quadrature", "check_degeneracy",
               "check_pde_residual", "check_limits", "check_interference",
               "check_stationary_wave", "shooting_report"),
    "cli": ("main", "run_spectrum", "run_xsection", "run_field", "run_verify"),
}

KUMMER_PATHS = ("poly", "taylor", "asymptotic")


def kummer_classifier(specfn):
    """The path kummer_m(a, b, z) takes, decided from its arguments by the
    loaded program's own rule: its non-positive-integer test and Taylor
    radius are read from ``specfn``, so the counts follow the program (and a
    renamed rule fails at install time instead of misclassifying calls).

    "poly" covers every exact finite sum: a a non-positive integer, z == 0,
    and b - a a non-positive integer after Kummer's transformation.
    """
    is_nonpositive_integer = specfn._is_nonpositive_integer
    radius = specfn._TAYLOR_RADIUS

    def path(a: complex, b: complex, z: complex) -> str:
        a, b, z = complex(a), complex(b), complex(z)
        if z == 0.0 or is_nonpositive_integer(a):
            return "poly"
        if z.real < 0.0:
            a, z = b - a, -z
            if is_nonpositive_integer(a):
                return "poly"
        return "taylor" if abs(z) <= radius else "asymptotic"

    return path


class Tracer:
    """Span recorder; ``install`` wraps the TARGETS of an imported abc2d."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        # Work counts that are not spans: levels requested from spectrum(),
        # eval_bound_wavefunction calls made inside a quad_norm span.
        self.counts = {"bound.spectrum.levels": 0, "oracle.quad_norm.integrand_evals": 0}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, key: str, fn):
        ids = ({p: self._id(f"{key}.{p}") for p in KUMMER_PATHS}
               if key == "specfn.kummer_m" else None)
        own = self._id(key)
        active = self._active
        active[key] = 0
        stack, start, end, parent, name_id = (
            self._stack, self.start, self.end, self.parent, self.name_id)
        counts = self.counts
        kummer_path = self._kummer_path
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[key]:
                return fn(*args, **kwargs)
            if ids is not None:
                name_id.append(ids[kummer_path(*args[:3])])
            else:
                name_id.append(own)
                if key == "bound.spectrum":
                    counts["bound.spectrum.levels"] += args[1]
                elif key == "bound.eval_bound_wavefunction" and active["oracle.quad_norm"]:
                    counts["oracle.quad_norm.integrand_evals"] += 1
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            active[key] = 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                active[key] = 0
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every TARGET in every loaded abc2d module that references it."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "abc2d" or n.startswith("abc2d.")) and m is not None]
        self._kummer_path = kummer_classifier(sys.modules["abc2d.specfn"])
        for mod_name, funcs in TARGETS.items():
            mod = sys.modules[f"abc2d.{mod_name}"]
            for fn_name in funcs:
                original = getattr(mod, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def mark(self) -> tuple[int, dict[str, int]]:
        """A pass boundary: (spans recorded so far, snapshot of the counts)."""
        return len(self.start), dict(self.counts)

    def self_times(self):
        """(name ids, self seconds) of every span, as numpy arrays."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        return np.frombuffer(self.name_id, dtype=np.int32), dur - covered

    def summarize(self, lo: int, hi: int, ids, self_s) -> dict[str, list]:
        """{span name: [calls, self seconds]} over spans lo..hi-1 (one pass)."""
        import numpy as np

        n = len(self.names)
        calls = np.bincount(ids[lo:hi], minlength=n)
        selfs = np.bincount(ids[lo:hi], weights=self_s[lo:hi], minlength=n)
        return {name: [int(calls[i]), float(selfs[i])] for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        """Write every span to a compressed .npz (names, name_id, start, end, parent)."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32))
