"""Per-layer spans installed from outside the library.

``install()`` wraps each traced function and puts the wrapper in place of the
original, by object identity, in every ``siegelkit.*`` module namespace.  The
library binds many names with ``from ... import`` (``generaltype``, ``hodge``,
``cli`` and ``fourier`` hold their own references to ``moebius_act``,
``borel_embed`` and friends), so patching only the defining module would miss
those calls.  The ``NAMED_FORM_EVIDENCE`` pipelines are wrapped in place too.

A span's self time is its duration minus the time of the child spans it
covers.  Spans are aggregated in memory per name: calls, self seconds and the
number of calls that raised.
"""

import importlib
import sys
import time

TRACED = {
    "exact": ("mat_mul", "det", "inverse"),
    "symplectic": ("is_symplectic", "random_symplectic"),
    "siegelspace": ("moebius_act", "cocycle", "borel_embed"),
    "hodge": ("hodge_metric_matrix", "hodge_metric_tangent", "kahler_einstein_check",
              "higgs_curvature_identity_check"),
    "fourier": ("symmetry_check", "siegel_phi", "is_cusp_level1", "decay_check"),
    "thetaforms": ("theta_constant", "short_vectors", "lattice_theta_coefficients", "chi10",
                   "chi18"),
    "toroidal": ("verify_divisor_pullback", "principal_cone_fixture"),
    "generaltype": ("certify",),
    "cli": ("main",),
}
EVIDENCE_FORMS = ("chi10", "chi18", "schottky")
SPAN_NAMES = ([f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
              + [f"generaltype.evidence.{form}" for form in EVIDENCE_FORMS])


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0] for name in SPAN_NAMES}   # calls, self_s, raised
        self.stack = [0.0]          # child time covered, one slot per open span
        self.kept = []              # (lattice, bound, vectors) per short_vectors cache miss
        self._undo = []

    def wrap(self, name, func):
        stat = self.stats[name]
        stack = self.stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return func(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                duration = clock() - start
                stat[0] += 1
                stat[1] += duration - stack.pop()
                stack[-1] += duration

        return span

    def _wrap_short_vectors(self, name, func):
        span = self.wrap(name, func)

        def counted(lattice, bound):
            misses = func.cache_info().misses
            vectors = span(lattice, bound)
            if func.cache_info().misses != misses:
                self.kept.append((lattice, bound, vectors))
            return vectors

        return counted

    def install(self):
        """Replace every traced function in every siegelkit module namespace."""
        modules = {mod: importlib.import_module(f"siegelkit.{mod}") for mod in TRACED}
        replace = {}
        for mod, fns in TRACED.items():
            for fn in fns:
                original = getattr(modules[mod], fn)
                make = self._wrap_short_vectors if fn == "short_vectors" else self.wrap
                replace[id(original)] = (original, make(f"{mod}.{fn}", original))
        for name, module in list(sys.modules.items()):
            if name != "siegelkit" and not name.startswith("siegelkit."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    setattr(module, attr, replace[id(value)][1])
                    self._undo.append((module, attr, value))
        table = modules["generaltype"].NAMED_FORM_EVIDENCE
        for form in EVIDENCE_FORMS:
            g, make = table[form]
            table[form] = (g, self.wrap(f"generaltype.evidence.{form}", make))
            self._undo.append((table, form, (g, make)))

    def uninstall(self):
        for target, key, value in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._undo.clear()
