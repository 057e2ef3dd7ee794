"""Spans around calls into the library's layers, installed from outside.

`Tracer.install` replaces each traced function with a timing wrapper in its
defining module and in every package module that imported it by name (for
example `report.geom_report`), so calls made through either name are seen.
Spans (name, start, end, parent) stay in memory; `write` saves them and
`layer_metrics` turns them into per-function call counts and self times.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# module -> functions whose calls become spans.  "Class.method" names a method.
SPANNED = {
    "cli": ("main",),
    "report": ("analyze", "render_json"),
    "catalog": ("CatalogEntry.group",),
    "groups": (
        "group_from_json", "close_group", "character_norm", "find_reflections",
        "invariant_hermitian",
    ),
    "schur": (
        "character_profile", "schur_index", "classify_character_field",
        "bilinear_type", "gcd_kernel_shortcut",
    ),
    "lattices": ("invariance_check", "lattice_from_generators", "lattice_index"),
    "forge": (
        "construct_rank_n", "extend_rank_2n", "orbit_lattice_over_order",
        "order_saturate", "split_as_order_module",
    ),
    "reflections": (
        "geom_report", "choose_generating_reflections", "line_lattice_decomposition",
        "isogeny_graph", "scan_cycle_multipliers", "cm_detect",
    ),
    "quaternion": (
        "build_quat_torus", "torus_endomorphisms", "imaginary_quadratic_subfield",
        "ratl_verdict",
    ),
    "linalg": ("rref", "hnf_with_transform"),
}

# Calls that are only counted, because there are too many to span cheaply.
COUNTED = {
    "cyclotomic.CycNum.constructed": ("cyclotomic", "CycNum.__init__"),
    "reflections.cycle_multiplier.calls": ("reflections", "cycle_multiplier"),
}

# Functions whose calls are divided by the number of analyses (report.analyze).
PER_INPUT = (
    "groups.find_reflections",
    "schur.classify_character_field",
    "reflections.scan_cycle_multipliers",
)

MATRICES_COUNT = "lattices.invariance_check.matrices"

PACKAGE = "invlat"


def spanned_names():
    return [f"{mod}.{fn}" for mod, fns in SPANNED.items() for fn in fns]


def metric_units():
    """Every per-layer metric this module emits, with its unit."""
    out = {}
    for name in spanned_names():
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    for name in COUNTED:
        out[name] = "count"
    out[MATRICES_COUNT] = "count"
    for name in PER_INPUT:
        out[f"{name}.per_input"] = "calls/input"
    return out


def _resolve(module, qualname):
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names = spanned_names()  # span name id -> name
        self.missing = []  # traced names the package does not define
        self.spans = []  # [name id, start, end, parent span index or -1]
        self.counts = dict.fromkeys(COUNTED, 0)
        self.counts[MATRICES_COUNT] = 0
        self._stack = []
        self._undo = []  # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn):
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts
        count_matrices = name == "lattices.invariance_check"
        if count_matrices:
            signature = inspect.signature(fn)
            matrices = list(signature.parameters)[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_matrices:
                bound = signature.bind(*args, **kwargs)
                given = tuple(bound.arguments[matrices])
                bound.arguments[matrices] = given
                counts[MATRICES_COUNT] += len(given)
                args, kwargs = bound.args, bound.kwargs
            index = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def _replace(self, modules, owner, attr, original, wrapper):
        targets = [(owner, attr)]
        for mod in modules:
            targets += [(mod, key) for key, value in vars(mod).items()
                        if value is original and (mod, key) != (owner, attr)]
        for obj, key in targets:
            self._undo.append((obj, key, original))
            setattr(obj, key, wrapper)

    def _find(self, mod_name, qualname):
        """(owner, attribute, function) of a traced name, or None if the package lacks it."""
        try:
            owner, attr = _resolve(sys.modules[f"{PACKAGE}.{mod_name}"], qualname)
            return owner, attr, getattr(owner, attr)
        except (KeyError, AttributeError):
            self.missing.append(f"{mod_name}.{qualname}")
            return None

    def install(self):
        """Wrap every traced name; names the package lacks report zero calls."""
        prefix = PACKAGE + "."
        modules = [m for name, m in sys.modules.items() if name.startswith(prefix)]
        for mod_name, qualnames in SPANNED.items():
            for qualname in qualnames:
                found = self._find(mod_name, qualname)
                if found:
                    self._replace(modules, *found,
                                  self._spanned(f"{mod_name}.{qualname}", found[2]))
        for metric, (mod_name, qualname) in COUNTED.items():
            found = self._find(mod_name, qualname)
            if found:
                self._replace(modules, *found, self._counted(metric, found[2]))

    def uninstall(self):
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """calls and self_s per spanned function, counts, and per-input ratios."""
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        covered = [0.0] * len(self.spans)
        for _name_id, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name_id, start, end, parent) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += end - start - covered[index]
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counts)
        analyses = calls["report.analyze"]
        for name in PER_INPUT:
            out[f"{name}.per_input"] = calls[name] / analyses if analyses else 0.0
        return out

    def write(self, path):
        """Save spans as tab-separated name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name_id, start, end, parent in self.spans:
                fh.write(f"{self.names[name_id]}\t{start!r}\t{end!r}\t{parent}\n")
