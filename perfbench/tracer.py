"""Spans around the public functions of each xyzring layer, recorded from
the benchmark's own files.

`Tracer.install()` wraps every public function defined in the layer
modules and rebinds it in every xyzring namespace that holds it, the
`from ... import` names of `cli`, `checks`, `ed`, `mps` and `entanglement`
included.  (`checks` keeps its registered checks in a list, which is left
alone: their bodies count as the self time of `checks.run_verify`.)
Spans (name, parent, start, end) are kept in memory in flat arrays and
reduced when a pass ends; nothing is written during a pass.

Besides spans the tracer counts, at the same boundaries: exceptions and
non-finite results of the oracles, RuntimeWarnings by the innermost
layer that raised them, eigensolver calls made under an `ed` span with
their dimension, and the computed bytes of dense Hamiltonian assembly.
"""

import functools
import inspect
import sys
import time
import warnings
from array import array
from collections import Counter

import numpy as np

LAYERS = ("model", "mps", "parent", "observables", "entanglement", "ed", "checks", "cli")
ED = LAYERS.index("ed")
# results that must be finite: a NaN or inf here is a failed call
FINITE_RESULT = {
    "mps.expectation_one_point",
    "mps.expectation_two_point",
    "entanglement.pair_density",
    "entanglement.wootters_concurrence",
}
EIGENSOLVERS = {
    "numpy.linalg": ("eigh", "eigvalsh", "eig", "eigvals"),
    "scipy.linalg": ("eigh", "eigvalsh", "eig", "eigvals", "eigh_tridiagonal"),
    "scipy.sparse.linalg": ("eigsh", "eigs", "lobpcg"),
}

# (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    [("parent.assemble_chain_h." + s, u) for s, u in (("calls", "count"), ("s", "s"), ("bytes", "B"))]
    + [("ed.dense_spectrum.calls", "count"), ("ed.dense_spectrum.s", "s"),
       ("ed.dense_spectrum.dim_max", "count"),
       ("ed.ground_membership.calls", "count"), ("ed.ground_membership.self_s", "s"),
       ("ed.eigensolve.calls", "count"), ("ed.eigensolve.dim_max", "count"),
       ("ed.eigh_per_point", "1/point"),
       ("ed.state_expectation_one.s", "s"), ("ed.state_expectation_two.s", "s")]
    + [(f"mps.{f}.{s}", u) for f in ("build_state", "explicit_ground_state")
       for s, u in (("calls", "count"), ("s", "s"))]
    + [(f"{f}.{s}", u)
       for f in ("mps.expectation_one_point", "mps.expectation_two_point",
                 "entanglement.pair_density", "entanglement.wootters_concurrence")
       for s, u in (("calls", "count"), ("s", "s"), ("fail", "count"))]
    + [(f"{f}.{s}", u)
       for f in ("observables.observable_record", "observables.magnetization_x",
                 "entanglement.concurrence_closed")
       for s, u in (("calls", "count"), ("s", "s"))]
    + [("cli.main.self_s", "s"), ("checks.run_verify.self_s", "s"), ("model.s", "s")]
    + [(f"{layer}.warnings", "count") for layer in LAYERS]
    + [("trace.overhead_frac", "fraction")]
)


def _finite(result):
    value = getattr(result, "c", result)  # ConcurrenceResult carries c
    return bool(np.all(np.isfinite(value)))


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


class Tracer:
    def __init__(self):
        self.names, self.layer_of = [], []
        self.name, self.parent = array("i"), array("i")
        self.t0, self.t1 = array("d"), array("d")
        self.stack = []
        self.counts, self.maxima, self.warned = Counter(), Counter(), Counter()
        self._wrappers = {}
        self._undo = []

    # ------------------------------------------------------------ install

    def _wrap(self, fn, qualname, layer):
        sid = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        names, parents, t0s, t1s, stack = self.name, self.parent, self.t0, self.t1, self.stack
        counts, clock = self.counts, time.perf_counter
        check = qualname in FINITE_RESULT
        hook = {"parent.assemble_chain_h": self._assembly_bytes,
                "ed.dense_spectrum": self._spectrum_dim}.get(qualname)
        fail_key = qualname + ".fail"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(t0s)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[fail_key] += 1
                raise
            finally:
                t1s[idx] = clock()
                stack.pop()
            if check and not _finite(result):
                counts[fail_key] += 1
            if hook:
                hook(args, kwargs)
            return result

        return wrapper

    def _assembly_bytes(self, args, kwargs):
        # computed, not measured: one dense complex 2^N x 2^N matrix per call
        self.counts["parent.assemble_chain_h.bytes"] += 16 * 4 ** _first_arg(args, kwargs, "p").n

    def _spectrum_dim(self, args, kwargs):
        dim = np.shape(_first_arg(args, kwargs, "h"))[0]
        self.maxima["ed.dense_spectrum.dim_max"] = max(self.maxima["ed.dense_spectrum.dim_max"], dim)

    def _count_eigensolver(self, fn):
        names, layer_of, stack = self.name, self.layer_of, self.stack

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if any(layer_of[names[i]] == ED for i in stack):
                self.counts["ed.eigensolve.calls"] += 1
                dim = np.shape(a)[0]
                self.maxima["ed.eigensolve.dim_max"] = max(self.maxima["ed.eigensolve.dim_max"], dim)
            return fn(a, *args, **kwargs)

        return wrapper

    def _originals(self):
        """{id(function): (function, wrapper)} for every public layer function."""
        if not self._wrappers:
            for layer, short in enumerate(LAYERS):
                mod = sys.modules[f"xyzring.{short}"]
                for attr, obj in vars(mod).items():
                    if (not attr.startswith("_") and inspect.isfunction(obj)
                            and obj.__module__ == mod.__name__):
                        self._wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}", layer))
        return self._wrappers

    def install(self):
        wrappers = self._originals()
        for modname, mod in list(sys.modules.items()):
            if modname != "xyzring" and not modname.startswith("xyzring."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))
        for modname, fns in EIGENSOLVERS.items():
            mod = sys.modules.get(modname)
            for attr in fns if mod is not None else ():
                if hasattr(mod, attr):
                    obj = getattr(mod, attr)
                    setattr(mod, attr, self._count_eigensolver(obj))
                    self._undo.append((mod, attr, obj))

    def uninstall(self):
        while self._undo:
            mod, attr, obj = self._undo.pop()
            setattr(mod, attr, obj)

    # ------------------------------------------------------------ passes

    def traced(self, run):
        """Run `run()` with the wrappers installed and warnings counted;
        returns its result and the reduced spans of the pass."""
        for buf in (self.name, self.parent, self.t0, self.t1):
            del buf[:]
        self.counts.clear()
        self.maxima.clear()
        self.warned.clear()
        self.install()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("always")
                warnings.showwarning = self._on_warning
                result = run()
        finally:
            self.uninstall()
        return result, self._reduce()

    def _on_warning(self, message, category, *args, **kwargs):
        if issubclass(category, RuntimeWarning):
            layer = LAYERS[self.layer_of[self.name[self.stack[-1]]]] if self.stack else "outside"
            self.warned[layer] += 1

    def _reduce(self):
        """Per-function calls, inclusive and self seconds; per-layer totals."""
        k = len(self.names)
        names = np.array(self.name, dtype=np.int64)
        parents = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.t1, dtype=float) - np.array(self.t0, dtype=float)
        nested = parents >= 0
        self_t = dur - np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        layer = np.array(self.layer_of, dtype=np.int64)[names]
        parent_layer = np.where(nested, layer[np.clip(parents, 0, None)], -1)
        top = layer != parent_layer  # outermost span of its layer
        by_name = dict(zip(self.names, zip(
            np.bincount(names, minlength=k).tolist(),
            np.bincount(names, weights=dur, minlength=k).tolist(),
            np.bincount(names, weights=self_t, minlength=k).tolist(),
        )))
        return {
            "functions": by_name,
            "layer_s": {LAYERS[i]: float(dur[top & (layer == i)].sum()) for i in range(len(LAYERS))},
            "layer_self_s": {LAYERS[i]: float(self_t[layer == i].sum()) for i in range(len(LAYERS))},
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "warnings": dict(self.warned),
        }


def per_layer_values(reduced, points):
    """Every PER_LAYER metric except trace.overhead_frac, from one reduced pass."""
    fns, counts, maxima = reduced["functions"], reduced["counts"], reduced["maxima"]
    derived = {
        "parent.assemble_chain_h.bytes": counts.get("parent.assemble_chain_h.bytes", 0),
        "ed.dense_spectrum.dim_max": maxima.get("ed.dense_spectrum.dim_max", 0),
        "ed.eigensolve.calls": counts.get("ed.eigensolve.calls", 0),
        "ed.eigensolve.dim_max": maxima.get("ed.eigensolve.dim_max", 0),
        "ed.eigh_per_point": counts.get("ed.eigensolve.calls", 0) / points if points else 0.0,
        "cli.main.self_s": reduced["layer_self_s"]["cli"],
        "checks.run_verify.self_s": reduced["layer_self_s"]["checks"],
        "model.s": reduced["layer_s"]["model"],
    }
    derived.update({f"{layer}.warnings": reduced["warnings"].get(layer, 0) for layer in LAYERS})
    out = {}
    for name, _unit in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name != "trace.overhead_frac":
            fn, _, stat = name.rpartition(".")
            calls, incl, self_s = fns.get(fn, (0, 0.0, 0.0))
            out[name] = {"calls": calls, "s": incl, "self_s": self_s,
                         "fail": counts.get(fn + ".fail", 0)}[stat]
    return out
