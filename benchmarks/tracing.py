"""Per-layer spans for the traced run, recorded from outside the library.

`Tracer.install` wraps public functions of `quadlie.<module>` and replaces
every binding of each one across the loaded `quadlie.*` modules, because
callers import names directly (`from .linalg import rref`). Methods are
wrapped on their class. Nothing under `src/` changes.

Each wrapped call appends one span (layer, parent span, start, duration) to
flat arrays held in memory; `metrics` derives the per-layer table from them
at the end, and `write_spans` writes them out. A layer's self time is its
span minus the spans of its direct children.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

# (metric prefix, module, class or None, attribute)
LAYERS = (
    ("linalg.rref", "linalg", None, "rref"),
    ("linalg.kernel", "linalg", None, "kernel"),
    ("linalg.Mat.mul", "linalg", "Mat", "__mul__"),
    ("linalg.Mat.init", "linalg", "Mat", "__init__"),
    ("linalg.Subspace.from_rows", "linalg", "Subspace", "from_rows"),
    ("linalg.Subspace.intersect", "linalg", "Subspace", "intersect"),
    ("linalg.inverse", "linalg", None, "inverse"),
    ("linalg.solve", "linalg", None, "solve"),
    ("algebra.jacobi_defect", "algebra", "LieAlgebra", "jacobi_defect"),
    ("algebra.lower_central_series", "algebra", "LieAlgebra",
     "lower_central_series"),
    ("algebra.centre", "algebra", "LieAlgebra", "centre"),
    ("algebra.derived", "algebra", "LieAlgebra", "derived"),
    ("algebra.LieAlgebra.init", "algebra", "LieAlgebra", "__init__"),
    ("forms.invariance_defect", "forms", None, "invariance_defect"),
    ("forms.QuadraticStructure.init", "forms", "QuadraticStructure",
     "__init__"),
    ("forms.is_isometry", "forms", None, "is_isometry"),
    ("forms.lagrangian_complement", "forms", None, "lagrangian_complement"),
    ("forms.orthogonal_complement", "forms", None, "orthogonal_complement"),
    ("tstar.tstar_extend", "tstar", None, "tstar_extend"),
    ("tstar.decompose_as_tstar", "tstar", None, "decompose_as_tstar"),
    ("tstar.find_lagrangian_ideal", "tstar", None, "find_lagrangian_ideal"),
    ("tstar.radical", "tstar", None, "radical"),
    ("doubleext.derivation_space", "doubleext", None, "derivation_space"),
    ("doubleext.derivation_defect", "doubleext", None, "derivation_defect"),
    ("doubleext.skew_defect", "doubleext", None, "skew_defect"),
    ("doubleext.double_extend_1d", "doubleext", None, "double_extend_1d"),
    ("doubleext.centre_formula_1d", "doubleext", None, "centre_formula_1d"),
    ("doubleext.two_step_criterion", "doubleext", None, "two_step_criterion"),
    ("doubleext.build_chain", "doubleext", None, "build_chain"),
    ("doubleext.chain_to_algebra", "doubleext", None, "chain_to_algebra"),
    ("doubleext.fold_chain", "doubleext", None, "fold_chain"),
    ("quadfam.algebra_from_family", "quadfam", None, "algebra_from_family"),
    ("quadfam.validate_family", "quadfam", None, "validate_family"),
    ("convert.all_roads", "convert", None, "all_roads"),
    ("convert.coeffs_to_family", "convert", None, "coeffs_to_family"),
    ("trivector.algebra_from_trivector", "trivector", None,
     "algebra_from_trivector"),
    ("io.load_json", "io", None, "load_json"),
    ("io.algebra_from_obj", "io", None, "algebra_from_obj"),
    ("io.quadratic_to_obj", "io", None, "quadratic_to_obj"),
    ("io.dumps", "io", None, "dumps"),
    ("cli.main", "cli", None, "main"),
)


def _rref_work(m, result):
    return {"cells": m.rows * m.cols, "rows": m.rows, "rank": len(result[1])}


def _mul_work(a, b, result):
    return {"cells": a.rows * a.cols * b.cols}


def _init_work(m, data, result):
    return {"entries": m.rows * m.cols}


def _invariance_work(alg, form, result):
    return {"triples": alg.dim ** 3}


def _derivation_space_work(aq, result):
    return {"unknowns": aq.dim ** 2}


# Work counted at the boundary, from the call's arguments and result, and
# the per-layer metrics made from it.
WORK = {
    "linalg.rref": (_rref_work, ("cells", "rank_per_row")),
    "linalg.Mat.mul": (_mul_work, ("cells",)),
    "linalg.Mat.init": (_init_work, ("entries",)),
    "forms.invariance_defect": (_invariance_work, ("triples",)),
    "doubleext.derivation_space": (_derivation_space_work, ("unknowns",)),
}

# Layers whose rejections are counted: raised exceptions, and for cli.main
# also a non-zero exit code.
ERRORS = ("cli.main", "io.algebra_from_obj", "algebra.LieAlgebra.init",
          "forms.QuadraticStructure.init")


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    out = {}
    for prefix, *_ in LAYERS:
        out[f"{prefix}.calls"] = "count"
        out[f"{prefix}.self_s"] = "s"
        for counter in WORK.get(prefix, (None, ()))[1]:
            out[f"{prefix}.{counter}"] = \
                "ratio" if counter == "rank_per_row" else "count"
        if prefix in ERRORS:
            out[f"{prefix}.errors"] = "count"
    out["trace.wall_ratio"] = "ratio"
    return out


class Tracer:
    def __init__(self):
        self.layer = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.dur = array("d")
        self.stack = [-1]
        self.work = {}
        self.errors = [0] * len(LAYERS)

    def install(self):
        """Wrap every layer function at every binding in quadlie.*."""
        mods = [importlib.import_module(f"quadlie.{m}")
                for m in sorted({m for _, m, _, _ in LAYERS})]
        mods += [m for name, m in list(sys.modules.items())
                 if (name == "quadlie" or name.startswith("quadlie."))
                 and m not in mods]
        for idx, (prefix, modname, owner, attr) in enumerate(LAYERS):
            mod = sys.modules[f"quadlie.{modname}"]
            if owner is not None:
                cls = getattr(mod, owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr,
                            classmethod(self._wrap(idx, raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(idx, raw))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(idx, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def _wrap(self, idx, fn):
        prefix = LAYERS[idx][0]
        layer, parent, start, dur = self.layer, self.parent, self.start, \
            self.dur
        stack, errors, clock = self.stack, self.errors, time.perf_counter
        work = WORK[prefix][0] if prefix in WORK else None
        totals = self.work
        exit_code_errors = prefix == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(dur)
            layer.append(idx)
            parent.append(stack[-1])
            dur.append(0.0)
            stack.append(sid)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[idx] += 1
                raise
            finally:
                dur[sid] = clock() - t0
                stack.pop()
            if work is not None:
                for counter, inc in work(*args, result, **kwargs).items():
                    key = (idx, counter)
                    totals[key] = totals.get(key, 0) + inc
            if exit_code_errors and result:
                errors[idx] += 1
            return result

        return wrapper

    def metrics(self, passes: int) -> dict:
        """Per-pass calls, self time, work counts and rejections."""
        n = len(LAYERS)
        calls = [0] * n
        total = [0.0] * n
        child = array("d", bytes(8 * len(self.dur)))
        for sid, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.dur[sid]
        for sid, idx in enumerate(self.layer):
            calls[idx] += 1
            total[idx] += self.dur[sid] - child[sid]
        out = {}
        for idx, (prefix, *_) in enumerate(LAYERS):
            out[f"{prefix}.calls"] = calls[idx] / passes
            out[f"{prefix}.self_s"] = total[idx] / passes
            got = {c: v for (i, c), v in self.work.items() if i == idx}
            for counter in WORK.get(prefix, (None, ()))[1]:
                if counter == "rank_per_row":
                    rows = got.get("rows", 0)
                    val = got.get("rank", 0) / rows if rows else 0.0
                else:
                    val = got.get(counter, 0) / passes
                out[f"{prefix}.{counter}"] = val
            if prefix in ERRORS:
                out[f"{prefix}.errors"] = self.errors[idx] / passes
        return out

    def write_spans(self, path: str):
        """One line per span: id, parent id, layer, start and duration in
        microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tlayer\tstart_us\tdur_us\n")
            for sid in range(len(self.dur)):
                fh.write(f"{sid}\t{self.parent[sid]}\t"
                         f"{LAYERS[self.layer[sid]][0]}\t"
                         f"{(self.start[sid] - t0) * 1e6:.1f}\t"
                         f"{self.dur[sid] * 1e6:.1f}\n")
