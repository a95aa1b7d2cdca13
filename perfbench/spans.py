"""Per-layer spans and counters, recorded from outside the program.

The tracer wraps functions that the qmoments modules expose and swaps
each wrapper in wherever a module holds a reference to the original, so
calls between modules go through it too.  Each call becomes a span
(function, start, end, parent span); counts of work (nodes, points) and
cache outcomes are taken at the same boundaries.  Nothing under the
package changes, and uninstall() puts every original back.

Layers are the package modules.  ``logscale`` is too cheap to time on its
own; its cost lands in whichever layer called it.  A layer's self time
is the time inside its spans minus the time of the spans they caused.
"""

import json
import time
from collections import defaultdict

import importlib

import numpy as np

LAYERS = ("cli", "quadrature", "_kernels", "_dd", "measures", "qcalc",
          "moments", "roughness")
CLI_FAMILIES = ("vanish", "invariance", "ratio", "pearson", "qderiv",
                "hankel", "gram", "holder")

# Every per-layer metric of a traced run: (name, unit, better).  Counts and
# times are totals over the traced run's fixed work.  Metric names must
# start with a letter or digit, so the _kernels and _dd layers are named
# kernels and dd.
PER_LAYER = (
    ("kernels.gauss_panels.calls", "count", "lower"),
    ("kernels.gauss_panels.nodes", "count", "lower"),
    ("kernels.gauss_panels.s", "s", "lower"),
    ("kernels.gauss_panels.nodes_per_s", "1/s", "higher"),
    ("kernels.weier_sum_u.points", "count", "lower"),
    ("kernels.weier_sum_u.s", "s", "lower"),
    ("kernels.trig_sum_u.s", "s", "lower"),
    ("kernels.bench.gauss_panels.nodes_per_s", "1/s", "higher"),
    ("kernels.bench.weier_sum_u.terms_per_s", "1/s", "higher"),
    ("quadrature.calls", "count", "lower"),
    ("quadrature.s", "s", "lower"),
    ("quadrature.nodes", "count", "lower"),
    ("quadrature.phase_anchors.s", "s", "lower"),
    ("quadrature.cache_hits", "count", "higher"),
    ("quadrature.cache_misses", "count", "lower"),
    ("quadrature.cold_ms.h1", "ms", "lower"),
    ("quadrature.cold_ms.h243", "ms", "lower"),
    ("quadrature.cold_ms.h59049", "ms", "lower"),
    ("quadrature.warm_ms.h59049", "ms", "lower"),
    ("dd.fold_harmonic.calls", "count", "lower"),
    ("dd.fold_harmonic.s", "s", "lower"),
    ("dd.dd_log.points", "count", "lower"),
    ("dd.dd_log.s", "s", "lower"),
    ("measures.eval_density.points", "count", "lower"),
    ("measures.eval_density.s", "s", "lower"),
    ("measures.eval_modulator.s", "s", "lower"),
    ("qcalc.q_pearson_residual.s", "s", "lower"),
    ("qcalc.q_derivative.s", "s", "lower"),
    ("moments.from_quadrature.s", "s", "lower"),
    ("moments.hankel_check.s", "s", "lower"),
    ("moments.gram.s", "s", "lower"),
    ("roughness.holder_estimate.s", "s", "lower"),
    ("roughness.divergence_witness.s", "s", "lower"),
) + tuple(
    (f"cli.family.{fam}.s", "s", "lower") for fam in CLI_FAMILIES
) + (("cli.report.s", "s", "lower"),) + tuple(
    (f"{layer.lstrip('_')}.self_s", "s", "lower") for layer in LAYERS
) + (
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _size(x):
    return int(np.size(x))


# (module, attribute, metric key, work counter, battery family).  The
# family tag attributes a call's whole time to one check family of
# `qmoments all` when the call starts inside run_all and outside any
# other family; the moment-sequence calls that run_all makes directly
# belong to the hankel block.
TARGETS = (
    ("cli", "main", "cli.main", None, None),
    ("cli", "run_all", "cli.run_all", None, None),
    ("cli", "_vanish_cases", "cli.vanish", None, "vanish"),
    ("cli", "_moment_cases", "cli.moments", None, "invariance"),
    ("cli", "_ratio_cases", "cli.ratio", None, "ratio"),
    ("cli", "_pearson_case", "cli.pearson", None, "pearson"),
    ("cli", "_qderiv_case", "cli.qderiv", None, "qderiv"),
    ("cli", "_hankel_cases", "cli.hankel", None, "hankel"),
    ("cli", "_gram_cases", "cli.gram", None, "gram"),
    ("cli", "_holder_cases", "cli.holder", None, "holder"),
    ("cli", "build_report", "cli.report", None, None),
    ("cli", "_emit", "cli.report", None, None),
    ("quadrature", "integrate_moment", "quadrature.call",
     lambda a, r: r.nodes_used, None),
    ("quadrature", "vanishing_integral", "quadrature.call",
     lambda a, r: r.nodes_used, None),
    ("quadrature", "_component_integral", "quadrature.component", None, None),
    ("quadrature", "_phase_anchors", "quadrature.phase_anchors", None, None),
    ("quadrature", "base_moment_closed_form", "quadrature.closed_form", None, None),
    ("quadrature", "modulator_moment_factor", "quadrature.factor", None, None),
    ("_kernels", "gauss_panels", "kernels.gauss_panels",
     lambda a, r: _size(a[0]) * _size(a[2]), None),
    ("_kernels", "weier_sum_u", "kernels.weier_sum_u",
     lambda a, r: _size(a[0]), None),
    ("_kernels", "trig_sum_u", "kernels.trig_sum_u",
     lambda a, r: _size(a[0]), None),
    ("_dd", "fold_harmonic", "dd.fold_harmonic", None, None),
    ("_dd", "dd_log", "dd.dd_log", lambda a, r: _size(a[0]), None),
    ("measures", "eval_density", "measures.eval_density",
     lambda a, r: _size(a[1]), None),
    ("measures", "eval_modulator", "measures.eval_modulator", None, None),
    ("measures", "eval_weight", "measures.eval_weight", None, None),
    ("qcalc", "q_pearson_residual", "qcalc.q_pearson_residual", None, None),
    ("qcalc", "q_derivative", "qcalc.q_derivative", None, None),
    ("moments", "MomentSequence.closed_form", "moments.closed_form", None, "hankel"),
    ("moments", "MomentSequence.from_quadrature", "moments.from_quadrature",
     None, "hankel"),
    ("moments", "hankel_check", "moments.hankel_check", None, "hankel"),
    ("moments", "orthogonal_basis_from_moments", "moments.gram", None, None),
    ("moments", "cross_orthogonality_check", "moments.gram", None, None),
    ("roughness", "holder_estimate", "roughness.holder_estimate", None, None),
    ("roughness", "divergence_witness", "roughness.divergence_witness", None, None),
)


class Tracer:
    def __init__(self):
        self.spans = []           # (key, start, end, parent span index)
        self._stack = []          # [span index, time of child spans]
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)   # outermost calls per key
        self.work = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.family = defaultdict(float)
        self.cache_hits = 0
        self.cache_misses = 0
        self._depth = defaultdict(int)
        self._in_family = 0
        self._undo = []
        self.missing = []

    # -------------------------------------------------------------- install
    def install(self):
        modules = {layer: importlib.import_module(f"qmoments.{layer}") for layer in LAYERS}
        holders = (importlib.import_module("qmoments"),) + tuple(modules.values())
        for mod_name, attr, key, work, family in TARGETS:
            module = modules[mod_name]
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = None if owner is None else vars(owner).get(name)
            if raw is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, mod_name, key, work, family))
                setattr(owner, name, wrapped)
                self._undo.append((owner, name, raw))
                continue
            wrapper = self._wrap(raw, mod_name, key, work, family)
            for holder in holders:
                for hname, value in list(vars(holder).items()):
                    if value is raw:
                        setattr(holder, hname, wrapper)
                        self._undo.append((holder, hname, raw))

    def uninstall(self):
        for holder, name, raw in reversed(self._undo):
            setattr(holder, name, raw)
        self._undo = []

    # ----------------------------------------------------------------- spans
    def _wrap(self, fn, layer, key, work, family):
        cache_info = getattr(fn, "cache_info", None)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            opens_family = (
                family is not None and tracer._in_family == 0
                and tracer._depth["cli.run_all"] > 0
            )
            tracer._in_family += opens_family
            tracer._depth[key] += 1
            hits = cache_info().hits if cache_info else 0
            stack.append([index, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer.spans[index] = (key, start, end, parent)
                tracer.layer_self[layer] += dur - child
                tracer._depth[key] -= 1
                tracer.calls[key] += 1
                if tracer._depth[key] == 0:
                    tracer.seconds[key] += dur
                if opens_family:
                    tracer._in_family -= 1
                    tracer.family[family] += dur
            if cache_info:
                if cache_info().hits > hits:
                    tracer.cache_hits += 1
                else:
                    tracer.cache_misses += 1
            if work is not None:
                tracer.work[key] += int(work(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --------------------------------------------------------------- metrics
    def metrics(self):
        """Per-layer totals, keyed by the names BENCHMARK.json lists."""
        s, n, w = self.seconds, self.calls, self.work
        gp_s = s["kernels.gauss_panels"]
        out = {
            "kernels.gauss_panels.calls": n["kernels.gauss_panels"],
            "kernels.gauss_panels.nodes": w["kernels.gauss_panels"],
            "kernels.gauss_panels.s": gp_s,
            "kernels.gauss_panels.nodes_per_s":
                w["kernels.gauss_panels"] / gp_s if gp_s > 0 else 0.0,
            "kernels.weier_sum_u.points": w["kernels.weier_sum_u"],
            "kernels.weier_sum_u.s": s["kernels.weier_sum_u"],
            "kernels.trig_sum_u.s": s["kernels.trig_sum_u"],
            "quadrature.calls": n["quadrature.call"],
            "quadrature.s": s["quadrature.call"],
            "quadrature.nodes": w["quadrature.call"],
            "quadrature.phase_anchors.s": s["quadrature.phase_anchors"],
            "quadrature.cache_hits": self.cache_hits,
            "quadrature.cache_misses": self.cache_misses,
            "dd.fold_harmonic.calls": n["dd.fold_harmonic"],
            "dd.fold_harmonic.s": s["dd.fold_harmonic"],
            "dd.dd_log.points": w["dd.dd_log"],
            "dd.dd_log.s": s["dd.dd_log"],
            "measures.eval_density.points": w["measures.eval_density"],
            "measures.eval_density.s": s["measures.eval_density"],
            "measures.eval_modulator.s": s["measures.eval_modulator"],
            "qcalc.q_pearson_residual.s": s["qcalc.q_pearson_residual"],
            "qcalc.q_derivative.s": s["qcalc.q_derivative"],
            "moments.from_quadrature.s": s["moments.from_quadrature"],
            "moments.hankel_check.s": s["moments.hankel_check"],
            "moments.gram.s": s["moments.gram"],
            "roughness.holder_estimate.s": s["roughness.holder_estimate"],
            "roughness.divergence_witness.s": s["roughness.divergence_witness"],
            "cli.report.s": s["cli.report"],
        }
        for fam in CLI_FAMILIES:
            out[f"cli.family.{fam}.s"] = self.family[fam]
        for layer in LAYERS:
            out[f"{layer.lstrip('_')}.self_s"] = self.layer_self[layer]
        return out

    def dump(self, path):
        """Write every span as one JSON line: key, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for key, start, end, parent in self.spans:
                fh.write(json.dumps([key, start, end, parent]) + "\n")
