"""Layer tracing from outside heatflow.

`Tracer.install()` replaces every public function of heatflow's layer
modules, and every public method of their classes, with a timing wrapper.
A function is rebound in every heatflow module namespace that imported it
(`heatflow.flow.gradient` and `heatflow.hardy.gradient` as well as
`heatflow.mesh.gradient`), so calls are seen whichever name they go
through. `scipy.sparse.linalg.splu` and `cg` are wrapped too: `elliptic`,
`flow` and `gauge` look them up on the module at call time.

Each call records a span (name, start, end, parent) in memory. A span's self
time is its duration minus the durations of the wrapped calls inside it.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import sys
import time

LAYERS = ("mesh", "manifold", "elliptic", "flow", "gauge", "hardy", "lab")

# constructors timed as a layer operation (other __init__ are plain dataclasses)
_TIMED_INIT = {("hardy", "HardyEstimator")}


def _observe_run_flow(counts, traj):
    counts["flow.steps_accepted"] += len(traj.times) - 1


def _observe_descent(counts, frame):
    counts["gauge.descent_iterations"] += frame.iterations


def _observe_fixed_point(counts, cons):
    counts["gauge.fixed_point_iterations"] += cons.iterations


def _observe_cauchy(counts, res):
    counts["flow.certificate_pairs"] += res["pairs"]


def _observe_convexity(counts, rep):
    counts["flow.certificate_pairs"] += len(rep.pairs)


def _observe_cross_term(counts, res):
    counts["flow.certificate_pairs"] += 1


# work counts read off return values, keyed by span name
_OBSERVERS = {
    "flow.run_flow": _observe_run_flow,
    "gauge.minimize_gauge": _observe_descent,
    "gauge.construct_AB": _observe_fixed_point,
    "flow.cauchy_certificate": _observe_cauchy,
    "flow.convexity_report": _observe_convexity,
    "flow.cross_term_check": _observe_cross_term,
}


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self._stack = []
        self.round_starts = []     # span index at which each round begins
        self._round_counts = []    # work counts as each round begins

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def install(self):
        """Wrap heatflow's public names and the scipy solvers they call."""
        import scipy.sparse.linalg as spla

        import heatflow  # noqa: F401  (loads every layer module)

        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"heatflow.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "heatflow" and not mod_name.startswith("heatflow."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

        spla.splu = self.wrap("scipy.splu", spla.splu)
        spla.cg = self._wrap_cg(spla.cg)

    def _wrap_methods(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            timed_init = attr == "__init__" and (layer, cls.__name__) in _TIMED_INIT
            if attr.startswith("_") and not timed_init:
                continue
            if inspect.isfunction(obj) and obj.__module__ == cls.__module__:
                setattr(cls, attr, self.wrap(f"{layer}.{cls.__name__}.{attr}", obj))

    def _wrap_cg(self, cg):
        counts = self.counts

        def count_iteration(xk):
            counts["elliptic.cg_iterations"] += 1

        traced = self.wrap("scipy.cg", cg)

        @functools.wraps(cg)
        def cg_counting(*args, **kwargs):
            if kwargs.get("callback") is None:
                kwargs["callback"] = count_iteration
            return traced(*args, **kwargs)

        return cg_counting

    # -- phases -------------------------------------------------------------------

    def mark_round(self):
        """Spans and counts recorded after this call belong to the next round."""
        self.round_starts.append(len(self.spans))
        self._round_counts.append(collections.Counter(self.counts))

    # -- reduction ----------------------------------------------------------------

    def _self_times(self, lo, hi):
        """Per-name call counts and self times of spans lo..hi-1."""
        child = collections.defaultdict(float)
        for name, start, end, parent in self.spans[lo:hi]:
            if parent >= 0:
                child[parent] += end - start
        calls = collections.Counter()
        self_s = collections.defaultdict(float)
        for k in range(lo, hi):
            name, start, end, _ = self.spans[k]
            calls[name] += 1
            self_s[name] += end - start - child[k]
        return calls, self_s

    def layer_metrics(self):
        """Per-layer metrics: the set-up total plus the mean over the rounds."""
        setup_end = self.round_starts[0] if self.round_starts else len(self.spans)
        bounds = self.round_starts + [len(self.spans)]
        s_calls, s_self = self._self_times(0, setup_end)
        r_calls, r_self = collections.Counter(), collections.defaultdict(float)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            c, s = self._self_times(lo, hi)
            r_calls.update(c)
            for k, v in s.items():
                r_self[k] += v
        n = max(len(self.round_starts), 1)
        setup_counts = self._round_counts[0] if self._round_counts else self.counts
        counts = {k: setup_counts[k] + (self.counts[k] - setup_counts[k]) / n
                  for k in self.counts}
        counts = collections.Counter(counts)

        def calls(*names):
            return sum(s_calls[x] + r_calls[x] / n for x in _expand(names, s_calls, r_calls))

        def self_s(*names):
            return sum(s_self[x] + r_self[x] / n for x in _expand(names, s_self, r_self))

        attempted = calls("flow.step")
        accepted = counts["flow.steps_accepted"]
        return {
            "mesh.build_s": self_s("mesh.build_disk_mesh"),
            "mesh.gradient_calls": calls("mesh.gradient"),
            "mesh.gradient_s": self_s("mesh.gradient"),
            "mesh.perp_gradient_s": self_s("mesh.perp_gradient"),
            "manifold.project_calls": calls("manifold.*.project"),
            "manifold.project_s": self_s("manifold.*.project"),
            "manifold.curvature_flow_term_s": self_s("manifold.*.curvature_flow_term"),
            "manifold.assemble_omega_s": self_s("manifold.assemble_omega"),
            "elliptic.factorizations": calls("scipy.splu"),
            "elliptic.factor_s": self_s("scipy.splu"),
            "elliptic.solve_interior_calls": calls("elliptic.solve_interior"),
            "elliptic.solve_interior_s": self_s("elliptic.solve_interior"),
            "elliptic.cg_solves": calls("scipy.cg"),
            "elliptic.cg_iterations": counts["elliptic.cg_iterations"],
            "elliptic.hodge_decompose_s": self_s("elliptic.hodge_decompose"),
            "elliptic.psi_energy_density_s": self_s("elliptic.psi_energy_density"),
            "flow.steps_attempted": attempted,
            "flow.steps_accepted": accepted,
            "flow.step_acceptance": accepted / attempted if attempted else 0.0,
            "flow.step_s": self_s("flow.step"),
            "flow.cauchy_certificate_s": self_s("flow.cauchy_certificate"),
            "flow.convexity_report_s": self_s("flow.convexity_report"),
            "flow.cross_term_check_s": self_s("flow.cross_term_check"),
            "flow.certificate_pairs": counts["flow.certificate_pairs"],
            "gauge.minimize_gauge_s": self_s("gauge.minimize_gauge"),
            "gauge.descent_iterations": counts["gauge.descent_iterations"],
            "gauge.recover_xi_s": self_s("gauge.recover_xi"),
            "gauge.construct_AB_s": self_s("gauge.construct_AB"),
            "gauge.fixed_point_iterations": counts["gauge.fixed_point_iterations"],
            "gauge.p_structure_s": self_s("gauge.p_structure"),
            "gauge.b_sup_estimate_s": self_s("gauge.b_sup_estimate"),
            "hardy.estimator_build_s": self_s("hardy.HardyEstimator.__init__"),
            "hardy.maximal_calls": calls("hardy.HardyEstimator.maximal"),
            "hardy.maximal_s": self_s("hardy.HardyEstimator.maximal"),
            "hardy.pointwise_lower_bound_check_s": self_s("hardy.pointwise_lower_bound_check"),
            "lab.build_boundary_data_s": self_s("lab.build_boundary_data"),
            "lab.run_scenario_s": self_s("lab.run_scenario"),
            "lab.write_s": self_s("lab.write_trajectory_csv", "lab.write_snapshot"),
        }

    def write(self, path):
        """Write the spans as JSON: one [name, start, end, parent] per span,
        times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"round_starts": self.round_starts, "spans": rows}, fh)


def _expand(patterns, *tables):
    """Span names matching `layer.*.method` patterns, or the names themselves."""
    names = set()
    for pat in patterns:
        if ".*." in pat:
            head, tail = pat.split(".*.")
            for table in tables:
                names.update(k for k in table
                             if k.startswith(head + ".") and k.endswith("." + tail)
                             and k.count(".") == 2)
        else:
            names.add(pat)
    return sorted(names)
