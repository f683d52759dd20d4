"""Per-layer tracing of isoflow from outside the package.

``Tracer.install`` replaces each traced public function at every module
attribute where its callers look it up (``cli`` imports most of them by name,
``flow_ode.estimate_tstar`` finds ``integrate`` in its module globals, and
``run_verification`` finds its checks in two dicts).  Each wrapper records a
span ``[name, start_ns, end_ns, parent, op]`` in memory, plus counts taken
at the same boundary.  ``uninstall`` puts the originals back; ``write``
saves the spans when the run ends.  Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

from isoflow import catalog, cli, closed_form, collapse, embedding, flow_ode, spaceform, verification

_CONSTRUCTORS = (
    "make_euclidean_cylinder", "make_horosphere", "make_hyperbolic_cylinder",
    "make_hyperbolic_umbilic", "make_sphere_product", "make_sphere_umbilic",
    "sphere_curvatures_from_g", "sphere_family_from_kappa1", "surface_from_json",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = {"xi_points": 0, "rhs_calls": 0, "csv_rows": 0, "csv_bytes": 0}
        # layer -> {(op, surface key): (surface dict, t*)}
        self.tstar = {"closed_form": {}, "flow_ode": {}}
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(sid)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter_ns()

    def begin_op(self, name):
        self.op = name
        self._open("op")

    def end_op(self):
        self._close()

    def _wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _patch(self, owner, attr, name, after=None):
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self._wrap(name, original, after)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original, after))
        self._undo.append((owner, attr, original))

    # -- counters taken at the boundaries -------------------------------------

    def _count_xi(self, args, result):
        self.counts["xi_points"] += int(np.size(args[1]))

    def _count_rhs(self, args, result):
        self.counts["rhs_calls"] += int(result.nfev)

    def _count_csv(self, args, result):
        self.counts["csv_rows"] += len(args[0].points)
        self.counts["csv_bytes"] += os.path.getsize(args[1])

    def _record(self, layer):
        def after(args, result):
            surface = args[0].to_dict()
            value = result[0] if isinstance(result, tuple) else getattr(result, "t_star", result)
            key = (self.op, repr(surface))
            self.tstar[layer][key] = (surface, float(value))

        return after

    def install(self):
        patch = self._patch
        patch(cli, "main", "cli.main")
        for attr in _CONSTRUCTORS:
            patch(cli, attr, "catalog.build")
        patch(catalog, "surface_from_dict", "catalog.build")
        for owner in (cli, closed_form):
            patch(owner, "resolve_profile", "closed_form.resolve_profile",
                  self._record("closed_form"))
        patch(closed_form.ClosedFormProfile, "xi", "closed_form.xi", self._count_xi)
        for owner in (cli, flow_ode):
            patch(owner, "estimate_tstar", "flow_ode.estimate_tstar", self._record("flow_ode"))
            patch(owner, "integrate", "flow_ode.integrate")
        patch(flow_ode, "solve_ivp", "flow_ode.solve_ivp", self._count_rhs)
        for owner in (cli, collapse):
            patch(owner, "analyze", "collapse.analyze")
        for owner in (cli, embedding):
            patch(owner, "sample", "embedding.sample")
            patch(owner, "export_csv", "embedding.export_csv", self._count_csv)
            patch(owner, "export_metadata", "embedding.export_metadata")
        for owner in (spaceform, verification):
            patch(owner, "cs_eval", "spaceform.cs_eval")
        for owner in (spaceform, embedding):
            patch(owner, "parallel_point", "spaceform.parallel_point")
            patch(owner, "check_frame", "spaceform.check_frame")
        for table in (verification.INSTANCE_CHECKS, verification.GLOBAL_CHECKS):
            for check in list(table):
                patch(table, check, f"verification.{check}")

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def metrics(self, traced_lat, untraced_mean, layer_errors):
        """Every per-layer metric, per traced op unless its name says otherwise."""
        ops = len(traced_lat)
        total = {}
        calls = {}
        child_ns = [0] * len(self.spans)
        integrate_in_estimate = 0
        for name, start, end, parent, _ in self.spans:
            total[name] = total.get(name, 0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child_ns[parent] += end - start
                if name == "flow_ode.integrate" and self.spans[parent][0] == "flow_ode.estimate_tstar":
                    integrate_in_estimate += 1
        cli_self = sum(
            (end - start) - child_ns[sid]
            for sid, (name, start, end, _, _) in enumerate(self.spans) if name == "cli.main"
        )

        def ms(name):
            return total.get(name, 0) / 1e6 / ops

        def per_op(name):
            return calls.get(name, 0) / ops

        def ratio(a, b):
            return a / b if b else 0.0

        errors = layer_errors(self.tstar)
        m = {
            "cli.self_ms": cli_self / 1e6 / ops,
            "catalog.build_ms": ms("catalog.build"),
            "spaceform.cs_eval_ms": ms("spaceform.cs_eval"),
            "spaceform.parallel_point_ms": ms("spaceform.parallel_point"),
            "spaceform.check_frame_ms": ms("spaceform.check_frame"),
            "closed_form.resolve_profile_calls": per_op("closed_form.resolve_profile"),
            "closed_form.resolve_profile_ms": ms("closed_form.resolve_profile"),
            "closed_form.xi_calls": per_op("closed_form.xi"),
            "closed_form.xi_points_per_call": ratio(self.counts["xi_points"],
                                                    calls.get("closed_form.xi", 0)),
            "closed_form.xi_ms": ms("closed_form.xi"),
            "closed_form.tstar_rel_err_max": errors["closed_form"],
            "flow_ode.estimate_tstar_calls": per_op("flow_ode.estimate_tstar"),
            "flow_ode.estimate_tstar_ms": ms("flow_ode.estimate_tstar"),
            "flow_ode.integrate_calls": per_op("flow_ode.integrate"),
            "flow_ode.integrate_ms": ms("flow_ode.integrate"),
            "flow_ode.integrate_per_estimate": ratio(integrate_in_estimate,
                                                     calls.get("flow_ode.estimate_tstar", 0)),
            "flow_ode.rhs_calls": self.counts["rhs_calls"] / ops,
            "flow_ode.tstar_rel_err_max": errors["flow_ode"],
            "collapse.analyze_calls": per_op("collapse.analyze"),
            "collapse.analyze_ms": ms("collapse.analyze"),
            "embedding.sample_ms": ms("embedding.sample"),
            "embedding.export_csv_ms": ms("embedding.export_csv"),
            "embedding.export_csv_rows_per_s": ratio(
                self.counts["csv_rows"], total.get("embedding.export_csv", 0) / 1e9),
            "embedding.csv_bytes": self.counts["csv_bytes"] / ops,
            "embedding.export_metadata_ms": ms("embedding.export_metadata"),
        }
        for check in list(verification.INSTANCE_CHECKS) + list(verification.GLOBAL_CHECKS):
            m[f"verification.{check}_ms"] = ms(f"verification.{check}")
        traced_mean = sum(traced_lat) / ops
        m["trace.overhead_pct"] = 100.0 * (traced_mean / untraced_mean - 1.0)
        return m

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns,op\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{start},{end},\"{op}\"\n")
