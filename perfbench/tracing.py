"""Outside-in tracing of one process's calls into grrr.

Spans (name, start, end, parent) are recorded by this file's wrappers
around the program's public functions, never inside the program. Each
function is wrapped where its caller looks it up: ``grrr.meta`` and
``grrr.cli`` import what they call by name, so a patch on
``grrr.kernels.integrate_vector`` alone would record nothing. Very hot
functions (``log_beta``, ``split_loglik``) are counted, not spanned.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import subprocess
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

SPAN_FIELDS = ("op", "id", "parent", "name", "start", "end", "cpu")
IMPORT_STARTS = 3     # fresh processes timed by import_times


class NullTracer:
    """What untraced operations use: no spans, no counts."""

    op = None

    @staticmethod
    def span(name, cpu=False):
        return contextlib.nullcontext()

    @staticmethod
    def count(name, n=1):
        pass

    @staticmethod
    def flush():
        pass


class Tracer:
    """Spans and counters of the traced operations, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)   # op id -> counter name -> value
        self.op = None
        self._stack = []
        self._hot = {}

    def flush(self):
        """Fold the hot counters into the counts of the current operation."""
        for name, box in self._hot.items():
            self.counts[self.op][name] += box[0]
            box[0] = 0

    @contextlib.contextmanager
    def span(self, name, cpu=False):
        rec = [self.op, len(self.spans), self._stack[-1] if self._stack else -1,
               name, time.perf_counter(), 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(rec[1])
        c0 = time.process_time() if cpu else 0.0
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            if cpu:
                rec[6] = time.process_time() - c0
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[self.op][name] += n

    @contextlib.contextmanager
    def patched(self):
        """Wrap grrr's public functions where grrr.cli and grrr.meta look
        them up; restore the originals on exit."""
        import grrr.cli as cli
        import grrr.meta as meta
        from grrr.errors import ResourceLimitError
        from grrr.variance import binomial_pmf_window

        def grid_cells(table, kind, zero_correction):
            # The cells make_estimate's exact grid enumerates, computed
            # from the binomial_pmf_window support lengths by its
            # documented rule: boundary tables take corrected
            # proportions, approx falls back to the grid at the boundary.
            if table.double_degenerate and zero_correction == 0.0:
                return 0
            p, q = table.p_hat, table.q_hat
            if table.has_boundary_margin and zero_correction > 0.0:
                c = zero_correction
                p = (table.events_control + c) / (table.n_control + 2 * c)
                q = (table.events_treatment + c) / (table.n_treatment + 2 * c)
            if kind == "exact" or (kind == "approx" and not (0 < p < 1 and 0 < q < 1)):
                return (len(binomial_pmf_window(table.n_control, p)[1])
                        * len(binomial_pmf_window(table.n_treatment, q)[1]))
            return 0

        def estimate(orig):
            def make_estimate(table, spec, zero_correction=0.0, **kw):
                cells = grid_cells(table, spec.kind, zero_correction)
                self.count("variance.estimates")
                try:
                    with self.span("variance.estimate", cpu=True):
                        est = orig(table, spec, zero_correction=zero_correction, **kw)
                except ResourceLimitError:
                    self.count("variance.cell_cap_refusals")
                    raise
                self.count("variance.exact_cells", cells)
                return est
            return make_estimate

        def spanned(name, orig, counter=None):
            def wrapper(*args, **kw):
                if counter:
                    self.count(counter)
                with self.span(name):
                    return orig(*args, **kw)
            return wrapper

        def counted(name, orig):
            # hot paths: a bare closure counter, folded into the current
            # operation's counts by ``flush``
            box = self._hot.setdefault(name, [0])

            def wrapper(*args):
                box[0] += 1
                return orig(*args)
            return wrapper

        fits = ("fit_direct_ml", "fit_direct_dl", "fit_beta_model", "fit_split_lognormal_model")
        orig_cli = {name: getattr(cli, name) for name in
                    ("make_estimate", "confidence_interval", "SplitLognormalApprox", *fits)}
        orig_meta = {name: getattr(meta, name) for name in
                     ("integrate_vector", "minimize", "log_beta", "make_estimate",
                      "split_loglik")}

        def integrate_vector(*args, **kw):
            with self.span("kernels.integrate_vector"):
                out = orig_meta["integrate_vector"](*args, **kw)
            self.count("kernels.quad_calls")
            self.count("kernels.quad_panels", out[3] // 15)   # 15 nodes a panel
            self.count("kernels.quad_unconverged", not out[2])
            return out

        def minimize(f, start, **kw):
            objective = spanned("meta.objective", f, "meta.objective_evals")
            self.count("meta.minimize_runs")
            with self.span("kernels.minimize"):
                return orig_meta["minimize"](objective, start, **kw)

        cli_patch = {
            "make_estimate": estimate(orig_cli["make_estimate"]),
            "confidence_interval": spanned("distribution.confidence_interval",
                                           orig_cli["confidence_interval"], "distribution.cis"),
            "SplitLognormalApprox": types.SimpleNamespace(from_table=spanned(
                "distribution.from_table", orig_cli["SplitLognormalApprox"].from_table)),
            **{name: spanned("meta.fit", orig_cli[name]) for name in fits},
        }
        meta_patch = {
            "integrate_vector": integrate_vector,
            "minimize": minimize,
            "log_beta": counted("kernels.log_beta_calls", orig_meta["log_beta"]),
            "make_estimate": estimate(orig_meta["make_estimate"]),
            "split_loglik": counted("distribution.loglik_calls", orig_meta["split_loglik"]),
        }
        try:
            for name, fn in cli_patch.items():
                setattr(cli, name, fn)
            for name, fn in meta_patch.items():
                setattr(meta, name, fn)
            yield self
        finally:
            for name, fn in orig_cli.items():
                setattr(cli, name, fn)
            for name, fn in orig_meta.items():
                setattr(meta, name, fn)

    # -- derived metrics ----------------------------------------------------

    def _durations(self):
        total, self_time, cpu = Counter(), Counter(), Counter()
        child = Counter()
        for op, sid, parent, name, t0, t1, c in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for op, sid, parent, name, t0, t1, c in self.spans:
            total[name] += t1 - t0
            self_time[name] += t1 - t0 - child[sid]
            cpu[name] += c
        return total, self_time, cpu

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer figures per traced operation."""
        total, self_time, cpu = self._durations()
        counts = Counter()
        for c in self.counts.values():
            counts.update(c)
        evals = counts["meta.objective_evals"]
        panels = counts["kernels.quad_panels"]
        per_op = {
            "cli.parse_s": total["cli.parse"],
            "cli.emit_s": total["cli.emit"],
            "cli.report_bytes": counts["cli.report_bytes"],
            "variance.estimate_s": total["variance.estimate"],
            "variance.estimate_cpu_s": cpu["variance.estimate"],
            "variance.estimates": counts["variance.estimates"],
            "variance.exact_cells": counts["variance.exact_cells"],
            "variance.cell_cap_refusals": counts["variance.cell_cap_refusals"],
            "distribution.ci_s": (total["distribution.from_table"]
                                  + total["distribution.confidence_interval"]),
            "distribution.cis": counts["distribution.cis"],
            "distribution.loglik_calls": counts["distribution.loglik_calls"],
            "meta.fit_s": total["meta.fit"],
            "meta.fit_self_s": self_time["meta.fit"],
            "meta.objective_evals": evals,
            "meta.minimize_runs": counts["meta.minimize_runs"],
            "kernels.quad_calls": counts["kernels.quad_calls"],
            "kernels.quad_panels": panels,
            "kernels.quad_s": total["kernels.integrate_vector"],
            "kernels.quad_unconverged": counts["kernels.quad_unconverged"],
            "kernels.minimize_self_s": self_time["kernels.minimize"],
            "kernels.log_beta_calls": counts["kernels.log_beta_calls"],
        }
        out = {k: v / n_ops for k, v in per_op.items()}
        out["meta.s_per_objective_eval"] = total["meta.objective"] / evals if evals else 0.0
        out["kernels.us_per_panel"] = (1e6 * total["kernels.integrate_vector"] / panels
                                       if panels else 0.0)
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header, span_fields=SPAN_FIELDS, spans=self.spans,
                   counts={str(op): dict(c) for op, c in self.counts.items()})
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def import_times(env: dict) -> dict:
    """Cumulative import times of ``import grrr.cli`` and of scipy.optimize
    inside it, from ``python -X importtime`` in fresh processes (median)."""
    cli_s, scipy_s = [], []
    for _ in range(IMPORT_STARTS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import grrr.cli"],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        top, nested = 0.0, None
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            raw = parts[2][1:]
            name = raw.strip()
            if name in ("grrr", "grrr.cli") and raw == name:
                top += int(parts[1]) / 1e6
            if name == "scipy.optimize":
                nested = int(parts[1]) / 1e6
        if nested is None or top == 0.0:
            raise RuntimeError("importtime output names no grrr.cli or scipy.optimize")
        cli_s.append(top)
        scipy_s.append(nested)
    return {"import.grrr_cli_s": statistics.median(cli_s),
            "import.scipy_optimize_s": statistics.median(scipy_s)}
