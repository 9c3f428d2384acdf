"""Spans and call counts around finitude's layer functions, from outside.

``Tracer.install()`` replaces each function in ``TRACED`` with a wrapper
at every place a loaded ``finitude`` module binds it: the defining module,
package re-exports, and names brought in by ``from ... import``.  Methods
are wrapped once, on their class.  Each call records a span (name, start,
end, parent span, request id) in memory; ``write()`` saves them when the
run ends and ``per_request()`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (metric prefix, defining module, attribute path)
TRACED = [
    ("parse.parse_expression", "finitude.algebra.parse", "parse_expression"),
    ("poly.resultant_y", "finitude.algebra.poly", "resultant_y"),
    ("poly.discriminant_y", "finitude.algebra.poly", "discriminant_y"),
    ("poly.UnivariatePolynomial.gcd", "finitude.algebra.poly",
     "UnivariatePolynomial.gcd"),
    ("poly.UnivariatePolynomial.resultant", "finitude.algebra.poly",
     "UnivariatePolynomial.resultant"),
    ("poly.squarefree_factorization", "finitude.algebra.poly",
     "squarefree_factorization"),
    ("roots.complex_roots", "finitude.algebra.roots", "complex_roots"),
    ("monodromy.monodromy_group", "finitude.monodromy", "monodromy_group"),
    ("monodromy.singular_points", "finitude.monodromy", "singular_points"),
    ("monodromy.generate_loops", "finitude.monodromy", "generate_loops"),
    ("monodromy.continue_roots", "finitude.monodromy", "continue_roots"),
    ("monodromy.track_to_point", "finitude.monodromy", "track_to_point"),
    ("permgroups.PermGroup.order", "finitude.permgroups", "PermGroup.order"),
    ("permgroups.PermGroup.is_solvable", "finitude.permgroups",
     "PermGroup.is_solvable"),
    ("permgroups.is_k_solvable", "finitude.permgroups", "is_k_solvable"),
    ("puiseux.puiseux_expand", "finitude.puiseux", "puiseux_expand"),
    ("solvability.radicals_verdict", "finitude.solvability.verdicts",
     "radicals_verdict"),
    ("solvability.k_radicals_verdict", "finitude.solvability.verdicts",
     "k_radicals_verdict"),
    ("solvability.radical_tower", "finitude.solvability.towers",
     "radical_tower"),
    ("solvability.ritt_decompose", "finitude.solvability.ritt",
     "ritt_decompose"),
    ("solvability.invertible_by_radicals", "finitude.solvability.verdicts",
     "invertible_by_radicals"),
    ("differential.integrate_rational", "finitude.differential.liouville",
     "integrate_rational"),
    ("differential.LiouvilleForm.derivative",
     "finitude.differential.liouville", "LiouvilleForm.derivative"),
    ("differential.rational_witness_search",
     "finitude.differential.kovacic", "rational_witness_search"),
    ("fuchsian.integrate_along", "finitude.fuchsian", "integrate_along"),
    ("fuchsian.small_norm_verdict", "finitude.fuchsian",
     "small_norm_verdict"),
]

CLI_SELF = "cli.self_s"


def metric_names():
    """Every per-layer metric name, in a fixed order."""
    names = []
    for name, _module, _attr in TRACED:
        names += [f"{name}.calls", f"{name}.self_s"]
    return names + [CLI_SELF]


class Tracer:
    def __init__(self):
        self.names = [name for name, _m, _a in TRACED]
        self.spans = []        # [name index, start, end, parent, request]
        self.requests = []     # [request id, start, end]
        self._stack = []
        self._request = -1

    def _wrap(self, index, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1,
                    self._request]
            sid = len(spans)
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def install(self):
        """Wrap every traced function; finitude must already be imported."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "finitude"
                                         or name.startswith("finitude."))]
        for index, (_name, module_name, attr) in enumerate(TRACED):
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(index, original)
            if path:  # a method: one binding, on its class
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def begin_request(self, request_id, start):
        self._request = request_id
        self.requests.append([request_id, start, None])

    def end_request(self, end):
        self.requests[-1][2] = end
        self._request = -1
        self._stack.clear()

    def per_request(self):
        """Per-layer metrics: calls and self seconds per request."""
        count = max(len(self.requests), 1)
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        child = [0.0] * len(self.spans)
        top_level = 0.0
        for index, start, end, parent, _req in self.spans:
            duration = end - start
            calls[index] += 1
            total[index] += duration
            if parent >= 0:
                child[parent] += duration
            else:
                top_level += duration
        self_time = list(total)
        for sid, span in enumerate(self.spans):
            self_time[span[0]] -= child[sid]
        busy = sum(end - start for _r, start, end in self.requests)
        metrics = {}
        for i, name in enumerate(self.names):
            metrics[f"{name}.calls"] = (calls[i] / count, "calls/req")
            metrics[f"{name}.self_s"] = (self_time[i] / count, "s/req")
        metrics[CLI_SELF] = ((busy - top_level) / count, "s/req")
        return metrics

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names,
                       "span_fields": ["name", "start", "end", "parent",
                                       "request"],
                       "spans": self.spans,
                       "requests": self.requests}, handle)
