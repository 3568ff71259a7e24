"""Outside-in tracing of localcheb's public functions, for the per-layer metrics.

``Tracer.installed()`` replaces every public function of the six modules in
every localcheb namespace that binds it (``make_rule`` is bound in ``rules``,
``quadrature``, ``cli`` and the package itself), plus three methods:
``CoefficientSet.evaluate``, ``Partition.equispaced`` and
``TestFunction.sampled``, whose result gets a counting evaluator.  Leaving
the context puts every original back.

Calls above the per-node level record a span (name, start, end, parent,
operation id) kept in memory.  Per-node functions, called once per node or
point, keep only a call count and a total self time: every function of
``polynomials`` and the test function's evaluator.  ``clamp_reference`` is
counted only, so its time stays in its caller.  A function's self time is
its duration minus the time of the traced calls made inside it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("polynomials", "rules", "coefficients", "quadrature", "analysis", "cli")
PER_NODE_MODULES = ("polynomials",)
COUNT_ONLY = ("polynomials.clamp_reference",)
METHODS = (
    ("coefficients", "CoefficientSet", "evaluate"),
    ("quadrature", "Partition", "equispaced"),
)
STUDIES = (
    "analysis.coefficient_decay_study",
    "analysis.quadrature_convergence_study",
    "analysis.composite_convergence_study",
)
EVALUATOR = "analysis.evaluator"
# reported as <name>.calls and <name>.self_s
CALLS_AND_SELF_TIME = (
    "rules.make_rule",
    "rules.rule_thetas",
    "coefficients.discrete_coeffs",
    "coefficients.continuous_coeffs",
    "coefficients.CoefficientSet.evaluate",
    "polynomials.affine_map",
    "quadrature.integrate",
    "quadrature.integrate_composite",
    EVALUATOR,
    "analysis.trig_moment",
    "cli.main",
)


def _localcheb_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "localcheb" or name.startswith("localcheb.")]


class Tracer:
    """Spans, call counts, self times and work counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.op_id = -1
        self._stack: list[list[float]] = []  # open calls: [child seconds]
        self._span_stack: list[int] = []  # span indices of the open span calls
        self._built: set = set()

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn, span: bool, on_return=None):
        stack, span_stack, spans = self._stack, self._span_stack, self.spans
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if span:
                parent = span_stack[-1] if span_stack else -1
                index = len(spans)
                spans.append(None)
                span_stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if span:
                    span_stack.pop()
                    spans[index] = (name, start, end, parent, self.op_id)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__bench_traced__ = name
        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__bench_traced__ = name
        return wrapper

    # -- work counters ----------------------------------------------------

    def _on_make_rule(self, args, kwargs, rule):
        self.counts["rules.make_rule.nodes"] += rule.n
        key = (rule.kind, rule.n)
        if key in self._built:
            self.counts["rules.make_rule.repeats"] += 1
        self._built.add(key)

    def _on_coefficients(self, args, kwargs, cs):
        self.counts["coefficients.values"] += len(cs.values)

    def _on_integrate(self, args, kwargs, result):
        self.counts["quadrature.patches"] += 1

    def _on_integrate_composite(self, signature):
        def hook(args, kwargs, result):
            self.counts["quadrature.patches"] += signature.bind(*args, **kwargs).arguments["partition"].pieces
        return hook

    def _on_study(self, args, kwargs, report):
        self.counts["analysis.rows"] += len(report.rows)

    def _hook(self, name: str, fn):
        if name == "rules.make_rule":
            return self._on_make_rule
        if name in ("coefficients.discrete_coeffs", "coefficients.continuous_coeffs"):
            return self._on_coefficients
        if name == "quadrature.integrate":
            return self._on_integrate
        if name == "quadrature.integrate_composite":
            return self._on_integrate_composite(inspect.signature(fn))
        if name in STUDIES:
            return self._on_study
        return None

    # -- patching -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self._counted(name, fn)
        per_node = name.split(".")[0] in PER_NODE_MODULES
        return self._timed(name, fn, span=not per_node, on_return=self._hook(name, fn))

    def _sampled(self, original):
        def sampled(test_function):
            sf = original(test_function)
            return dataclasses.replace(sf, evaluator=self._timed(EVALUATOR, sf.evaluator, span=False))

        sampled.__wrapped__ = original
        sampled.__bench_traced__ = "analysis.TestFunction.sampled"
        return sampled

    @contextlib.contextmanager
    def installed(self):
        """Patch the public functions in; restore every original on exit."""
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"localcheb.{short}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        patched = []
        try:
            for mod in _localcheb_modules():
                for attr, value in list(vars(mod).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        patched.append((mod, attr, value))
                        setattr(mod, attr, hit[1])
            for short, cls_name, attr in METHODS:
                cls = getattr(importlib.import_module(f"localcheb.{short}"), cls_name)
                original = cls.__dict__[attr]
                name = f"{short}.{cls_name}.{attr}"
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(name, original.__func__))
                else:
                    replacement = self._wrap(name, original)
                patched.append((cls, attr, original))
                setattr(cls, attr, replacement)
            test_function = importlib.import_module("localcheb.analysis").TestFunction
            original = test_function.__dict__["sampled"]
            patched.append((test_function, "sampled", original))
            test_function.sampled = self._sampled(original)
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer figures named in BENCHMARK.json, as (value, unit)."""
        c, s, n = self.calls, self.self_s, self.counts
        figures = {}
        for name in CALLS_AND_SELF_TIME:
            figures[f"{name}.calls"] = (c[name], "count")
            figures[f"{name}.self_s"] = (s[name], "s")
        make_rule_calls = c["rules.make_rule"]
        figures.update({
            "rules.make_rule.nodes": (n["rules.make_rule.nodes"], "count"),
            "rules.make_rule.repeat_frac": (
                n["rules.make_rule.repeats"] / make_rule_calls if make_rule_calls else 0.0, "frac"),
            "coefficients.values": (n["coefficients.values"], "count"),
            "polynomials.clamp_reference.calls": (c["polynomials.clamp_reference"], "count"),
            "quadrature.patches": (n["quadrature.patches"], "count"),
            "quadrature.Partition.equispaced.self_s": (s["quadrature.Partition.equispaced"], "s"),
            "analysis.study.calls": (sum(c[name] for name in STUDIES), "count"),
            "analysis.study.self_s": (sum(s[name] for name in STUDIES), "s"),
            "analysis.rows": (n["analysis.rows"], "count"),
            "cli.bytes_out": (n["cli.bytes_out"], "bytes"),
        })
        return figures

    def write(self, path: Path) -> None:
        """Write the spans and totals once, as one JSON document."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "columns": ["name", "start_us", "end_us", "parent", "op"],
            "names": names,
            "spans": [[index[name], round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1),
                       parent, op] for name, start, end, parent, op in self.spans],
            "calls": dict(sorted(self.calls.items())),
            "self_s": dict(sorted(self.self_s.items())),
            "counts": dict(sorted(self.counts.items())),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
