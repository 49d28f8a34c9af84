"""Per-module timings taken from outside the package.

`Tracer.install` replaces each traced public function in every `smdpcheck`
module namespace that binds it, so calls between modules and recursive calls
go through the wrapper; `uninstall` puts the originals back.  Every wrapped
call pushes a frame: a frame's self time is its duration minus the time its
child calls cover.  Functions in SPAN_FUNCTIONS also keep one span each
(name, start, end, parent span, op id) in memory; the hot leaves in
LEAF_FUNCTIONS are only counted and summed.
"""

from __future__ import annotations

import json
import sys
import time

SPAN_FUNCTIONS = (
    "model.parse_model",
    "composition.compose",
    "cylinders.prob_cylinder_paths",
    "cylinders.prob_cylinder_inductive",
    "cylinders.trace_probability",
    "cylinders.word_terms",
    "relations.faster_than_bounded",
    "relations.simulates",
    "relations.bisimilar",
    "monotonicity.check_strong_monotonicity",
    "monotonicity.check_monotonicity_bounded",
    "montecarlo.estimate_cylinder",
    "distributions.dominates",
)
LEAF_FUNCTIONS = (
    "distributions.cdf_eval",
    "distributions.cdf_vec",
    "distributions.pdf_vec",
    "distributions.convolve",
)
TRACED = SPAN_FUNCTIONS + LEAF_FUNCTIONS


class _Frame:
    __slots__ = ("child", "span")

    def __init__(self, span):
        self.child = 0.0
        self.span = span


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name in TRACED}
        self.self_s = {name: 0.0 for name in TRACED}
        self.incl_s = {name: 0.0 for name in TRACED}
        self.laws = 0        # sum of len(word_terms(...))
        self.refuted = 0     # faster_than_bounded verdicts that are Refuted
        self.samples = 0     # samples requested from estimate_cylinder
        self.spans = []      # [name, start, end, parent span index, op id]
        self.op_id = None
        self.enabled = False  # set only while an op runs, so checks go untraced
        self._stack = [_Frame(None)]
        self._patched = []   # (module, attribute, original)

    def _wrap(self, name, fn, keep_span):
        stack, calls, self_s, incl_s, spans = (
            self._stack, self.calls, self.self_s, self.incl_s, self.spans)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = None
            if keep_span:
                span = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1].span, self.op_id])
            frame = _Frame(span if keep_span else stack[-1].span)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[name] += 1
                self_s[name] += dur - frame.child
                incl_s[name] += dur
                stack[-1].child += dur
                if keep_span:
                    spans[span][1] = start
                    spans[span][2] = end
            self._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _observe(self, name, args, kwargs, result):
        if name == "cylinders.word_terms":
            self.laws += len(result)
        elif name == "relations.faster_than_bounded":
            self.refuted += bool(result.refuted)
        elif name == "montecarlo.estimate_cylinder":
            self.samples += int(kwargs["samples"] if "samples" in kwargs else args[4])

    def install(self):
        modules = {n: m for n, m in sys.modules.items()
                   if n == "smdpcheck" or n.startswith("smdpcheck.")}
        for qual in TRACED:
            mod_name, _, attr = qual.partition(".")
            original = getattr(modules[f"smdpcheck.{mod_name}"], attr)
            wrapper = self._wrap(qual, original, qual in SPAN_FUNCTIONS)
            for module in modules.values():
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
