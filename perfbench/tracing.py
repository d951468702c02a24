"""Per-module spans for the traced benchmark run.

The tracer wraps the public functions of each prodfree module, in every
module namespace that binds them, so the program source stays untouched.
A wrapped call records a span (name, start, end, parent span, job id) while
a job is running and passes straight through otherwise, so the benchmark's
own output checks are never traced.  Spans stay in memory until the run
ends; per pass the tracer reports each module's self time per job, and
call counts and the counters below, all read from the arguments and
results of the wrapped calls.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = (
    "words", "sets", "density", "productfree",
    "proofkit", "constructions", "search", "cli",
)

# Per-word and per-value helpers: their call counts would swamp the spans.
SKIP = {
    "words": {"rank", "unrank", "concat", "is_prefix", "is_suffix", "reversed_rank"},
    "density": {"frac_str"},
    "proofkit": {"exceeds_phi"},
}

# Counters each module reports besides self_s and calls.
COUNTERS = {
    "words": ("words_parsed",),
    "sets": ("dfa_states_out", "layers_swept"),
    "density": ("windows_computed", "exact_limits"),
    "productfree": ("product_free", "witnesses"),
    "proofkit": ("windows_probed", "probes_qualified"),
    "constructions": ("words_inserted",),
    "search": ("nodes", "proved"),
    "cli": ("exit_1",),
}


def _bound_args(sig: inspect.Signature, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count(module: str, name: str, sig, args, kwargs, result, add) -> None:
    """Add the counters one finished call contributes."""
    if module == "words" and name == "read_word_list":
        add("words_parsed", len(result[2]))
    elif module == "sets":
        if type(result).__name__ == "Dfa":
            add("dfa_states_out", result.num_states)
        if name in ("dfa_layer_counts", "dfa_truncate"):
            add("layers_swept", _bound_args(sig, args, kwargs)["horizon"])
        elif name == "dfa_prefix_excluded_count":
            add("layers_swept", _bound_args(sig, args, kwargs)["n"])
    elif module == "density" and name in ("upper_asymptotic", "upper_banach"):
        # Windows whose mean the sweep evaluates, computed from H and the
        # minimum window: H prefixes, or every window of length >= w.
        a = _bound_args(sig, args, kwargs)
        h = a["p"].horizon
        if name == "upper_asymptotic":
            add("windows_computed", h)
        else:
            k = h - a["min_window"] + 1
            add("windows_computed", k * (k + 1) // 2)
        add("exact_limits", int(result.exact))
    elif module == "productfree" and name in ("check_explicit", "check_regular"):
        add("product_free" if result is None else "witnesses", 1)
    elif module == "proofkit" and name == "extract_lsequence":
        probes = result[1].probes
        add("windows_probed", len(probes))
        add("probes_qualified", sum(p.qualifies for p in probes))
    elif module == "constructions" and name == "greedy_random_productfree":
        add("words_inserted", result.total_count())
    elif module == "search" and name == "max_productfree":
        add("nodes", result.nodes)
        add("proved", int(result.proved))
    elif module == "cli" and name == "main":
        add("exit_1", int(result == 1))


class Tracer:
    """Installs the wrappers and keeps spans and counters in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.job: str | None = None
        self.counters: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []
        self._pass_start = 0

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "prodfree" or n.startswith("prodfree.")]
        wrappers = {}
        for module in MODULES:
            mod = sys.modules[f"prodfree.{module}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")
                        and name not in SKIP.get(module, ())):
                    wrappers[id(fn)] = self._wrap(module, name, fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    def _wrap(self, module: str, name: str, fn):
        name_id = len(self.names)
        self.names.append(f"{module}.{name}")
        sig = inspect.signature(fn)
        tracer = self

        def add(counter: str, amount: int) -> None:
            tracer.counters[f"{module}.{counter}"] += amount

        def wrapper(*args, **kwargs):
            job = tracer.job
            if job is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (name_id, start, end, parent, job)
            _count(module, name, sig, args, kwargs, result, add)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- per-pass aggregation ---------------------------------------------

    def begin_pass(self) -> None:
        self._pass_start = len(self.spans)
        self.counters = defaultdict(int)

    def pass_report(self):
        """Self seconds per module for each job, and calls plus counters per
        module, for the spans and counters recorded since begin_pass.  The
        benchmark scales each job's self seconds as it does the job's time."""
        spans = self.spans[self._pass_start:]
        base = self._pass_start
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= base:
                child[parent - base] += end - start
        self_by_job: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        counts = {f"{m}.{c}": 0 for m in MODULES for c in ("calls",) + COUNTERS[m]}
        for i, (name_id, start, end, _, job) in enumerate(spans):
            module = self.names[name_id].split(".", 1)[0]
            self_by_job[job][module] += (end - start) - child[i]
            counts[f"{module}.calls"] += 1
        counts.update(self.counters)
        return self_by_job, counts

    def write_spans(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name_id, start, end, parent, job in self.spans:
                fh.write(json.dumps({
                    "name": self.names[name_id],
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "parent": parent,
                    "job": job,
                }) + "\n")
