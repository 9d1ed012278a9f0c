"""Spans around calls into the library, recorded from outside it.

`Tracer.install` replaces each public function of the chosen uoisched
modules by a timing wrapper, in every module namespace that holds a reference
to it (so a call from `lagrange` into `solvers` is seen), and `uninstall` puts
the originals back.  Spans are kept in memory as
[name, start, end, parent, pass_id, count] lists; `count` is filled from the
call's result for the few functions in COUNTERS.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = (
    "markov",
    "belief_mdp",
    "solvers",
    "lagrange",
    "index_policy",
    "simulate",
    "rng",
    "oracle",
    "config",
    "workflows",
    "cli",
)


def _joint_counts(joint):
    """Size of the joint MDP and the work of one Bellman sweep over it.

    The sweep counts are computed from the CSR arrays, not measured: each
    action does one sparse product (2 flops per nonzero) and cost + beta*Pv
    (2 flops per state); bytes are the CSR arrays, v and cost read and the
    q row written per action, q read again by min and argmin, and the two
    outputs written.
    """
    n, k = joint.n_joint, len(joint.actions)
    nnz = sum(p.nnz for p in joint.transitions)
    csr_bytes = sum(p.data.nbytes + p.indices.nbytes + p.indptr.nbytes for p in joint.transitions)
    return {
        "n_joint": n,
        "nnz": int(nnz),
        "sweep_flops": int(2 * nnz + 2 * k * n),
        "sweep_bytes": int(csr_bytes + 3 * 8 * k * n + 2 * 8 * k * n + 2 * 8 * n),
    }


# Work counts read from a call's result: name -> result -> dict of counts.
COUNTERS = {
    "belief_mdp.build_truncated": lambda mdp: {"n_states": mdp.n_states},
    "lagrange.gradient_search": lambda trace: {"iterations": len(trace.iterates)},
    "oracle.build_joint": _joint_counts,
    "simulate.simulate": lambda res: {
        "bandit_slots": res.n_bandits * res.runs * res.horizon,
        "policy": res.policy,
    },
}


def library_modules():
    return {name: importlib.import_module(f"uoisched.{name}") for name in LAYERS}


def public_functions(modules, only=None):
    """{'layer.function': function} for the public functions each module defines."""
    found = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if only is None or name in only:
                found[name] = obj
    return found


class Tracer:
    """Records one span per call of the wrapped functions."""

    def __init__(self, only=None):
        self.only = only
        self.spans: list[list] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.pass_id, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(result)
            return result

        return wrapper

    def install(self):
        import uoisched

        modules = library_modules()
        targets = public_functions(modules, self.only)
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets.items()}
        for ns in [uoisched, *modules.values()]:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)
        return self

    def uninstall(self):
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()


def pass_summaries(spans):
    """Per pass id: total time and calls per function, self time and calls
    per layer, and the (name, counts, duration) of spans that carry counts.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time sums the self times of its spans.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    out = {}
    for i, s in enumerate(spans):
        p = out.get(s[4])
        if p is None:
            p = out[s[4]] = {
                "total": defaultdict(float),
                "calls": defaultdict(int),
                "self": defaultdict(float),
                "layer_calls": defaultdict(int),
                "counts": [],
            }
        dur = s[2] - s[1]
        layer = s[0].split(".", 1)[0]
        p["total"][s[0]] += dur
        p["calls"][s[0]] += 1
        p["self"][layer] += dur - child_time[i]
        p["layer_calls"][layer] += 1
        if s[5] is not None:
            p["counts"].append((s[0], s[5], dur))
    return out
