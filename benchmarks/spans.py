"""Span recorder for the benchmark's traced runs.

The recorder wraps public functions of `lisa_srl` where they are looked up
(a module or class attribute), so the package itself carries no
instrumentation. Each wrapped call is a span: its inclusive duration, its
self time (duration minus the time its child spans cover), the number of
tape ops recorded inside it, and the calls made to other spans directly
inside it. `restore` puts every original function back.

One span is synthetic: a training step of `pipeline.train` has no function
of its own, so the recorder marks a step from the start of one
`model.loss` call to the start of the next span outside the step (the next
`model.loss`, the epoch's dev decode, or the end of training). The part of
that interval no child span covers is the step's self time: the inline
gradient clip and SGD update, plus loop bookkeeping.
"""

from __future__ import annotations

import time
from collections import defaultdict

STEP_OWNER = "pipeline.train"
STEP_START = "model.loss"
STEP_PARTS = frozenset({"model.loss", "model.reset_gradients", "numerics.backward"})
STEP_SELF = "pipeline.train_step_self"


class _Frame:
    __slots__ = ("name", "child_ns", "step_start", "step_child_ns")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_ns = 0
        self.step_start: int | None = None
        self.step_child_ns = 0


class Spans:
    def __init__(self) -> None:
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.ops_inside: dict[str, int] = defaultdict(int)
        self.calls_inside: dict[tuple[str, str], int] = defaultdict(int)
        self.top_ns = 0
        self.ops = 0
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement(original))

    def span(self, owner, attr: str, name: str) -> None:
        """Time every call of `owner.attr` as the span `name`."""
        self._patch(owner, attr, lambda fn: self._timed(fn, name))

    def count_ops(self, owner, attrs) -> None:
        """Count calls of each op method in `attrs` (no timing)."""
        for attr in attrs:
            self._patch(owner, attr, self._counted)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _counted(self, fn):
        def counted(*args, **kwargs):
            self.ops += 1
            return fn(*args, **kwargs)

        return counted

    def _timed(self, fn, name: str):
        def timed(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is not None and parent.name == STEP_OWNER:
                if name == STEP_START or name not in STEP_PARTS:
                    self._close_step(parent)
                if name == STEP_START:
                    parent.step_start = time.perf_counter_ns()
                    parent.step_child_ns = parent.child_ns
            frame = _Frame(name)
            self._stack.append(frame)
            ops0 = self.ops
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                if name == STEP_OWNER:
                    self._close_step(frame)
                self._stack.pop()
                if parent is None:
                    self.top_ns += dt
                else:
                    parent.child_ns += dt
                    self.calls_inside[(parent.name, name)] += 1
                self.durations[name].append(dt)
                self.self_ns[name] += dt - frame.child_ns
                self.ops_inside[name] += self.ops - ops0

        return timed

    def _close_step(self, owner: _Frame) -> None:
        if owner.step_start is None:
            return
        elapsed = time.perf_counter_ns() - owner.step_start
        step_self = elapsed - (owner.child_ns - owner.step_child_ns)
        # the step's self time is uncovered time of its owner: move it out
        # of the owner's self time into the synthetic span
        owner.child_ns += step_self
        self.durations[STEP_SELF].append(step_self)
        self.self_ns[STEP_SELF] += step_self
        owner.step_start = None

    # -- reading --------------------------------------------------------------

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))
