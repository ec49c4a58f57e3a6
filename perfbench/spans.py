"""In-memory spans around the calls into each layer's public functions.

The traced run patches public callables *at the module that calls
them* (for example ``repro.sql.miningext.capture_select_plan``, not the
planner's own name) with a timing wrapper, and restores them afterwards.
Spans stay in memory; :meth:`Tracer.summary` aggregates them when the
run asks for its numbers.  A layer's self time is its span time minus
the child spans on the same thread.

A target that no longer exists (renamed, removed) is reported as
unmeasured instead of failing the run, so the benchmark survives the
program changing under it.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict


class Tracer:
    """Thread-aware span recorder with patch/unpatch of named targets."""

    def __init__(self) -> None:
        self._local = threading.local()
        #: (span, seconds, self seconds, root span name or None).
        self._records: list[tuple[str, float, float, str | None]] = []
        self._observed: dict[str, list] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []
        self.unmeasured: set[str] = set()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, span: str, fn, observe=None):
        """``fn`` timed as ``span``; ``observe(result)`` is recorded too."""
        records, observed = self._records, self._observed
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            frame = [span, 0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                root = stack[0][0] if stack else None
                records.append((span, elapsed, elapsed - frame[1], root))
            if observe is not None:
                observed[span].append(observe(result))
            return result

        return traced

    def reset(self) -> None:
        self._records.clear()
        self._observed.clear()

    # -- patching ---------------------------------------------------------

    def install(self, targets) -> None:
        """Patch every ``(module, attribute path, span, observe)`` target."""
        for module_name, path, span, observe in targets:
            try:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = owner.__dict__[attribute] if isinstance(
                    owner, type
                ) else getattr(owner, attribute)
            except (ImportError, AttributeError, KeyError):
                self.unmeasured.add(span)
                continue
            if isinstance(original, type):
                replacement = self._wrap_class(span, original)
            else:
                replacement = self.wrap(span, original, observe)
            setattr(owner, attribute, replacement)
            self._patches.append((owner, attribute, original))

    def _wrap_class(self, span: str, cls: type) -> type:
        """A subclass whose outermost ``mask`` call per instance is timed.

        Used for the batch lowering context, whose ``mask`` recurses over
        every predicate node: only the top-level call is a span.
        """
        tracer = self

        class Timed(cls):
            nested = False

            def mask(self, pred):
                if self.nested:
                    return super().mask(pred)
                self.nested = True
                try:
                    return timed_mask(self, pred)
                finally:
                    self.nested = False

        def plain_mask(self, pred):
            return cls.mask(self, pred)

        timed_mask = tracer.wrap(span, plain_mask)
        Timed.__name__ = cls.__name__
        return Timed

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus roots."""
        spans: dict[str, dict[str, float]] = {}
        under: dict[str, float] = defaultdict(float)
        for span, elapsed, self_time, root in list(self._records):
            entry = spans.setdefault(
                span, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
            )
            entry["calls"] += 1
            entry["seconds"] += elapsed
            entry["self_seconds"] += self_time
            if root is not None:
                under[root] += self_time
        return {
            "spans": spans,
            "self_under_root": dict(under),
            "observed": {k: list(v) for k, v in self._observed.items()},
            "unmeasured": sorted(self.unmeasured),
        }
