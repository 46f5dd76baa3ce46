"""Spans taken from outside sfma, by wrapping the module-level names it calls.

sfma's modules call each other through module globals (``bench`` calls
``solve``, ``place_users``, ...; ``power.solve`` calls ``pair_users`` and
``inter_group_allocate``). Replacing such a global with a timing wrapper
records every call without touching sfma's source. The wrappers are put in
place only for the traced run and removed afterwards.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter


@contextlib.contextmanager
def patched(targets, make_wrapper):
    """Replace each (module, name) in ``targets`` by ``make_wrapper(label, original)``."""
    saved = []
    try:
        for module, name in targets:
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, make_wrapper(f"{module.__name__.rsplit('.', 1)[-1]}.{name}", original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrapper(self, label, original):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def times(self, first: int, last: int) -> tuple[dict, dict]:
        """Total and self seconds per span name, over the spans first..last-1."""
        total, child = {}, {}
        for idx in range(first, last):
            name, start, end, parent = self.spans[idx]
            total[name] = total.get(name, 0.0) + (end - start)
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        own = {}
        for idx in range(first, last):
            name, start, end, _ = self.spans[idx]
            own[name] = own.get(name, 0.0) + (end - start) - child.get(idx, 0.0)
        return total, own

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({"id": idx, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")
