"""Span tracer and call counter that wrap library functions from outside.

Nothing inside the ``qvgraph`` package is edited: attributes are replaced by
name on the class, module or object that owns them and put back afterwards.
A name that no longer exists is recorded as missing instead of raising, so
the benchmark keeps running when a later change renames a private method.

Spans nest.  Each wrapped call adds its duration to its parent's child time,
so a span's self time is its duration minus the time of the wrapped calls it
made.  Spans are aggregated in memory by name (calls and self seconds)
rather than kept one by one, because a sweep makes thousands of them.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from pathlib import Path

_OWN_DIR = str(Path(__file__).resolve().parent) + os.sep


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._patches: list[tuple] = []

    # -- wrappers ---------------------------------------------------------
    def span(self, name, fn, on_call=None):
        """Wrap ``fn`` in a span called ``name``.

        ``on_call(args)`` runs before the call, outside the span's timing.
        """
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def tally(self, name, fn, measure):
        """Wrap ``fn`` so that ``measure(result)`` is added to ``counts[name]``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += measure(result)
            return result

        return wrapper

    # -- patching by name -------------------------------------------------
    def patch(self, owner, attr: str, label: str, make) -> bool:
        """Replace ``owner.attr`` by ``make(current)``; False if it is missing."""
        current = getattr(owner, attr, None)
        if current is None or not callable(current):
            self.missing.append(label)
            return False
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, make(current))
        return True

    def restore(self) -> None:
        while self._patches:
            owner, attr, had_own, saved = self._patches.pop()
            if had_own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)


class CallCounter:
    """``sys.setprofile`` hook counting Python-level function calls.

    Calls made by this benchmark's own files are not counted, so the wrappers
    installed next to the counter do not inflate it.
    """

    def __init__(self):
        self.calls = 0

    def __call__(self, frame, event, arg):
        if event == "call" and not frame.f_code.co_filename.startswith(_OWN_DIR):
            self.calls += 1

    def counting(self, fn):
        """Wrap ``fn`` so that calls are counted only while it runs."""

        def wrapper(*args, **kwargs):
            sys.setprofile(self)
            try:
                return fn(*args, **kwargs)
            finally:
                sys.setprofile(None)

        return wrapper
