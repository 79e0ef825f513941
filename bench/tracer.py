"""Outside-in span tracer for the ``twostate`` layers.

The tracer leaves the package's source alone. At install time it reads
each layer module's ``__all__`` and wraps every public function and every
public class's ``__init__`` (for the value types, a construction is a
validation). A wrapped function is rebound in every loaded ``twostate``
module that imported it, so calls between layers pass through the wrapper;
a wrapped ``__init__`` is patched on the class itself. Because the names
come from ``__all__`` at run time, deleting public API does not break the
tracer; ``wrapped`` records what was wrapped.

Spans are kept in memory as ``(name_id, start_ns, end_ns, parent, invocation)``
tuples, where ``parent`` is the index of the enclosing span or -1, and are
written out only by ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter

PACKAGE = "twostate"
LAYERS = ("qcore", "assignment", "sampling", "blochpbr", "sic", "dynamics", "cli")


class Tracer:
    """Records spans around the public names of the ``twostate`` layers."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.invocation = -1
        self.wrapped: list[str] = []
        self.constructors: set[str] = set()
        self._stack: list[int] = []
        self._undo: list = []
        self._wrappers: dict = {}

    # --- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn):
        """A wrapper around ``fn`` that records one span named ``name`` per call."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.invocation)

        traced.__traced__ = True
        return traced

    def install(self) -> None:
        """Wrap the public names; a later install reuses the same wrappers."""
        loaded = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                name = f"{layer}.{attr}"
                if isinstance(obj, type):
                    original = obj.__dict__.get("__init__")
                    if issubclass(obj, BaseException) or original is None or hasattr(original, "__traced__"):
                        continue
                    self.constructors.add(name)
                    key, owners = "__init__", [obj]
                elif isinstance(obj, types.FunctionType) and not hasattr(obj, "__traced__"):
                    original = obj
                    key, owners = attr, [m for m in loaded if m.__dict__.get(attr) is obj]
                else:
                    continue
                if name not in self._wrappers:
                    self._wrappers[name] = self.wrap(name, original)
                    self.wrapped.append(name)
                for owner in owners:
                    setattr(owner, key, self._wrappers[name])
                    self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- output --------------------------------------------------------------

    def dump(self, path) -> None:
        """JSON lines: a header, then one ``[id, name, start, end, parent, invocation]``
        array per span; ``name`` indexes the header's ``names``, times are ns."""
        header = {"wrapped": self.wrapped, "names": self.names,
                  "fields": ["id", "name", "start_ns", "end_ns", "parent", "invocation"]}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.writelines(
                f"[{i},{name_id},{start},{end},{parent},{inv}]\n"
                for i, (name_id, start, end, parent, inv) in enumerate(self.spans)
            )


def summarize(spans, names, first: int = 0) -> tuple[Counter, Counter, Counter]:
    """Self time per layer, inclusive time per name and calls per name, in ns,
    over ``spans[first:]``, which must not have parents before ``first``.

    A span's self time is its duration minus the durations of its direct
    children; spans run on one thread, so children never overlap.
    """
    child_ns = [0] * (len(spans) - first)
    for name_id, start, end, parent, _ in spans[first:]:
        if parent >= 0:
            child_ns[parent - first] += end - start
    self_ns, inclusive_ns, calls = Counter(), Counter(), Counter()
    for i, (name_id, start, end, _, _) in enumerate(spans[first:]):
        name = names[name_id]
        self_ns[name.split(".", 1)[0]] += end - start - child_ns[i]
        inclusive_ns[name] += end - start
        calls[name] += 1
    return self_ns, inclusive_ns, calls
