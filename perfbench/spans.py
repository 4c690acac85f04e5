"""In-memory span tracer for the surf4 benchmark.

The tracer wraps the public functions of every ``surf4`` module from the
outside, at run time, so the package itself carries no tracing code.

* A span records its name, start, end, parent span and the id of the CLI
  invocation it ran under.  Spans are kept in memory and written out by
  :meth:`Tracer.write_spans` when the benchmark ends.
* A span's self time is its duration minus the union of its children's
  intervals (:func:`self_time`).
* Because modules import each other's functions by name
  (``from .frames import curvature_report``), every module-level alias of a
  wrapped function is rebound, including functions held in module-level
  dicts such as ``suites.SUITES``.  :meth:`Tracer.install` refuses to
  start if any alias is left unwrapped.
* A recursive function (``cli.to_json``) gets a span only at its outermost
  entry.
* The ``jets`` layer is too hot for one record per call (millions of
  ``Jet`` operations per iteration).  Its outermost entries are timed and
  counted but not recorded one by one: their intervals still count as
  children of the enclosing span, and their self time is summed under the
  single name ``jets``.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter

MODULES = ("expr", "jets", "frames", "grassmann", "lagrangian",
           "characteristics", "suites", "cli")

# Arithmetic dunders counted as ``jets.ops``; ``__radd__`` and ``__rmul__``
# are aliases of ``__add__`` and ``__mul__`` and are wrapped separately so
# that each dispatch counts once.
JET_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
           "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__")
JET_STATIC = ("constant", "variable", "from_derivatives")
JET_METHODS = ("sqrt", "exp", "sin", "cos")


def self_time(start, end, children):
    """``end - start`` minus the union of ``children`` clipped to it."""
    covered = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start = max(c_start, reach)
        c_end = min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


class CoverageError(RuntimeError):
    """A public function kept an unwrapped alias, or an expected span
    recorded no calls."""


class Tracer:
    """Spans and counters for one traced benchmark run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()        # span name -> completed spans
        self.self_s = Counter()       # span name -> summed self time
        self.counters = Counter()     # named event counts
        self.spans = []               # (id, parent, invocation, name, t0, t1)
        self.invocation = 0
        self._stack = []              # open frames [id, name, t0, children]
        self._next_id = 1
        self._jets_depth = [0]
        self._patches = []            # (owner, key, original)

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        self._stack.append([self._next_id, name, self.clock(), []])
        self._next_id += 1

    def _exit(self, record=True):
        end = self.clock()
        span_id, name, start, children = self._stack.pop()
        self.calls[name] += 1
        self.self_s[name] += self_time(start, end, children)
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3].append((start, end))
        if record:
            self.spans.append((span_id, parent[0] if parent else 0,
                               self.invocation, name, start, end))

    def _on_error(self, exc):
        # count each error once, not once per span it propagates through
        if (type(exc).__name__ == "InternalInconsistencyError"
                and not getattr(exc, "_counted_by_tracer", False)):
            exc._counted_by_tracer = True
            self.counters["frames.inconsistency_errors"] += 1

    def wrap(self, name, fn, hook=None):
        """Recorded span around ``fn``; nested re-entry is not spanned.

        ``hook(tracer, args)`` runs before each outermost call, to count
        properties of the arguments.
        """
        tracer = self
        active = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args)
            active[0] += 1
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer._on_error(exc)
                raise
            finally:
                tracer._exit()
                active[0] -= 1

        return wrapper

    def wrap_jets(self, fn, counter=None):
        """Aggregated ``jets`` span; only the outermost jets entry is timed."""
        tracer = self
        inside = self._jets_depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                tracer.counters[counter] += 1
            if inside[0]:
                return fn(*args, **kwargs)
            inside[0] += 1
            tracer._enter("jets")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(record=False)
                inside[0] -= 1

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, package, hooks=None):
        """Wrap every public function of ``package``'s layer modules."""
        hooks = hooks or {}
        owners = [getattr(package, name) for name in MODULES] + [package]
        wrappers = {}
        for mod in owners[:-1]:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, val in vars(mod).items():
                if (isinstance(val, types.FunctionType)
                        and val.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrappers[val] = (
                        self.wrap_jets(val) if short == "jets"
                        else self.wrap(name, val, hooks.get(name)))
        self._wrap_jet_class(package.jets.Jet)
        for mod in owners:
            for label, val, owner, key in _function_refs(mod):
                if val in wrappers:
                    self._patch(owner, key, wrappers[val])
        missed = sorted(label for mod in owners
                        for label, val, _, _ in _function_refs(mod)
                        if val in wrappers)
        if missed:
            self.uninstall()
            raise CoverageError(f"unwrapped aliases: {', '.join(missed)}")

    def _wrap_jet_class(self, jet):
        cls = vars(jet)
        for attr in JET_OPS:
            self._patch(jet, attr, self.wrap_jets(cls[attr], "jets.ops"))
        for attr in JET_STATIC:
            counter = "jets.constant.calls" if attr == "constant" else None
            self._patch(jet, attr, staticmethod(
                self.wrap_jets(cls[attr].__func__, counter)))
        for attr in JET_METHODS:
            self._patch(jet, attr, self.wrap_jets(cls[attr]))

    def _patch(self, owner, key, value):
        """Set ``owner.key`` (or ``owner[key]`` for a dict) and remember
        the original for :meth:`uninstall`."""
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ------------------------------------------------------------

    def require(self, names):
        """Raise :class:`CoverageError` if any named span never ran."""
        missing = [name for name in names if not self.calls[name]]
        if missing:
            raise CoverageError(
                f"expected spans recorded no calls: {', '.join(missing)}")

    def write_spans(self, path):
        """Write recorded spans as tab-separated rows, times in seconds
        from the first span's start."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tinvocation\tname\tstart_s\tend_s\n")
            for span_id, parent, inv, name, t0, t1 in self.spans:
                handle.write(f"{span_id}\t{parent}\t{inv}\t{name}\t"
                             f"{t0 - origin:.9f}\t{t1 - origin:.9f}\n")


def _function_refs(mod):
    """(label, function, owner, key) for each function a module holds,
    directly or as a value of a module-level dict."""
    for attr, val in list(vars(mod).items()):
        if isinstance(val, types.FunctionType):
            yield f"{mod.__name__}.{attr}", val, mod, attr
        elif isinstance(val, dict):
            for key, item in list(val.items()):
                if isinstance(item, types.FunctionType):
                    yield f"{mod.__name__}.{attr}[{key!r}]", item, val, key
