"""Span tracing of camfed from outside the package.

`Tracer.install` replaces the public functions and methods of every camfed
module with wrappers that record one span per call: name, start, end, parent
span, round and client. A function is replaced under every name a module
binds it to, so callers that imported it by name (federation's `iou`,
experiments' `build_engine`) are traced too. Autodiff ops also get the
backward closure of the tensor they return wrapped, which splits each op into
a forward and a backward span. `Tracer.uninstall` puts every original back.

Spans live in parallel lists in memory and are written out only at the end.
"""

import functools
import gzip
import sys
import time
import types
from collections import defaultdict

# Constructors worth a span: the per-client builds of models, parameter
# stores and optimizers, and the engine. Other __init__s (Tensor above all)
# run once per op and would only add overhead.
TRACED_INITS = frozenset({"ToyBevt", "ParamStore", "AdamW", "FederationEngine"})

_MARK = "_camfed_traced"


def camfed_modules() -> list:
    """Every imported camfed module, in name order."""
    return [sys.modules[n] for n in sorted(sys.modules)
            if n == "camfed" or n.startswith("camfed.")]


def self_time(start: float, end: float, children) -> float:
    """Duration of [start, end] minus the part its children cover.

    Children may overlap each other or stick out of the parent; only their
    union inside the parent interval is subtracted.
    """
    covered = 0.0
    reach = start
    for lo, hi in sorted(children):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


class Tracer:
    """Records spans of camfed calls while installed.

    `only` limits the wrapped names (e.g. to the phases of a run); `hooks`
    maps a span name to a (before, after) pair of callables, called as
    before(args) ahead of the call and after(args, result) once it returned.
    """

    def __init__(self, only=None, hooks=None):
        self.only = None if only is None else frozenset(only)
        self.hooks = dict(hooks or {})
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.rounds, self.clients = [], [], []
        self._stack = [-1]
        self.round = None       # current round, stamped on each span
        self.client = None      # current client id, stamped on each span
        self._patches = []      # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        clock = time.perf_counter
        names, starts, ends = self.names, self.starts, self.ends
        parents, rounds, clients = self.parents, self.rounds, self.clients
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            rounds.append(tracer.round)
            clients.append(tracer.client)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        setattr(traced, _MARK, True)
        return traced

    def _wrap_backward(self, name, tensor_type):
        """After-hook of an autodiff op: trace its tensor's backward."""
        bwd_name = name + ".bwd"

        def after(args, out):
            if isinstance(out, tensor_type):
                bwd = out._backward
                if bwd is not None and not getattr(bwd, _MARK, False):
                    out._backward = self._wrap(bwd, bwd_name)
        return after

    # -- installing ---------------------------------------------------------

    def _targets(self, modules):
        """(owner, attribute, function, span name) for everything to wrap."""
        found = []
        defined = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    defined[id(obj)] = f"{short}.{attr}"
                elif isinstance(obj, type):
                    for meth, fn in vars(obj).items():
                        public = not meth.startswith("_") or (
                            meth == "__init__" and obj.__name__ in TRACED_INITS)
                        if isinstance(fn, types.FunctionType) and public:
                            found.append((obj, meth, fn,
                                          f"{short}.{obj.__name__}.{meth}"))
        # a function is wrapped wherever a module binds it
        for mod in modules:
            for attr, obj in vars(mod).items():
                if id(obj) in defined and isinstance(obj, types.FunctionType):
                    found.append((mod, attr, obj, defined[id(obj)]))
        return found

    def install(self, modules=None) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = camfed_modules() if modules is None else modules
        autodiff = sys.modules.get("camfed.autodiff")
        wrappers = {}
        for owner, attr, fn, name in self._targets(modules):
            if self.only is not None and name not in self.only:
                continue
            if id(fn) not in wrappers:
                before, after = self.hooks.get(name, (None, None))
                if (after is None and autodiff is not None
                        and name.startswith("autodiff.")
                        and fn.__module__ == autodiff.__name__
                        and not isinstance(owner, type)):
                    after = self._wrap_backward(name, autodiff.Tensor)
                wrappers[id(fn)] = self._wrap(fn, name, before, after)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        """Restore every original; raise if any attribute did not come back."""
        patches, self._patches = self._patches, []
        for owner, attr, fn in reversed(patches):
            setattr(owner, attr, fn)
        stale = [f"{getattr(o, '__name__', o)}.{a}" for o, a, fn in patches
                 if vars(o).get(a) is not fn]
        if stale:
            raise RuntimeError(f"attributes not restored: {stale}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading ------------------------------------------------------------

    def durations(self, name: str) -> list:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends)
                if n == name]

    def table(self) -> dict:
        """Span name -> [calls, busy seconds, self seconds]."""
        children = defaultdict(list)
        for i, p in enumerate(self.parents):
            if p >= 0:
                children[p].append((self.starts[i], self.ends[i]))
        out = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, [0, 0.0, 0.0])
            start, end = self.starts[i], self.ends[i]
            row[0] += 1
            row[1] += end - start
            row[2] += self_time(start, end, children.get(i, ()))
        return out

    def ancestor(self, i: int, names) -> str | None:
        """Nearest enclosing span of span i whose name is in `names`."""
        p = self.parents[i]
        while p >= 0:
            if self.names[p] in names:
                return self.names[p]
            p = self.parents[p]
        return None

    def write(self, path) -> None:
        """Spans as gzipped CSV, times in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,start,end,parent,round,client\n")
            for i, row in enumerate(zip(self.names, self.starts, self.ends,
                                        self.parents, self.rounds,
                                        self.clients)):
                name, start, end, parent, rnd, client = row
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},"
                         f"{parent},{'' if rnd is None else rnd},"
                         f"{'' if client is None else client}\n")


def leftover_wrappers(modules=None) -> list:
    """Names of module or class attributes that are still tracer wrappers."""
    modules = camfed_modules() if modules is None else modules
    left = []
    for mod in modules:
        for attr, obj in vars(mod).items():
            if getattr(obj, _MARK, False):
                left.append(f"{mod.__name__}.{attr}")
            elif isinstance(obj, type):
                left.extend(f"{mod.__name__}.{obj.__name__}.{m}"
                            for m, fn in vars(obj).items()
                            if getattr(fn, _MARK, False))
    return left
