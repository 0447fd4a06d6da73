"""Span recording from outside the package.

A Tracer replaces every public function of the sparselab layers (each
function without a leading underscore that the layer's module defines) with
a timing wrapper at every place the function object is bound: the defining
module, each module that imported it with ``from .x import name``, the
package namespace, module-level dispatch tables such as
``experiment._SOLVERS``, and the class attribute for methods. It also wraps
``numpy.linalg.lstsq`` and ``numpy.linalg.eigvalsh``, the LAPACK calls under
the solvers and the isometry enumeration.

Spans stay in memory and are written out once, at the end. Times
are integer nanoseconds, so self time (duration minus the time direct
children cover) is exact and never negative.
"""

import importlib
import inspect
import json
import time

import numpy as np

SPARSELAB_MODULES = (
    "sparselab",
    "sparselab.linalg",
    "sparselab.metrics",
    "sparselab.guarantees",
    "sparselab.pursuit",
    "sparselab.experiment",
    "sparselab.cli",
)

# the layers whose public functions are timed; errors does no work
LAYERS = ("linalg", "metrics", "guarantees", "pursuit", "experiment", "cli")

# (span name, class path, method): methods are bound on the class only
METHODS = (("linalg.Dictionary.columns", "sparselab.linalg", "Dictionary", "columns"),)

NUMPY_FUNCTIONS = ("lstsq", "eigvalsh")


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent, info):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = info


def _numpy_info(name, args):
    """Problem size of a LAPACK call: columns for lstsq, matrices for eigvalsh."""
    a = np.asarray(args[0]) if args else None
    if a is None or a.ndim < 2:
        return None
    if name == "lstsq":
        return a.shape[1]
    return int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim > 2 else 1


def _subcommand(args):
    argv = args[0] if args else None
    return argv[0] if argv else None


class Tracer:
    """Install with ``with Tracer() as tr:``; spans are in ``tr.spans``.

    Leaving the block restores every original binding, so a traced run
    leaves the package exactly as it found it.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, info=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else None, info(args) if info else None)
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _replace(self, owner, key, value):
        """Bind owner.key (or owner[key] for a dict) to value, remembering the old binding."""
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self):
        modules = [importlib.import_module(name) for name in SPARSELAB_MODULES]
        wrappers = {}
        for layer in LAYERS:
            defining = importlib.import_module(f"sparselab.{layer}")
            for fname, fn in vars(defining).items():
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != defining.__name__:
                    continue
                info = _subcommand if (layer, fname) == ("cli", "main") else None
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn, info))
        for module in modules:
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(module, key, hit[1])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dvalue in list(value.items()):
                        dhit = wrappers.get(id(dvalue))
                        if dhit is not None and dhit[0] is dvalue:
                            self._replace(value, dkey, dhit[1])
        for span_name, module_name, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._replace(cls, method, self._wrap(span_name, getattr(cls, method)))
        for fname in NUMPY_FUNCTIONS:
            fn = getattr(np.linalg, fname)
            self._replace(np.linalg, fname, self._wrap(f"numpy.{fname}", fn, lambda a, f=fname: _numpy_info(f, a)))
        return self

    def uninstall(self):
        while self._restore:
            owner, key, old = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans):
    """Self time in ns of every span: duration minus its direct children's."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] = child.get(id(s.parent), 0) + (s.end - s.start)
    return [(s, (s.end - s.start) - child.get(id(s), 0)) for s in spans]


def counts(spans):
    """Calls per span name: deterministic for a fixed amount of work."""
    out = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0) + 1
    return out


def write_spans(spans, path):
    """Write spans as JSON lines: name, start/end ns, parent index, info."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w") as fh:
        for s in spans:
            parent = None if s.parent is None else index[id(s.parent)]
            fh.write(json.dumps([s.name, s.start, s.end, parent, s.info]) + "\n")
