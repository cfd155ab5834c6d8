"""The benchmark's own arithmetic: percentiles, operation counts, tracing.

Nothing here imports the package under test, so these pieces can be
tested on their own (see ``test_harness.py``). Nothing here imports numpy
at module level either, so the caller can cap BLAS threads first.
"""

import functools
import os
import platform
import sys
import time

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10


def percentile(samples, q):
    """Nearest-rank ``q``-th percentile (``q`` an integer 1..99), or None.

    The value is the ``ceil(q * n / 100)``-th smallest sample. It is
    returned only when at least ``MIN_TAIL`` samples rank above it;
    otherwise the sample cannot support the percentile and None comes back.
    """
    if not 0 < q < 100 or int(q) != q:
        raise ValueError(f"q must be an integer in 1..99, got {q!r}")
    xs = sorted(samples)
    n = len(xs)
    rank = -(-int(q) * n // 100)
    if rank < 1 or n - rank < MIN_TAIL:
        return None
    return xs[rank - 1]


class OpCounter:
    """Counts operations attempted and failed.

    An operation fails when it raises, when it returns a non-zero exit
    code, or when a later output check finds its result wrong.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, what, fn, *args):
        """Run one operation; return ``(ok, result)``. Exceptions count as failures."""
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception as e:  # every error is a failed operation, not a crash
            self.failed += 1
            self.errors.append(f"{what}: {type(e).__name__}: {e}")
            return False, None
        return True, result

    def refused(self, what, detail):
        """Mark an already-counted operation as failed (non-zero exit, wrong output)."""
        self.failed += 1
        self.errors.append(f"{what}: {detail}")

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0


class Tracer:
    """Times calls to wrapped functions from outside, with self time.

    Self time of a call is its duration minus the durations of the wrapped
    calls made inside it. Totals are kept per layer name. An ``on_result``
    hook may add to named ``counts`` from a call's arguments and result; a
    hook that no longer fits the function's shape is skipped, not raised.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self._stack = []  # child-time accumulators of the open spans

    def wrap(self, name, fn, on_result=None):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.clock() - start
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += span
                self.calls[name] += 1
                self.self_s[name] += span - children
            if on_result is not None:
                self._count(on_result, args, result)
            return result

        return traced

    def _count(self, on_result, args, result):
        try:
            increments = on_result(args, result)
        except (AttributeError, TypeError, IndexError, ValueError):
            return
        for key, n in increments.items():
            self.counts[key] = self.counts.get(key, 0) + n

    def self_sum(self):
        return sum(self.self_s.values())


def _resolve(root_modules, dotted):
    """Look up ``module.attr[.attr]`` under a package; None when absent."""
    module_name, _, attr_path = dotted.partition(".")
    owner = root_modules.get(module_name)
    if owner is None:
        return None, None, None
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    fn = getattr(owner, parts[-1], None)
    if not callable(fn):
        return None, None, None
    return owner, parts[-1], fn


_INHERITED = object()


class Patches:
    """Installs tracing wrappers where the package looks names up, and undoes them.

    ``layers`` are names such as ``"loss.loss_backward"`` or
    ``"data.EmbeddingStore.rows"``, relative to ``package``. A function is
    replaced in its defining module and in every submodule that imported
    it by name, so calls through either path are seen. Names that no
    longer exist are collected in ``absent`` instead of raising. ``hooks``
    maps a layer name to its ``Tracer.wrap`` ``on_result`` hook.
    """

    def __init__(self, tracer, package, layers, hooks=None):
        self.tracer = tracer
        self.package = package
        self.layers = layers
        self.hooks = hooks or {}
        self.absent = []
        self._undo = []

    def _submodules(self):
        prefix = self.package.__name__ + "."
        mods = {self.package.__name__: self.package}
        for name, mod in list(sys.modules.items()):
            if name.startswith(prefix) and mod is not None:
                mods[name] = mod
        return mods

    def __enter__(self):
        mods = self._submodules()
        short = {name.rpartition(".")[2]: mod for name, mod in mods.items()}
        for layer in self.layers:
            owner, attr, fn = _resolve(short, layer)
            if fn is None:
                self.absent.append(layer)
                continue
            wrapper = self.tracer.wrap(layer, fn, self.hooks.get(layer))
            self._set(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, name, wrapper)
        return self

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            if value is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._undo.clear()
        return False


def _blas_info():
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name")
        info["version"] = blas.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment():
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }
