"""Span tracer for the benchmark's traced run.

`Tracer.install` wraps every public function of every ``rankscreen`` module
in each module namespace that binds it: the modules import functions by
name, so patching only the defining module would miss most calls (for
example ``rankscreen.bench.rpc_screen`` and
``rankscreen.rc_screen.dominance_counts_matrix``).  Each call records a span
``(id, name, start, end, parent, thread)`` in memory; a few calls also add
exact work counts read from their arguments or results.  The wrapped
functions compute exactly what they did before.

`summarize` turns the spans of one traced process into per-layer self times.
It runs in the benchmark's parent process and needs no ``rankscreen``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import pkgutil
import resource
import threading
import time
import types

PACKAGE = "rankscreen"

# Private functions traced under a public name, for a count the run reports.
EXTRA = {"rankscreen.rc_screen._rademacher_matrix": "rc_screen.rademacher"}

# Spans whose name is extended by one argument, e.g. residualize.l1.
SPLIT = {"rpc_screen.residualize": "loss"}


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


# ---------------------------------------------------------------------------
# work counts: hook(tracer, bound arguments, result, value taken before call)
# ---------------------------------------------------------------------------

def _load_csv(t, a, ds, rss_before):
    t.add("cli.load_csv.cells", ds.n * (ds.p + 1 + (ds.z is not None)))
    # Exact when the call sets the process peak, as load_csv does: it is the
    # first large allocation of the screen and test commands.
    t.set_max("cli.load_csv.peak_mb", peak_rss_mb() - rss_before)


def _save_csv(t, a, _, __):
    t.add("cli.save_csv.bytes", os.path.getsize(a["path"]))


def _dominance_counts_matrix(t, a, _, __):
    n, p = a["x"].shape
    t.add("empirical.dominance_counts_matrix.pairs", n * n * p)
    # Computed, not measured: float64 y and x in, int64 counts out.
    t.add("empirical.dominance_counts_matrix.bytes_computed",
          8 * (n + 2 * n * p))


def _leq_counts_matrix(t, a, _, __):
    n, p = a["x"].shape
    t.add("empirical.leq_counts_matrix.cells", n * p)


def _rc_utilities(t, a, out, _):
    t.add("rc_screen.rc_utilities.columns", int(out.size))


def _wild_bootstrap_test(t, a, res, _):
    t.add("rc_screen.wild_bootstrap_test.replicates", res.n_boot)


def _rademacher(t, a, _, __):
    t.distinct("rc_screen.rademacher", (a["seed"], a["n"], a["n_boot"]))


def _fit_l1(t, a, fit, _):
    t.add("spline.fit_l1.iterations", fit.iterations)
    t.add("spline.fit_l1.converged", int(fit.converged))
    t.add("spline.fit_l1.ridged", int(fit.ridged))


def _simulate(t, a, sim, _):
    t.add("simgen.simulate.cells", sim.dataset.n * sim.dataset.p)


def _run_replications(t, a, report, _):
    t.add("bench.run_replications.replications",
          report.n_reps + report.n_failures)
    t.add("bench.run_replications.failures", report.n_failures)


HOOKS = {
    "cli.load_csv": _load_csv,
    "cli.save_csv": _save_csv,
    "empirical.dominance_counts_matrix": _dominance_counts_matrix,
    "empirical.leq_counts_matrix": _leq_counts_matrix,
    "rc_screen.rc_utilities": _rc_utilities,
    "rc_screen.wild_bootstrap_test": _wild_bootstrap_test,
    "rc_screen.rademacher": _rademacher,
    "spline.fit_l1": _fit_l1,
    "simgen.simulate": _simulate,
    "bench.run_replications": _run_replications,
}
BEFORE = {"cli.load_csv": _rss_mb}


class Tracer:
    """In-memory spans and counts for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.seen: dict[str, list] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, key: str, amount):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def set_max(self, key: str, value: float):
        with self._lock:
            self.counts[key] = max(self.counts.get(key, value), value)

    def distinct(self, name: str, value):
        with self._lock:
            self.seen.setdefault(name, []).append(value)

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        before = BEFORE.get(name)
        split = SPLIT.get(name)
        sig = inspect.signature(fn) if (hook or split) else None
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            span_name = name
            if sig is not None:
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                bound = b.arguments
                if split:
                    span_name = f"{name}.{bound[split]}"
            pre = before() if before else None
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, span_name, start, end, parent,
                                   threading.get_ident()))
            if hook:
                hook(self, bound, result, pre)
            return result

        return wrapper

    def install(self):
        """Wrap the package's functions in every module that binds them.

        The package attribute ``rankscreen.rc_screen`` is the function, not
        the module, so modules are taken from the import system.
        """
        package = importlib.import_module(PACKAGE)
        modules = [importlib.import_module(f"{PACKAGE}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        wrappers = {}
        for mod in modules:
            short = mod.__name__[len(PACKAGE) + 1:]
            for attr, obj in vars(mod).items():
                if not (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    continue
                key = f"{mod.__name__}.{attr}"
                if key in EXTRA:
                    wrappers[obj] = self._wrap(obj, EXTRA[key])
                elif not attr.startswith("_"):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def dump(self) -> dict:
        """Spans and counts as plain JSON-able data."""
        return {
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "distinct": {k: [len(set(v)), len(v)]
                         for k, v in self.seen.items()},
        }


def summarize(spans, wall_start: float, wall_end: float) -> dict:
    """Per-name self time and call count, and the traced wall time that no
    span covers.

    Self time is a span's duration minus that of its child spans.  A span's
    parent is the innermost open span *on the same thread*, so work handed
    to a pool thread is not subtracted from the caller that waits for it.
    """
    child_time: dict[int, float] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span_id, name, start, end, _, _ in spans:
        self_s[name] = (self_s.get(name, 0.0) + (end - start)
                        - child_time.get(span_id, 0.0))
        calls[name] = calls.get(name, 0) + 1
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted((s[2], s[3]) for s in spans):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    wall = wall_end - wall_start
    return {"self_s": self_s, "calls": calls, "wall_s": wall,
            "uncovered_s": max(0.0, wall - covered)}
