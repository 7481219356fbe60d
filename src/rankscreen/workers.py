"""Forked worker processes for a job cut into independent ranges.

A job is cut into contiguous ranges, up to one per CPU in the affinity mask
(`_count`): this process does the first and a forked child each other one,
which sends its result back through a pipe (`_forked`, `_ordered_map`).  Any
child that fails or cannot be started makes the caller do the whole job in
this process, so results, messages and their order never depend on the
number of processes.  A child records the warnings its slice raises, and
this process shows them again once it has read the child's results, so
they pass through the caller's filters in index order as in one process.
No child outlives the call that forked it.  The
children are bare ``os.fork`` processes: no pool, thread or
``multiprocessing`` module is involved.  The functions are private to the
package: perfbench's tracer wraps the public ones, and the time spent here
belongs to the layer of the caller.

A child that multiplies matrices on an OpenBLAS thread pool competes with
this process's pool for the same cores, so such a job runs under
`_one_blas_thread`, which finds the library's thread setter as threadpoolctl
does: through ``/proc/self/maps`` and ``ctypes``.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
import threading
import warnings


def _count(work: int, least: int) -> int:
    """How many processes share ``work`` units of a job: one per CPU this
    process may run on, each with at least ``least`` units.  One where the
    affinity mask is unknown or another thread runs, because a forked child
    holds only the forking thread, and every lock another thread held stays
    locked in it."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), work // least))


def _forked(ranges: list, work, here, take) -> bool:
    """Do a job cut into ``ranges``: ``here(r)`` in this process for the
    first range while a forked child does ``work(r)`` for each other, then
    ``take(pipe)`` reads each child's result, in range order.

    ``work`` returns bytes-like chunks, which the child writes only once
    all are made, since this process reads no pipe before ``here``
    returns.  A child exits 0 once it has written them and 1 on any
    exception; it never returns into the caller.  Returns False at the
    first child that failed or could not be started: the caller then does
    the whole job here.  Every child is reaped before this returns or
    raises, and one not yet read is killed first.
    """
    children = []
    try:
        for r in ranges[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # a process limit, say: no child, no job lost
                os.close(read)
                os.close(write)
                return False
            if pid == 0:
                code = 1
                try:
                    os.close(read)
                    chunks = work(r)
                    with open(write, "wb") as pipe:
                        pipe.writelines(chunks)
                    code = 0
                except BaseException:
                    pass  # the caller redoes the job and reports any error
                finally:
                    os._exit(code)
            os.close(write)
            children.append((pid, open(read, "rb")))
        here(ranges[0])
        while children:
            pid, pipe = children[0]
            take(pipe)
            del children[0]
            pipe.close()
            if os.waitpid(pid, 0)[1]:
                return False
        return True
    finally:
        for pid, pipe in children:  # left early: a failure
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def _ordered_map(fn, n: int, k: int) -> list:
    """``[fn(i) for i in range(n)]``, by up to ``k`` processes.

    ``range(n)`` is cut into k contiguous slices: this process maps the
    first and a forked child each other one, which pickles its list of
    results and of the warnings shown while it ran back (`_forked`); the
    lists are joined, and the warnings shown again here (`_warn_again`), in
    index order.  If a child fails, this process maps every ``i`` itself,
    so an exception leaves this call as the first failing ``fn(i)`` in
    index order raises it.  ``fn`` must be a function of ``i`` alone, with
    picklable results.
    """
    k = max(1, min(k, n))
    bounds = [n * i // k for i in range(k + 1)]
    out, sent = [], []

    def work(r):
        with warnings.catch_warnings(record=True) as caught:
            results = [fn(i) for i in range(*r)]
        shown = [(w.message, w.category, w.filename, w.lineno)
                 for w in caught]
        return [pickle.dumps((results, shown), pickle.HIGHEST_PROTOCOL)]

    if k > 1 and _forked(list(zip(bounds, bounds[1:])), work,
                        lambda r: out.extend(map(fn, range(*r))),
                        lambda pipe: sent.append(pipe.read())):
        for data in sent:  # each written by a child that exited 0
            results, shown = pickle.loads(data)
            out.extend(results)
            _warn_again(shown)
        return out
    return list(map(fn, range(n)))


def _warn_again(shown: list) -> None:
    """Show each (message, category, filename, lineno) warning as
    `warnings.warn` would have shown it here: through this process's
    filters and the once-per-location registry of the module at
    ``filename``, which the child's copy of that registry did not see."""
    modules = {getattr(m, "__file__", None): m
               for m in list(sys.modules.values())} if shown else {}
    for message, category, filename, lineno in shown:
        module = modules.get(filename)
        if module is None:
            warnings.warn_explicit(message, category, filename, lineno)
        else:
            warnings.warn_explicit(
                message, category, filename, lineno, module.__name__,
                vars(module).setdefault("__warningregistry__", {}))


# The (get, set) thread-count functions of a numpy wheel's bundled
# OpenBLAS (64-bit integers, symbols suffixed) and of a system OpenBLAS.
_OPENBLAS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas():
    """The (get, set) thread-count functions of an OpenBLAS mapped into
    this process, or None where none is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8",
                  errors="surrogateescape") as fh:
            paths = sorted({fields[5].rstrip("\n") for line in fh
                            if len(fields := line.split(maxsplit=5)) == 6
                            and "openblas" in os.path.basename(fields[5])})
    except OSError:
        return None
    import ctypes  # here: `import rankscreen` should not load it

    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for names in _OPENBLAS:
            get, put = (getattr(lib, name, None) for name in names)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread and restore its thread
    count after.  Yields True, or False where no OpenBLAS thread setter is
    found and nothing was changed."""
    lib = _openblas()
    if lib is None:
        yield False
        return
    get, put = lib
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)
