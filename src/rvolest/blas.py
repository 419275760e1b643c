"""OpenBLAS thread counts: find every loaded OpenBLAS and pin it to one thread.

numpy and scipy each bundle their own OpenBLAS, with prefixed symbol names,
and each sizes its thread count for the whole machine.  That hurts twice:
`threads` pool workers would oversubscribe the cores, and L-BFGS-B's LAPACK
calls on its m-by-m history matrices are too small to share, yet each one
wakes the idle BLAS threads, which then spin.  On a shared two-core x86-64
VM, a d = 1 fit took 55-65 ms with the default count and 2.5-4.5 ms with
one thread, with the same bits; over six passes of d = 2 fits, scipy's BLAS
thread spun for 1.9 s of the 2.2 s, and with one thread for none of it.

`pinned_to_one_thread` sets every OpenBLAS to one thread for its body.
Nested and concurrent bodies share one pin: the first to enter saves the
counts and the last to leave restores them, so two threads that fit at once
cannot leave the process pinned.  A process forked inside a body stays
pinned for good, which is what a pool worker wants.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager


@functools.cache
def openblas_thread_controls() -> tuple:
    """(set_num_threads, get_num_threads) of every OpenBLAS mapped into this
    process; empty where none is loaded or /proc/self/maps cannot be read.
    Looked up once per process, after scipy's optimizer (and so scipy's
    OpenBLAS) is loaded."""
    import scipy.optimize  # noqa: F401

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                try:
                    set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                    get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                controls.append((set_threads, get_threads))
    return tuple(controls)


def single_thread_blas() -> None:
    """Pool initializer: one BLAS thread per worker.  It acts only where a
    worker did not inherit the pin of `pinned_to_one_thread`, as under the
    spawn and forkserver start methods.  A worker forked under the pin is
    left alone: setting the count in a forked child restarts OpenBLAS's
    thread pool, whose new threads spin for a while and take CPU from the
    workers."""
    for set_threads, get_threads in openblas_thread_controls():
        if get_threads() != 1:
            set_threads(1)


# [bodies inside the pin, the counts saved by the first], under _lock.
_pinned = [0, ()]
_lock = threading.Lock()


def _reset_lock() -> None:
    """In a forked child: a lock held by another parent thread stays held."""
    global _lock
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_lock)


@contextmanager
def pinned_to_one_thread():
    """Every loaded OpenBLAS at one thread for the body, restored when the
    last body that shares the pin ends."""
    controls = openblas_thread_controls()
    with _lock:
        if _pinned[0] == 0:
            _pinned[1] = tuple(get_threads() for _, get_threads in controls)
            for set_threads, _ in controls:
                set_threads(1)
        _pinned[0] += 1
    try:
        yield
    finally:
        with _lock:
            _pinned[0] -= 1
            if _pinned[0] == 0:
                for (set_threads, _), count in zip(controls, _pinned[1]):
                    set_threads(count)
