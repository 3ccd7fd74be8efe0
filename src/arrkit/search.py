"""Random search: one config draw, and one map of an arm function over worker processes.

Every arm runs on one OpenBLAS thread, in a worker and in process alike: work that BLAS
splits over threads sums in another order (a 100-asset autoencoder's weights differ),
and in a worker those threads would spin against the other workers' arms. Other work
whose bytes must not depend on the thread count runs under `one_blas_thread` too.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os

import numpy as np

_OPENBLAS_SETTERS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_")
_task: tuple = ()  # (fn, shared) of the map a worker process serves


def draw_configs(grid: dict, iterations: int, seed: int) -> list[dict]:
    """Every arm's config, uniform with replacement: one draw per key, keys sorted."""
    config_rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [{k: grid[k][int(config_rng.integers(len(grid[k])))] for k in sorted(grid)}
            for _ in range(iterations)]


def first_best(losses: list) -> int | None:
    """Index of the first strictly lowest loss, skipping None; None when every one is."""
    scored = (i for i, loss in enumerate(losses) if loss is not None)
    return min(scored, key=losses.__getitem__, default=None)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _openblas() -> tuple:
    """(get, set) thread-count functions of each loaded OpenBLAS, where /proc (Linux) lists them."""
    if not os.path.exists("/proc/self/maps"):
        return ()
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    return tuple((getattr(lib, name.replace("_set_", "_get_")), getattr(lib, name))
                 for lib in map(ctypes.CDLL, libs) for name in _OPENBLAS_SETTERS if hasattr(lib, name))


def _set_blas_threads(counts) -> list[int]:
    """Set the thread count of each loaded OpenBLAS; returns the counts it had."""
    previous = [get() for get, _ in _openblas()]
    for (_, set_), count in zip(_openblas(), counts):
        set_(count)
    return previous


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, then give each its count back."""
    previous = _set_blas_threads(itertools.repeat(1))
    try:
        yield
    finally:
        _set_blas_threads(previous)


def _serve(fn, shared: tuple) -> None:
    """Pool initializer: a worker gets the arm function and the shared data once, not with
    every arm, and runs on one OpenBLAS thread for its life."""
    global _task
    _task = (fn, shared)
    _set_blas_threads(itertools.repeat(1))


def _run(job):
    fn, shared = _task
    return fn(job, *shared)


def map_arms(fn, jobs: list, shared: tuple = (), workers: int | None = None) -> list:
    """[fn(job, *shared) for job in jobs], in job order, on min(len(jobs), workers)
    processes (default: the usable CPUs); in process when that is one, with OpenBLAS on
    one thread for the call."""
    workers = min(len(jobs), usable_cpus() if workers is None else workers)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool runs

        with ProcessPoolExecutor(workers, initializer=_serve, initargs=(fn, shared)) as pool:
            return list(pool.map(_run, jobs))
    with one_blas_thread():
        return [fn(job, *shared) for job in jobs]
