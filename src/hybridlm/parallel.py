"""Independent work items shared among forked processes.

``fork_map`` is the one parallel map of the package: a simulation's
sequences, a sweep's grid points and a calibration's shards all go through
it. It forks on demand and imports nothing numpy has not loaded already.
"""

from __future__ import annotations

import os
import pickle
import sys


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fork_map(fn, items, workers: int) -> list:
    """``[fn(i) for i in items]``, computed by up to ``workers`` processes.

    With W = min(workers, len(items)), this process takes items 0, W, 2W, …
    and child j of the W − 1 made by ``os.fork`` takes items j, j + W, ….
    A child sends back its pickled results, or the first exception it met,
    through a pipe, and leaves by ``os._exit``. Every child is reaped
    before this returns or raises. Of the exceptions met, the one of the
    lowest item raises here, which is the one the list comprehension would
    raise. With W = 1, or where ``os.fork`` is missing, this is the list
    comprehension.

    ``fn`` is inherited, not pickled; its results and exceptions must pickle.
    """
    items = list(items)
    w = min(workers, len(items))
    if w <= 1 or not hasattr(os, "fork"):
        return [fn(i) for i in items]
    sys.stdout.flush()  # else a child would write this process's buffered output again
    sys.stderr.flush()
    pids: list[int] = []  # children not yet reaped
    fds: list[int] = []  # pipe read ends not yet read
    try:
        for j in range(1, w):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _serve_share(fn, items, j, w, write_fd)
            os.close(write_fd)
            pids.append(pid)
            fds.append(read_fd)
        outcomes = [_share(fn, items, 0, w)]
        blobs = []
        while fds:
            with open(fds.pop(0), "rb") as fh:
                blobs.append(fh.read())
        for blob in blobs:
            _, status = os.waitpid(pids[0], 0)
            pid = pids.pop(0)
            if status != 0:
                code = os.waitstatus_to_exitcode(status)
                raise ChildProcessError(f"fork_map worker {pid} ended with status {code}")
            outcomes.append(pickle.loads(blob))
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    failed = [(i, exc) for i, exc in outcomes if i is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    results = [None] * len(items)
    for j, (_, share) in enumerate(outcomes):
        results[j::w] = share
    return results


def _share(fn, items: list, j: int, w: int) -> tuple:
    """Worker j's items: (None, their results), or (index, exception) of the first that raised."""
    results = []
    for i in range(j, len(items), w):
        try:
            results.append(fn(items[i]))
        except Exception as e:
            return i, e
    return None, results


def _serve_share(fn, items: list, j: int, w: int, write_fd: int):
    """A forked child's whole life: worker j's outcome, pickled into ``write_fd``.

    It exits 0 once the outcome is written. Anything that stops that, such
    as an exception that does not pickle, is printed to stderr and exits 1.
    """
    code = 1
    try:
        data = pickle.dumps(_share(fn, items, j, w), pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as fh:
            fh.write(data)
        code = 0
    except BaseException:
        import traceback

        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)
