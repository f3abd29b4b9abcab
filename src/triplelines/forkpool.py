"""A fork-and-merge pool: map a function over items on forked children.

fork_map(fn, items, workers) yields fn(item) for each item, in item order,
computed in child processes forked from the caller. A child inherits the
caller's memory, so fn may be any callable over state the caller has built
(a search's masks, symmetry group and deltas): nothing is pickled and no
module is imported again. Each child computes one item at a time, and the
parent hands a child the index of the next unassigned item whenever it
returns a result, so a slow item holds up one child, not a fixed share of
the items. A result comes back as marshal data behind a 4-byte length, so
it must be a value marshal writes (ints, bools, tuples, lists).

When the generator is closed, collected or ended by an exception, every
child is killed with SIGKILL and reaped; a child whose parent dies without
that exits once its task pipe closes. A child whose fn raises prints the
traceback to stderr and exits, and the parent raises RuntimeError. A child
holds only the thread that forked it, so fn must not wait on a lock another
thread may hold; the search runs on one thread. Only the search imports
this module, and only when it runs more than one worker; it needs os.fork,
which Windows lacks.
"""

from __future__ import annotations

import marshal
import os
import select
import signal
import sys
from typing import Callable, Iterator, Sequence


def _read(fd: int, size: int) -> bytes:
    """size bytes from fd, or fewer if the writer closed it first."""
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            break
        data += chunk
    return data


def _serve(fn: Callable, items: Sequence, tasks: int, results: int) -> None:
    """A child's loop: read an item index, write fn(item), until tasks closes."""
    while len(index := _read(tasks, 4)) == 4:
        data = marshal.dumps(fn(items[int.from_bytes(index, "little")]))
        out = memoryview(len(data).to_bytes(4, "little") + data)
        while out:
            out = out[os.write(results, out):]


def fork_map(fn: Callable, items: Sequence, workers: int) -> Iterator:
    """Yield fn(item) for each item in order, computed on min(workers,
    len(items)) forked children."""
    children: dict[int, tuple[int, int]] = {}  # result fd -> (pid, task fd)
    fds: list[int] = []
    busy: dict[int, int] = {}                  # result fd -> index being computed
    done: dict[int, object] = {}
    poller = select.poll()
    next_index = 0

    def assign(result_fd: int) -> None:
        nonlocal next_index
        if next_index < len(items):
            os.write(children[result_fd][1], next_index.to_bytes(4, "little"))
            busy[result_fd] = next_index
            next_index += 1
        else:                                   # idle until killed: stop polling it
            poller.unregister(result_fd)

    try:
        for _ in range(min(workers, len(items))):
            task_r, task_w = os.pipe()
            fds += (task_r, task_w)
            result_r, result_w = os.pipe()
            fds += (result_r, result_w)
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    # keep only this child's ends, so that a parent that dies
                    # without killing it closes its task pipe and ends it
                    for fd in fds:
                        if fd not in (task_r, result_w):
                            os.close(fd)
                    # Ctrl-C reaches the whole process group; the parent
                    # handles it and kills its workers
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    _serve(fn, items, task_r, result_w)
                    code = 0
                except BrokenPipeError:         # the parent is gone
                    pass
                except BaseException:
                    sys.excepthook(*sys.exc_info())
                finally:
                    os._exit(code)
            for fd in (task_r, result_w):       # the child's ends
                os.close(fd)
                fds.remove(fd)
            children[result_r] = (pid, task_w)
            poller.register(result_r, select.POLLIN)
            assign(result_r)
        for index in range(len(items)):
            while index not in done:
                for fd, _ in poller.poll():
                    size = int.from_bytes(_read(fd, 4), "little")   # 0 at end of file
                    data = _read(fd, size)
                    if not size or len(data) < size:
                        raise RuntimeError(f"worker {children[fd][0]} exited without "
                                           f"the result of item {busy[fd]}")
                    done[busy.pop(fd)] = marshal.loads(data)
                    assign(fd)
            yield done.pop(index)
    finally:
        for pid, _ in children.values():
            os.kill(pid, signal.SIGKILL)
        for pid, _ in children.values():   # after every kill, so they exit in parallel
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
