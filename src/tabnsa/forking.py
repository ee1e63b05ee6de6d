"""Forked child processes, and the cores this process may use.

A sharded fit's helper (`training`) and a parallel search's trial child
(`hyperopt`) are processes forked by `start_child`. Each talks to its
parent over one pipe: the parent reads a reply with `receive` and ends the
child with `stop_child`. A child closes its copy of the parent's end of the
pipe and exits within about a tenth of a second once its parent is gone,
however the parent died (a signal, the OOM killer, a timeout that kills
only it), so no child outlives the process that forked it.

`usable_cores` is what the tile pool and the sharded steps may use: the
cores this process may run on, capped by `set_core_budget` (a trial child
takes its share of a parallel search's cores).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import threading
import time

FORK = multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None

# the most cores this process may use; None means all it may run on
_CORE_BUDGET: int | None = None


def set_core_budget(cores: int | None) -> None:
    global _CORE_BUDGET
    _CORE_BUDGET = cores


def usable_cores() -> int:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return cores if _CORE_BUDGET is None else min(cores, _CORE_BUDGET)


def can_fork() -> bool:
    """Whether this process may fork a child: the `fork` start method exists
    and the process is not daemonic (a `multiprocessing.Pool` worker is, and
    may have no children)."""
    return FORK is not None and not multiprocessing.current_process().daemon


def _exit_with(parent: int) -> None:
    """Exit this process as soon as `parent` is no longer its parent."""
    while os.getppid() == parent:
        time.sleep(0.1)
    os._exit(1)


def _child_main(target, parent: int, parent_end, conn, *args) -> None:
    parent_end.close()
    threading.Thread(target=_exit_with, args=(parent,), name="tabnsa-orphan-watch", daemon=True).start()
    target(conn, *args)


def start_child(target, *args, name: str):
    """A forked process running `target(conn, *args)`, and this side's end
    of the pipe whose other end is `conn`."""
    conn, child_conn = FORK.Pipe()
    proc = FORK.Process(target=_child_main, args=(target, os.getpid(), conn, child_conn, *args), name=name)
    proc.start()
    child_conn.close()
    return proc, conn


def receive(proc, conn):
    """The next object `proc` sends on `conn`. A child that exits without
    sending one raises ChildProcessError within about a tenth of a second,
    even when another process holds a copy of the pipe."""
    while True:
        if conn.poll(0.1):
            try:
                return conn.recv()
            except EOFError:
                break
        elif proc.exitcode is not None and not conn.poll(0):
            break
    proc.join()
    raise ChildProcessError(f"{proc.name} (pid {proc.pid}) exited with code {proc.exitcode} before it replied")


def stop_child(proc, conn) -> None:
    """Tell the child to stop (a None message), wait for it, and kill it if
    it has not exited within a second."""
    with contextlib.suppress(OSError):
        conn.send(None)
    proc.join(1.0)
    if proc.exitcode is None:
        proc.kill()
        proc.join()
    conn.close()
