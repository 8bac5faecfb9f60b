"""CPU and memory of a process tree, read from /proc (Linux only)."""

from __future__ import annotations

import os


def tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    out = []
    todo = [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
            except OSError:
                pass
    return out


def cpu_ns(pids) -> int:
    """On-CPU nanoseconds of the live threads of ``pids`` (schedstat).

    Nanosecond resolution, where /proc/<pid>/stat counts clock ticks;
    threads that have already exited are not counted."""
    total = 0
    for p in pids:
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{p}/task/{tid}/schedstat") as fh:
                    total += int(fh.read().split()[0])
            except (OSError, ValueError, IndexError):
                pass
    return total


def _status_kb(pid, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(pids) -> float:
    """Sum of VmHWM (peak resident set) over ``pids``, in MiB."""
    return sum(_status_kb(p, "VmHWM:") for p in pids) / 1024.0


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"
