"""Ray session lifetime and process accounting, read from ``/proc``.

``psutil`` is not available, so the process tree and resident set sizes
come straight from ``/proc/<pid>/stat``, ``cmdline`` and ``statm``.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import os
import signal
import sys
import threading
import time

PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
PR_SET_CHILD_SUBREAPER = 36  # from <linux/prctl.h>
OBJECT_STORE_BYTES = 512 << 20
# One CPU slot: the benchmark measures per-core work on a host shared with
# other jobs, where more slots mostly add run-to-run noise.
CPUS = 1


def _stat(pid: int) -> list[bytes] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name (state, ppid,
    ...), or None once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    # the command name is parenthesised and may itself hold spaces
    return raw[raw.rindex(b")") + 2:].split()


def _children() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                children.setdefault(int(st[1]), []).append(int(name))
    return children


def descendants(*roots: int) -> list[int]:
    """Every live process below ``roots`` in the process tree."""
    children = _children()
    out, stack = [], list(roots)
    while stack:
        for child in children.get(stack.pop(), []):
            out.append(child)
            stack.append(child)
    return out


def _alive(pid: int) -> bool:
    st = _stat(pid)
    return st is not None and st[0] != b"Z"


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", "rb") as fh:
            return int(fh.read().split()[1]) * PAGE_BYTES
    except (OSError, IndexError, ValueError):
        return 0


def _is_ray_worker(pid: int) -> bool:
    # Ray renames its worker processes "ray::<task or IDLE>"
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().startswith(b"ray::")
    except OSError:
        return False


def _cpu_s(pid: int) -> float:
    """User + system CPU time of a process. Time the hypervisor stole from
    the guest is not charged to it."""
    st = _stat(pid)
    return (int(st[11]) + int(st[12])) / CLOCK_TICKS if st else 0.0


class ProcSampler:
    """Samples the summed RSS of this process and its Ray worker processes
    from a background thread; ``peak_mb`` is the largest sum seen. ``cpu_s``
    is the CPU time (user + system) this process and every process below it
    (Ray's own included) used in between.

    Use as a context manager around the work to be measured."""

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> float:
        me = os.getpid()
        pids = [me] + [p for p in descendants(me) if _is_ray_worker(p)]
        mb = sum(_rss_bytes(p) for p in pids) / 1e6
        self.peak_mb = max(self.peak_mb, mb)
        return mb

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "ProcSampler":
        self._cpu0 = self._cpu()
        self.sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()
        self.cpu_s = sum(c - self._cpu0.get(p, 0.0) for p, c in self._cpu().items())

    @staticmethod
    def _cpu() -> dict[int, float]:
        me = os.getpid()
        return {p: _cpu_s(p) for p in [me] + descendants(me)}


@contextlib.contextmanager
def ray_session(temp_dir: str):
    """A Ray session that is shut down, and its processes waited for, on
    leaving the block however it is left."""
    pids = start_ray(temp_dir)
    try:
        yield
    finally:
        stop_ray(pids)


def start_ray(temp_dir: str) -> list[int]:
    """Start a local Ray session with ``CPUS`` CPU slots; return the pids of
    the processes ``ray.init`` started, for ``stop_ray``.

    ``temp_dir`` must be absolute and short: Ray puts its AF_UNIX sockets
    under it, and those paths may not exceed 107 bytes."""
    import ray
    from ray.data import DataContext

    me = os.getpid()
    before = set(_children().get(me, []))
    on_sigterm = signal.getsignal(signal.SIGTERM)
    ray.init(address="local", num_cpus=CPUS,
             include_dashboard=False, logging_level="ERROR",
             object_store_memory=OBJECT_STORE_BYTES, _temp_dir=temp_dir)
    signal.signal(signal.SIGTERM, on_sigterm)  # ray.init replaced it
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    return [p for p in _children().get(me, []) if p not in before]


def stop_ray(roots: list[int], timeout_s: float = 10.0) -> None:
    """Shut Ray down and wait until every process it started, ``roots``
    and the processes they started, has ended."""
    import ray

    started = roots + descendants(*roots)
    ray.shutdown()
    if not _wait_ended(started, timeout_s):
        print(f"perfbench: Ray processes still running {timeout_s:.0f} s after "
              f"shutdown, killing: {[_cmd(p) for p in started if _alive(p)]}",
              file=sys.stderr)
        for pid in started:
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if not _wait_ended(started, timeout_s):
            raise RuntimeError("Ray processes outlived SIGKILL: "
                               f"{[p for p in started if _alive(p)]}")


def own_descendants() -> None:
    """Make this process the child subreaper of every process it starts, so
    one whose parent ends first (a Ray worker outliving its raylet, say)
    stays below it, where ``end_descendants`` finds it; and make SIGTERM
    end them all before this process exits."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    if prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")
    signal.signal(signal.SIGTERM, _end_on_sigterm)


def _end_on_sigterm(signum, _frame) -> None:
    # Not unwinding with SystemExit: Ray's code can swallow it and carry on.
    end_descendants()
    os._exit(128 + signum)


def end_descendants(timeout_s: float = 10.0) -> list[str]:
    """Kill every process still running below this one, wait until each has
    ended, and reap the ones left to this process; return what was killed."""
    left = [p for p in descendants(os.getpid()) if _alive(p)]
    killed = [_cmd(p) for p in left]
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if not _wait_ended(left, timeout_s):
        raise RuntimeError(f"processes outlived SIGKILL: {[p for p in left if _alive(p)]}")
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                break
        except ChildProcessError:
            break
    return killed


def _cmd(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return f"{pid} {fh.read()[:60].decode(errors='replace')}"
    except OSError:
        return str(pid)


def _wait_ended(pids: list[int], timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while any(_alive(p) for p in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True
