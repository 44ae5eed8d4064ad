"""Deterministic chunked execution.

Work is split into fixed-size chunks whose boundaries depend only on
the problem size, and the chunks run in order on the calling thread.
bbgc starts no threads of its own: the heavy kernels are BLAS calls,
and BLAS is the one layer that may thread them.
"""

from __future__ import annotations

from typing import Callable, TypeVar

T = TypeVar("T")


def worker_count() -> int:
    """Threads bbgc itself runs chunks on: always the caller's one."""
    return 1


def run_chunks(fn: Callable[[int, int], T], total: int, chunk: int) -> list[T]:
    """Apply ``fn(start, stop)`` over fixed chunks, results in chunk order."""
    return [fn(a, min(a + chunk, total)) for a in range(0, total, chunk)]
