"""Keep freed work arrays on the heap between steps.

A step allocates and frees the same large numpy temporaries every time
(a 128^3 mesh is 16 MiB, its rfft spectrum 17 MiB, the stacked gradient
48 MiB).  By default glibc gives each of them a fresh ``mmap``, returns
it with ``munmap``, and trims the top of the heap as soon as it is free,
so every step the kernel zero-fills pages it took back one step earlier:
8-29% of a step was system time spent in page faults that no phase
accounted for.  GreeM allocates its work arrays once (PAPER.md section
1, item 5); the process-wide equivalent here is to tell malloc to keep
what was freed, which needs no change to any caller.

:func:`keep_freed_blocks` is called once, by ``import repro``, so fork
and spawn workers and bare library users all run under the same policy.
``MALLOC_*`` environment variables are not an alternative: they are a
knob outside the program, and setting any one of them switches off
glibc's dynamic threshold adjustment.
"""

from __future__ import annotations

import ctypes
from typing import Dict, Optional

__all__ = ["keep_freed_blocks", "policy"]

# <malloc.h> parameter numbers
_M_TRIM_THRESHOLD = -1
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8

#: A request goes to ``mmap`` only if it is at least this large *and* no
#: free chunk or the top of the heap can hold it.  32 MiB is the largest
#: value glibc accepts on 64-bit (``HEAP_MAX_SIZE / 2``).
MMAP_THRESHOLD = 32 << 20
#: Whenever the heap has to grow it grows by this much extra (address
#: space, not memory: the pad is untouched until used).  It is what lets
#: arrays above the mmap threshold stay on the heap too — the top has
#: room for the 48 MiB gradient of a 128^3 cycle after everything else
#: in flight — and it turns one ``brk`` per array into one per cycle.
TOP_PAD = 256 << 20
#: Free memory at the top of the heap is handed back only beyond this:
#: the pad plus every array of a 128^3 cycle free at the same time, with
#: room to spare.
TRIM_THRESHOLD = 1 << 30

#: One arena, the ``brk`` heap the three sizes above are about.  A thread
#: otherwise gets an arena of its own made of 64 MiB ``mmap``-ed heaps,
#: which a 48 MiB array does not share with anything and which are never
#: given back under this trim threshold — and so does a process forked
#: *from* a thread, as the benchmark launches its 2-rank passes: its
#: ranks kept 143 MB of heap where 129 MB do with one arena.  The lock
#: all threads then share is held for the length of a ``malloc`` call;
#: ranks that are threads share the interpreter lock anyway.
ARENA_MAX = 1

#: what :func:`keep_freed_blocks` put in force (None until it ran, or
#: where ``mallopt`` does not exist)
_in_force: Optional[Dict[str, int]] = None


def _mallopt():
    """glibc's ``mallopt``, or None on a C library without it."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    fn.argtypes = (ctypes.c_int, ctypes.c_int)
    fn.restype = ctypes.c_int
    return fn


def keep_freed_blocks() -> None:
    """Set the malloc policy above; a silent no-op without ``mallopt``
    or when the C library refuses a value."""
    global _in_force
    mallopt = _mallopt()
    if mallopt is None:
        return
    wanted = (
        ("mmap_threshold", _M_MMAP_THRESHOLD, MMAP_THRESHOLD),
        ("trim_threshold", _M_TRIM_THRESHOLD, TRIM_THRESHOLD),
        ("top_pad", _M_TOP_PAD, TOP_PAD),
        ("arena_max", _M_ARENA_MAX, ARENA_MAX),
    )
    if all(mallopt(param, value) == 1 for _, param, value in wanted):
        _in_force = {name: value for name, _, value in wanted}


def policy() -> Dict[str, object]:
    """The heap policy in force: ``{"source": "mallopt", ...}`` with the
    three sizes in bytes and the arena count once
    :func:`keep_freed_blocks` succeeded, else the C library's default."""
    if _in_force is None:
        return {"source": "default"}
    return {"source": "mallopt", **_in_force}
