"""Keep glibc's malloc from handing the engine's freed arrays back to the OS between calls.

One engine call allocates and frees arrays of 0.1-10 MB: the R x D row
blocks of the layers and the B x |E| score blocks.  glibc serves a block
above its mmap threshold with a fresh mapping, and returns the free top of
its heap to the OS whenever more than its trim threshold lies there.  Both
thresholds start at 128 KiB and climb only as mapped blocks are freed, so a
training loop re-faults its working set on every minibatch: at batch 64 it
was 4,400-7,000 minor faults per epoch on |E| = 217 (about a fifth of the
epoch) and 18,700 on N ~ 212, |E| = 2048, a cost that changed with the
corpus and with the machine's load from one run to the next; a full
checkpoint state at |E| = 12,000 faulted in 3,200 pages on every load.

``keep_freed_heap`` sets the two thresholds, once per process, to the
ceiling glibc's own heuristic climbs to (32 MiB mapped, 64 MiB kept free at
the top).  ``ModelParams`` calls it before it allocates, so the engine's
arrays and loaded checkpoints come from heap memory that stays mapped.
The settings are process-wide.  Elsewhere than glibc it does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import sys

M_TRIM_THRESHOLD = -1  # mallopt parameter numbers, from glibc's malloc.h
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20  # glibc's largest mmap threshold on 64-bit targets
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD  # the ratio glibc keeps when it raises the threshold itself


@functools.cache
def keep_freed_heap() -> bool:
    """Set glibc's mmap and trim thresholds once; True if both settings took."""
    if not sys.platform.startswith("linux"):
        return False
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # present in glibc only; musl's mallopt ignores its arguments
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
