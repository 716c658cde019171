"""Bindings for the fused copy + CRC-32 of shared-memory frames.

The value is ``zlib.crc32``'s, not CRC32C, so a frame checksummed by the
kernel checks under the zlib fallback (``REPRO_NO_NATIVE_FRAME=1``, no
compiler, a failed self-test) and the reverse.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.native import build as _build


def get_lib():
    """The verified frame library, or ``None`` (checked per call)."""
    return _build.library("frame")


def available() -> bool:
    """Whether the native frame kernel can be used right now."""
    return get_lib() is not None


def _bytes(a: np.ndarray) -> np.ndarray:
    if not a.flags.c_contiguous:
        raise ValueError("crc32_copy takes C-contiguous arrays")
    return a.reshape(-1).view(np.uint8)


def crc32_copy(dst, src: np.ndarray, crc: int = 0) -> int:
    """``zlib.crc32(src, crc)``, copying ``src`` into ``dst`` (same byte
    count, both C-contiguous) in the same pass unless ``dst`` is None."""
    s, d = _bytes(src), None if dst is None else _bytes(dst)
    if d is not None and (d.size != s.size or not d.flags.writeable):
        raise ValueError("crc32_copy needs a writable dst of src's size")
    lib = get_lib()
    if lib is not None:
        return lib.crc32_copy(d, s, s.size, crc)
    if d is not None:
        d[...] = s
    return zlib.crc32(s, crc)


def _self_test(lib) -> bool:
    """``zlib.crc32``'s value and a bytewise copy across the fold's block
    boundaries, misaligned, from a zero and from a running CRC."""
    src = np.random.default_rng(0xC4C).integers(0, 256, 1100, dtype=np.uint8)
    for n in (0, 1, 15, 16, 63, 64, 65, 127, 128, 143, 1024):
        for off, crc in ((0, 0), (3, 0x9E3779B9)):
            s, dst = src[off:off + n], np.zeros(n, np.uint8)
            got = lib.crc32_copy(dst, s, n, crc)
            if got != zlib.crc32(s, crc) or not np.array_equal(dst, s):
                return False
    return True
