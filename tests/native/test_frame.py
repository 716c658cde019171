"""The ``frame`` stage: zlib's CRC-32 of a shared-memory frame, taken in
the same pass that copies it.

The value must be ``zlib.crc32``'s at every length and alignment (the
fold's 64- and 16-byte blocks and the byte-table head and tail), because
a frame checksummed by the kernel is checked by the zlib fallback on a
rank where the stage is off, and the reverse.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.native import frame

RNG = np.random.default_rng(0xF4A3E)
SOURCE = RNG.integers(0, 256, 300 + 32, dtype=np.uint8)


@pytest.fixture(scope="module")
def lib():
    lib = frame.get_lib()
    if lib is None:
        pytest.skip("native frame kernel unavailable")
    return lib


@pytest.mark.parametrize("src_off", range(16))
def test_value_and_copy_at_every_length_and_offset(lib, src_off):
    dst_buf = np.zeros(300 + 32, dtype=np.uint8)
    for n in range(301):
        src = SOURCE[src_off:src_off + n]
        for dst_off in range(16):
            dst = dst_buf[dst_off:dst_off + n]
            dst_buf[...] = 0
            assert lib.crc32_copy(dst, src, n, 0) == zlib.crc32(src), (n, dst_off)
            assert np.array_equal(dst, src), (n, dst_off)
            # the bytes either side of the destination are not touched
            assert not dst_buf[:dst_off].any()
            assert not dst_buf[dst_off + n:].any()


def test_checksum_only_continues_a_running_crc(lib):
    src = SOURCE[5:290]
    head = zlib.crc32(SOURCE[:5])
    assert lib.crc32_copy(None, src, src.size, head) == zlib.crc32(src, head)


def test_four_mib_and_three(lib):
    src = RNG.integers(0, 256, (4 << 20) + 3, dtype=np.uint8)
    dst = np.empty_like(src)
    assert lib.crc32_copy(dst, src, src.size, 0) == zlib.crc32(src)
    assert np.array_equal(dst, src)


@pytest.mark.parametrize("native", [True, False])
def test_wrapper_takes_any_dtype_and_agrees_with_zlib(native, monkeypatch):
    if not native:
        monkeypatch.setenv("REPRO_NO_NATIVE_FRAME", "1")
    src = RNG.random((33, 7))
    dst = np.empty_like(src)
    assert frame.crc32_copy(dst, src) == zlib.crc32(src)
    assert np.array_equal(dst, src)
    assert frame.crc32_copy(None, src, 7) == zlib.crc32(src, 7)
    with pytest.raises(ValueError):
        frame.crc32_copy(None, src[:, ::2])
    with pytest.raises(ValueError):
        frame.crc32_copy(dst[:3], src)
    dst.flags.writeable = False
    with pytest.raises(ValueError):
        frame.crc32_copy(dst, src)
