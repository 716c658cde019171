"""The serial 3-D real FFT of the PM cycle: ``np.fft.rfftn``/``irfftn``
bit for bit (the same 1-D passes in the same order), but every complex
pass writes over its input (``out=``) instead of into a fresh array."""

from __future__ import annotations

import numpy as np


def rfft3(real: np.ndarray) -> np.ndarray:
    """``np.fft.rfftn(real)``: rfft along z, then fft along y and x."""
    work = np.fft.rfft(real, axis=2)
    np.fft.fft(work, axis=1, out=work)
    return np.fft.fft(work, axis=0, out=work)


def irfft3(work: np.ndarray, n: int) -> np.ndarray:
    """``np.fft.irfftn(work, s=(n, n, n))``: ifft along x, then y, then
    irfft along z.  ``work`` is overwritten."""
    np.fft.ifft(work, axis=0, out=work)
    np.fft.ifft(work, axis=1, out=work)
    return np.fft.irfft(work, n=n, axis=2)
