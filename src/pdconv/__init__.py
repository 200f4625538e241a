"""Pixel-difference convolution operators, a minimal reverse-mode autograd,
receptive-field analysis, cross-modal fusion, and a toy two-branch RGB-D
segmentation network with synthetic data."""

import ctypes

from . import autograd, checks, clk, fusion, metrics, network, pdc, pdtio, scenes, tensor
from .errors import (ConfigurationError, ContractError, DataError, DimensionError,
                     FormatError, NumericError, PdconvError, TrainingDiverged)
from .tensor import ConvSpec, conv2d, flop_count

__version__ = "0.1.0"


def _fix_malloc_thresholds() -> str:
    """Keep freed memory mapped; describe what took effect.

    glibc's default trims the heap top and raises its mmap threshold as
    blocks are freed, so each forward batch faults back in the memory the
    previous batch freed.  A fixed 32 MiB mmap threshold (glibc's maximum on
    64-bit) and no trimming keep that memory with the process."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return "unchanged (no mallopt)"
    m_trim_threshold, m_mmap_threshold = -1, -3  # from glibc's <malloc.h>
    if mallopt(m_trim_threshold, -1) and mallopt(m_mmap_threshold, 32 << 20):  # -1: never trim
        return "fixed"
    return "unchanged (mallopt refused)"


MALLOC = _fix_malloc_thresholds()  # what took effect; `pdconv bench` prints it
