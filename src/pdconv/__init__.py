"""Pixel-difference convolution operators, a minimal reverse-mode autograd,
receptive-field analysis, cross-modal fusion, and a toy two-branch RGB-D
segmentation network with synthetic data."""

from . import autograd, checks, clk, fusion, metrics, network, pdc, pdtio, scenes, tensor
from .errors import (ConfigurationError, ContractError, DataError, DimensionError,
                     FormatError, NumericError, PdconvError, TrainingDiverged)
from .tensor import ConvSpec, conv2d, flop_count

__version__ = "0.1.0"
