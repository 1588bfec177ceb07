"""Statevector update kernels.

In-place numpy updates for the gates that change amplitudes. `ACTIVE` is
the set the simulator applies; tests may substitute another.

All kernels take the flat complex amplitude array and bit strides computed
as 1 << (n - 1 - qubit), i.e. qubit 0 owns the most significant index bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_RSQRT2 = 1.0 / math.sqrt(2.0)


def _h(psi: np.ndarray, stride: int) -> None:
    v = psi.reshape(-1, 2, stride)
    a = v[:, 0, :].copy()
    b = v[:, 1, :].copy()
    v[:, 0, :] = (a + b) * _RSQRT2
    v[:, 1, :] = (a - b) * _RSQRT2


def _x(psi: np.ndarray, stride: int) -> None:
    v = psi.reshape(-1, 2, stride)
    a = v[:, 0, :].copy()
    v[:, 0, :] = v[:, 1, :]
    v[:, 1, :] = a


def _cnot(psi: np.ndarray, control_stride: int, target_stride: int) -> None:
    hi, lo = max(control_stride, target_stride), min(control_stride, target_stride)
    n = psi.shape[0]
    v = psi.reshape(n // (2 * hi), 2, hi // (2 * lo), 2, lo)
    if control_stride == hi:
        block = v[:, 1, :, :, :]
        tmp = block[:, :, 0, :].copy()
        block[:, :, 0, :] = block[:, :, 1, :]
        block[:, :, 1, :] = tmp
    else:
        block = v[:, :, :, 1, :]
        tmp = block[:, 0, :, :].copy()
        block[:, 0, :, :] = block[:, 1, :, :]
        block[:, 1, :, :] = tmp


@dataclass(frozen=True)
class KernelSet:
    """One complete set of in-place statevector updates."""

    name: str
    h: Callable
    x: Callable
    cnot: Callable


ACTIVE = KernelSet("numpy", _h, _x, _cnot)
