"""The two float engines: the trigonometric grid and the Walsh cells.

Polynomials on a fixed frequency list are synthesized on the N-point
grid j/N by an inverse FFT (``_GridSpace``), and Walsh polynomials on
the 2**scale dyadic cells by the fast Walsh-Hadamard transform
(``_CellSpace``); both carry their adjoint, which the extremal search
needs.  ``_lp_norm`` is the one L^p quadrature over either.

This is the module that imports numpy at its top, beside ``extremal``;
the exact modules reach it only from the functions that do float work,
so the integer commands of the CLI never load numpy.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .errors import AliasingError, ResourceError
from .lacunary import _as_exponent
from .walsh import _max_scale, _reversed_mask


class _GridSpace:
    """Trig polynomials on a fixed frequency list, synthesized on the
    N-point grid j/N by an inverse FFT; the forward FFT is the adjoint.

    Requires N > 2 * degree so that frequencies do not alias and the
    grid determines the polynomial.  Like the cells of ``_CellSpace``,
    grids are capped at 2^24 points.
    """

    dtype = complex

    def __init__(self, freqs: Sequence[int], size: int):
        self.freqs = list(freqs)
        degree = max((abs(m) for m in self.freqs), default=0)
        if size <= 2 * degree:
            raise AliasingError(
                f"grid of {size} points cannot resolve degree {degree}; need N > 2*degree"
            )
        if size > 1 << 24:
            raise ResourceError(f"grid of {size} points exceeds the cap of 2^24")
        self.size = size
        # distinct, since N > 2 * degree
        self._bins = np.array([m % size for m in self.freqs], dtype=np.int64)

    def values(self, vec) -> np.ndarray:
        spectrum = np.zeros(self.size, dtype=np.complex128)
        spectrum[self._bins] = vec
        return np.fft.ifft(spectrum) * self.size

    def adjoint_mean(self, weights: np.ndarray) -> np.ndarray:
        """Mean of weights against e^{2 pi i m x} for each frequency m."""
        hat = np.fft.fft(weights) / self.size
        return hat[self._bins]


def _fwht(values: np.ndarray) -> np.ndarray:
    """In-place fast Walsh-Hadamard transform, natural (Hadamard) order."""
    n = values.size
    h = 1
    while h < n:
        view = values.reshape(-1, 2 * h)
        left = view[:, :h]
        right = view[:, h:]
        tmp = left - right
        left += right
        right[:] = tmp
        h *= 2
    return values


_CELL_SCALE_CAP = 24


def _require_cell_scale(scale: int) -> int:
    """scale, once its 2**scale cells are within the cap."""
    if scale > _CELL_SCALE_CAP:
        raise ResourceError(f"cell enumeration is capped at scale {_CELL_SCALE_CAP}")
    return scale


class _CellSpace:
    """Walsh polynomials on a fixed index list, evaluated exactly on the
    2**scale cells of [0, 1), scale the finest digit of the index list,
    by the fast transform, which is also (up to the cell count) its own
    adjoint.
    """

    dtype = float

    def __init__(self, values_m: Sequence[int]):
        self.freqs = list(values_m)
        scale = _require_cell_scale(_max_scale(self.freqs))
        self.size = 1 << scale
        self._masks = np.array(
            [_reversed_mask(m, scale) for m in self.freqs], dtype=np.int64
        )

    def values(self, vec) -> np.ndarray:
        cells = np.zeros(self.size, dtype=np.float64)
        cells[self._masks] = vec
        return _fwht(cells)

    def adjoint_mean(self, weights: np.ndarray) -> np.ndarray:
        """Mean of weights against w_m for each index m."""
        work = weights.astype(float, copy=True)
        _fwht(work)
        return work[self._masks] / self.size


def _cell_values(coefficients: Mapping[int, float]) -> np.ndarray:
    """A Walsh coefficient map's values on its 2**max_scale cells."""
    vec = np.array(list(coefficients.values()), dtype=np.float64)
    return _CellSpace(coefficients).values(vec)


def _lp_norm(S, p: float, values) -> float:
    """0 for the zero polynomial, Parseval at p == 2, else mean(|v|^p)^(1/p)
    over v = values() as M mean((|v|/M)^p)^(1/p), M = max |v|, so that no
    power overflows at large p or large values."""
    p = _as_exponent(p)
    if not S.coefficients:
        return 0.0
    if p == 2:
        return S.norm2()
    mod = np.abs(values())
    top = float(mod.max())
    if top == 0.0:
        return 0.0
    mod /= top
    return top * float(np.mean(mod**p)) ** (1.0 / p)
