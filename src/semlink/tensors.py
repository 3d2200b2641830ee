"""Feature tensors, importance masking, and the packed-vector wire format.

A feature tensor is a (C, H, W) array of finite reals. An importance mask
selects the k spatial cells worth transmitting (config's mask_cells or
baseline_cells); packing gathers the selected columns into a flat vector
and unpacking scatters them back, bit-exactly.
harq.SemanticSource masks, packs and unpacks with these for every semantic
session and for every sampling of the scorer's rank corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FeatureTensor:
    """Immutable (C, H, W) real-valued feature volume."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 3:
            raise ValueError(f"feature tensor must be (C, H, W), got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("feature tensor entries must be finite")
        object.__setattr__(self, "data", _frozen(data))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class ImportanceMask:
    """Binary (H, W) cell-selection mask."""

    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells)
        if cells.ndim != 2:
            raise ValueError(f"mask must be (H, W), got shape {cells.shape}")
        if cells.dtype != np.bool_:
            if not np.all((cells == 0) | (cells == 1)):
                raise ValueError("mask entries must be binary")
            cells = cells.astype(bool)
        object.__setattr__(self, "cells", _frozen(cells))

    @property
    def n_selected(self) -> int:
        return int(self.cells.sum())


def importance_map(f: FeatureTensor, k: int) -> ImportanceMask:
    """Select the k cells with the largest channel-wise L2 magnitude, 1 <= k <= H*W.

    Ties are broken toward the lowest row-major linear index.
    """
    c, h, w = f.shape
    if not 1 <= k <= h * w:
        raise ValueError(f"cell count must be in [1, {h * w}], got {k}")
    mag = np.sqrt(np.sum(f.data * f.data, axis=0)).reshape(-1)
    # stable sort on descending magnitude keeps lowest linear index first on ties
    order = np.argsort(-mag, kind="stable")
    cells = np.zeros(h * w, dtype=bool)
    cells[order[:k]] = True
    return ImportanceMask(cells.reshape(h, w))


def apply_mask(f: FeatureTensor, mask: ImportanceMask) -> FeatureTensor:
    """Zero every channel of the cells not selected by the mask."""
    c, h, w = f.shape
    if mask.cells.shape != (h, w):
        raise ValueError(
            f"mask shape {mask.cells.shape} does not match feature plane ({h}, {w})"
        )
    out = f.data * mask.cells[None, :, :]
    return FeatureTensor(out)


def pack_nonzero(f: FeatureTensor, mask: ImportanceMask) -> np.ndarray:
    """Gather the selected cells into a flat (C * n_selected,) vector.

    Order is channel-major: all selected cells of channel 0 in row-major cell
    order, then channel 1, and so on. With a full mask this equals the
    row-major flatten of the tensor.
    """
    c, h, w = f.shape
    if mask.cells.shape != (h, w):
        raise ValueError(
            f"mask shape {mask.cells.shape} does not match feature plane ({h}, {w})"
        )
    return f.data[:, mask.cells].reshape(-1).copy()


def unpack(v: np.ndarray, mask: ImportanceMask, shape: tuple[int, int, int]) -> FeatureTensor:
    """Scatter a packed vector back into a full-shape tensor (zeros elsewhere)."""
    c, h, w = shape
    if mask.cells.shape != (h, w):
        raise ValueError(
            f"mask shape {mask.cells.shape} does not match feature plane ({h}, {w})"
        )
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    k = mask.n_selected
    if v.size != c * k:
        raise ValueError(f"packed vector has {v.size} entries, expected {c * k}")
    out = np.zeros((c, h, w), dtype=np.float64)
    out[:, mask.cells] = v.reshape(c, k)
    return FeatureTensor(out)
