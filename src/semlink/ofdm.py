"""OFDM framing: Gray-mapped QAM and the pilot layout.

A frame is a (n_symbols, l_fft) grid. Two symbol rows carry known QPSK pilots
for channel estimation; the rest carry payload in row-major order with zero
padding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QAM_ORDERS = (4, 16, 64, 256)


@dataclass(frozen=True)
class OfdmConfig:
    l_fft: int = 2048
    n_symbols: int = 14
    pilot_symbols: tuple[int, ...] = (3, 12)  # 1-indexed symbol positions
    l_cp: int = 144
    subcarrier_spacing: float = 15e3
    carrier_freq: float = 2.8e9
    retransmission_interval: float = 2e-3  # bookkeeping only; feedback is instant

    def __post_init__(self):
        if self.l_fft < 1 or self.n_symbols < 1:
            raise ValueError("l_fft and n_symbols must be positive")
        if self.l_cp < 0 or self.l_cp > self.l_fft:
            raise ValueError("l_cp must lie in [0, l_fft]")
        for p in self.pilot_symbols:
            if not 1 <= p <= self.n_symbols:
                raise ValueError(f"pilot symbol index {p} outside 1..{self.n_symbols}")
        if len(set(self.pilot_symbols)) != len(self.pilot_symbols):
            raise ValueError("pilot symbol indices must be distinct")
        if not 0 < len(self.pilot_symbols) < self.n_symbols:
            raise ValueError("pilot_symbols must name at least one symbol and leave one for payload")

    @property
    def sample_rate(self) -> float:
        return self.l_fft * self.subcarrier_spacing

    @property
    def symbol_duration(self) -> float:
        return (self.l_fft + self.l_cp) / self.sample_rate

    @property
    def pilot_rows_idx(self) -> tuple[int, ...]:
        return tuple(p - 1 for p in self.pilot_symbols)

    @property
    def data_rows_idx(self) -> tuple[int, ...]:
        pilots = set(self.pilot_rows_idx)
        return tuple(i for i in range(self.n_symbols) if i not in pilots)

    @property
    def payload_capacity(self) -> int:
        return len(self.data_rows_idx) * self.l_fft


def _gray_to_bin(g: np.ndarray) -> np.ndarray:
    b = g.copy()
    shift = 1
    while shift < 16:
        b ^= b >> shift
        shift *= 2
    return b


def _bin_to_gray(b: np.ndarray) -> np.ndarray:
    return b ^ (b >> 1)


def _axis_params(order: int) -> tuple[int, int, float]:
    if order not in QAM_ORDERS:
        raise ValueError(f"QAM order must be one of {QAM_ORDERS}, got {order}")
    bits_per_axis = int(np.log2(order)) // 2
    levels = 1 << bits_per_axis
    scale = np.sqrt(2.0 * (levels * levels - 1) / 3.0)
    return bits_per_axis, levels, scale


def _bits_to_ints(bits: np.ndarray, width: int) -> np.ndarray:
    """MSB-first bit groups -> integers; bits shaped (n, width)."""
    weights = 1 << np.arange(width - 1, -1, -1)
    return bits @ weights


def qam_map(bits: np.ndarray, order: int) -> np.ndarray:
    """Map a bit vector onto unit-average-energy Gray square QAM symbols.

    Per symbol the first half of the bit group drives the I axis, the second
    half the Q axis; all-zero bits land on the most positive corner.
    """
    m, levels, scale = _axis_params(order)
    bits = np.asarray(bits).astype(np.int64).reshape(-1)
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0/1")
    if bits.size % (2 * m) != 0:
        raise ValueError(f"bit count must be a multiple of {2 * m} for order {order}")
    groups = bits.reshape(-1, 2 * m)
    gi = _bits_to_ints(groups[:, :m], m)
    gq = _bits_to_ints(groups[:, m:], m)
    # the bit group is the Gray code of the level index, counted from +max
    ai = (levels - 1) - 2 * _gray_to_bin(gi)
    aq = (levels - 1) - 2 * _gray_to_bin(gq)
    return (ai + 1j * aq) / scale


def qam_demap_hard(symbols: np.ndarray, order: int) -> np.ndarray:
    """Nearest-level hard demap; exact inverse of qam_map on clean symbols. A
    non-finite symbol raises ValueError: cast to an integer level it would
    give fixed bits, and an all-zero frame passes CRC-24A."""
    m, levels, scale = _axis_params(order)
    symbols = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    if not np.isfinite(symbols).all():
        raise ValueError("cannot demap a non-finite symbol")
    out = np.empty((symbols.size, 2 * m), dtype=np.uint8)
    for axis, vals in ((0, symbols.real), (1, symbols.imag)):
        idx = np.clip(np.round(((levels - 1) - vals * scale) / 2.0), 0, levels - 1)
        gray = _bin_to_gray(idx.astype(np.int64))
        for b in range(m):
            out[:, axis * m + b] = (gray >> (m - 1 - b)) & 1
    return out.reshape(-1)


_QPSK = qam_map(np.array([0, 0, 0, 1, 1, 0, 1, 1]), 4)  # qam_map of each bit pair, in binary order


def pilot_rows(cfg: OfdmConfig, seed: int) -> np.ndarray:
    """Deterministic per-seed QPSK pilot rows, one per pilot symbol: qam_map(bits, 4)
    of the seed's bits, looked up per bit pair in a table qam_map made."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n_p = len(cfg.pilot_symbols)
    bits = rng.integers(0, 2, size=(n_p * cfg.l_fft, 2))
    return _QPSK.take(bits @ (2, 1)).reshape(n_p, cfg.l_fft)


def frame_build(payload: np.ndarray, cfg: OfdmConfig, pilot_seed: int) -> np.ndarray:
    """The read-only (n_symbols, l_fft) frame: pilot_rows(cfg, pilot_seed) on the
    pilot rows, the payload row-major in the data rows, zero padding after it."""
    payload = np.asarray(payload, dtype=np.complex128).reshape(-1)
    if payload.size > cfg.payload_capacity:
        raise ValueError(
            f"payload of {payload.size} symbols exceeds capacity {cfg.payload_capacity}"
        )
    grid = np.zeros((cfg.n_symbols, cfg.l_fft), dtype=np.complex128)
    data = np.zeros(cfg.payload_capacity, dtype=np.complex128)
    data[: payload.size] = payload
    grid[list(cfg.data_rows_idx), :] = data.reshape(len(cfg.data_rows_idx), cfg.l_fft)
    grid[list(cfg.pilot_rows_idx), :] = pilot_rows(cfg, pilot_seed)
    grid.setflags(write=False)
    return grid


def frame_extract(grid: np.ndarray, cfg: OfdmConfig, n_payload: int) -> np.ndarray:
    """Read the first n_payload row-major data-row symbols from a received grid."""
    grid = np.asarray(grid)
    if grid.shape != (cfg.n_symbols, cfg.l_fft):
        raise ValueError(f"grid shape {grid.shape} does not match config")
    if n_payload > cfg.payload_capacity:
        raise ValueError(f"cannot extract {n_payload} symbols from {cfg.payload_capacity}")
    return grid[list(cfg.data_rows_idx), :].reshape(-1)[:n_payload].copy()

