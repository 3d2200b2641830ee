"""Retransmission protocols: semantic ACK/NACK sessions and the classical baseline.

Semantic sessions resend learned symbols and let the similarity scorer decide
acknowledgement; the single-pair variant keeps the latest decoded message as
its candidate, while the two-pair variant sends the second codec from round
two on and sums the decoded messages. The baseline quantizes to 8 bits,
appends a CRC-24, maps to Gray QAM with a rate-1/copies repetition code, and
either chase-combines full retransmissions or accumulates one copy per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import codec as codec_mod
from .detector import DetectorConfig, SimilarityScorer, ack_decide, pool_map, score_pooled
from .ofdm import qam_demap_hard, qam_map
from .scenegen import ProxyHead, Scene, confidence_map, perception_loss, true_similarity
from .tensors import FeatureTensor, ImportanceMask, unpack

CRC24_POLY = 0x864CFB
CRC24_BITS = 24


def _build_crc_table() -> np.ndarray:
    table = np.empty(256, dtype=np.uint32)
    for byte in range(256):
        reg = byte << 16
        for _ in range(8):
            if reg & 0x800000:
                reg = ((reg << 1) ^ CRC24_POLY) & 0xFFFFFF
            else:
                reg = (reg << 1) & 0xFFFFFF
        table[byte] = reg
    return table


_CRC24_TABLE = _build_crc_table()


def crc24(bits: np.ndarray) -> int:
    """Bit-serial CRC-24 (poly 0x864CFB, init 0, no reflection) over a bit vector."""
    bits = np.asarray(bits).astype(np.uint8).reshape(-1)
    if np.any(bits > 1):
        raise ValueError("bits must be 0/1")
    reg = 0
    n_whole = bits.size // 8
    if n_whole:
        for byte in np.packbits(bits[: 8 * n_whole]).tolist():
            reg = ((reg << 8) & 0xFFFFFF) ^ int(_CRC24_TABLE[((reg >> 16) & 0xFF) ^ byte])
    for b in bits[8 * n_whole :].tolist():
        reg ^= (b & 1) << 23
        if reg & 0x800000:
            reg = ((reg << 1) ^ CRC24_POLY) & 0xFFFFFF
        else:
            reg = (reg << 1) & 0xFFFFFF
    return reg


def append_crc24(bits: np.ndarray) -> np.ndarray:
    """Append the 24 CRC bits (MSB first); crc24 of the result is zero."""
    bits = np.asarray(bits).astype(np.uint8).reshape(-1)
    c = crc24(bits)
    tail = np.array([(c >> (CRC24_BITS - 1 - i)) & 1 for i in range(CRC24_BITS)], dtype=np.uint8)
    return np.concatenate([bits, tail])


def verify_crc24(bits: np.ndarray) -> bool:
    return crc24(bits) == 0


@dataclass(frozen=True)
class Quantizer8:
    """Affine 8-bit quantizer: value ~ zero_point + code * scale."""

    scale: float
    zero_point: float

    def quantize(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if self.scale == 0.0:
            return np.zeros(values.shape, dtype=np.uint8)
        codes = np.round((values - self.zero_point) / self.scale)
        return np.clip(codes, 0, 255).astype(np.uint8)

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        return self.zero_point + np.asarray(codes, dtype=np.float64) * self.scale


def fit_quantizer(values: np.ndarray) -> Quantizer8:
    """Min/max-fitted quantizer; in-range round trip error is at most scale/2."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot fit a quantizer to an empty array")
    if not np.all(np.isfinite(values)):
        raise ValueError("quantizer inputs must be finite")
    lo, hi = float(values.min()), float(values.max())
    return Quantizer8(scale=(hi - lo) / 255.0, zero_point=lo)


def bytes_to_bits(codes: np.ndarray) -> np.ndarray:
    """Uint8 codes -> MSB-first bit vector."""
    return np.unpackbits(np.asarray(codes, dtype=np.uint8))


def bits_to_bytes(bits: np.ndarray) -> np.ndarray:
    bits = np.asarray(bits).astype(np.uint8).reshape(-1)
    if bits.size % 8 != 0:
        raise ValueError("bit count must be a multiple of 8")
    return np.packbits(bits)


@dataclass
class RoundRecord:
    s_hat: float | None  # None for CRC-based rounds
    s_true: float
    ack: bool
    candidate: FeatureTensor


@dataclass
class HarqSession:
    mode: str
    budget: int
    rounds: list[RoundRecord] = field(default_factory=list)

    @property
    def rounds_used(self) -> int:
        return len(self.rounds)

    @property
    def ack_round(self) -> int:
        """1-indexed acknowledged round, or 0 when none was acknowledged."""
        for t, rec in enumerate(self.rounds, start=1):
            if rec.ack:
                return t
        return 0


def finalize(session: HarqSession) -> tuple[int, FeatureTensor]:
    """Final candidate: the acknowledged round's, else the best-scored round's.

    Without any acknowledgement, scored sessions pick the highest-scored round
    (ties to the earliest); unscored (CRC) sessions fall back to the last
    combined estimate.
    """
    if not session.rounds:
        raise ValueError("cannot finalize a session with no rounds")
    t = session.ack_round
    if t == 0:
        scored = [r.s_hat for r in session.rounds]
        if all(s is None for s in scored):
            t = len(session.rounds)
        else:
            best = max(s for s in scored if s is not None)
            t = next(i + 1 for i, s in enumerate(scored) if s == best)
    return t, session.rounds[t - 1].candidate


def throughput(sessions) -> float:
    """Acknowledged sessions per transmission round actually used."""
    total_rounds = sum(s.rounds_used for s in sessions)
    if total_rounds == 0:
        return float("nan")
    return sum(1 for s in sessions if s.ack_round > 0) / total_rounds


@dataclass(frozen=True)
class SemanticSessionCtx:
    """Everything a semantic session needs besides the per-round channel."""

    first: codec_mod.SemanticCodec
    second: codec_mod.SemanticCodec | None
    scorer: SimilarityScorer
    det_cfg: DetectorConfig
    head: ProxyHead
    scene: Scene
    mask: ImportanceMask
    shape: tuple[int, int, int]
    f_ref: FeatureTensor
    packed: np.ndarray
    # Memo of values the session derives from the fields above, filled on first
    # use: "ref_pooled" (f_ref's confidence map at the scorer's pool),
    # "ref_loss" (perception_loss of f_ref), "first" and "second" (each pair's
    # symbols). Contexts may share one memo if they agree on every field but
    # det_cfg and second; harness.SessionCache shares one per session index.
    shared: dict = field(default_factory=dict)


def _shared(ctx, key: str, compute: Callable[[], object]):
    """ctx.shared[key], computed and stored (read-only if an array) on first use."""
    if key not in ctx.shared:
        value = compute()
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        ctx.shared[key] = value
    return ctx.shared[key]


def _score_candidate(ctx: SemanticSessionCtx, ref_pooled: np.ndarray, candidate: FeatureTensor):
    hyp = pool_map(confidence_map(candidate, ctx.head).values, ctx.scorer.pool)
    s_hat = float(score_pooled(ctx.scorer, ref_pooled, hyp))
    return s_hat, ack_decide(s_hat, ctx.det_cfg)


def run_semantic_session(ctx: SemanticSessionCtx, mode: str, budget: int, transmit) -> HarqSession:
    """Run up to `budget` rounds of a semantic session.

    mode "sim1" resends the same first-pair symbols every round and keeps the
    latest decoded message as candidate; mode "sim2" switches to the second
    pair from round two and its candidate is the unpacked sum of all decoded
    messages. `transmit(round_idx, symbols)` realizes one channel round trip;
    the importance mask is fixed at round one for the whole session.
    """
    if mode not in ("sim1", "sim2"):
        raise ValueError(f"unknown semantic mode {mode!r}")
    if mode == "sim2" and ctx.second is None:
        raise ValueError("mode sim2 needs a second codec pair")
    if budget < 1:
        raise ValueError("round budget must be at least 1")

    ref_pooled = _shared(
        ctx, "ref_pooled",
        lambda: pool_map(confidence_map(ctx.f_ref, ctx.head).values, ctx.scorer.pool),
    )
    ref_loss = _shared(ctx, "ref_loss", lambda: perception_loss(ctx.f_ref, ctx.scene, ctx.head))
    sym_first = _shared(ctx, "first", lambda: codec_mod.encode(ctx.first, ctx.packed))
    session = HarqSession(mode=mode, budget=budget)
    msg_sum = None
    for t in range(1, budget + 1):
        if mode == "sim1" or t == 1:
            m_hat = codec_mod.decode(ctx.first, transmit(t, sym_first))
            candidate_packed = m_hat if mode == "sim1" else m_hat.copy()
            if mode == "sim2":
                msg_sum = candidate_packed
        else:
            sym_second = _shared(ctx, "second", lambda: codec_mod.encode(ctx.second, ctx.packed))
            msg_sum = msg_sum + codec_mod.decode(ctx.second, transmit(t, sym_second))
            candidate_packed = msg_sum
        candidate = unpack(candidate_packed, ctx.mask, ctx.shape)
        s_hat, ack = _score_candidate(ctx, ref_pooled, candidate)
        s_true = true_similarity(ctx.f_ref, candidate, ctx.scene, ctx.head, ref_loss=ref_loss)
        session.rounds.append(RoundRecord(s_hat, s_true, ack, candidate))
        if ack:
            break
    return session


@dataclass
class ChaseCombiner:
    """Per-symbol weighted averaging of equalized observations across copies."""

    n_symbols: int
    num: np.ndarray = None
    den: np.ndarray = None

    def __post_init__(self):
        self.num = np.zeros(self.n_symbols, dtype=np.complex128)
        self.den = np.zeros(self.n_symbols, dtype=np.float64)

    def add(self, eq_symbols: np.ndarray, h: np.ndarray, noise_var: float) -> None:
        eq_symbols = np.asarray(eq_symbols, dtype=np.complex128).reshape(-1)
        h = np.asarray(h, dtype=np.complex128).reshape(-1)
        if eq_symbols.size != self.n_symbols or h.size != self.n_symbols:
            raise ValueError("observation length does not match the combiner")
        w = np.abs(h) ** 2 / max(float(noise_var), 1e-30)
        self.num += w * eq_symbols
        self.den += w

    def combined(self) -> np.ndarray:
        if np.any(self.den == 0.0):
            raise ValueError("combiner has positions with no observations")
        return self.num / self.den


@dataclass(frozen=True)
class BaselineSessionCtx:
    """Fixed context for a quantize+CRC+QAM baseline session."""

    mod_order: int
    copies: int  # rate-1/copies repetition code: every copy is the same chunk
    quantizer: Quantizer8
    payload_bits: np.ndarray  # quantized bits with CRC appended
    head: ProxyHead
    scene: Scene
    mask: ImportanceMask
    shape: tuple[int, int, int]
    f_ref: FeatureTensor  # dequantized transmitted content
    # Memo of what the session derives from the fields above: "chunk" (the
    # QAM chunk), "codeword" (ctx.copies chunks) and "ref_loss"
    # (perception_loss of f_ref). Nothing here depends on mode or SNR, so
    # sessions may share one context (harness.SessionCache).
    shared: dict = field(default_factory=dict)


def make_baseline_payload(packed: np.ndarray) -> tuple[Quantizer8, np.ndarray]:
    """Quantize a packed vector and append the CRC."""
    quant = fit_quantizer(packed)
    return quant, append_crc24(bytes_to_bits(quant.quantize(packed)))


def _chunk_symbols(ctx: BaselineSessionCtx) -> np.ndarray:
    """QAM symbols of one code chunk: the payload bits, zero-padded to whole symbols."""
    bits = ctx.payload_bits
    bps = int(math.log2(ctx.mod_order))
    pad = (-bits.size) % bps
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    return qam_map(bits, ctx.mod_order)


def _decode_combined(ctx: BaselineSessionCtx, combined: np.ndarray):
    bits = qam_demap_hard(combined, ctx.mod_order)[: ctx.payload_bits.size]
    ack = verify_crc24(bits)
    codes = bits_to_bytes(bits[: bits.size - CRC24_BITS])
    values = ctx.quantizer.dequantize(codes)
    candidate = unpack(values, ctx.mask, ctx.shape)
    return ack, candidate


def run_baseline_session(ctx: BaselineSessionCtx, mode: str, budget: int, transmit) -> HarqSession:
    """Run up to `budget` rounds of the classical baseline.

    mode "base1" retransmits the full codeword (ctx.copies copies of the
    chunk) and chase-combines every copy; mode "base2" sends one copy per
    round, accumulating copies in the same combiner.
    `transmit(round_idx, symbols)` must return (equalized, est_h, noise_var).
    """
    if mode not in ("base1", "base2"):
        raise ValueError(f"unknown baseline mode {mode!r}")
    if budget < 1:
        raise ValueError("round budget must be at least 1")
    chunk = _shared(ctx, "chunk", lambda: _chunk_symbols(ctx))
    ref_loss = _shared(ctx, "ref_loss", lambda: perception_loss(ctx.f_ref, ctx.scene, ctx.head))
    n_chunk = chunk.size
    combiner = ChaseCombiner(n_chunk)
    session = HarqSession(mode=mode, budget=budget)
    for t in range(1, budget + 1):
        if mode == "base1":
            codeword = _shared(ctx, "codeword", lambda: np.tile(chunk, ctx.copies))
            eq, h, noise_var = transmit(t, codeword)
            for i in range(ctx.copies):
                sl = slice(i * n_chunk, (i + 1) * n_chunk)
                combiner.add(eq[sl], h[sl], noise_var)
        else:
            eq, h, noise_var = transmit(t, chunk)
            combiner.add(eq, h, noise_var)
        ack, candidate = _decode_combined(ctx, combiner.combined())
        s_true = true_similarity(ctx.f_ref, candidate, ctx.scene, ctx.head, ref_loss=ref_loss)
        session.rounds.append(RoundRecord(None, s_true, ack, candidate))
        if ack:
            break
    return session
