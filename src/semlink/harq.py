"""Retransmission protocols: semantic ACK/NACK sessions and the classical baseline.

Semantic sessions resend learned symbols and let the similarity scorer decide
acknowledgement; the single-pair variant keeps the latest decoded message as
its candidate, while the two-pair variant sends the second codec from round
two on and sums the decoded messages. The baseline quantizes to 8 bits,
appends a CRC-24, maps to Gray QAM with a rate-1/copies repetition code, and
either chase-combines full retransmissions or accumulates one copy per round.

A session runs from a source (SemanticSource, BaselineSource): one scene's
mask, reference and payload, and what every session of that scene derives
from them, computed once. What varies by session (mode, round budget,
threshold, channel) is an argument of the session function. A semantic
reception is SemanticSource.receive, for the sessions here and for the
scorer's rank corpus (detector.build_corpus), whose sources have no scorer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import codec as codec_mod
from .detector import SimilarityScorer, ack_decide, embed_reference, pool_map, score_pooled
from .ofdm import qam_demap_hard, qam_map
from .scenegen import ProxyHead, Scene, confidence_map, perception_loss, true_similarity
from .tensors import (
    FeatureTensor,
    _frozen,
    apply_mask,
    importance_map,
    pack_nonzero,
    unpack,
)

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
    task_loss: float  # perception_loss of the candidate


@dataclass
class HarqSession:
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


class SemanticSource:
    """One scene's semantic transmission, and what every session of it derives.

    The feature f is masked at ratio cr (fixed for the whole session) and
    packed. The reference map pooled to pool x pool, its scorer embedding,
    the reference perception loss and each pair's symbols are computed on
    first use and kept; none depends on mode, SNR or threshold, so sessions
    may share one source (harness.SessionCache). Every array it hands out is
    read-only. The second pair and the scorer may be None: such a source
    cannot run mode sim2, or score, but still sends and receives.
    """

    def __init__(
        self, first: codec_mod.SemanticCodec, second: codec_mod.SemanticCodec | None,
        scorer: SimilarityScorer | None, head: ProxyHead, scene: Scene, f: FeatureTensor,
        cr: float, pool: int,
    ):
        self.first = first
        self.second = second
        self.scorer = scorer
        self.head = head
        self.scene = scene
        self.pool = pool
        self.mask = importance_map(f, cr)
        self.f_ref = apply_mask(f, self.mask)
        self.packed = _frozen(pack_nonzero(f, self.mask))

    @functools.cached_property
    def ref_pooled(self) -> np.ndarray:
        """f_ref's confidence map pooled to the pool x pool grid."""
        return _frozen(pool_map(confidence_map(self.f_ref, self.head), self.pool))

    @functools.cached_property
    def ref_emb(self) -> np.ndarray:
        """The scorer branch's embedding of ref_pooled."""
        return _frozen(embed_reference(self.scorer, self.ref_pooled))

    @functools.cached_property
    def ref_loss(self) -> float:
        return perception_loss(self.f_ref, self.scene, self.head)

    @functools.cached_property
    def sym_first(self) -> np.ndarray:
        return _frozen(codec_mod.encode(self.first, self.packed))

    @functools.cached_property
    def sym_second(self) -> np.ndarray:
        return _frozen(codec_mod.encode(self.second, self.packed))

    def receive(self, message: np.ndarray) -> tuple[FeatureTensor, np.ndarray, float, float]:
        """A decoded message's candidate, its pooled confidence map, its
        perception loss and its true similarity to the reference."""
        candidate = unpack(message, self.mask, self.f_ref.shape)
        loss = perception_loss(candidate, self.scene, self.head)
        pooled = pool_map(confidence_map(candidate, self.head), self.pool)
        return candidate, pooled, loss, true_similarity(self.ref_loss, loss)


def run_semantic_session(
    src: SemanticSource, mode: str, budget: int, threshold: float, transmit
) -> HarqSession:
    """Run up to `budget` rounds of a semantic session.

    mode "sim1" resends the same first-pair symbols every round and keeps the
    latest decoded message as candidate; mode "sim2" switches to the second
    pair from round two and its candidate is the unpacked sum of all decoded
    messages. A round is acknowledged when the scorer's score of its
    candidate exceeds `threshold` (ack_decide). `transmit(round_idx, symbols)`
    realizes one channel round trip.
    """
    if mode not in ("sim1", "sim2"):
        raise ValueError(f"unknown semantic mode {mode!r}")
    if mode == "sim2" and src.second is None:
        raise ValueError("mode sim2 needs a second codec pair")
    if src.scorer is None:
        raise ValueError("a semantic session needs a scorer")
    if budget < 1:
        raise ValueError("round budget must be at least 1")

    session = HarqSession()
    for t in range(1, budget + 1):
        if mode == "sim1" or t == 1:
            message = codec_mod.decode(src.first, transmit(t, src.sym_first))
        else:
            message = message + codec_mod.decode(src.second, transmit(t, src.sym_second))
        candidate, pooled, loss, s_true = src.receive(message)
        s_hat = score_pooled(src.scorer, src.ref_emb, pooled)
        ack = ack_decide(s_hat, threshold)
        session.rounds.append(RoundRecord(s_hat, s_true, ack, candidate, loss))
        if ack:
            break
    return session


class ChaseCombiner:
    """Per-symbol weighted averaging of equalized observations across copies."""

    def __init__(self, n_symbols: int):
        self.n_symbols = n_symbols
        self.num = np.zeros(n_symbols, dtype=np.complex128)
        self.den = np.zeros(n_symbols, dtype=np.float64)

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


class BaselineSource:
    """One scene's quantize+CRC+QAM transmission, and what every session of it derives.

    The feature f is masked at ratio cr, its packed values quantized to 8 bits
    and the CRC appended; f_ref is the dequantized content. The QAM chunk,
    the codeword (`copies` chunks: a rate-1/copies repetition code) and the
    reference perception loss are computed on first use and kept, like
    SemanticSource's. Every array it hands out is read-only.
    """

    def __init__(
        self, head: ProxyHead, scene: Scene, f: FeatureTensor, cr: float, mod_order: int, copies: int
    ):
        self.head = head
        self.scene = scene
        self.mod_order = mod_order
        self.copies = copies
        self.mask = importance_map(f, cr)
        packed = pack_nonzero(f, self.mask)
        self.quantizer = fit_quantizer(packed)
        codes = self.quantizer.quantize(packed)
        self.payload_bits = _frozen(append_crc24(bytes_to_bits(codes)))
        self.f_ref = unpack(self.quantizer.dequantize(codes), self.mask, f.shape)

    @functools.cached_property
    def chunk(self) -> np.ndarray:
        """QAM symbols of one code chunk: the payload bits, zero-padded to whole symbols."""
        bits = self.payload_bits
        bps = int(math.log2(self.mod_order))
        pad = (-bits.size) % bps
        if pad:
            bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
        return _frozen(qam_map(bits, self.mod_order))

    @functools.cached_property
    def codeword(self) -> np.ndarray:
        return _frozen(np.tile(self.chunk, self.copies))

    @functools.cached_property
    def ref_loss(self) -> float:
        return perception_loss(self.f_ref, self.scene, self.head)

    def decode(self, combined: np.ndarray) -> tuple[bool, FeatureTensor]:
        """Whether the CRC of a combined chunk passes, and its candidate."""
        bits = qam_demap_hard(combined, self.mod_order)[: self.payload_bits.size]
        ack = verify_crc24(bits)
        codes = bits_to_bytes(bits[: bits.size - CRC24_BITS])
        return ack, unpack(self.quantizer.dequantize(codes), self.mask, self.f_ref.shape)


def run_baseline_session(src: BaselineSource, mode: str, budget: int, transmit) -> HarqSession:
    """Run up to `budget` rounds of the classical baseline.

    mode "base1" retransmits the full codeword (src.copies copies of the
    chunk) and chase-combines every copy; mode "base2" sends one copy per
    round, accumulating copies in the same combiner.
    `transmit(round_idx, symbols)` must return (equalized, est_h, noise_var).
    """
    if mode not in ("base1", "base2"):
        raise ValueError(f"unknown baseline mode {mode!r}")
    if budget < 1:
        raise ValueError("round budget must be at least 1")
    n_chunk = src.chunk.size
    combiner = ChaseCombiner(n_chunk)
    session = HarqSession()
    for t in range(1, budget + 1):
        if mode == "base1":
            eq, h, noise_var = transmit(t, src.codeword)
            for i in range(src.copies):
                sl = slice(i * n_chunk, (i + 1) * n_chunk)
                combiner.add(eq[sl], h[sl], noise_var)
        else:
            eq, h, noise_var = transmit(t, src.chunk)
            combiner.add(eq, h, noise_var)
        ack, candidate = src.decode(combiner.combined())
        loss = perception_loss(candidate, src.scene, src.head)
        session.rounds.append(
            RoundRecord(None, true_similarity(src.ref_loss, loss), ack, candidate, loss)
        )
        if ack:
            break
    return session
