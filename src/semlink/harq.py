"""Retransmission protocols: semantic ACK/NACK sessions and the classical baseline.

Semantic sessions resend learned symbols and let the similarity scorer decide
acknowledgement; the single-pair variant keeps the latest decoded message as
its candidate, while the two-pair variant sends the second codec from round
two on and sums the decoded messages. The baseline frames its 8-bit codes
with their CRC-24A (3GPP TS 38.212 §5.1) in whole bytes, maps the frame's bits
to Gray QAM with a rate-1/copies repetition code, and either chase-combines
full retransmissions or accumulates one copy per round.

A session runs from a source (SemanticSource, BaselineSource): one scene's
mask, reference and payload, and what every session of that scene derives
from them, computed once as the source is built (a semantic source's
scorer embedding and second-pair symbols on first use: the corpus's
sources have neither). What varies by session (mode, round budget,
threshold, channel) is an argument of the session function. Each round of
every mode is one Reception (the source's `reception`), judged by the scorer
or the CRC; a session is its rounds and whether the last was acknowledged.
A semantic reception is SemanticSource.receive, for the sessions here and
for the scorer's rank corpus (detector.build_corpus), whose sources have no
scorer. A reception is known on the cells its source's mask sends, and
both sources score it there alone (scenegen.SentCells.score), with the
arithmetic that codec training's perception term uses: its map is
scenegen.confidence_map's of the unpacked feature, bit for bit, and its
loss scenegen.perception_loss's up to rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import codec as codec_mod
from .detector import SimilarityScorer, ack_decide, embed_reference, pool_map, score_pooled
from .ofdm import qam_demap_hard, qam_map
from .scenegen import ProxyHead, Scene, sent_cells, true_similarity
from .tensors import FeatureTensor, _frozen, importance_map, pack_nonzero

CRC24_POLY = 0x864CFB
CRC24_BITS = 24


def _build_crc_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        reg = byte << 16
        for _ in range(8):
            if reg & 0x800000:
                reg = ((reg << 1) ^ CRC24_POLY) & 0xFFFFFF
            else:
                reg = (reg << 1) & 0xFFFFFF
        table.append(reg)
    return tuple(table)


_CRC24_TABLE = _build_crc_table()


def crc24(data: np.ndarray) -> int:
    """CRC-24A (poly 0x864CFB, init 0, no reflection) of a uint8 byte vector;
    that of the bytes followed by their CRC, most significant byte first, is 0."""
    reg = 0
    for byte in np.asarray(data, dtype=np.uint8).tolist():
        reg = ((reg << 8) & 0xFFFFFF) ^ _CRC24_TABLE[(reg >> 16) ^ byte]
    return reg


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


@dataclass(frozen=True)
class Reception:
    """One round's decoded message and what the round records of it: the
    perception loss of its candidate (the message on the mask's cells, zero
    elsewhere), its true similarity to the reference, and the scorer's score,
    None in a CRC round. Its message is read-only, so the sessions that share
    one reception cannot alter it."""

    message: np.ndarray
    task_loss: float
    s_true: float
    s_hat: float | None


@dataclass(frozen=True)
class HarqSession:
    """A session's Receptions, one per round used, and whether its last round
    was acknowledged: a session stops at its ACK, so no other round can be."""

    rounds: list[Reception]
    acked: bool

    @property
    def rounds_used(self) -> int:
        return len(self.rounds)

    @property
    def ack_round(self) -> int:
        """1-indexed acknowledged round, or 0 when none was acknowledged."""
        return len(self.rounds) if self.acked else 0


def finalize(session: HarqSession) -> tuple[int, Reception]:
    """Final round and its Reception: the acknowledged round, else the best-scored one.

    Without any acknowledgement, scored sessions pick the highest-scored round
    (ties to the earliest); unscored (CRC) sessions fall back to the last
    combined estimate.
    """
    if not session.rounds:
        raise ValueError("cannot finalize a session with no rounds")
    t = session.ack_round
    if t == 0:
        scored = [r.s_hat for r in session.rounds]  # a session's rounds are all scored or none
        t = len(scored) if scored[0] is None else 1 + scored.index(max(scored))
    return t, session.rounds[t - 1]


def throughput(sessions) -> float:
    """Acknowledged sessions per transmission round actually used."""
    total_rounds = sum(s.rounds_used for s in sessions)
    if total_rounds == 0:
        return float("nan")
    return sum(1 for s in sessions if s.ack_round > 0) / total_rounds


class SemanticSource:
    """One scene's semantic transmission, and what every session of it derives.

    The feature f is masked to its `cells` strongest cells (fixed for the
    whole session) and packed; the packed values are the reference message.
    The reference's perception loss and map pooled to pool x pool (from one
    SentCells.score) and the first pair's symbols are computed as it is
    built; the scorer's embedding of the reference and the second pair's
    symbols on first use, and kept. None depends on mode, SNR or threshold,
    so sessions may share one source (harness.SessionCache).
    Every array it hands out is read-only. The second pair and the scorer
    may be None: such a source cannot run mode sim2, or score, but still
    sends and receives.
    """

    def __init__(
        self, first: codec_mod.SemanticCodec, second: codec_mod.SemanticCodec | None,
        scorer: SimilarityScorer | None, head: ProxyHead, scene: Scene, f: FeatureTensor,
        cells: int, pool: int,
    ):
        self.first = first
        self.second = second
        self.scorer = scorer
        self.pool = pool
        self.mask = importance_map(f, cells)
        self.packed = _frozen(pack_nonzero(f, self.mask))
        self.head = head
        self.sent = sent_cells([scene], [self.mask])
        self.ref_loss, ref_map = self.sent.score(self.packed, head)
        self.ref_pooled = _frozen(pool_map(ref_map, pool))
        self.sym_first = _frozen(codec_mod.encode(first, self.packed))

    @functools.cached_property
    def ref_emb(self) -> np.ndarray:
        """The scorer branch's embedding of ref_pooled."""
        return _frozen(embed_reference(self.scorer, self.ref_pooled))

    @functools.cached_property
    def sym_second(self) -> np.ndarray:
        return _frozen(codec_mod.encode(self.second, self.packed))

    def receive(self, message: np.ndarray) -> tuple[np.ndarray, float, float]:
        """A decoded message's pooled confidence map, perception loss and true
        similarity to the reference, scored on the sent cells alone."""
        loss, cmap = self.sent.score(message, self.head)
        return pool_map(cmap, self.pool), loss, true_similarity(self.ref_loss, loss)

    def reception(self, message: np.ndarray) -> Reception:
        """receive(message), with the scorer's score of the pooled map."""
        pooled, loss, s_true = self.receive(message)
        s_hat = score_pooled(self.scorer, self.ref_emb, pooled)
        return Reception(_frozen(message), loss, s_true, s_hat)


def run_semantic_session(
    src: SemanticSource, mode: str, budget: int, threshold: float, first, transmit
) -> HarqSession:
    """Run up to `budget` rounds of a semantic session.

    mode "sim1" resends the same first-pair symbols every round and keeps the
    latest decoded message as candidate; mode "sim2" switches to the second
    pair from round two and its candidate is the sum of all decoded
    messages. A round is acknowledged when the scorer's score of its
    candidate exceeds `threshold` (ack_decide).

    `first(round_idx)` is the Reception of the first pair's symbols sent in
    that round. Every round that sends them reads it: sim1's rounds and
    sim2's first, which no mode, budget or threshold changes, so
    harness.SessionCache serves them from one memo per SNR and round.
    `transmit(round_idx, symbols)` realizes the channel round trip of sim2's
    second-pair rounds, the only receptions a session makes itself.
    """
    if mode not in ("sim1", "sim2"):
        raise ValueError(f"unknown semantic mode {mode!r}")
    if mode == "sim2" and src.second is None:
        raise ValueError("mode sim2 needs a second codec pair")
    if src.scorer is None:
        raise ValueError("a semantic session needs a scorer")
    if budget < 1:
        raise ValueError("round budget must be at least 1")

    rounds = []
    for t in range(1, budget + 1):
        if mode == "sim1" or t == 1:
            rx = first(t)
        else:
            rx = src.reception(rx.message + codec_mod.decode(src.second, transmit(t, src.sym_second)))
        rounds.append(rx)
        if ack_decide(rx.s_hat, threshold):
            return HarqSession(rounds, True)
    return HarqSession(rounds, False)


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

    The feature f is masked to `cells` cells, its packed values quantized to
    8-bit codes and payload_bits are the frame of the codes and their CRC-24;
    ref_message is the dequantized codes. The QAM chunk (the payload bits,
    zero-padded to whole symbols), the codeword (`copies` chunks: a
    rate-1/copies repetition code) and the reference perception loss are
    computed as it is built. Every array it hands out is read-only. A round's
    Reception carries the dequantized codes as its message and no score: the
    CRC judges it. Its loss is scored on the sent cells alone, like
    SemanticSource's (scenegen.SentCells.score).
    """

    def __init__(
        self, head: ProxyHead, scene: Scene, f: FeatureTensor, cells: int, mod_order: int, copies: int
    ):
        self.mod_order = mod_order
        self.mask = importance_map(f, cells)
        packed = pack_nonzero(f, self.mask)
        self.quantizer = fit_quantizer(packed)
        codes = self.quantizer.quantize(packed)
        frame = codes.tobytes() + crc24(codes).to_bytes(CRC24_BITS // 8, "big")
        self.payload_bits = _frozen(np.unpackbits(np.frombuffer(frame, dtype=np.uint8)))
        self.ref_message = _frozen(self.quantizer.dequantize(codes))
        self.head = head
        self.sent = sent_cells([scene], [self.mask])
        pad = np.zeros((-self.payload_bits.size) % int(math.log2(mod_order)), dtype=np.uint8)
        self.chunk = _frozen(qam_map(np.concatenate([self.payload_bits, pad]), mod_order))
        self.codeword = _frozen(np.tile(self.chunk, copies))
        self.ref_loss = self.sent.score(self.ref_message, head)[0]

    def reception(self, combined: np.ndarray) -> tuple[bool, Reception]:
        """Whether the CRC of a combined chunk's frame passes, and the
        unscored Reception of its dequantized codes."""
        frame = np.packbits(qam_demap_hard(combined, self.mod_order)[: self.payload_bits.size])
        message = _frozen(self.quantizer.dequantize(frame[: frame.size - CRC24_BITS // 8]))
        loss = self.sent.score(message, self.head)[0]
        return crc24(frame) == 0, Reception(message, loss, true_similarity(self.ref_loss, loss), None)


def run_baseline_session(src: BaselineSource, mode: str, budget: int, transmit) -> HarqSession:
    """Run up to `budget` rounds of the classical baseline.

    mode "base1" retransmits the full codeword (every copy of the chunk) each
    round and mode "base2" one chunk; either adds each chunk-long slice it
    received, in order, to one chase combiner. A round is acknowledged
    when the CRC of the combination passes (BaselineSource.reception).
    `transmit(round_idx, symbols)` must return (equalized, est_h, noise_var).
    """
    if mode not in ("base1", "base2"):
        raise ValueError(f"unknown baseline mode {mode!r}")
    if budget < 1:
        raise ValueError("round budget must be at least 1")
    sent = src.codeword if mode == "base1" else src.chunk
    n_chunk = src.chunk.size
    combiner = ChaseCombiner(n_chunk)
    rounds = []
    for t in range(1, budget + 1):
        eq, h, noise_var = transmit(t, sent)
        for i in range(0, sent.size, n_chunk):
            combiner.add(eq[i : i + n_chunk], h[i : i + n_chunk], noise_var)
        passed, rx = src.reception(combiner.combined())
        rounds.append(rx)
        if passed:
            return HarqSession(rounds, True)
    return HarqSession(rounds, False)
