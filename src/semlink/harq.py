"""Retransmission protocols: semantic ACK/NACK sessions and the classical baseline.

Semantic sessions resend learned symbols and let the similarity scorer decide
acknowledgement; the single-pair variant keeps the latest decoded message as
its candidate, while the two-pair variant sends the second codec from round
two on and sums the decoded messages. The baseline quantizes each scene's
values to 8-bit codes on their own min/max, frames the codes with their
CRC-24A (3GPP TS 38.212 §5.1) in whole bytes, maps the frame's bits to Gray
QAM with a rate-1/copies repetition code, and either chase-combines full
retransmissions or accumulates one copy per round.

A session runs from a source (SemanticSource, BaselineSource): a block of
scenes' masks, references and payloads, one row per scene, and what every
session of those scenes derives from them, computed once as the source is
built (a semantic source's scorer embeddings and second-pair symbols on
first use: the corpus's one-scene sources have neither). Every protocol
runs one HARQ loop (_chains) over a batch of channels, each a row of one
of the source's scenes (harness._block_rows sends one per index and SNR
of its block), and supplies only its round, which sends once to the rows
not yet acknowledged, each its scene's symbols, and decodes, combines and
judges them at once, each on its scene's cells and reference. Each row is
its Receptions up to its first acknowledged one, bitwise what a batch of
that row alone on a source of its scene alone gives (every net runs a row
as a one-row matrix), and is one session (run_semantic_session,
run_baseline_session). Each Reception carries its
ACK verdict, made where it is scored: by the scorer at the threshold given
to SemanticSource.rounds, or by the CRC. A semantic reception is
SemanticSource.receive, for the sessions here and for the scorer's rank
corpus (detector.build_corpus), whose sources have no scorer.
A reception is known on the cells its source's mask sends, and both
sources score it there alone (scenegen.SentCells.score), with the
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
from .scenegen import ProxyHead, sent_cells, true_similarity
from .tensors import _frozen, importance_map, pack_nonzero

CRC24_POLY = 0x864CFB
CRC24_BITS = 24


@functools.lru_cache(maxsize=64)
def _crc24_registers(n_bits: int) -> np.ndarray:
    """CRC-24A register of each n_bits frame with one set bit, by the bit's
    position: x^24 mod the generator for the last bit, times x per bit after."""
    regs = np.empty(n_bits, dtype=np.int64)
    reg = CRC24_POLY
    for i in range(n_bits - 1, -1, -1):
        regs[i] = reg
        reg = ((reg << 1) ^ (CRC24_POLY if reg & 0x800000 else 0)) & 0xFFFFFF
    return _frozen(regs)


def crc24(data: np.ndarray):
    """CRC-24A (poly 0x864CFB, init 0, no reflection) of uint8 byte vectors
    (..., L): an int for one vector. That of bytes followed by their CRC, most
    significant byte first, is 0. With init 0 and no final XOR the CRC is
    GF(2)-linear: the XOR of the registers of the frame's set bits."""
    bits = np.unpackbits(np.asarray(data, dtype=np.uint8), axis=-1)
    reg = np.bitwise_xor.reduce(bits * _crc24_registers(bits.shape[-1]), axis=-1)
    return int(reg) if reg.ndim == 0 else reg


@dataclass(frozen=True)
class Quantizer8:
    """Affine 8-bit quantizer: value ~ zero_point + code * scale. Made with
    (N, 1) columns of scales and zero points, it quantizes and dequantizes
    row i of (N, k) values with the quantizer of row i. A scale of 0 (a
    constant row) quantizes every value to code 0."""

    scale: float | np.ndarray
    zero_point: float | np.ndarray

    def quantize(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        flat = self.scale == 0.0
        codes = np.round((values - self.zero_point) / np.where(flat, 1.0, self.scale))
        return np.where(flat, 0, np.clip(codes, 0, 255)).astype(np.uint8)

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        return self.zero_point + np.asarray(codes, dtype=np.float64) * self.scale


def fit_quantizer(values: np.ndarray) -> Quantizer8:
    """Min/max-fitted quantizer of each row of values (..., k), as read-only
    (..., 1) columns; in-range round trip error is at most scale/2."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot fit a quantizer to an empty array")
    if not np.all(np.isfinite(values)):
        raise ValueError("quantizer inputs must be finite")
    lo, hi = values.min(axis=-1, keepdims=True), values.max(axis=-1, keepdims=True)
    return Quantizer8(scale=_frozen((hi - lo) / 255.0), zero_point=_frozen(lo))


@dataclass(frozen=True)
class Reception:
    """One round's decoded message and what the round records of it: the
    perception loss of its candidate (the message on the mask's cells, zero
    elsewhere), its true similarity to the reference, the scorer's score,
    None in a CRC round, and whether the receiver acknowledged it. Its
    message is read-only, so the sessions that share one reception cannot
    alter it."""

    message: np.ndarray
    task_loss: float
    s_true: float
    s_hat: float | None
    acked: bool


@dataclass(frozen=True)
class HarqSession:
    """A session's Receptions, one per round used: a session stops at its
    ACK, so only its last round can be acknowledged."""

    rounds: list[Reception]

    def __post_init__(self):
        if not self.rounds:
            raise ValueError("a session has at least one round")

    @property
    def acked(self) -> bool:
        return self.rounds[-1].acked

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


def _chains(batch: int, budget: int, step) -> list[list[Reception]]:
    """Per row of a batch of `batch` channels, the Receptions of its rounds up
    to its first acknowledged one, its budget's at most: the one HARQ loop.
    `step(t, rows)` makes round t's Receptions of those rows of the batch,
    the ones not acknowledged by round t - 1, in their order."""
    chains, rows = [[] for _ in range(batch)], list(range(batch))
    for t in range(1, budget + 1):
        for b, rx in zip(rows, step(t, rows), strict=True):
            chains[b].append(rx)
        rows = [b for b in rows if not chains[b][-1].acked]
        if not rows:
            break
    return chains


class SemanticSource:
    """A block of scenes' semantic transmissions, and what every session of
    them derives.

    Scene i's feature features[i] is masked to its `cells` strongest cells
    (fixed for the whole session) and packed; packed[i] is its reference
    message. The references' perception losses and maps pooled to pool x
    pool (from one SentCells.score of them all) and the first pair's symbols
    are computed as it is built; the scorer's embeddings of the references
    and the second pair's symbols on first use, and kept. Each array holds
    one row per scene. None depends on mode, SNR or threshold, so every
    session of a block runs from one source (harness._block_rows). Every
    array it hands out is read-only. The second pair and the scorer may be
    None: such a source cannot run mode sim2, or score, but still sends and
    receives.
    """

    def __init__(
        self, first: codec_mod.SemanticCodec, second: codec_mod.SemanticCodec | None,
        scorer: SimilarityScorer | None, head: ProxyHead, scenes, features, cells: int, pool: int,
    ):
        self.first = first
        self.second = second
        self.scorer = scorer
        self.pool = pool
        self.masks = tuple(importance_map(f, cells) for f in features)
        self.packed = _frozen(np.stack([pack_nonzero(f, m) for f, m in zip(features, self.masks)]))
        self.head = head
        self.sent = sent_cells(scenes, self.masks)
        ref_loss, ref_map = self.sent.score(self.packed, head)
        self.ref_loss = _frozen(ref_loss)
        self.ref_pooled = _frozen(pool_map(ref_map, pool))
        self.sym_first = self._encode(first)

    def _encode(self, codec: codec_mod.SemanticCodec) -> np.ndarray:
        return _frozen(np.stack([codec_mod.encode(codec, m) for m in self.packed]))

    @functools.cached_property
    def ref_emb(self) -> np.ndarray:
        """The scorer branch's embedding of each ref_pooled, (scenes, 1, width)."""
        return _frozen(np.stack([embed_reference(self.scorer, ref) for ref in self.ref_pooled]))

    @functools.cached_property
    def sym_second(self) -> np.ndarray:
        return self._encode(self.second)

    def receive(self, messages: np.ndarray, scenes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decoded messages' (B, C*k) pooled confidence maps, perception losses
        and true similarities to the reference, row b a message of scene
        scenes[b], scored on that scene's sent cells alone."""
        scenes = np.asarray(scenes, dtype=np.intp)
        loss, cmap = self.sent.rows(scenes).score(messages, self.head)
        s_true = [true_similarity(r, x) for r, x in zip(self.ref_loss[scenes].tolist(), loss.tolist())]
        return pool_map(cmap, self.pool), loss, np.array(s_true)

    def receptions(self, messages: np.ndarray, scenes, threshold: float) -> list[Reception]:
        """One Reception per row of decoded messages (B, C*k), row b of scene
        scenes[b]: receive, with the scorer's score of each pooled map
        against its scene's reference and its verdict at `threshold`
        (ack_decide)."""
        messages, scenes = _frozen(messages), np.asarray(scenes, dtype=np.intp)
        pooled, loss, s_true = self.receive(messages, scenes)
        s_hat = score_pooled(self.scorer, self.ref_emb[scenes], pooled).tolist()
        return [Reception(m, x, s, h, ack_decide(h, threshold))
                for m, x, s, h in zip(messages, loss.tolist(), s_true.tolist(), s_hat)]

    def rounds(
        self, modes, budget: int, scenes, send, threshold: float
    ) -> dict[str, list[list[Reception]]]:
        """Per mode of `modes`, per row of a batch of channels, row b a
        channel of scene scenes[b], the Receptions of its rounds up to the
        first whose score exceeds `threshold`: its budget's at most,
        noharq's one (_chains).

        Mode "sim1" resends the first pair's symbols every round and keeps
        the latest decoded message as candidate; "sim2" sends the second
        pair from round two and its candidate is the sum of all decoded
        messages; "noharq" is sim1's first round. Modes share the rounds
        that send the first pair. `send(t, symbols, rows)` returns round t's
        (len(rows), n) equalized symbols on those rows of the batch, given
        each row's symbols (len(rows), n).
        """
        for mode in modes:
            if mode not in ("noharq", "sim1", "sim2"):
                raise ValueError(f"unknown semantic mode {mode!r}")
        if "sim2" in modes and self.second is None:
            raise ValueError("mode sim2 needs a second codec pair")
        if self.scorer is None:
            raise ValueError("a semantic session needs a scorer")
        if budget < 1:
            raise ValueError("round budget must be at least 1")
        scenes = np.asarray(scenes, dtype=np.intp)

        def first_pair(t, rows):
            rx = send(t, self.sym_first[scenes[rows]], rows)
            return self.receptions(codec_mod.decode(self.first, rx), scenes[rows], threshold)

        first = _chains(len(scenes), budget if "sim1" in modes else 1, first_pair)
        by_mode = {"noharq": [c[:1] for c in first], "sim1": first}
        if "sim2" in modes:
            total = np.stack([c[0].message for c in first])  # each row's sum so far

            def second_pair(t, rows):
                if t == 1:
                    return [first[b][0] for b in rows]
                rx = send(t, self.sym_second[scenes[rows]], rows)
                summed = total[rows] + codec_mod.decode(self.second, rx)
                total[rows] = summed
                return self.receptions(summed, scenes[rows], threshold)

            by_mode["sim2"] = _chains(len(scenes), budget, second_pair)
        return {mode: by_mode[mode] for mode in modes}


def run_semantic_session(rounds: list[Reception]) -> HarqSession:
    """The session of one row of SemanticSource.rounds."""
    return HarqSession(rounds)


class ChaseCombiner:
    """Per-symbol weighted averaging of equalized observations across copies,
    for each row of a batch of `batch` channels, of what was added to it."""

    def __init__(self, batch: int, n_symbols: int):
        self.num = np.zeros((batch, n_symbols), dtype=np.complex128)
        self.den = np.zeros((batch, n_symbols))

    def add(self, rows, eq_symbols: np.ndarray, h: np.ndarray, noise_var) -> np.ndarray:
        """Add observations and estimates (len(rows), copies * n_symbols) to
        these rows of the batch, noise_var one per row, each n_symbols-long
        slice one copy in order; return the rows' combination (len(rows),
        n_symbols)."""
        eq_symbols, h = np.asarray(eq_symbols, dtype=np.complex128), np.asarray(h, dtype=np.complex128)
        n = self.num.shape[-1]
        if eq_symbols.shape[-1] % n or h.shape != eq_symbols.shape:
            raise ValueError("observation length does not match the combiner")
        w = np.abs(h) ** 2 / np.maximum(np.asarray(noise_var, dtype=np.float64), 1e-30)[..., None]
        rows = np.asarray(rows)
        num, den = self.num[rows], self.den[rows]
        for i in range(0, eq_symbols.shape[-1], n):
            num = num + w[..., i : i + n] * eq_symbols[..., i : i + n]
            den = den + w[..., i : i + n]
        if np.any(den == 0.0):
            raise ValueError("combiner has positions with no observations")
        self.num[rows], self.den[rows] = num, den
        return num / den


class BaselineSource:
    """A block of scenes' quantize+CRC+QAM transmissions, and what every
    session of them derives.

    Scene i's feature features[i] is masked to `cells` cells, its packed
    values quantized to 8-bit codes on their own min/max, and
    payload_bits[i] is the frame of the codes and their CRC-24;
    ref_message[i] is the dequantized codes. The QAM chunk (the payload
    bits, zero-padded to whole symbols), the codeword (`copies` chunks: a
    rate-1/copies repetition code) and the reference perception loss are
    computed as it is built, every scene's row in one pass. Every array it
    hands out is read-only. A round's Reception carries the
    dequantized codes as its message and no score: the CRC judges it. Its
    loss is scored on the sent cells alone, like SemanticSource's, and no
    confidence map is made of it (scenegen.SentCells.loss).
    """

    def __init__(self, head: ProxyHead, scenes, features, cells: int, mod_order: int, copies: int):
        self.mod_order = mod_order
        self.masks = tuple(importance_map(f, cells) for f in features)
        packed = np.stack([pack_nonzero(f, m) for f, m in zip(features, self.masks)])
        self.quantizer = fit_quantizer(packed)  # a column per scene
        codes = self.quantizer.quantize(packed)
        crc = crc24(codes)[:, None] >> np.arange(CRC24_BITS - 8, -1, -8)  # its bytes, most significant first
        frames = np.concatenate([codes, crc.astype(np.uint8)], axis=-1)
        self.payload_bits = _frozen(np.unpackbits(frames, axis=-1))
        self.ref_message = _frozen(self.quantizer.dequantize(codes))
        self.head = head
        self.sent = sent_cells(scenes, self.masks)
        n = len(codes)
        n_bits = self.payload_bits.shape[-1]
        pad = np.zeros((n, (-n_bits) % int(math.log2(mod_order))), dtype=np.uint8)
        chunk = qam_map(np.concatenate([self.payload_bits, pad], axis=-1), mod_order)
        self.chunk = _frozen(chunk.reshape(n, -1))
        self.codeword = _frozen(np.tile(self.chunk, copies))
        self.ref_loss = _frozen(self.sent.loss(self.ref_message, head))

    def reception(self, combined: np.ndarray, scenes) -> list[Reception]:
        """Per row of combined chunks (B, chunk), row b of scene scenes[b]: the
        unscored Reception of its dequantized codes, acknowledged when the
        CRC of its frame passes."""
        scenes = np.asarray(scenes, dtype=np.intp)
        n_bits = self.payload_bits.shape[-1]
        frames = np.packbits(qam_demap_hard(combined, self.mod_order)[..., :n_bits], axis=-1)
        codes = frames[..., : frames.shape[-1] - CRC24_BITS // 8]
        q = Quantizer8(self.quantizer.scale[scenes], self.quantizer.zero_point[scenes])
        messages = _frozen(q.dequantize(codes))
        losses = self.sent.rows(scenes).loss(messages, self.head).tolist()
        return [
            Reception(m, x, true_similarity(r, x), None, bool(ok))
            for m, x, r, ok in zip(messages, losses, self.ref_loss[scenes].tolist(), crc24(frames) == 0)
        ]

    def rounds(self, modes, budget: int, scenes, send) -> dict[str, list[list[Reception]]]:
        """Per mode of `modes`, per row of a batch of channels, row b a
        channel of scene scenes[b], the Receptions of its rounds up to the
        first whose CRC passes: its budget's at most (_chains).

        Mode "base1" retransmits the full codeword (every copy of the chunk)
        each round and mode "base2" one chunk; either adds each chunk-long
        slice it received, in order, to its row of one chase combiner per
        mode, whose combination a round judges (reception). `send(t,
        symbols, rows)` returns round t's (equalized, est_h, noise_var) on
        those rows of the batch, given each row's symbols (len(rows), n):
        (len(rows), n), (len(rows), n) and (len(rows),).
        """
        sent = {"base1": self.codeword, "base2": self.chunk}
        for mode in modes:
            if mode not in sent:
                raise ValueError(f"unknown baseline mode {mode!r}")
        if budget < 1:
            raise ValueError("round budget must be at least 1")
        scenes = np.asarray(scenes, dtype=np.intp)
        out = {}
        for mode in modes:
            combiner = ChaseCombiner(len(scenes), self.chunk.shape[-1])

            def step(t, rows):
                combined = combiner.add(rows, *send(t, sent[mode][scenes[rows]], rows))
                return self.reception(combined, scenes[rows])

            out[mode] = _chains(len(scenes), budget, step)
        return out


def run_baseline_session(rounds: list[Reception]) -> HarqSession:
    """The session of one row of BaselineSource.rounds."""
    return HarqSession(rounds)
