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
sources have neither). A source's `rounds` makes every round that sessions
of some modes read, over a batch of channels (harness.SessionCache sends
one per SNR): each round sends its symbols once to the rows of the batch
that some session still reads, those not yet acknowledged, and decodes,
scores, combines, demaps and checks the CRC of all of them at once. Each
row is one Reception per round up to its first acknowledged one, judged by
the scorer at the threshold `rounds` is given or by the CRC, bitwise what a
batch of that row alone gives: every net runs a row as a one-row matrix. A
session (run_semantic_session, run_baseline_session) walks one row's rounds
to the first acknowledged one, a semantic session at the threshold it is
given. A semantic reception is SemanticSource.receive, for the sessions
here and for the scorer's rank corpus (detector.build_corpus), whose
sources have no scorer.
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
from .scenegen import ProxyHead, Scene, sent_cells, true_similarity
from .tensors import FeatureTensor, _frozen, importance_map, pack_nonzero

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
        ref_loss, ref_map = self.sent.score(self.packed, head)
        self.ref_loss = float(ref_loss)
        self.ref_pooled = _frozen(pool_map(ref_map, pool))
        self.sym_first = _frozen(codec_mod.encode(first, self.packed))

    @functools.cached_property
    def ref_emb(self) -> np.ndarray:
        """The scorer branch's embedding of ref_pooled."""
        return _frozen(embed_reference(self.scorer, self.ref_pooled))

    @functools.cached_property
    def sym_second(self) -> np.ndarray:
        return _frozen(codec_mod.encode(self.second, self.packed))

    def receive(self, messages: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decoded messages' (..., C*k) pooled confidence maps, perception
        losses and true similarities to the reference, scored on the sent
        cells alone."""
        loss, cmap = self.sent.score(messages, self.head)
        s_true = [true_similarity(self.ref_loss, x) for x in loss.reshape(-1).tolist()]
        return pool_map(cmap, self.pool), loss, np.reshape(s_true, loss.shape)

    def receptions(self, messages: np.ndarray) -> list[Reception]:
        """One Reception per row of decoded messages (B, C*k): receive, with
        the scorer's score of each pooled map."""
        messages = _frozen(messages)
        pooled, loss, s_true = self.receive(messages)
        s_hat = score_pooled(self.scorer, self.ref_emb, pooled)
        return [Reception(*rx) for rx in zip(messages, loss.tolist(), s_true.tolist(), s_hat.tolist())]

    def rounds(
        self, modes, budget: int, batch: int, send, threshold: float
    ) -> dict[str, list[list[Reception]]]:
        """Per mode of `modes`, per row of a batch of `batch` channels, the
        Receptions of its rounds up to the first whose score exceeds
        `threshold` (ack_decide): its budget's at most, noharq's one.

        Mode "sim1" resends the first pair's symbols every round and keeps
        the latest decoded message as candidate; "sim2" sends the second
        pair from round two and its candidate is the sum of all decoded
        messages; "noharq" is sim1's first round. Modes share the rounds
        that send the first pair. `send(t, symbols, rows)` returns round t's
        (len(rows), n) equalized symbols on those rows of the batch; a round
        goes to the rows whose previous round was not acknowledged.
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

        def nacked(chains, t):
            """The rows whose chain holds t - 1 rounds, the last not acknowledged."""
            return [b for b, c in enumerate(chains)
                    if len(c) == t - 1 and not ack_decide(c[-1].s_hat, threshold)]

        def first_pair(t, rows):
            return self.receptions(codec_mod.decode(self.first, send(t, self.sym_first, rows)))

        first = [[rx] for rx in first_pair(1, range(batch))]
        for t in range(2, (budget if "sim1" in modes else 1) + 1):
            rows = nacked(first, t)
            if not rows:
                break
            for b, rx in zip(rows, first_pair(t, rows)):
                first[b].append(rx)
        by_mode = {"noharq": [c[:1] for c in first], "sim1": first}
        if "sim2" in modes:
            by_mode["sim2"] = second = [c[:1] for c in first]
            for t in range(2, budget + 1):
                rows = nacked(second, t)
                if not rows:
                    break
                total = np.stack([second[b][-1].message for b in rows])  # the sum so far
                total = total + codec_mod.decode(self.second, send(t, self.sym_second, rows))
                for b, rx in zip(rows, self.receptions(total)):
                    second[b].append(rx)
        return {mode: by_mode[mode] for mode in modes}


def _first_ack(rounds) -> HarqSession:
    """The session of (acknowledged, Reception) rounds that stops at the
    first acknowledged one."""
    for t, (ack, _) in enumerate(rounds, start=1):
        if ack:
            return HarqSession([rx for _, rx in rounds[:t]], True)
    return HarqSession([rx for _, rx in rounds], False)


def run_semantic_session(rounds: list[Reception], threshold: float) -> HarqSession:
    """A session over one row of SemanticSource.rounds: it stops at the
    first round whose score exceeds `threshold` (ack_decide)."""
    return _first_ack([(ack_decide(rx.s_hat, threshold), rx) for rx in rounds])


class ChaseCombiner:
    """Per-symbol weighted averaging of equalized observations across copies,
    of one vector or of each row of a batch, that of the observations added."""

    def __init__(self, n_symbols: int):
        self.n_symbols = n_symbols
        self.num = 0.0
        self.den = 0.0

    def add(self, eq_symbols: np.ndarray, h: np.ndarray, noise_var) -> None:
        """Observations and estimates (..., n_symbols), noise_var one per row."""
        eq_symbols = np.asarray(eq_symbols, dtype=np.complex128)
        h = np.asarray(h, dtype=np.complex128)
        if eq_symbols.shape[-1:] != (self.n_symbols,) or h.shape != eq_symbols.shape:
            raise ValueError("observation length does not match the combiner")
        w = np.abs(h) ** 2 / np.maximum(np.asarray(noise_var, dtype=np.float64), 1e-30)[..., None]
        self.num = self.num + w * eq_symbols
        self.den = self.den + w

    def keep(self, rows) -> None:
        """Keep the observations of these rows of the batch alone, in this order."""
        self.num, self.den = self.num[rows], self.den[rows]

    def combined(self) -> np.ndarray:
        if np.any(np.asarray(self.den) == 0.0):
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
    SemanticSource's, and no confidence map is made of it
    (scenegen.SentCells.loss).
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
        self.ref_loss = float(self.sent.loss(self.ref_message, head))

    def reception(self, combined: np.ndarray) -> list[tuple[bool, Reception]]:
        """Per row of combined chunks (B, chunk): whether the CRC of its
        frame passes, and the unscored Reception of its dequantized codes."""
        frames = np.packbits(qam_demap_hard(combined, self.mod_order)[..., : self.payload_bits.size], axis=-1)
        messages = _frozen(self.quantizer.dequantize(frames[..., : frames.shape[-1] - CRC24_BITS // 8]))
        losses = self.sent.loss(messages, self.head).tolist()
        return [
            (bool(ok), Reception(m, x, true_similarity(self.ref_loss, x), None))
            for ok, m, x in zip(crc24(frames) == 0, messages, losses)
        ]

    def rounds(self, modes, budget: int, batch: int, send) -> dict[str, list[list[tuple[bool, Reception]]]]:
        """Per mode of `modes`, per row of a batch of `batch` channels, the
        CRC verdicts and Receptions of its budget's rounds, up to the first
        whose CRC passes.

        Mode "base1" retransmits the full codeword (every copy of the chunk)
        each round and mode "base2" one chunk; either adds each chunk-long
        slice it received, in order, to one chase combiner per row, whose
        combination a round judges (reception). `send(t, symbols, rows)`
        returns round t's (equalized, est_h, noise_var) on those rows of the
        batch: (len(rows), n), (len(rows), n) and (len(rows),); a round goes
        to the rows whose CRC has not passed.
        """
        if budget < 1:
            raise ValueError("round budget must be at least 1")
        out = {}
        for mode in modes:
            if mode not in ("base1", "base2"):
                raise ValueError(f"unknown baseline mode {mode!r}")
            sent, n_chunk = (self.codeword if mode == "base1" else self.chunk), self.chunk.size
            combiner, rows = ChaseCombiner(n_chunk), list(range(batch))
            out[mode] = chains = [[] for _ in rows]
            for t in range(1, budget + 1):
                eq, h, noise_var = send(t, sent, rows)
                for i in range(0, sent.size, n_chunk):
                    combiner.add(eq[..., i : i + n_chunk], h[..., i : i + n_chunk], noise_var)
                for b, verdict in zip(rows, self.reception(combiner.combined())):
                    chains[b].append(verdict)
                failed = [k for k, b in enumerate(rows) if not chains[b][-1][0]]
                if not failed:
                    break
                combiner.keep(failed)
                rows = [rows[k] for k in failed]
        return out


def run_baseline_session(rounds: list[tuple[bool, Reception]]) -> HarqSession:
    """A session over one row of BaselineSource.rounds: it stops at the
    first round whose CRC passes."""
    return _first_ack(rounds)
