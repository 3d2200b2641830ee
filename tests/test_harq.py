"""Retransmission protocol tests: CRC, quantizer, combining, session logic."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semlink import codec as codec_mod
from semlink import detector as det
from semlink.config import BaselineSection, ExperimentConfig
from semlink.harq import (
    CRC24_BITS,
    BaselineSource,
    ChaseCombiner,
    HarqSession,
    Quantizer8,
    Reception,
    SemanticSource,
    crc24,
    finalize,
    fit_quantizer,
    run_baseline_session,
    run_semantic_session,
    throughput,
)
from semlink.ofdm import QAM_ORDERS, qam_demap_hard, qam_map
from semlink.scenegen import (
    ProxyHead,
    SceneConfig,
    SentCells,
    confidence_map,
    generate_scene,
    perception_loss,
    perception_loss_grad,
    sent_cells,
    true_similarity,
)
from semlink.tensors import importance_map, pack_nonzero, unpack

from conftest import score


def _bit_serial_crc(bits, poly=0x864CFB):
    reg = 0
    for b in bits:
        reg ^= int(b) << 23
        reg = ((reg << 1) ^ poly) & 0xFFFFFF if reg & 0x800000 else (reg << 1) & 0xFFFFFF
    return reg


def _bytes(raw: bytes) -> np.ndarray:
    return np.frombuffer(raw, dtype=np.uint8)


def _framed(data: np.ndarray) -> np.ndarray:
    """data followed by its CRC, most significant byte first."""
    return np.concatenate([data, _bytes(crc24(data).to_bytes(3, "big"))])


def _crc_table():
    """The CRC-24A register after each byte value, fed into a zero register."""
    table = []
    for byte in range(256):
        reg = byte << 16
        for _ in range(8):
            reg = ((reg << 1) ^ 0x864CFB) & 0xFFFFFF if reg & 0x800000 else (reg << 1) & 0xFFFFFF
        table.append(reg)
    return table


_CRC_TABLE = _crc_table()


def _table_crc(data: bytes) -> int:
    """CRC-24A by the byte-table loop: the oracle of crc24's parity matrix."""
    reg = 0
    for byte in data:
        reg = ((reg << 8) & 0xFFFFFF) ^ _CRC_TABLE[(reg >> 16) ^ byte]
    return reg


@given(st.lists(st.binary(min_size=0, max_size=80), min_size=1, max_size=4), st.integers(0, 80))
@settings(max_examples=150, deadline=None)
def test_crc_is_the_byte_table_loop_row_by_row(frames, length):
    # a frame of any length is the loop's CRC, and, with that CRC appended,
    # checks to 0; a batch of equal-length frames is each row's CRC
    for raw in frames:
        assert crc24(_bytes(raw)) == _table_crc(raw)
        assert crc24(_bytes(raw + _table_crc(raw).to_bytes(3, "big"))) == 0
    rows = [(raw * (length + 1))[:length] for raw in frames if raw] or [bytes(length)]
    batch = np.stack([_bytes(row) for row in rows])
    got = crc24(batch[None])
    assert got.shape == (1, len(batch))
    assert got[0].tolist() == [_table_crc(row.tobytes()) for row in batch]


def test_crc_all_zero_is_zero():
    assert crc24(np.zeros(8, dtype=np.uint8)) == 0
    assert crc24(np.zeros(0, dtype=np.uint8)) == 0


def test_crc_frozen_values():
    assert crc24(_bytes(b"123456789")) == 0xCDE703
    assert crc24(_bytes(b"\xff\xff\xff")) == 0xEDF8CE
    assert crc24(_bytes(b"\xde\xad\xbe\xef")) == 0x6432C5


def test_crc_matches_bit_serial_reference():
    rng = np.random.default_rng(0)
    for n in (1, 7, 8, 9, 63, 64, 65, 200):
        data = rng.integers(0, 256, size=n).astype(np.uint8)
        assert crc24(data) == _bit_serial_crc(np.unpackbits(data))


@given(st.binary(min_size=0, max_size=15))
@settings(max_examples=100, deadline=None)
def test_appended_crc_verifies(raw):
    framed = _framed(_bytes(raw))
    assert framed.size == len(raw) + CRC24_BITS // 8
    assert crc24(framed) == 0


def test_crc_detects_all_single_flips_512():
    rng = np.random.default_rng(1)
    bits = np.unpackbits(_framed(rng.integers(0, 256, size=64).astype(np.uint8)))
    for i in range(bits.size):
        bad = bits.copy()
        bad[i] ^= 1
        assert crc24(np.packbits(bad)) != 0


def test_crc_detects_short_bursts():
    # any error burst no longer than the CRC width is caught
    rng = np.random.default_rng(2)
    bits = np.unpackbits(_framed(rng.integers(0, 256, size=32).astype(np.uint8)))
    for _ in range(2000):
        width = int(rng.integers(1, CRC24_BITS + 1))
        start = int(rng.integers(0, bits.size - width + 1))
        pattern = rng.integers(0, 2, size=width).astype(np.uint8)
        pattern[0] = 1
        pattern[-1] = 1
        bad = bits.copy()
        bad[start : start + width] ^= pattern
        assert crc24(np.packbits(bad)) != 0


def test_quantizer_roundtrip_error_bound():
    rng = np.random.default_rng(3)
    values = rng.uniform(-4.0, 9.0, size=500)
    quant = fit_quantizer(values)
    back = quant.dequantize(quant.quantize(values))
    assert np.max(np.abs(back - values)) <= quant.scale / 2 + 1e-12


def test_quantizer_clamps_out_of_range():
    quant = Quantizer8(scale=0.1, zero_point=0.0)
    codes = quant.quantize(np.array([-5.0, 100.0]))
    assert codes.tolist() == [0, 255]


def test_quantizer_constant_input():
    quant = fit_quantizer(np.full(10, 2.5))
    assert quant.scale == 0.0
    codes = quant.quantize(np.full(10, 2.5))
    assert np.array_equal(codes, np.zeros(10, dtype=np.uint8))
    assert np.allclose(quant.dequantize(codes), 2.5)


def test_quantizer_input_validation():
    with pytest.raises(ValueError):
        fit_quantizer(np.zeros(0))
    with pytest.raises(ValueError):
        fit_quantizer(np.array([1.0, np.nan]))


def _fake_session(n_rounds, acked, s_hats=None):
    """A session of n_rounds Receptions, unscored unless s_hats are given,
    whose last is acknowledged if `acked`."""
    rounds = [
        Reception(np.full(4, float(t)), 0.0, 0.0, None if s_hats is None else s_hats[t],
                  acked and t == n_rounds - 1)
        for t in range(n_rounds)
    ]
    return HarqSession(rounds)


def test_throughput_values():
    assert throughput([_fake_session(1, True), _fake_session(1, True)]) == 1.0
    assert throughput([_fake_session(3, False)]) == 0.0
    # one ack in round 1 plus one ack in round 2: 2 acks over 3 rounds
    assert abs(throughput([_fake_session(1, True), _fake_session(2, True)]) - 2 / 3) < 1e-15
    assert math.isnan(throughput([]))


def test_finalize_prefers_ack_round():
    # a session ends at its ACK: the acknowledged last round is final, though
    # an earlier round scored higher
    session = _fake_session(3, True, s_hats=[0.9, 0.2, 0.8])
    t, final = finalize(session)
    assert t == 3
    assert final is session.rounds[2]
    assert np.array_equal(final.message, np.full(4, 2.0))


def test_finalize_best_score_when_no_ack():
    session = _fake_session(3, False, s_hats=[0.3, 0.6, 0.5])
    assert finalize(session)[0] == 2
    ties = _fake_session(2, False, s_hats=[0.4, 0.4])
    assert finalize(ties)[0] == 1


def test_finalize_unscored_falls_back_to_last():
    session = _fake_session(3, False)
    assert finalize(session)[0] == 3


def test_finalize_empty_session():
    with pytest.raises(ValueError):
        finalize(HarqSession([]))


@given(st.integers(1, 5), st.booleans())
def test_ack_round_is_the_last_round_when_it_is_acknowledged(n_rounds, acked):
    # a session's verdict is its last reception's: ack_round is that
    # reception's 1-indexed round when it is acknowledged, else 0
    session = _fake_session(n_rounds, acked)
    assert session.acked is session.rounds[-1].acked is acked
    assert session.rounds_used == n_rounds
    assert session.ack_round == (n_rounds if acked else 0)


# -- semantic sessions over an injected channel --

SCENE_CFG = SceneConfig(channels=5, height=8, width=8, logit_amp=2.0)
HEAD = ProxyHead.from_seed(31, 5)
CELLS = 13  # of the 8 x 8 grid


def _semantic_source(with_second=True, seed=1):
    """A source built from its parts; every session of it below runs on a
    fresh one unless the test shares one on purpose."""
    scene, f = generate_scene(seed, SCENE_CFG, HEAD)
    n_in = pack_nonzero(f, importance_map(f, CELLS)).size
    ccfg = codec_mod.CodecConfig(n_cu=12, hidden=16)
    first = codec_mod.new_codec(ccfg, n_in, seed=2)
    second = codec_mod.new_codec(ccfg, n_in, seed=3) if with_second else None
    scorer = det.new_scorer(det.DetectorConfig(pool=8, branch_width=8), seed=4)
    return SemanticSource(first, second, scorer, HEAD, scene, f, CELLS, 8)


def _identity(t, s):
    return s


def _scene(seed=1):
    """The scene that _semantic_source and _baseline_source send for `seed`:
    what the perception-loss oracles below score against."""
    return generate_scene(seed, SCENE_CFG, HEAD)[0]


def _candidate(src, message):
    """The whole-grid feature a message stands for: its values on the
    source's sent cells, zero elsewhere."""
    return unpack(message, src.mask, (HEAD.basis.shape[0], *src.mask.cells.shape))


def _loss(src, message):
    """The perception loss that a reception of `message` records, computed
    afresh: codec training's term (perception_loss_grad) for the one row of
    the source's scene and mask, which is the whole-grid perception_loss of
    its candidate to rounding."""
    f = np.asarray(message).reshape(1, HEAD.basis.shape[0], -1)
    loss = perception_loss_grad(f, sent_cells([_scene()], [src.mask]), HEAD)[0][0]
    assert loss == pytest.approx(perception_loss(_candidate(src, message), _scene(), HEAD), rel=1e-12)
    return loss


def _session(src, mode, budget, threshold, transmit):
    """run_semantic_session over the rounds of a one-row batch whose every
    round, pair 1's too, `transmit(t, symbols)` sends, received afresh."""
    rows = src.rounds((mode,), budget, 1, lambda t, symbols, rows: transmit(t, symbols)[None, :], threshold)
    return run_semantic_session(rows[mode][0])


def test_semantic_session_ack_stops_immediately():
    src = _semantic_source()
    session = _session(src, "sim1", 3, 0.01, _identity)
    assert session.rounds_used == 1
    assert session.ack_round == 1
    assert session.acked


def test_semantic_session_exhausts_budget_without_ack():
    src = _semantic_source()
    calls = []
    def transmit(t, s):
        calls.append(t)
        return s
    session = _session(src, "sim1", 3, 0.999999, transmit)
    assert session.rounds_used == 3
    assert session.ack_round == 0
    assert calls == [1, 2, 3]


def test_sim1_keeps_latest_decode_as_candidate():
    src = _semantic_source()
    session = _session(src, "sim1", 2, 0.999999, _identity)
    # identity channel: both rounds decode identically
    r1, r2 = (_candidate(src, rec.message) for rec in session.rounds)
    assert np.allclose(r1.data, r2.data)
    expect = codec_mod.decode(src.first, codec_mod.encode(src.first, src.packed))
    got = pack_nonzero(r2, src.mask)
    assert np.allclose(got, expect, atol=1e-12)


def test_sim2_accumulates_decoded_messages():
    src = _semantic_source()
    session = _session(src, "sim2", 3, 0.999999, _identity)
    d1 = codec_mod.decode(src.first, codec_mod.encode(src.first, src.packed))
    d2 = codec_mod.decode(src.second, codec_mod.encode(src.second, src.packed))
    got = pack_nonzero(_candidate(src, session.rounds[2].message), src.mask)
    assert np.allclose(got, d1 + 2 * d2, atol=1e-12)


def test_sim2_round_order_invariance():
    # summed decodes do not depend on which later round saw which channel
    src = _semantic_source()
    rng = np.random.default_rng(11)
    offsets = {2: rng.standard_normal(12) * 0.2, 3: rng.standard_normal(12) * 0.2}

    def transmit_fwd(t, s):
        return s if t == 1 else s + offsets[t]

    def transmit_swapped(t, s):
        return s if t == 1 else s + offsets[5 - t]

    a = _session(src, "sim2", 3, 0.999999, transmit_fwd)
    b = _session(src, "sim2", 3, 0.999999, transmit_swapped)
    fwd, swapped = (_candidate(src, s.rounds[2].message) for s in (a, b))
    assert np.allclose(fwd.data, swapped.data, atol=1e-12)


@pytest.mark.parametrize("mode", ["sim1", "sim2"])
def test_semantic_session_reads_pair1_rounds_from_first(mode):
    # every round that sends the first pair is sent once for the batch, and
    # its reception is one Reception per row that every mode reading it
    # shares: noharq's round, sim1's rounds and sim2's first; the second pair
    # is sent only in sim2's later rounds. Each row is its own channel
    src = _semantic_source()
    offsets = np.array([[0.1], [-0.2]])
    sent = []

    def send(t, symbols, rows):
        sent.append((t, "first" if symbols is src.sym_first else "second"))
        return symbols + offsets[list(rows)] * t

    rows = src.rounds(("noharq", mode), 3, 2, send, 1.0)  # a score never exceeds 1
    pair1 = (1, 2, 3) if mode == "sim1" else (1,)
    assert sent == [(t, "first") for t in pair1] + [(t, "second") for t in (1, 2, 3) if t not in pair1]
    assert len(rows["noharq"]) == len(rows[mode]) == 2
    for b, offset in enumerate(offsets[:, 0]):
        assert len(rows["noharq"][b]) == 1 and len(rows[mode][b]) == 3
        assert rows["noharq"][b][0] is rows[mode][b][0]
        for t in pair1:
            message = codec_mod.decode(src.first, src.sym_first + offset * t)
            assert rows[mode][b][t - 1].message.tobytes() == message.tobytes()


@pytest.mark.parametrize("mode", ["sim1", "sim2"])
def test_semantic_rounds_stop_at_each_rows_ack(mode):
    # a row's rounds end at its first score above the threshold, and each
    # later round is sent to the rows still unacknowledged alone; every row
    # is the start, bit for bit, of the rows that a threshold no score
    # exceeds gives
    src = _semantic_source()
    offsets = np.array([[0.0], [0.3], [-0.6]])
    sent = []

    def send(t, symbols, rows):
        sent.append((t, list(rows)))
        return symbols + offsets[list(rows)] * t

    whole = src.rounds((mode,), 3, 3, send, 1.0)[mode]
    scores = sorted(rx.s_hat for row in whole for rx in row)
    for threshold in (scores[0] - 1.0, *(0.5 * (a + b) for a, b in zip(scores, scores[1:])), 1.0):
        sent.clear()
        rows = src.rounds((mode,), 3, 3, send, threshold)[mode]
        live = [0, 1, 2]
        for t in (1, 2, 3):
            if live:
                assert sent.pop(0) == (t, live)
            live = [b for b in live if len(rows[b]) > t]
        assert not sent
        for row, full in zip(rows, whole):
            used = next((t for t, rx in enumerate(full, start=1) if rx.s_hat > threshold), 3)
            assert len(row) == used
            assert [rx.acked for rx in row] == [rx.s_hat > threshold for rx in row]
            assert all(a.message.tobytes() == b.message.tobytes() and a.s_hat == b.s_hat
                       for a, b in zip(row, full))


def test_baseline_rounds_stop_at_each_rows_crc_pass():
    # a row's rounds end at its first CRC pass, later rounds go to the failing
    # rows alone, and each row combines as a batch of that row alone does
    src = _baseline_source()
    fails = {0: (), 1: (1,), 2: (1, 2, 3)}  # the rounds each row's first symbol is flipped in
    sent = []

    def send(t, symbols, rows):
        sent.append((t, list(rows)))
        eq, noise_var = np.tile(symbols, (len(rows), 1)), np.full(len(rows), 1e-12)
        for k, b in enumerate(rows):
            if t in fails[b]:  # a flipped round weighs little beside a clean one
                eq[k, 0], noise_var[k] = -eq[k, 0], 1e3
            eq[k] += 0.01 * b
        return eq, np.ones(eq.shape), noise_var

    for mode in ("base1", "base2"):
        sent.clear()
        rows = src.rounds((mode,), 3, 3, send)[mode]
        assert sent == [(1, [0, 1, 2]), (2, [1, 2]), (3, [2])]
        assert [[rx.acked for rx in row] for row in rows] == [[True], [False, True], [False, False, False]]
        for b, row in enumerate(rows):
            alone = src.rounds((mode,), 3, 1, lambda t, x, _, b=b: tuple(a[:1] for a in send(t, x, [b])))
            assert all(x.acked == y.acked and x.message.tobytes() == y.message.tobytes()
                       for x, y in zip(row, alone[mode][0], strict=True))


def test_semantic_reception_is_acknowledged_when_its_score_exceeds_the_threshold():
    # the verdict is made where a reception is scored: its score strictly
    # above the threshold that the rounds are given; a tie is a NACK
    src = _semantic_source()
    rng = np.random.default_rng(5)
    noise = rng.standard_normal((6, src.sym_first.size)) + 1j * rng.standard_normal((6, src.sym_first.size))
    messages = codec_mod.decode(src.first, src.sym_first + 0.3 * noise)
    scores = [rx.s_hat for rx in src.receptions(messages, 0.5)]
    verdicts = set()
    for threshold in (min(scores) - 0.1, *scores, max(scores) + 0.1):
        for rx, s_hat in zip(src.receptions(messages, threshold), scores, strict=True):
            assert rx.s_hat == s_hat
            assert rx.acked is (s_hat > threshold)
            verdicts.add(rx.acked)
    assert verdicts == {True, False}


def test_semantic_session_validation():
    src = _semantic_source(with_second=False)
    with pytest.raises(ValueError):
        _session(src, "sim3", 3, 0.5, _identity)
    with pytest.raises(ValueError):
        _session(src, "sim2", 3, 0.5, _identity)
    with pytest.raises(ValueError):
        _session(src, "sim1", 0, 0.5, _identity)


def test_scorer_free_source_receives_what_a_session_records():
    # the rank corpus samples sources with no scorer: from a message they
    # receive the candidate, pooled map, loss and similarity that a round of
    # a scored source's session records, and they run no session
    scored = _semantic_source()
    scene, f = generate_scene(1, SCENE_CFG, HEAD)
    bare = SemanticSource(scored.first, None, None, HEAD, scene, f, CELLS, 8)
    session = _session(scored, "sim1", 3, 0.999999, lambda t, s: s + 0.1 * t)
    assert session.rounds_used == 3
    for t, rec in enumerate(session.rounds, start=1):
        message = codec_mod.decode(bare.first, bare.sym_first + 0.1 * t)
        pooled, loss, s_true = bare.receive(message)
        assert np.array_equal(_candidate(bare, message).data, _candidate(scored, rec.message).data)
        assert (loss, s_true) == (rec.task_loss, rec.s_true)
        assert rec.s_hat == score(scored.scorer, bare.ref_pooled, pooled)
    with pytest.raises(ValueError, match="needs a scorer"):
        _session(bare, "sim1", 1, 0.5, _identity)


# -- chase combining --

def test_chase_combiner_weighted_average():
    comb = ChaseCombiner(1, 2)
    comb.add([0], np.array([[1 + 1j, 2.0]]), np.array([[1.0, 0.5]]), noise_var=0.1)
    combined = comb.add([0], np.array([[3.0, 0.0]]), np.array([[2.0, 1.0]]), noise_var=0.4)
    w1a, w1b = 1.0 / 0.1, 4.0 / 0.4
    w2a, w2b = 0.25 / 0.1, 1.0 / 0.4
    expected = np.array([
        (w1a * (1 + 1j) + w1b * 3.0) / (w1a + w1b),
        (w2a * 2.0 + w2b * 0.0) / (w2a + w2b),
    ])
    assert np.allclose(combined[0], expected, atol=1e-14)


def test_chase_combiner_validation():
    comb = ChaseCombiner(2, 4)
    with pytest.raises(ValueError):
        comb.add([0], np.zeros((1, 3)), np.zeros((1, 3)), 0.1)
    with pytest.raises(ValueError):
        comb.add([0], np.zeros((1, 8)), np.zeros((1, 4)), 0.1)
    with pytest.raises(ValueError, match="no observations"):  # a zero estimate weighs nothing
        comb.add([0], np.ones((1, 4)), np.zeros((1, 4)), 0.1)
    # a refused add leaves its rows as they were
    assert np.array_equal(comb.add([0], np.full((1, 4), 2.0), np.ones((1, 4)), 0.1), np.full((1, 4), 2.0))


def test_chase_combiner_combines_each_row_alone():
    # rows of a batch, each with its own noise variance, that receive
    # different rounds in any order and copies per round, combine as one
    # one-row combiner per row does, bit for bit, after every add
    rng = np.random.default_rng(7)
    adds = [(0, 1, 2), (2, 0), (1,), (2,)]  # the rows of each add
    copies = (1, 1, 2, 3)
    batch, alone = ChaseCombiner(3, 5), [ChaseCombiner(1, 5) for _ in range(3)]
    for rows, c in zip(adds, copies):
        eq = rng.standard_normal((len(rows), 5 * c)) + 1j * rng.standard_normal((len(rows), 5 * c))
        h = rng.standard_normal(eq.shape) + 1j * rng.standard_normal(eq.shape)
        noise_var = rng.choice([0.1, 0.4, 2.0, 1e-40], size=len(rows))
        got = batch.add(list(rows), eq, h, noise_var)
        assert got.shape == (len(rows), 5)
        for k, row in enumerate(rows):
            for i in range(0, 5 * c, 5):  # each copy, in order
                part = np.s_[k : k + 1, i : i + 5]
                want = alone[row].add([0], eq[part], h[part], noise_var[k : k + 1])
            assert got[k].tobytes() == want[0].tobytes()


def test_chase_combining_lowers_bit_errors():
    # two noisy copies of the same QPSK block, flat unit channel
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, size=4000).astype(np.uint8)
    sym = qam_map(bits, 4)
    sigma = np.sqrt(0.5 / 2.0)  # per-axis noise, about 6 dB
    def noisy():
        return sym + sigma * (rng.standard_normal(sym.size) + 1j * rng.standard_normal(sym.size))
    single_errors = 0
    combined_errors = 0
    for _ in range(10):
        y1, y2 = noisy(), noisy()
        single_errors += int(np.sum(qam_demap_hard(y1, 4) != bits))
        comb = ChaseCombiner(1, sym.size)
        comb.add([0], y1[None], np.ones((1, sym.size)), 0.5)
        combined = comb.add([0], y2[None], np.ones((1, sym.size)), 0.5)[0]
        combined_errors += int(np.sum(qam_demap_hard(combined, 4) != bits))
    assert combined_errors < single_errors


# -- baseline sessions over an injected channel --

def _baseline_source(seed=1, mod_order=16, copies=2):
    scene, f = generate_scene(seed, SCENE_CFG, HEAD)
    return BaselineSource(HEAD, scene, f, CELLS, mod_order, copies)


def _budget_config(channels, height, width, n_cu, mod_order, copies):
    """The config of these settings, or None when it cannot run."""
    try:
        return ExperimentConfig(
            scene=SceneConfig(channels=channels, height=height, width=width),
            codec=codec_mod.CodecConfig(n_cu=n_cu),
            detector=det.DetectorConfig(pool=1),
            baseline=BaselineSection(mod_order=mod_order, code_copies=copies),
        )
    except ValueError:
        return None


@given(
    st.integers(5, 12), st.integers(1, 30), st.integers(1, 30), st.integers(1, 1500),
    st.sampled_from(QAM_ORDERS), st.integers(1, 4), st.integers(0, 2**31 - 1),
)
@example(8, 16, 25, 256, 16, 2, 0)  # default budget on a 16 x 25 grid: 268 symbols for 8 cells
@example(5, 16, 16, 92, 64, 3, 0)  # 93 symbols for 4 cells
@settings(max_examples=60, deadline=None)
def test_baseline_cells_is_the_largest_count_within_the_symbol_budget(
    channels, height, width, n_cu, mod_order, copies, seed
):
    cfg = _budget_config(channels, height, width, n_cu, mod_order, copies)
    assume(cfg is not None)
    head = ProxyHead.from_seed(seed, channels)
    scene, f = generate_scene(seed, cfg.scene, head)

    def codeword_size(cells):
        return BaselineSource(head, scene, f, cells, mod_order, copies).codeword.size

    k = cfg.baseline_cells()
    assert codeword_size(k) <= n_cu
    if k < height * width:
        assert codeword_size(k + 1) > n_cu


def test_repetition_code_chunks():
    # a chunk is the payload bits, zero-padded to whole symbols, in QAM;
    # base1 sends `copies` of it every round, base2 one copy per round
    src = _baseline_source(copies=3)
    bps = int(math.log2(src.mod_order))
    pad = np.zeros((-src.payload_bits.size) % bps, dtype=np.uint8)
    chunk = qam_map(np.concatenate([src.payload_bits, pad]), src.mod_order)
    for mode, copies in (("base1", 3), ("base2", 1)):
        sent = []

        def erased(t, symbols):
            sent.append(symbols)
            return np.zeros(symbols.size, dtype=complex), np.ones(symbols.size), 1.0

        session = _baseline_session(src, mode, 3, erased)
        assert session.rounds_used == len(sent) == 3
        assert all(np.array_equal(s, np.tile(chunk, copies)) for s in sent)


def _clean_transmit(t, symbols):
    return symbols, np.ones(symbols.size), 1e-12


def _baseline_session(src, mode, budget, transmit):
    """run_baseline_session over the rounds of a one-row batch that
    `transmit(t, symbols)` sends, returning (equalized, est_h, noise_var)."""
    def send(t, symbols, rows):
        eq, h, noise_var = transmit(t, symbols)
        return eq[None, :], h[None, :], noise_var

    return run_baseline_session(src.rounds((mode,), budget, 1, send)[mode][0])


def test_baseline_payload_verifies():
    # 8 bits per packed value (5 channels per kept cell), then the CRC
    src = _baseline_source()
    assert src.payload_bits.size == 5 * src.mask.n_selected * 8 + CRC24_BITS
    assert crc24(np.packbits(src.payload_bits)) == 0


def test_baseline_clean_channel_acks_first_round():
    src = _baseline_source()
    session = _baseline_session(src, "base1", 3, _clean_transmit)
    assert session.ack_round == 1
    # candidate equals the dequantized payload exactly
    got = _candidate(src, session.rounds[0].message)
    assert np.array_equal(got.data, _candidate(src, src.ref_message).data)


def test_baseline_chunked_clean_channel_acks_first_round():
    src = _baseline_source()
    session = _baseline_session(src, "base2", 3, _clean_transmit)
    assert session.ack_round == 1


def test_baseline_decode_of_a_nan_reception_raises():
    # an all-zero frame passes CRC-24A, so a reception that demapped to fixed
    # bits could be acknowledged; a non-finite one is refused instead
    src = _baseline_source()
    assert crc24(np.zeros(src.payload_bits.size // 8, dtype=np.uint8)) == 0
    with pytest.raises(ValueError, match="non-finite"):
        src.reception(np.full(src.chunk.size, complex(np.nan, np.nan)))


def test_baseline_forced_errors_exhaust_budget():
    src = _baseline_source()

    def corrupting(t, symbols):
        bad = symbols.copy()
        bad[0] = -bad[0]
        return bad, np.ones(bad.size), 1e-12

    session = _baseline_session(src, "base1", 3, corrupting)
    assert session.rounds_used == 3
    assert session.ack_round == 0
    assert all(r.s_hat is None for r in session.rounds)


def test_baseline_combining_recovers_from_noisy_first_round():
    # round 1 ruined by a huge noise burst; clean round 2 dominates the
    # combiner because weights scale with 1/noise_var
    src = _baseline_source()
    rng = np.random.default_rng(8)

    def transmit(t, symbols):
        if t == 1:
            noisy = symbols + 10.0 * (rng.standard_normal(symbols.size)
                                      + 1j * rng.standard_normal(symbols.size))
            return noisy, np.ones(symbols.size), 200.0
        return symbols, np.ones(symbols.size), 1e-12

    session = _baseline_session(src, "base1", 3, transmit)
    assert session.rounds_used == session.ack_round == 2


def test_baseline_reception_is_acknowledged_when_its_crc_passes():
    # the verdict of a combined chunk is the CRC of the frame it demaps to,
    # computed afresh here; noise too small to move a decision passes
    src = _baseline_source()
    rng = np.random.default_rng(9)
    combined = np.tile(src.chunk, (4, 1))
    combined[1, 0] = -combined[1, 0]
    combined[2] += rng.standard_normal(src.chunk.size)
    combined[3] += 0.01 * rng.standard_normal(src.chunk.size)
    receptions = src.reception(combined)
    for row, rx in zip(combined, receptions, strict=True):
        frame = np.packbits(qam_demap_hard(row, src.mod_order)[: src.payload_bits.size])
        assert rx.acked is (crc24(frame) == 0)
        assert rx.s_hat is None
    assert [rx.acked for rx in receptions] == [True, False, False, True]


def test_baseline_source_builds_no_confidence_map(monkeypatch):
    # nothing reads a map of a baseline reception, which the CRC judges: its
    # reference and its rounds are scored by SentCells.loss alone, whose
    # losses are SentCells.score's bit for bit
    score = SentCells.score

    def refuse(*args):
        raise AssertionError("a baseline source built a confidence map")

    def transmit(t, symbols):  # round 1 fails its CRC, round 2 passes
        noisy = symbols + (0.5 if t == 1 else 0.0)
        return noisy, np.ones(symbols.size), 1e-12

    monkeypatch.setattr(SentCells, "score", refuse)
    src = _baseline_source()
    session = _baseline_session(src, "base1", 3, transmit)
    monkeypatch.undo()
    assert session.rounds_used == session.ack_round == 2
    assert src.ref_loss == float(score(src.sent, src.ref_message, HEAD)[0])
    for rx in session.rounds:
        assert rx.task_loss == float(score(src.sent, rx.message, HEAD)[0])


def test_baseline_session_validation():
    src = _baseline_source()
    with pytest.raises(ValueError):
        _baseline_session(src, "sim1", 3, _clean_transmit)
    with pytest.raises(ValueError):
        _baseline_session(src, "base1", 0, _clean_transmit)


def test_session_similarity_is_measured_against_the_reference():
    # each round's s_true is true_similarity of its candidate's perception
    # loss to that of the reference, both computed afresh (_loss), for
    # sessions that share a source (and its reference loss) and for a fresh
    # one
    def corrupting(t, symbols):  # a flipped first symbol fails every CRC
        bad = symbols + 0.05 * t
        bad[0] = -bad[0]
        return bad, np.ones(bad.size), 0.5

    semantic = _semantic_source()
    baseline = _baseline_source()
    sessions = [
        (semantic, semantic.packed, _session(semantic, "sim2", 3, 0.999999, lambda t, s: s + 0.1 * t)),
        (semantic, semantic.packed, _session(semantic, "sim1", 3, 0.999999, lambda t, s: s - 0.1 * t)),
        (baseline, baseline.ref_message, _baseline_session(baseline, "base2", 3, corrupting)),
        (baseline, baseline.ref_message, _baseline_session(baseline, "base1", 3, corrupting)),
    ]
    for src, ref_message, session in sessions:
        assert session.rounds_used == 3
        ref_loss = _loss(src, ref_message)
        for rec in session.rounds:
            assert rec.s_true == true_similarity(ref_loss, _loss(src, rec.message))


def test_session_rounds_record_score_and_task_loss_of_their_candidate():
    # s_hat is the scorer's score of the candidate against the reference and
    # task_loss its perception loss, both computed afresh here, for sessions
    # that share a source (and its reference embedding)
    semantic = _semantic_source()
    runs = [
        _session(semantic, "sim2", 3, 0.999999, lambda t, s: s + 0.1 * t),
        _session(semantic, "sim1", 3, 0.999999, lambda t, s: s - 0.1 * t),
    ]
    ref_map = confidence_map(_candidate(semantic, semantic.packed), HEAD)
    for session in runs:
        for rec in session.rounds:
            hyp_map = confidence_map(_candidate(semantic, rec.message), HEAD)
            assert rec.s_hat == score(semantic.scorer, ref_map, hyp_map)
            assert rec.task_loss == _loss(semantic, rec.message)

    def noisy(t, symbols):
        return symbols + 0.3 * t, np.ones(symbols.size), 0.5

    baseline = _baseline_source()
    session = _baseline_session(baseline, "base2", 3, noisy)
    for rec in session.rounds:
        assert rec.task_loss == _loss(baseline, rec.message)


def test_sources_hand_out_read_only_arrays():
    # sessions of one index share a source, so none may change what a later
    # session reads
    semantic = _semantic_source()
    baseline = _baseline_source()
    arrays = {
        "packed": semantic.packed,
        "sym_first": semantic.sym_first,
        "sym_second": semantic.sym_second,
        "ref_pooled": semantic.ref_pooled,
        "ref_emb": semantic.ref_emb,
        "payload_bits": baseline.payload_bits,
        "chunk": baseline.chunk,
        "codeword": baseline.codeword,
        "ref_message": baseline.ref_message,
    }
    for src in (semantic, baseline):
        for name in ("cells", "active", "targets", "n_active", "rest"):
            arrays[f"{type(src).__name__} sent {name}"] = getattr(src.sent, name)
    for name, a in arrays.items():
        assert not a.flags.writeable, name
        with pytest.raises(ValueError):
            a.reshape(-1)[0] = 0


def test_semantic_source_scores_its_reference_once(monkeypatch):
    # the reference's loss and pooled map come from one score of it
    calls = []
    score_sent = SentCells.score

    def counted(sent, message, head):
        calls.append(message)
        return score_sent(sent, message, head)

    monkeypatch.setattr(SentCells, "score", counted)
    src = _semantic_source()
    ref_map = confidence_map(_candidate(src, src.packed), HEAD)
    assert src.ref_loss == _loss(src, src.packed)
    assert src.ref_pooled.tobytes() == det.pool_map(ref_map, src.pool).tobytes()
    assert len(calls) == 1
