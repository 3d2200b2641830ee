"""Tests of the benchmark's own machinery: tracer and calibration arithmetic, tracer restore, checks.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import csv
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


_TOY_SOURCE = """
def inner():
    clock.advance(1.0)

def middle():
    clock.advance(2.0)
    inner()
    clock.advance(3.0)

def outer():
    clock.advance(0.5)
    middle()
    inner()
    clock.advance(0.25)
"""


@pytest.fixture
def toy(monkeypatch):
    """toypkg.mod defines outer -> middle -> inner; toypkg.user imports inner by name."""
    clock = FakeClock()
    pkg = types.ModuleType("toypkg")
    pkg.__path__ = []
    mod = types.ModuleType("toypkg.mod")
    mod.clock = clock
    exec(_TOY_SOURCE, mod.__dict__)
    user = types.ModuleType("toypkg.user")
    user.inner = mod.inner
    exec("def call_inner():\n    inner()\n", user.__dict__)
    for name, module in (("toypkg", pkg), ("toypkg.mod", mod), ("toypkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return clock, mod, user


def test_self_time_of_nested_toy_call_tree(toy):
    clock, mod, user = toy
    with Tracer(("mod.outer", "mod.middle", "mod.inner"), package="toypkg", clock=clock) as tr:
        mod.outer()
        user.call_inner()
    assert clock.now == 8.75
    # outer spans 7.75: its own 0.5 + 0.25, middle's 6 and inner's 1
    assert tr.stats["mod.outer"] == [1, 0.75]
    # middle spans 6: its own 2 + 3 and inner's 1
    assert tr.stats["mod.middle"] == [1, 5.0]
    # inner runs three times, once through the name user.py imported
    assert tr.stats["mod.inner"] == [3, 3.0]
    total_self = sum(s for _, s in tr.stats.values())
    assert total_self == clock.now


def test_reentry_adds_to_the_figures(toy):
    clock, mod, _ = toy
    tracer = Tracer(("mod.middle", "mod.inner"), package="toypkg", clock=clock, keep_spans=("mod.inner",))
    for _ in range(2):
        with tracer:
            mod.middle()
        mod.inner()  # untraced between the blocks
    assert tracer.stats == {"mod.middle": [2, 10.0], "mod.inner": [2, 2.0]}
    assert tracer.spans["mod.inner"] == [1.0, 1.0]


def test_missing_function_is_reported_absent(toy):
    clock, mod, _ = toy
    with Tracer(("mod.inner", "mod.gone", "nomodule.f"), package="toypkg", clock=clock) as tr:
        mod.inner()
    assert tr.absent == ["mod.gone", "nomodule.f"]
    assert tr.stats == {"mod.inner": [1, 1.0]}


def test_spans_and_counters(toy):
    clock, mod, _ = toy

    def count(counts, args, kwargs, result):
        counts["inner.calls"] = counts.get("inner.calls", 0) + 1

    with Tracer(
        ("mod.middle", "mod.inner"), package="toypkg", clock=clock,
        counters={"mod.inner": count}, keep_spans=("mod.middle",),
    ) as tr:
        mod.outer()
    assert tr.spans["mod.middle"] == [6.0]
    assert tr.counts == {"inner.calls": 2}


def test_calibrator_normalises_by_the_ticks_around_and_inside():
    import calibrate

    clock = FakeClock()
    tick_seconds = iter([0.002, 0.004, 0.004, 0.004])

    def kernel():
        clock.advance(next(tick_seconds))

    cal = calibrate.Calibrator(interval=1.0, clock=clock, kernel=kernel)

    def work():
        clock.advance(1.5)
        cal.hook()  # 1.5 s since the tick before: ticks (0.004 s)
        clock.advance(0.5)
        cal.hook()  # 0.5 s since: no tick
        clock.advance(0.5)

    result, raw, factor = cal.measure(work)
    assert raw == pytest.approx(2.5)  # the tick inside is not counted
    assert cal.ticks == pytest.approx([0.002, 0.004, 0.004])
    assert factor == pytest.approx(calibrate.NOMINAL_S / 0.004)


def _semlink_bindings():
    import semlink.cli  # noqa: F401  loads every layer module

    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "semlink" or name.startswith("semlink."))
        for attr, value in vars(module).items()
    }


def test_tracer_restores_every_module_attribute():
    from run import TRACED

    before = _semlink_bindings()
    from semlink import harness, link

    original = link.transmit_symbols
    with Tracer(TRACED) as tr:
        assert link.transmit_symbols is not original
        assert harness.transmit_symbols is link.transmit_symbols
        assert not tr.absent
    after = _semlink_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_restores_after_an_exception(toy):
    clock, mod, _ = toy
    original = mod.inner
    with pytest.raises(RuntimeError):
        with Tracer(("mod.inner",), package="toypkg", clock=clock):
            raise RuntimeError("boom")
    assert mod.inner is original


# ---------------------------------------------------------------------------
# sweep checks


def _records(budget=3):
    from semlink.harness import SessionRecord

    out = []
    for mode, beta in (("sim1", 0.72), ("base1", None)):
        for snr in (0.0, 18.0):
            for idx in range(3):
                used = 3 if snr == 0.0 else 1 + idx % 2
                ack = 0 if snr == 0.0 else used
                s_true = tuple(0.1 * (idx + t + snr) for t in range(used))
                if beta is None:
                    s_hat = (None,) * used
                    s_true = s_true[:-1] + ((6.0,) if ack else (s_true[-1],))
                else:
                    s_hat = tuple(0.5 + 0.01 * t for t in range(used - 1)) + (0.9 if ack else 0.6,)
                final = ack or used  # unacknowledged rounds here peak at the last
                out.append(
                    SessionRecord(
                        idx, mode, snr, beta, used, ack, final, s_true[final - 1],
                        1.0 + 0.1 * idx - 0.01 * snr,
                        s_hat + (None,) * (budget - used), s_true + (None,) * (budget - used),
                    )
                )
    return out


@pytest.fixture
def sweep_dir(tmp_path):
    from semlink.harness import write_session_csv, write_summary_csv

    records = _records()
    write_session_csv(tmp_path / "sessions.csv", records, 3)
    write_summary_csv(tmp_path / "summary.csv", records, ("sim1", "base1"), (0.0, 18.0), 3)
    return tmp_path


def test_sweep_checks_accept_consistent_csvs(sweep_dir):
    assert checks.check_sweep(sweep_dir, ("sim1", "base1"), (0.0, 18.0), 3, 6.0) == []


def _corrupt(cell: str) -> str:
    return "7" if cell == "" else format(float(cell) * 1.5 + 1.0, ".10g")


def test_summary_recomputation_rejects_each_corrupted_cell(sweep_dir):
    sessions = checks.read_rows(sweep_dir / "sessions.csv")
    with open(sweep_dir / "summary.csv", newline="") as fh:
        table = list(csv.reader(fh))
    head, body = table[0], table[1:]
    assert checks.check_summary(
        sessions, [dict(zip(head, row)) for row in body], ("sim1", "base1"), (0.0, 18.0), 3
    ) == []
    tried = 0
    for i, row in enumerate(body):
        for j, column in enumerate(head):
            if column in ("mode", "snr_db"):
                continue
            bad = [list(r) for r in body]
            bad[i][j] = _corrupt(row[j])
            summary = [dict(zip(head, r)) for r in bad]
            failures = checks.check_summary(sessions, summary, ("sim1", "base1"), (0.0, 18.0), 3)
            assert len(failures) == 1, (column, failures)
            tried += 1
    assert tried == len(body) * (len(head) - 2)


def test_session_rules_reject_late_ack(sweep_dir):
    rows = checks.read_rows(sweep_dir / "sessions.csv")
    acked = next(r for r in rows if r["mode"] == "sim1" and r["ack_round"] == "2")
    acked["s_hat_1"] = "0.8"  # above beta, so round 1 should have been acknowledged
    failures = checks.check_sessions(rows, 3, 6.0)
    assert len(failures) == 1 and "first s_hat above beta at 1" in failures[0]


def test_session_rules_reject_crc_ack_below_cap(sweep_dir):
    rows = checks.read_rows(sweep_dir / "sessions.csv")
    acked = next(r for r in rows if r["mode"] == "base1" and r["ack_round"] != "0")
    acked["final_s_true"] = acked[f"s_true_{acked['final_round']}"] = "5.5"
    failures = checks.check_sessions(rows, 3, 6.0)
    assert len(failures) == 1 and "CRC-acknowledged" in failures[0]


def test_snr_trend_needs_a_rise(sweep_dir):
    summary = checks.read_rows(sweep_dir / "summary.csv")
    assert checks.check_snr_trend(summary, ("sim1", "base1")) == []
    flat = [dict(r, ack_rate="0.5") for r in summary]
    assert len(checks.check_snr_trend(flat, ("sim1", "base1"))) == 2
