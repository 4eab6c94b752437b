"""Three-engine differential oracle over phased DML schedules.

The same seeded DML stream is replayed through

(a) **pure SQL** (``batch_kernels=False``),
(b) **mixed** (native step 1 only, ``native_steps=(1,)``), and
(c) **full native** (the default pipeline).

The stream runs through distinct phases — uniform inserts, heavy group
skew, a retraction storm, then mixed churn — because each phase stresses
a different part of the native states: skew piles many deltas onto one
group key, the storm retracts whole groups (liveness deletes), and churn
mixes updates into both.  After every few statements all three engines
must agree with each other and with full recomputation; over 200
randomized DML statements total (asserted at the bottom).
"""

from __future__ import annotations

import random

import pytest

from repro import CompilerFlags, Connection, PropagationMode, load_ivm

VIEW = (
    "CREATE MATERIALIZED VIEW q AS "
    "SELECT g, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY g"
)
RECOMPUTE = "SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g"

ENGINE_CONFIGS = [
    ("sql", dict(batch_kernels=False)),
    ("mixed", dict(batch_kernels=True, native_steps=(1,))),
    ("native", dict(batch_kernels=True)),
]


def _engines(mode=PropagationMode.LAZY, **extra):
    engines = []
    for label, overrides in ENGINE_CONFIGS:
        con = Connection()
        ext = load_ivm(con, CompilerFlags(mode=mode, **overrides, **extra))
        con.execute("CREATE TABLE t (g VARCHAR, v INTEGER)")
        con.execute(VIEW)
        engines.append((label, con, ext))
    return engines


def _check_agreement(engines):
    results = [
        (
            label,
            con.execute("SELECT g, s, n FROM q").sorted(),
            con.execute(RECOMPUTE).sorted(),
        )
        for label, con, _ in engines
    ]
    base = results[0][2]
    for label, got, want in results:
        assert want == base, "engines diverged on base data"
        assert got == want, f"{label} engine diverged from recompute"


def _execute_all(engines, sql, params=None):
    for _, con, _ in engines:
        con.execute(sql, params)


class _PhasedStream:
    """Deterministic DML generator with distinct workload phases."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.statements = 0

    def uniform_inserts(self, engines, count: int):
        for _ in range(count):
            g = f"g{self.rng.randrange(12)}"
            _execute_all(
                engines, "INSERT INTO t VALUES (?, ?)",
                [g, self.rng.randint(-9, 9)],
            )
            self.statements += 1

    def skewed_inserts(self, engines, count: int):
        # ~85% of rows land on one hot group: many deltas per round
        # fold into a single group's aggregate and liveness entries.
        for _ in range(count):
            hot = self.rng.random() < 0.85
            g = "hot" if hot else f"g{self.rng.randrange(12)}"
            _execute_all(
                engines, "INSERT INTO t VALUES (?, ?)",
                [g, self.rng.randint(1, 5)],
            )
            self.statements += 1

    def retraction_storm(self, engines, count: int):
        # Deletes dominate: groups shrink to zero rows, so the liveness
        # state must drop them and the aggregates must retract exactly.
        for _ in range(count):
            if self.rng.random() < 0.7:
                _execute_all(
                    engines, "DELETE FROM t WHERE g = ? AND v = ?",
                    [f"g{self.rng.randrange(12)}", self.rng.randint(-9, 9)],
                )
            else:
                _execute_all(
                    engines, "DELETE FROM t WHERE g = 'hot' AND v = ?",
                    [self.rng.randint(1, 5)],
                )
            self.statements += 1

    def mixed_churn(self, engines, count: int):
        for _ in range(count):
            roll = self.rng.random()
            if roll < 0.5:
                _execute_all(
                    engines, "INSERT INTO t VALUES (?, ?)",
                    [f"g{self.rng.randrange(20)}", self.rng.randint(-9, 9)],
                )
            elif roll < 0.8:
                _execute_all(
                    engines, "DELETE FROM t WHERE g = ? AND v = ?",
                    [f"g{self.rng.randrange(20)}", self.rng.randint(-9, 9)],
                )
            else:
                _execute_all(
                    engines, "UPDATE t SET v = ? WHERE g = ?",
                    [self.rng.randint(-9, 9), f"g{self.rng.randrange(20)}"],
                )
            self.statements += 1


@pytest.mark.parametrize("seed", [101, 202])
def test_engine_oracle_through_phases(seed):
    engines = _engines()
    stream = _PhasedStream(seed)

    def run_phase(phase_fn, count, check_every=5):
        done = 0
        while done < count:
            chunk = min(check_every, count - done)
            phase_fn(engines, chunk)
            done += chunk
            _check_agreement(engines)

    run_phase(stream.uniform_inserts, 60)
    run_phase(stream.skewed_inserts, 60)
    run_phase(stream.retraction_storm, 50)
    run_phase(stream.mixed_churn, 60)
    assert stream.statements >= 200


@pytest.mark.parametrize(
    "mode", [PropagationMode.EAGER, PropagationMode.BATCH],
    ids=lambda m: m.value,
)
def test_engine_oracle_other_modes(mode):
    # Eager refreshes after every statement; batch defers to the
    # threshold — both must stay correct through the phases.
    engines = _engines(mode=mode, batch_size=8)
    stream = _PhasedStream(303)
    stream.uniform_inserts(engines, 30)
    _check_agreement(engines)
    stream.retraction_storm(engines, 25)
    _check_agreement(engines)
    stream.mixed_churn(engines, 30)
    _check_agreement(engines)
    assert stream.statements >= 85


def test_engines_agree_on_minmax_views():
    """MIN/MAX views keep their step-2b extrema state through a stream
    that deletes group extremes — the retraction storm forces repairs
    mid-stream, natively or by the SQL rescan."""
    cons = []
    for _, overrides in ENGINE_CONFIGS:
        con = Connection()
        load_ivm(
            con, CompilerFlags(mode=PropagationMode.LAZY, **overrides)
        )
        con.execute("CREATE TABLE t (g VARCHAR, v INTEGER)")
        con.execute(
            "CREATE MATERIALIZED VIEW m AS "
            "SELECT g, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY g"
        )
        cons.append(con)
    rng = random.Random(77)
    recompute = "SELECT g, MIN(v), MAX(v) FROM t GROUP BY g"
    for step in range(120):
        if rng.random() < 0.65 or step < 20:
            params = [f"g{rng.randrange(6)}", rng.randint(-100, 100)]
            sql = "INSERT INTO t VALUES (?, ?)"
        else:
            # Delete extremes specifically: forces extrema retraction.
            params = [f"g{rng.randrange(6)}"]
            sql = (
                "DELETE FROM t WHERE g = ? AND (v > 80 OR v < -80)"
            )
        for con in cons:
            con.execute(sql, params)
        if step % 4 == 3:
            for con in cons:
                got = con.execute("SELECT g, lo, hi FROM m").sorted()
                want = con.execute(recompute).sorted()
                assert got == want, f"diverged at step {step}"
