"""Acceptance gate: every criterion runs at its stated tolerance and budget
and prints one pass/fail line (visible with pytest -s, and mirrored by the
``loopcert reproduce-all`` driver)."""

import time

import pytest

from loopcert import acceptance

SEED = 20260808


def _run(criterion_fn, cid, desc, budget):
    t0 = time.time()
    ok, detail = criterion_fn(SEED, 256)
    elapsed = time.time() - t0
    print(f"{'PASS' if ok and elapsed <= budget else 'FAIL'} {cid} [{elapsed:6.1f}s/{budget}s] {desc}: {detail}")
    assert ok, detail
    assert elapsed <= budget, f"{cid} exceeded its {budget}s budget ({elapsed:.1f}s)"


@pytest.mark.parametrize("cid,desc,fn,budget", acceptance.CRITERIA, ids=[c[0] for c in acceptance.CRITERIA])
def test_acceptance_criterion(cid, desc, fn, budget):
    _run(fn, cid, desc, budget)


class _SteppingClock:
    """Stands in for the time module: every reading is 1.25 s after the last."""

    def __init__(self):
        self.now = 0.0

    def time(self):
        self.now += 1.25
        return self.now


def test_full_profile_rows_record_their_time(monkeypatch):
    # the extended F+ sweeps of the full profile are timed like the criteria;
    # with CRITERIA emptied only the full profile's own work runs
    monkeypatch.setattr(acceptance, "CRITERIA", [])
    monkeypatch.setattr(acceptance, "time", _SteppingClock())
    lines = []
    rows = acceptance.run_all(SEED, profile="full", echo=lines.append)
    assert [r["id"] for r in rows] == ["F+lemma23-A2", "F+lemma351-A2", "F+lemma23-C2", "F+lemma351-C2"]
    for row, line in zip(rows, lines):
        assert row["pass"] and row["elapsed_s"] == 1.25 and row["budget_s"] == 300, row
        assert line.startswith(f"PASS {row['id']} [   1.2s/300s]"), line
