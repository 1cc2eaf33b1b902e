import time

import pytest

from laguerre.report import FAIL, PASS, REPORT_ONLY, Budget, run_check


def test_run_check_status_follows_the_witnesses():
    details = {"mode": "exhaustive"}
    rep = run_check("X", 5, lambda: (3, [], details), "a note")
    assert (rep.check_id, rep.q, rep.status, rep.cases_checked) == ("X", 5, PASS, 3)
    assert rep.reading_notes == "a note" and rep.details is details
    assert run_check("X", 5, lambda: (3, [], {}), clean=REPORT_ONLY).status == REPORT_ONLY
    for clean in (PASS, REPORT_ONLY):
        rep = run_check("X", 5, lambda: (3, [{"w": 1}], {}), clean=clean)
        assert rep.status == FAIL and rep.witnesses == [{"w": 1}]
        assert not rep.ok


def test_run_check_times_the_sweep():
    def sweep():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.02:
            pass
        return 0, [], {}

    rep = run_check("X", 5, sweep)
    assert rep.elapsed_ms >= 20
    assert "elapsed_ms" not in rep.to_dict()
    # runs of one sweep differ in their time alone, so their content is equal
    assert rep.to_dict() == run_check("X", 5, lambda: (0, [], {})).to_dict()


def test_budget_rejects_unknown_mode_and_empty_sample():
    # a mistyped mode would otherwise sweep exhaustively, and zero samples
    # would pass after checking nothing
    for args in (("orbits",), ("sample", 0, 0), ("sample", -1, 0)):
        with pytest.raises(ValueError, match="bad budget"):
            Budget(*args)
    assert Budget.parse("sample:5", 7) == Budget("sample", 5, 7)
    assert Budget.parse("orbit") == Budget("orbit")
