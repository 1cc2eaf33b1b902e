"""Structured check reports and quantifier budgets shared by all verifiers.

A ``Report`` is the single unit of output: one check, one field size, one
status, and deterministic witness content.  JSON rendering deliberately
omits ``elapsed_ms`` so identical runs are byte-identical.

Every verifier is a sweep returning ``(cases, witnesses, details)``, and
``run_check`` alone turns a sweep into a report: it times the sweep and
applies the one status rule, ``FAIL`` exactly when the sweep found a
witness, and otherwise the check's clean status (``PASS``, or
``REPORT_ONLY`` for a check that publishes a census and asserts only
restricted claims).
"""

from __future__ import annotations

import json
import time
from collections import namedtuple
from typing import Callable

PASS = "pass"
FAIL = "fail"
REPORT_ONLY = "report_only"

MAX_WITNESSES_SHOWN = 20

_EXPECTED = "expected 'orbit', 'exhaustive' or 'sample:K' with K > 0"


class Report:
    """One check's result; compare reports by ``to_dict()``, which omits ``elapsed_ms``."""

    def __init__(self, check_id: str, q: int, status: str, cases_checked: int = 0,
                 elapsed_ms: int = 0, witnesses: list | None = None,
                 reading_notes: str | None = None, details: dict | None = None):
        self.check_id, self.q, self.status, self.cases_checked = check_id, q, status, cases_checked
        self.elapsed_ms, self.witnesses = elapsed_ms, [] if witnesses is None else witnesses
        self.reading_notes, self.details = reading_notes, {} if details is None else details

    @property
    def ok(self) -> bool:
        return self.status in (PASS, REPORT_ONLY)

    def to_dict(self) -> dict:
        d = {
            "check_id": self.check_id,
            "q": self.q,
            "status": self.status,
            "cases_checked": self.cases_checked,
            "witnesses": self.witnesses,
            "details": self.details,
        }
        if self.reading_notes is not None:
            d["reading_notes"] = self.reading_notes
        return d

    def text(self) -> str:
        head = f"{self.status.upper():>11}  {self.check_id:<16} q={self.q:<3} cases={self.cases_checked}"
        lines = [head]
        if self.reading_notes:
            lines.append(f"             note: {self.reading_notes}")
        for w in self.witnesses[:MAX_WITNESSES_SHOWN]:
            lines.append(f"             witness: {json.dumps(w, sort_keys=True)}")
        hidden = len(self.witnesses) - MAX_WITNESSES_SHOWN
        if hidden > 0:
            lines.append(f"             ... and {hidden} more witnesses")
        return "\n".join(lines)


class Budget(namedtuple("Budget", "mode samples seed", defaults=("exhaustive", 0, 0))):
    """Quantifier budget: exhaustive sweep, orbit-reduced exhaustive sweep,
    or deterministic seeded sampling of at least one case.  Any other mode
    raises ``ValueError`` at construction."""

    __slots__ = ()

    def __new__(cls, mode: str = "exhaustive", samples: int = 0, seed: int = 0):
        self = super().__new__(cls, mode, samples, seed)
        if mode not in ("exhaustive", "orbit", "sample") or (mode == "sample" and samples <= 0):
            raise ValueError(f"bad budget {self}; {_EXPECTED}")
        return self

    @staticmethod
    def parse(text: str, seed: int = 0) -> "Budget":
        mode, colon, k = text.partition(":")
        if (mode == "sample") == bool(colon):  # a count after sample only
            try:
                return Budget(mode, int(k) if colon else 0, seed)
            except ValueError:
                pass
        raise ValueError(f"bad budget {text!r}; {_EXPECTED}")


def run_check(check_id: str, q: int, sweep: Callable[[], tuple[int, list, dict]],
              notes: str | None = None, clean: str = PASS) -> Report:
    """Run ``sweep()`` and report it: the one place a status or an elapsed
    time is set."""
    t0 = time.perf_counter()
    cases, witnesses, details = sweep()
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return Report(check_id, q, FAIL if witnesses else clean, cases, elapsed_ms,
                  witnesses, notes, details)
