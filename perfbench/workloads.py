"""The four workloads, the CLI commands each one runs, what it builds before
its first sweep, and the verdict oracle that checks every command's output.

Why these four (measured on 2 CPUs, Python 3.11.7; see NOTES.md):

* catalog-q7      the full 29-check catalog; the verify layer dominates.
                  q=11 would take over 80 s, all in T4.2.
* axioms-q11      the nine residual-plane axioms at their default budgets
                  (10^6 seeded samples for T/Des/Pap): table lookups in
                  skewaffine, bypassing the catalog.  The benchmark seed is
                  forwarded here, and only here, as --seed.
* export-q13      the same skewaffine layer used the other way: the space
                  build is most of the run, and the largest resident set.
* plane-group-q11 the plane axiom sweep and the non-canonical normalizer
                  path of autgroup, which no other workload reaches.
"""

from __future__ import annotations

import json
import os

WORKLOADS = ("catalog-q7", "axioms-q11", "export-q13", "plane-group-q11")

# q of each workload's set-up, and whether set-up goes on past LaguerrePlane
# to DeltaGroup.build and GroupSpace.build.
SETUP = {
    "catalog-q7": (7, True),
    "axioms-q11": (11, True),
    "export-q13": (13, True),
    "plane-group-q11": (11, False),
}


def commands(workload: str, seed: int, export_path: str) -> list[list[str]]:
    """Arguments after ``python -m laguerre`` for each command of a workload."""
    if workload == "catalog-q7":
        return [["theorems", "run", "--q", "7", "--id", "all", "--json"]]
    if workload == "axioms-q11":
        return [["skewaffine", "verify", "--q", "11", "--axiom", "all", "--json",
                 "--seed", str(seed)]]
    if workload == "export-q13":
        return [["export", "--q", "13", "--what", "space", "--out", export_path]]
    if workload == "plane-group-q11":
        return [["plane", "verify", "--q", "11", "--json"],
                ["group", "verify", "--q", "11", "--pencil", "p:1,2", "--json"]]
    raise ValueError(f"unknown workload {workload!r}")


# Negative controls: commands that must fail, with the exit code they must
# fail with.  A control that passes counts as a failed run.
CONTROLS = (
    (["group", "verify", "--q", "2", "--json"], 1),
    (["theorems", "run", "--q", "9"], 2),
)


# The known answers.  They are written out here rather than imported from the
# package, so a change that drops a check or an axiom is caught.
CHECK_IDS = (
    "P2.1", "P2.2", "P2.3", "P2.4", "P2.5", "P2.6", "C2.1",
    "T3.1", "P3.1", "C3.1", "L3.1", "P3.2", "T3.2", "C3.3", "C3.4",
    "P4.1", "C4.1", "P4.2", "P4.3", "L4.1",
    "P4.4", "P4.5", "P4.6", "P4.7", "L4.2", "T4.1", "C4.2", "T4.2", "R4.1",
)
AXIOMS = ("L1", "L2", "P1", "P2", "T", "V", "Pgm", "Des", "Pap")
REPORT_IDS = {"theorems": CHECK_IDS, "skewaffine": AXIOMS,
              "plane": ("laguerre-axioms",), "group": ("A1A2A3",)}
# Residual plane at q=13: q^2 points; q^2(q-1) circle lines, q straight
# lines, 2q^2 special lines; q+2 parallel classes.
EXPORT_CENSUS = {"points": 169, "circle_line": 2028, "straight_pencil": 13,
                 "special": 338, "lines": 2379, "classes": 15}


def _q(argv: list[str]) -> int:
    return int(argv[argv.index("--q") + 1])


def _reports(stdout: str) -> list[dict]:
    reports = json.loads(stdout)
    if not isinstance(reports, list) or not all(isinstance(r, dict) for r in reports):
        raise ValueError("not a JSON array of reports")
    return reports


def _check_export(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        space = json.load(fh)
    got = {"points": len(space["points"]), "lines": len(space["lines"]),
           "classes": len({line["class"] for line in space["lines"]})}
    for kind in ("circle_line", "straight_pencil", "special"):
        got[kind] = sum(line["kind"] == kind for line in space["lines"])
    return [f"census {k}={got[k]}, expected {v}"
            for k, v in EXPORT_CENSUS.items() if got[k] != v]


def _check_reports(argv: list[str], reports: list[dict]) -> list[str]:
    q = _q(argv)
    ids = [r.get("check_id") for r in reports]
    expected = REPORT_IDS[argv[0]]
    if sorted(map(str, ids)) != sorted(expected):
        return [f"report ids {ids}, expected {list(expected)}"]
    problems = []
    for r in reports:
        if argv[0] == "theorems" and r["check_id"] == "L3.1":
            glides = r.get("details", {}).get("glide_count")
            if r.get("status") != "report_only" or glides != q * (q - 1):
                problems.append(f"L3.1 status={r.get('status')} glide_count={glides}, "
                                f"expected report_only and {q * (q - 1)}")
        elif r.get("status") != "pass":
            problems.append(f"{r['check_id']} status={r.get('status')}")
    return problems


def verdict(argv: list[str], rc: int, stdout: str, export_path: str) -> list[str]:
    """Problems with one workload command's result; empty when it is right."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    try:
        if argv[0] == "export":
            return _check_export(export_path)
        return _check_reports(argv, _reports(stdout))
    except (ValueError, KeyError, TypeError, OSError) as e:
        return [f"unreadable output: {e!r}"]
    finally:
        if argv[0] == "export" and os.path.exists(export_path):
            os.remove(export_path)


def control_verdict(argv: list[str], expected_rc: int, rc: int, stdout: str) -> list[str]:
    """Problems with a negative control; empty when it failed as it must."""
    if rc != expected_rc:
        return [f"exit code {rc}, expected {expected_rc}"]
    if argv[0] == "group":
        try:
            witnesses = _reports(stdout)[0]["witnesses"]
        except (ValueError, KeyError, IndexError) as e:
            return [f"unreadable output: {e!r}"]
        if not any(w.get("axiom") == "A3" for w in witnesses):
            return ["no A3 witness"]
    return []
