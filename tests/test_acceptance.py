"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
All tolerances are exact counts except the stated wall-clock bounds.
"""

import json
import time

from laguerre import (Budget, DeltaGroup, GroupSpace, LaguerrePlane,
                      canonical_pencil, thm_check, verify_a1a2a3, affine, ideal)
from laguerre.cli import main as cli_main
from laguerre.skewaffine import CIRCLE_LINE, SPECIAL, STRAIGHT
from laguerre.verify import CHECK_IDS
from oracles import group_census, thm_equiv_rel, thm_tangency_locus


def _verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_laguerre_axioms():
    t0 = time.perf_counter()
    for q in (2, 3, 5, 7, 11):
        rep = LaguerrePlane(q).verify_axioms()
        assert rep.status == "pass", (q, rep.witnesses[:3])
        assert not rep.witnesses
    elapsed = time.perf_counter() - t0
    _verdict(1, elapsed < 60.0,
             f"plane axioms exhaustive for q in (2,3,5,7,11) in {elapsed:.1f}s")


def test_criterion_2_a1a2a3():
    for q in (3, 5, 7, 11, 13):
        pl = LaguerrePlane(q)
        rep = DeltaGroup.build(pl, canonical_pencil(pl)).verify_axioms()
        assert rep.status == "pass", (q, rep.witnesses[:3])
    pl2 = LaguerrePlane(2)
    rep2 = verify_a1a2a3(pl2, canonical_pencil(pl2), None)
    assert rep2.status == "fail"
    assert rep2.witnesses
    # every a != 0, b = 0 circle is tangent to at least two members
    flat = {tuple(w["circle"]): len(w["tangent_members"]) for w in rep2.witnesses}
    for c in (0, 1):
        assert flat[(1, 0, c)] >= 2
    assert all(n != 1 for n in flat.values())
    _verdict(2, True, "A1/A2/A3 pass for q in (3,5,7,11,13); A3 fails for q=2 "
                      f"with {len(rep2.witnesses)} witnesses")


def test_criterion_3_group_census_q5():
    pl = LaguerrePlane(5)
    delta = DeltaGroup.build(pl, canonical_pencil(pl))
    assert len(delta.elements) == 100
    census = group_census(delta)
    assert census["identity"] == 1
    assert census["translation_generators"] + \
        census["translation_circle_direction"] == 24
    assert census["strain"] == 50
    assert census["symmetry"] == 5
    assert census["glide"] == 20
    for r in delta.space_points():
        assert delta.semidirect_factorization(delta.stabilizer(r)), r
    _verdict(3, True, "group census 1+24+50+5+20=100 exact; factorization "
                      "bijective at all 25 points")


def test_criterion_4_space_census():
    expected = {
        5: (25, 155, {CIRCLE_LINE: 100, STRAIGHT: 5, SPECIAL: 50}, 7),
        3: (9, 39, {CIRCLE_LINE: 18, STRAIGHT: 3, SPECIAL: 18}, 5),
        7: (49, 399, {CIRCLE_LINE: 294, STRAIGHT: 7, SPECIAL: 98}, 9),
    }
    for q, (npts, nlines, kinds, ncls) in expected.items():
        pl = LaguerrePlane(q)
        gs = GroupSpace.build(pl, canonical_pencil(pl),
                              DeltaGroup.build(pl, canonical_pencil(pl)),
                              check_preconditions=False)
        census = gs.census()
        assert census["points"] == npts
        assert census["lines"] == nlines
        assert census["by_kind"] == kinds
        assert census["classes"] == ncls
    _verdict(4, True, "line/class censuses exact for q in (3,5,7)")


def test_criterion_5_skewaffine_axioms():
    spaces = {}
    for q in (3, 5, 7):
        pl = LaguerrePlane(q)
        spaces[q] = GroupSpace.build(pl, canonical_pencil(pl),
                                     DeltaGroup.build(pl, canonical_pencil(pl)),
                                     check_preconditions=False)
    for q in (3, 5, 7):
        for axiom in ("L1", "L2", "P1", "P2", "V", "Pgm"):
            rep = spaces[q].check_axiom(axiom, Budget("exhaustive", 0, 0))
            assert rep.status == "pass", (q, axiom, rep.witnesses[:2])
    for axiom in ("T", "Des", "Pap"):
        rep = spaces[3].check_axiom(axiom, Budget("exhaustive", 0, 0))
        assert rep.status == "pass", (3, axiom, rep.witnesses[:2])
    represented_total = 0
    for q in (5, 7):
        for axiom in ("T", "Des", "Pap"):
            rep = spaces[q].check_axiom(axiom, Budget("orbit", 0, 0))
            assert rep.status == "pass", (q, axiom, rep.witnesses[:2])
            assert rep.details["mode"] == "orbit"
            represented_total += rep.details["cases_represented"]
    sampled_total = 0
    for q in (5, 7):
        for axiom in ("T", "Des", "Pap"):
            rep = spaces[q].check_axiom(axiom, Budget("sample", 10 ** 6, 0))
            assert rep.status == "pass", (q, axiom, rep.witnesses[:2])
            assert rep.cases_checked >= 10 ** 6
            sampled_total += rep.cases_checked
    _verdict(5, True, "L1/L2/P1/P2/V/Pgm exhaustive q in (3,5,7); T/Des/Pap "
                      f"exhaustive q=3, orbit-exhaustive at q in (5,7) "
                      f"({represented_total} cases represented), and "
                      f"{sampled_total} sampled cases at q in (5,7), "
                      "zero violations")


def test_criterion_6_theorem_suite():
    for q in (3, 5, 7):
        for cid in CHECK_IDS:
            rep = thm_check(cid, q)
            if cid == "L3.1":
                assert rep.status == "report_only", (q, rep.witnesses[:2])
                assert rep.details["glide_count"] == q * (q - 1)
            else:
                assert rep.status == "pass", (cid, q, rep.witnesses[:2])
    # join closed form vs orbit enumeration on all ordered point pairs:
    # the space constructor computes every join both ways and raises on
    # any disagreement, so a fresh build is the sweep itself
    for q in (3, 5, 7):
        pl = LaguerrePlane(q)
        GroupSpace.build(pl, canonical_pencil(pl),
                         DeltaGroup.build(pl, canonical_pencil(pl)),
                         check_preconditions=False)
    _verdict(6, True, "29-check catalog green for q in (3,5,7) with L3.1 "
                      "report-only; dual-route joins agree on all pairs")


def test_criterion_7_equivalence_partition():
    for q in (5, 7, 11):
        pl = LaguerrePlane(q)
        for member in pl.pencil_members(canonical_pencil(pl)):
            classes, rep = thm_equiv_rel(pl, member)
            assert rep.status == "pass", (q, member, rep.witnesses[:2])
            assert len(set(classes.values())) == 2
    _verdict(7, True, "brute-force relation equals the square-class partition "
                      "with 2 blocks for every member, q in (5,7,11); "
                      "two-tangent-circle counts exact")


def test_criterion_8_tangency_locus():
    t0 = time.perf_counter()
    for q in (5, 7):
        pl = LaguerrePlane(q)
        pencil = canonical_pencil(pl)
        for beta in range(1, q):
            for x in (affine(u, v) for u in range(q) for v in range(q)):
                locus, rep = thm_tangency_locus(pl, pencil, ideal(beta), x)
                assert rep.status == "pass", (q, beta, x, rep.witnesses)
                assert locus.a == (-beta) % q
        # uniqueness of the opposite ideal point, swept by the join reversal
        rep = thm_check("L4.2", q)
        assert rep.status == "pass", rep.witnesses[:2]
    elapsed = time.perf_counter() - t0
    _verdict(8, elapsed < 30.0,
             f"locus is one circle through the opposite ideal point for all "
             f"(beta, x), q in (5,7); unique opposite point; {elapsed:.1f}s")


def test_criterion_9_determinism(capsys):
    outs = []
    for _ in range(2):
        code = cli_main(["theorems", "run", "--q", "5", "--id", "all", "--json"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    reports = json.loads(outs[0])
    assert len(reports) == 29
    _verdict(9, outs[0].encode() == outs[1].encode(),
             "two CLI runs produced byte-identical JSON")
