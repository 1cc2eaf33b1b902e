import itertools

import pytest

from laguerre import (Budget, Circle, DeltaGroup, GeometryError, LaguerrePlane, PencilAut,
                      PermutationMap, affine, canonical_pencil, ideal, thm_check,
                      thm_equiv_rel, thm_tangency_locus, verify)
from laguerre.autgroup import IDENTITY, aut_compose, aut_inverse
from laguerre.skewaffine import SPECIAL
from laguerre.verify import CHECK_IDS, CHECK_SUMMARIES, TangentFamily
from test_plane import _MovedPoint


def test_catalog_is_closed():
    assert len(CHECK_IDS) == 29
    assert len(set(CHECK_IDS)) == 29
    assert set(CHECK_SUMMARIES) == set(CHECK_IDS)
    # report order, and one symmetry and evaluation per id
    assert CHECK_IDS == (
        "P2.1", "P2.2", "P2.3", "P2.4", "P2.5", "P2.6", "C2.1",
        "T3.1", "P3.1", "C3.1", "L3.1", "P3.2", "T3.2", "C3.3", "C3.4",
        "P4.1", "C4.1", "P4.2", "P4.3", "L4.1",
        "P4.4", "P4.5", "P4.6", "P4.7", "L4.2", "T4.1", "C4.2", "T4.2", "R4.1")
    assert list(verify._CATALOG) == list(CHECK_IDS)
    assert all(symmetry in (None, verify._at_point0, verify._on_member0) and callable(evaluation)
               for symmetry, evaluation, _ in verify._CATALOG.values())


@pytest.mark.parametrize("q", [3, 5, 7])
def test_each_check_alone_matches_the_suite(q, monkeypatch):
    # run alone on a fresh context, a check builds the tables it reads in
    # its own order (transport, family0, loci), as ``theorems run --id`` does
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    suite = [rep.to_dict() for rep in verify.run_suite(q)]
    for cid, want in zip(CHECK_IDS, suite):
        verify._CTX_CACHE.clear()
        assert thm_check(cid, q).to_dict() == want, cid


def test_unknown_id_rejected():
    with pytest.raises(GeometryError) as e:
        thm_check("P9.9", 5)
    assert e.value.code == "bad_check"
    for q in (2, 4):
        with pytest.raises(GeometryError) as e:
            thm_check("P4.4", q)
        assert e.value.code == "char2_group"


def test_equiv_rel_examples(plane5):
    member = Circle(0, 0, 0)
    cls, rep = thm_equiv_rel(plane5, member)
    assert rep.status == "pass"
    assert cls[affine(0, 1)] == cls[affine(3, 4)]          # 4/1 is a square
    assert cls[affine(0, 1)] != cls[affine(0, 2)]          # 2 is a nonsquare
    assert cls[ideal(1)] == cls[affine(2, 4)]
    assert len(set(cls.values())) == 2


def test_equiv_two_circle_count(plane5):
    # exactly two tangent circles through an equivalent (ideal, affine) pair
    member = Circle(0, 0, 0)
    hits = [C for C in plane5.circles
            if plane5.incident(ideal(1), C) and plane5.incident(affine(2, 4), C)
            and C != member and plane5.intersection_size(C, member) == 1]
    assert sorted(hits) == [Circle(1, 0, 0), Circle(1, 2, 1)]


def test_equiv_rel_brute_force_agrees_with_rule():
    # independent of the mask machinery: quantify the definition directly
    pl = LaguerrePlane(5)
    member = Circle(0, 0, 1)
    tangents = [C for C in pl.circles if C != member and pl.intersection_size(C, member) == 1]
    off = [p for p in pl.points if not pl.incident(p, member)]

    def equivalent(a, b):
        ps = [C for C in tangents if pl.incident(a, C)]
        qs = [C for C in tangents if pl.incident(b, C)]
        return all(C1 == C2 or pl.intersection_size(C1, C2) >= 1
                   for C1 in ps for C2 in qs)

    cls, rep = thm_equiv_rel(pl, member)
    assert rep.status == "pass"
    for a in off:
        for b in off:
            if a == b:
                continue
            assert equivalent(a, b) == (cls[a] == cls[b])


def test_equiv_rel_rejects_bad_input(plane5, plane2):
    with pytest.raises(GeometryError) as e:
        thm_equiv_rel(plane5, Circle(1, 0, 0))
    assert e.value.code == "not_canonical_member"
    with pytest.raises(GeometryError) as e:
        thm_equiv_rel(plane2, Circle(0, 0, 0))
    assert e.value.code == "char2_group"


def test_equiv_rel_fails_on_a_flipped_pair(monkeypatch):
    flip = (affine(0, 1), affine(0, 2))

    class Flipped(TangentFamily):
        def equivalent(self, a, b):
            return super().equivalent(a, b) != ((a, b) == flip)

    monkeypatch.setattr(verify, "TangentFamily", Flipped)
    _, rep = thm_equiv_rel(LaguerrePlane(5), Circle(0, 0, 0))
    assert rep.status == "fail"
    assert rep.cases_checked == 576
    assert [(w["law"], w["a"], w["b"]) for w in rep.witnesses] == [
        (law, "A(0,1)", "A(0,2)")
        for law in ("symmetric", "single_witness", "square_class_rule", "transitive")]


def test_tangency_locus_examples(plane5, plane7):
    pencil5 = canonical_pencil(plane5)
    locus, rep = thm_tangency_locus(plane5, pencil5, ideal(1), affine(0, 0))
    assert rep.status == "pass"
    assert locus == Circle(4, 0, 0)
    assert plane5.incident(ideal(4), locus)

    locus, rep = thm_tangency_locus(plane5, pencil5, ideal(2), affine(1, 1))
    assert rep.status == "pass"
    assert locus.a == 3

    locus, rep = thm_tangency_locus(plane7, canonical_pencil(plane7),
                                    ideal(1), affine(0, 0))
    assert locus == Circle(6, 0, 0)


def test_tangency_locus_brute_base_points(plane5):
    # oracle: base points recomputed by scanning every pencil member
    pencil = canonical_pencil(plane5)
    members = plane5.pencil_members(pencil)
    q_ideal, x = ideal(1), affine(0, 0)
    bases = []
    for N in plane5.joining_pencil(q_ideal, x):
        hits = [pt for M in members if M != N
                for pt in [plane5.intersection(M, N)]
                if len(pt) == 1 for pt in pt]
        assert len(hits) == 1
        bases.append(hits[0])
    locus, _ = thm_tangency_locus(plane5, pencil, q_ideal, x)
    assert set(bases) == {p for p in plane5.circle_points(locus)
                          if p.kind != "I"}


def test_tangency_locus_fails_on_a_moved_base(monkeypatch):
    plane = LaguerrePlane(5)
    real = plane.pencil_tangent

    def moved(N, pencil):
        # the fourth base of the joining pencil of I(1) and A(0,0) is A(1,4)
        member, base = real(N, pencil)
        return member, affine(1, 0) if base == affine(1, 4) else base

    monkeypatch.setattr(plane, "pencil_tangent", moved)
    locus, rep = thm_tangency_locus(plane, canonical_pencil(plane), ideal(1),
                                    affine(0, 0))
    assert locus == Circle(4, 0, 0)
    assert rep.status == "fail"
    assert rep.witnesses == [{"problem": "not_a_circle", "bases": [
        "A(0,0)", "A(1,0)", "A(2,1)", "A(3,1)", "A(4,4)"]}]


def test_tangency_locus_fits_nonparallel_bases(monkeypatch):
    # moving the first base A(0,0) to A(2,0) makes it parallel to the second
    # base A(2,1): the circle is fitted through A(2,0), A(4,4), A(1,4)
    # instead, and the bases fail against it
    plane = LaguerrePlane(5)
    real = plane.pencil_tangent

    def moved(N, pencil):
        member, base = real(N, pencil)
        return member, affine(2, 0) if base == affine(0, 0) else base

    monkeypatch.setattr(plane, "pencil_tangent", moved)
    locus, rep = thm_tangency_locus(plane, canonical_pencil(plane), ideal(1),
                                    affine(0, 0))
    assert locus == Circle(2, 0, 2)
    assert rep.status == "fail"
    assert rep.witnesses == [
        {"problem": "not_a_circle",
         "bases": ["A(1,4)", "A(2,0)", "A(2,1)", "A(3,1)", "A(4,4)"]},
        {"problem": "missing_opposite_ideal_point", "locus": [2, 0, 2],
         "q_prime": "I(4)"}]

    def two_generators(N, pencil):
        member, base = real(N, pencil)
        return member, affine(base.x % 2, base.y)

    # no three bases are pairwise nonparallel: there is no circle to fit
    monkeypatch.setattr(plane, "pencil_tangent", two_generators)
    locus, rep = thm_tangency_locus(plane, canonical_pencil(plane), ideal(1),
                                    affine(0, 0))
    assert locus is None
    assert rep.details["locus"] is None
    assert rep.witnesses == [{"problem": "not_a_circle", "bases": [
        "A(0,0)", "A(0,1)", "A(0,4)", "A(1,1)", "A(1,4)"]}]


def test_c4_2_fails_without_a_swept_circle(monkeypatch):
    # every base moved onto the generators x = 0, 1: no locus is fitted, and
    # T4.1 and C4.2 fail at every direction and point instead of raising
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    ctx = verify._context(5)
    monkeypatch.setattr(ctx, "bases", {M: affine(base.x % 2, base.y)
                                       for M, base in ctx.bases.items()})
    t41, c42 = thm_check("T4.1", 5), thm_check("C4.2", 5)
    # the catalog evaluates point 0, one locus per direction; the retired
    # loop over every point finds the same fault at all 100 loci
    assert (t41.status, len(t41.witnesses)) == ("fail", 4)
    assert (c42.status, c42.cases_checked, len(c42.witnesses)) == ("fail", 4, 4)
    assert c42.details["cases_represented"] == 100
    assert c42.witnesses[0] == {"beta": 1, "x": "A(0,0)", "locus": None}
    assert [len(RETIRED[cid](ctx)[1]) for cid in ("T4.1", "C4.2")] == [100, 100]


def test_tangency_locus_rejects_bad_vertex(plane5):
    pencil = canonical_pencil(plane5)
    with pytest.raises(GeometryError):
        thm_tangency_locus(plane5, pencil, ideal(0), affine(0, 0))
    with pytest.raises(GeometryError):
        thm_tangency_locus(plane5, pencil, affine(0, 1), affine(0, 0))


def test_tangency_locus_rejects_points_off_the_plane_and_other_vertices(plane5):
    # points off the plane are looked up before anything else; the opposite
    # point ideal(-beta) needs the pencil vertex I(0), so another vertex is
    # rejected instead of failing (I(2)) or leaking on_circle (A(1,2))
    canonical = canonical_pencil(plane5)
    for pencil, q_ideal, x, code in (
            (canonical, ideal(1), affine(9, 0), "not_a_point"),
            (canonical, ideal(7), affine(0, 0), "not_a_point"),
            (canonical, ideal(1), affine(0, 7), "not_a_point"),
            (plane5.pencil(ideal(2), Circle(2, 0, 0)), ideal(1), affine(0, 0), "bad_vertex"),
            (plane5.pencil(affine(1, 2), Circle(0, 0, 2)), ideal(1), affine(0, 0),
             "bad_vertex")):
        with pytest.raises(GeometryError) as e:
            thm_tangency_locus(plane5, pencil, q_ideal, x)
        assert e.value.code == code, (pencil, q_ideal, x)
    # any pencil at I(0) has the opposite point ideal(-beta)
    _, rep = thm_tangency_locus(plane5, plane5.pencil(ideal(0), Circle(0, 2, 0)), ideal(1),
                                affine(0, 0))
    assert rep.status == "pass"


def test_spot_checks_q5():
    rep = thm_check("P2.5", 5)
    assert rep.status == "pass"
    assert rep.cases_checked == 105  # 100 proper + 5 straight circle lines
    rep = thm_check("T4.2", 5)
    assert rep.status == "pass"
    rep = thm_check("T3.2", 5)
    assert rep.status == "pass"


def test_l3_1_report_only():
    for q in (3, 5, 7):
        rep = thm_check("L3.1", q)
        assert rep.status == "report_only"
        assert rep.details["translation_count"] == q * q - 1
        assert rep.details["glide_count"] == q * (q - 1)
        assert rep.details["glides_never_translations"] is True
        assert rep.reading_notes and "report-only" in rep.reading_notes
        assert not rep.witnesses


def test_l3_1_fails_with_a_witness_when_a_glide_keeps_directions(monkeypatch):
    # a fresh context whose action leaves every slope of the a = 0 circles
    # fixed under one glide: the check must fail and name the element
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    delta = verify._context(5).delta
    real = delta.circle_images
    glide = PencilAut(4, 0, 1)

    def bent(f, circles):
        images = real(f, circles)
        return [C if f == glide and C.a == 0 else D for C, D in zip(circles, images)]

    monkeypatch.setattr(delta, "circle_images", bent)
    rep = thm_check("L3.1", 5)
    assert rep.status == "fail"
    assert rep.cases_checked == 224
    assert rep.witnesses == [{"problem": "glide_preserves_directions",
                              "element": [4, 0, 1], "alpha": 0}]
    assert rep.details["glides_never_translations"] is False


def test_c2_1_reports_scope(plane3):
    rep = thm_check("C2.1", 3)
    assert rep.status == "pass"
    # at q = 3 invariance is weaker, so circles missing the fixed point occur
    assert rep.details["invariant_missing_fixed_point"] > 0
    rep5 = thm_check("C2.1", 5)
    assert rep5.details["invariant_missing_fixed_point"] == 0


def test_p4_x_family_at_q11():
    for cid in ("P4.4", "P4.5", "P4.6", "P4.7", "R4.1"):
        rep = thm_check(cid, 11)
        assert rep.status == "pass", (cid, rep.witnesses[:2])


@pytest.mark.parametrize("q", [3, 5])
def test_tangent_family_matches_brute_force(q):
    # every circle L: the incidence-built masks against pairwise
    # intersection counts, and meets/links against the per-circle all/any
    # formulas they replace
    pl = LaguerrePlane(q)
    for L in pl.circles:
        fam = TangentFamily(pl, L)
        tangent = {C: pl.intersection(C, L)[0] for C in pl.circles
                   if C != L and pl.intersection_size(C, L) == 1}
        assert dict(zip(fam.circles, fam.touch)) == tangent
        assert len(fam.circles) == len(tangent)
        circles, touch = fam.circles, fam.touch
        for i, C in enumerate(circles):
            assert fam.inter[i] == sum(
                1 << j for j, D in enumerate(circles)
                if D == C or pl.intersection_size(C, D) >= 1)
            assert fam.samept[i] == sum(
                1 << j for j, t in enumerate(touch) if t == touch[i])
        off = [p for p in pl.points if not pl.incident(p, L)]
        assert fam.off_points == off
        through = {p: [i for i, C in enumerate(circles) if pl.incident(p, C)]
                   for p in off}
        assert fam.point_mask == {p: sum(1 << i for i in through[p]) for p in off}
        for a in off:
            for b in off:
                mb = fam.point_mask[b]
                assert fam.equivalent(a, b) == all(
                    not (mb & ~fam.inter[i]) for i in through[a])
                assert fam.witness_pair(a, b) == any(
                    mb & fam.inter[i] & ~fam.samept[i] for i in through[a])


def test_t4_2_fails_on_a_flipped_intersection_bit(monkeypatch):
    # a fresh context builds the family of (0, 0, 0) from the flipped class
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    target = Circle(0, 0, 0)

    class Flipped(TangentFamily):
        def __init__(self, plane, L):
            super().__init__(plane, L)
            if L == target:
                # circle 0 now claims to meet the first circle it misses
                j = next(j for j in range(len(self.circles))
                         if not self.inter[0] >> j & 1)
                self.inter[0] ^= 1 << j

    monkeypatch.setattr(verify, "TangentFamily", Flipped)
    rep = thm_check("T4.2", 5)
    assert rep.status == "fail"
    assert rep.cases_checked == 240
    assert rep.details["cases_represented"] == 30000
    assert {tuple(w) for w in rep.witnesses} == {
        ("circle", "x", "y", "exactly_two", "all_meet", "one_pair")}
    assert all(w["circle"] == [0, 0, 0] and not w["exactly_two"]
               and not w["all_meet"] and w["one_pair"] for w in rep.witnesses)
    assert [(w["x"], w["y"]) for w in rep.witnesses] == [
        ("A(1,1)", "A(2,2)"), ("A(1,1)", "A(3,3)"), ("A(1,1)", "A(4,3)"),
        ("A(1,1)", "I(2)"), ("A(2,4)", "A(3,3)"), ("A(2,4)", "A(4,3)"),
        ("A(2,4)", "I(2)"), ("A(3,4)", "A(4,3)"), ("A(3,4)", "I(2)"),
        ("A(4,1)", "I(2)")]


def test_p4_2_fails_on_a_moved_base_point(monkeypatch):
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    ctx = verify._context(5)
    # the base of (1, 0, 0) is A(0,0); claim A(0,1), the base of (1, 0, 1)
    assert (ctx.bases[Circle(1, 0, 0)], ctx.bases[Circle(1, 0, 1)]) == (affine(0, 0), affine(0, 1))
    monkeypatch.setitem(ctx.bases, Circle(1, 0, 0), affine(0, 1))
    rep = thm_check("P4.2", 5)
    assert rep.status == "fail"
    # (1, 0, 0) is the representative of a = 1, paired with its 24 translates
    assert (rep.cases_checked, rep.details["cases_represented"]) == (96, 1200)
    assert rep.witnesses == [{"circles": [[1, 0, 0], [1, 0, 1]], "disjoint": True}]
    assert RETIRED["P4.2"](ctx) == (1200, rep.witnesses)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_bases_from_masks_match_pencil_tangent(q):
    # the one bit a circle's mask shares with its one tangent member,
    # against the intersection sweep of pencil_tangent, circle by circle
    ctx = verify._context(q)
    plane, pencil = ctx.plane, ctx.pencil
    assert list(ctx.bases.items()) == [(M, plane.pencil_tangent(M, pencil)[1])
                                       for M in plane.circles if not plane.incident(pencil.p, M)]


def test_bases_reject_a_damaged_incidence():
    # (1, 2, 3) holding A(0,4) for A(0,3) shares one point with each of the
    # members y = 2, 3 and 4; pencil_tangent, on closed forms, sees none of it
    ctx = verify._Ctx(5)
    ctx.plane = _MovedPoint(5)
    with pytest.raises(GeometryError) as e:
        ctx.bases
    assert e.value.code == "a3_violated"
    assert e.value.witnesses == [{"circle": [1, 2, 3], "count": 3}]


def test_run_suite_derives_each_plane_fact_once(monkeypatch):
    # 105 lines carry a circle, and each of the q - 1 loci at point 0 fits
    # one more.  The vertex pencil at each of the q^2 residual points is
    # built once, for T3.1 and T3.2 together (T3.2 alone rebuilt it for each
    # of the 75 elements with one fixed point).  The other 7 calls are one
    # for the members whose masks ``tangent_hits`` reads, which gives all
    # q^3 - q^2 = 100 tangency bases in one sweep (no ``pencil_tangent``
    # call, which made 100 calls of its own), and six for the one tangent
    # family, of the member y = 0, which T4.2 and the family checks share.
    # Only point 0's stabilizer is scanned, once, by
    # the context, which conjugates it along the translations to every
    # other point (C2.1, T3.2 and the fixed points read those); the space
    # build scans none.
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    ctx = verify._context(5)
    calls = {"pencil_tangent": 0, "tangent_hits": 0, "circle_through": 0,
             "pencil_members": 0, "stabilizer": 0}
    for name in calls:
        owner = ctx.delta if name == "stabilizer" else ctx.plane
        real = getattr(owner, name)

        def counted(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    families = []

    class Counted(TangentFamily):
        def __init__(self, plane, L):
            families.append(L)
            super().__init__(plane, L)

    monkeypatch.setattr(verify, "TangentFamily", Counted)
    assert all(rep.ok for rep in verify.run_suite(5))
    assert calls == {"pencil_tangent": 0, "tangent_hits": 1, "circle_through": 109,
                     "pencil_members": 25 + 1 + 6, "stabilizer": 1}
    assert families == [Circle(0, 0, 0)]


def test_each_automorphism_is_verified_once_where_it_is_used(monkeypatch):
    # the catalog verifies its two unit translations and T4.2's two shifts
    # y += x² and y += x; a group at an affine vertex verifies its composed
    # normalizer alone
    passes = []
    real = PermutationMap.verify

    def spy(self):
        passes.append(self.perm)
        return real(self)

    monkeypatch.setattr(PermutationMap, "verify", spy)
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    assert all(rep.ok for rep in verify.run_suite(5))
    assert len(passes) == 4
    passes.clear()
    pl = LaguerrePlane(5)
    DeltaGroup.build(pl, pl.pencil(affine(1, 2), Circle(0, 0, 2)))
    assert len(passes) == 1


def test_p2_1_fails_on_a_special_nonparallel_join(monkeypatch):
    # the join of A(0,0) and A(1,0) replaced by a special line: no circle
    # carries it, and P2.1 names the pair instead of raising
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    space = verify._context(5).space
    special = next(line for line in space.lines if line.kind == SPECIAL)
    real = space.join

    def damaged(x, y):
        return special if (x, y) == (affine(0, 0), affine(1, 0)) else real(x, y)

    monkeypatch.setattr(space, "join", damaged)
    rep = thm_check("P2.1", 5)
    assert rep.status == "fail"
    assert rep.witnesses == [{"x": "A(0,0)", "y": "A(1,0)", "problem": "not_a_remnant"}]


def _t4_2_all_circles(plane):
    """T4.2 at every circle, as the catalog swept it before the orbit
    reduction: the differential oracle of that route.  Returns the case count
    and the failing (circle, x, y)."""
    cases, bad = 0, []
    for L in plane.circles:
        fam = verify.TangentFamily(plane, L)
        pts, pmask = fam.off_points, fam.point_mask
        for ai, a in enumerate(pts):
            for b in pts[ai + 1:]:
                if plane.parallel(a, b):
                    continue
                cases += 1
                two = (pmask[a] & pmask[b]).bit_count() == 2
                allmeet = not (pmask[b] & ~fam.meets[a])
                one = bool(pmask[b] & fam.links[a])
                if not (two == allmeet == one):
                    bad.append((L, a, b))
    return cases, bad


@pytest.mark.parametrize("q", [3, 5])
def test_t4_2_orbit_route_matches_all_circles(q):
    rep = thm_check("T4.2", q)
    cases, bad = _t4_2_all_circles(LaguerrePlane(q))
    assert not bad and rep.status == "pass"  # the same verdict on both routes
    assert rep.details["mode"] == "orbit"
    assert rep.details["representative"] == [0, 0, 0]
    assert rep.details["cases_represented"] == cases == q ** 3 * rep.cases_checked


def test_t4_2_orbit_route_misses_a_fault_off_the_representative(monkeypatch):
    # a family damaged at another circle than (0, 0, 0): only the
    # all-circles oracle evaluates it
    target = Circle(1, 2, 3)

    class Flipped(TangentFamily):
        def __init__(self, plane, L):
            super().__init__(plane, L)
            if L == target:
                j = next(j for j in range(len(self.circles))
                         if not self.inter[0] >> j & 1)
                self.inter[0] ^= 1 << j

    monkeypatch.setattr(verify, "TangentFamily", Flipped)
    _, bad = _t4_2_all_circles(LaguerrePlane(5))
    assert bad and {L for L, _, _ in bad} == {target}
    assert thm_check("T4.2", 5).status == "pass"


def test_t4_2_rejects_a_shift_that_is_not_an_automorphism(monkeypatch):
    def collapsed(plane, Q):
        # A(0,1) goes where A(0,0) goes: no circle holds both, so every
        # circle keeps q + 1 image points, but the map is not a bijection
        perm = list(range(len(plane.points)))
        perm[1] = perm[0]
        return PermutationMap(plane, perm)

    monkeypatch.setattr(verify, "circle_add_map", collapsed)
    with pytest.raises(GeometryError) as e:
        thm_check("T4.2", 5)
    assert e.value.code == "not_automorphism"
    assert e.value.witnesses == [{"problem": "not_bijective"}]


def test_t4_2_rejects_shifts_that_are_not_transitive(monkeypatch):
    # y -> y + 1 replaced by the identity: the shifts reach only the q^2
    # circles with c = 0 (a fresh context builds its shift from the patch)
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    real = verify.circle_add_map

    def no_constant(plane, Q):
        return real(plane, Circle(0, 0, 0) if Q == Circle(0, 0, 1) else Q)

    monkeypatch.setattr(verify, "circle_add_map", no_constant)
    with pytest.raises(GeometryError) as e:
        thm_check("T4.2", 5)
    assert e.value.code == "not_transitive"
    assert "to 25 of the 125 circles" in str(e.value)


# C2.1, T3.2, C3.3 and C3.4 evaluate point 0, or one line per class, and move
# the result along the translations.  The loops they retired are the oracles
# below, each over every point, element, line or pair.


@pytest.mark.parametrize("q", [3, 5])
def test_stabilizers_match_the_per_point_scan(q):
    ctx = verify._context(q)
    scan = [(r, ctx.delta.stabilizer(r)) for r in ctx.space.points]
    assert list(ctx.stabilizers.items()) == scan


def _c2_1_every_point(ctx):
    """C2.1 as an all-circles scan under each point's scanned stabilizer."""
    plane, delta = ctx.plane, ctx.delta
    cases, bad, off_vertex_invariant = 0, [], 0
    for r in ctx.space.points:
        stab = delta.stabilizer(r)
        for C in plane.circles:
            if not all(delta.circle_images(f, [C]) == [C] for f in stab):
                continue
            if not plane.incident(r, C):
                off_vertex_invariant += 1
                continue
            cases += 1
            missed = verify._remnant_missed(ctx, stab, r, C)
            if missed:
                bad.append({"r": repr(r), "circle": list(C),
                            "missed": sorted(map(repr, missed))})
    return cases, bad, {"invariant_missing_fixed_point": off_vertex_invariant}


@pytest.mark.parametrize("q", [3, 5])
def test_c2_1_transport_matches_every_point(q):
    rep = thm_check("C2.1", q)
    details = {k: v for k, v in rep.details.items() if k != "summary"}
    assert (rep.cases_checked, rep.witnesses, details) == _c2_1_every_point(verify._context(q))
    assert rep.status == "pass"


@pytest.mark.parametrize("q", [3, 5])
def test_t3_2_matches_all_elements_and_every_point(q):
    # normality under every element, and the factorization at every point
    # with its scanned stabilizer
    ctx = verify._context(q)
    gf, delta = ctx.plane.gf, ctx.delta
    tset = set(delta.translations)
    bad = [(f, tau) for f in delta.elements for tau in delta.translations
           if aut_compose(gf, aut_compose(gf, f, tau), aut_inverse(gf, f)) not in tset]
    bad += [r for r in ctx.space.points
            if not delta.semidirect_factorization(delta.stabilizer(r))]
    assert not bad and thm_check("T3.2", q).status == "pass"


@pytest.mark.parametrize("q", [3, 5])
def test_c3_3_orbit_matches_exhaustive_pgm(q):
    ctx = verify._context(q)
    pairs = len(ctx.delta.translations) * (len(ctx.delta.translations) - 1) // 2
    pgm = ctx.space.check_axiom("Pgm", Budget("exhaustive"))
    rep = thm_check("C3.3", q)
    assert pgm.status == rep.status == "pass"
    assert rep.details["mode"] == "orbit"
    assert rep.details["cases_represented"] == pairs + pgm.cases_checked


@pytest.mark.parametrize("q", [3, 5])
def test_c3_4_orbit_matches_every_line_and_translation(q):
    space = verify._context(q).space
    translations = list(map(space.point_perm, space.delta.translations))
    cases, bad = 0, []
    for line in space.lines:
        cases += len(translations)
        imgs = {space.line_image(perm, line).index for perm in translations}
        if imgs != set(space.class_members[line.class_id]):
            bad.append(line.index)
    rep = thm_check("C3.4", q)
    assert not bad and rep.status == "pass"
    assert rep.details["mode"] == "orbit"
    assert rep.details["cases_represented"] == cases


def _act(ctx, f, p):
    """The image of one point, as the retired ``DeltaGroup.apply`` gave it."""
    return ctx.plane.points[ctx.delta.image(f, ctx.plane.point_index[p])]


def _c3_1_point_loop(ctx):
    """C3.1 as it searched a symmetry per ordered pair, one point at a time."""
    plane, q = ctx.plane, ctx.q
    cases, bad = 0, []
    for R in ctx.members:
        pts = [p for p in plane.circle_points(R) if p.kind != "I"]
        for x, y in itertools.permutations(pts, 2):
            cases += 1
            if not any(_act(ctx, PencilAut(q - 1, 2 * r.x % q, 0), x) == y for r in pts):
                bad.append({"member": list(R), "x": repr(x), "y": repr(y)})
    return cases, bad, {}


def _p3_2_point_loop(ctx):
    """P3.2 as it filtered Δ by the generator sets, one point at a time."""
    plane, delta = ctx.plane, ctx.delta
    cases, bad = 0, []
    gens = [plane.generator_points(g) for g in plane.generators]
    fixing = [f for f in delta.elements
              if all({_act(ctx, f, p) for p in gp} == set(gp) for gp in gens)]
    cases += 1
    if set(fixing) != {PencilAut(1, 0, g) for g in range(ctx.q)}:
        bad.append({"problem": "generator_fixing_subgroup", "got": sorted(map(list, fixing))})
    for gp in gens:
        aff = [p for p in gp if p.kind != "I"]
        if not aff:
            continue
        cases += 1
        if set(aff) != delta.orbit(fixing, aff[0]):
            bad.append({"problem": "not_transitive_along_generator", "generator": repr(aff[0])})
    return cases, bad, {}


def _t3_1_symmetry_by_points(ctx, r):
    """T3.1's symmetry test at r, one point and one circle at a time."""
    plane, gf, K = ctx.plane, ctx.plane.gf, ctx.pencil.base
    sym = PencilAut(ctx.q - 1, 2 * r.x % ctx.q, 0)
    return (sym in ctx.stabilizers[r] and aut_compose(gf, sym, sym) == IDENTITY
            and all(_act(ctx, sym, p) == p for p in plane.generator_points(plane.generator_of(r)))
            and ctx.delta.circle_images(sym, [K])[0] == K
            and any(_act(ctx, sym, p) != p for p in plane.circle_points(K)))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_whole_permutations_match_the_point_loops(q):
    # C3.1, P3.2 and T3.1's symmetry read Δ through whole permutations; the
    # loops they retired read one point image at a time.  The stabilizers
    # and C2.1 read the translation to each point off ``delta.translations``,
    # the closed-form list it retired
    ctx = verify._context(q)
    assert verify._check_c3_1(ctx) == _c3_1_point_loop(ctx)
    assert verify._check_p3_2(ctx) == _p3_2_point_loop(ctx)
    missing = {"problem": "symmetry_missing"}
    for r in ctx.space.points:
        assert _t3_1_symmetry_by_points(ctx, r)
        assert dict(missing, r=repr(r)) not in verify._t3_1_at(ctx, r)[1]
    assert ctx.delta.translations == [PencilAut(1, r.x, r.y) for r in ctx.space.points]


def _damage_perm(monkeypatch, delta, target, damage):
    """``delta.perm`` with ``damage`` applied to the permutation of
    ``target`` alone, replacing any earlier damage."""
    real = DeltaGroup.perm.__get__(delta)
    monkeypatch.setattr(delta, "perm", lambda f: damage(real(f)) if f == target else real(f))


def _swapped(i, j):
    """The damage that makes plane points i and j trade images."""
    def damage(perm):
        perm = list(perm)
        perm[i], perm[j] = perm[j], perm[i]
        return perm
    return damage


def test_whole_permutation_checks_see_a_damaged_permutation(monkeypatch):
    # the point loops read ``image`` and miss these faults; the checks read
    # ``perm`` and see them
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    ctx = verify._context(5)
    ctx.transport  # built before the fault
    # the symmetry based at x = 1 taken as the identity: no other one swaps
    # the pairs with x + y = 2, four on each of the five members
    _damage_perm(monkeypatch, ctx.delta, PencilAut(4, 2, 0), lambda perm: sorted(perm))
    rep = thm_check("C3.1", 5)
    assert (rep.status, len(rep.witnesses)) == ("fail", 20)
    assert rep.witnesses[0] == {"member": [0, 0, 0], "x": "A(0,0)", "y": "A(2,0)"}
    assert not _c3_1_point_loop(ctx)[1]
    # A(0,0) and A(1,0) trade images under (1, 0, 1): it keeps no generator
    _damage_perm(monkeypatch, ctx.delta, PencilAut(1, 0, 1), _swapped(0, 5))
    rep = thm_check("P3.2", 5)
    assert rep.status == "fail"
    assert rep.witnesses[0] == {"problem": "generator_fixing_subgroup",
                                "got": [[1, 0, 0], [1, 0, 2], [1, 0, 3], [1, 0, 4]]}
    assert not _p3_2_point_loop(ctx)[1]
    # A(0,1) and A(0,2) trade images under point 0's symmetry: it no longer
    # fixes its generator pointwise, though it still keeps the member y = 0
    _damage_perm(monkeypatch, ctx.delta, PencilAut(4, 0, 0), _swapped(1, 2))
    rep = thm_check("T3.1", 5)
    assert rep.witnesses == [{"r": "A(0,0)", "problem": "symmetry_missing"}]
    assert _t3_1_symmetry_by_points(ctx, affine(0, 0))


def _p4_3_frozensets(ctx):
    """P4.3 as it ran on frozensets of heights: the bitset route's oracle."""
    space = ctx.space
    cases, bad = 0, []
    member_heights = {M.c for M in ctx.members}
    yvals = [frozenset(p.y for p in line.points) for line in space.lines]
    base_y = [frozenset(p.y for p in line.base_points) for line in space.lines]
    for ids in space.class_members.values():
        for i, j in itertools.combinations(ids, 2):
            aligned = base_y[i] | base_y[j]
            if len(aligned) != 1 or next(iter(aligned)) not in member_heights:
                continue
            for e in sorted(member_heights):
                cases += 1
                if (e in yvals[i]) != (e in yvals[j]):
                    bad.append({"lines": [i, j], "straight_height": e})
    return cases, bad, {}


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_p4_3_bitsets_match_the_frozenset_loop(q, monkeypatch):
    # the aligned pairs by base-height group against every pair of a class,
    # intact, then with the first one or two points of every 7th line
    # dropped: a pair that differs at two heights names both, ascending
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    ctx = verify._context(q)
    got = verify._check_p4_3(ctx)
    assert got == _p4_3_frozensets(ctx) and not got[1]
    for n, line in enumerate(ctx.space.lines[::7]):
        monkeypatch.setattr(line, "ids", line.ids[1 + n % 2:])
    got = verify._check_p4_3(ctx)
    assert got == _p4_3_frozensets(ctx) and got[1]
    if q == 5:
        assert (got[0], len(got[1])) == (1500, 76)
        assert got[1][4:6] == [{"lines": [2, 147], "straight_height": 0},
                               {"lines": [2, 147], "straight_height": 1}]
    if q == 13:
        assert (got[0], len(got[1])) == (184548, 1366)


def test_c2_1_applies_the_group_at_point_0_only(monkeypatch):
    # on a warm context, circle lists go through ``circle_images``: point 0's
    # scan is one call per element of Stab(0) = {(k, 0, 0)}, on the circles
    # still invariant, 125 + 125 + 5 + 5 = 260 circles (the identity keeps
    # all 125, (2, 0, 0) the 5 circles (a, 0, 0)); then at each of the 25
    # points one call moves the 5 circles and four re-check them, 5 + 4 * 5
    # = 25 circles: 4 + 25 * 5 = 129 calls on 260 + 25 * 25 = 885 circles.
    # The scan at every point imaged 25 * 260 = 6,500.  Points go through
    # ``image``: 4 images for each of the 5 remnants at each point, 500.
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    ctx = verify._context(5)
    ctx.stabilizers
    delta, lists, points = ctx.delta, [], []
    real_images, real_image = delta.circle_images, delta.image

    def counted_images(f, circles):
        lists.append(len(circles))
        return real_images(f, circles)

    def counted_image(f, i):
        points.append(i)
        return real_image(f, i)

    monkeypatch.setattr(delta, "circle_images", counted_images)
    monkeypatch.setattr(delta, "image", counted_image)
    assert thm_check("C2.1", 5).status == "pass"
    assert (len(lists), sum(lists), len(points)) == (129, 885, 500)


def test_stabilizers_reject_a_conjugate_that_moves_the_point(monkeypatch):
    # the translations to points 1 and 2 swapped: Stab(0) conjugated by the
    # wrong one fixes point 2, not point 1
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    ctx = verify._context(5)
    swapped = list(ctx.delta.translations)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    monkeypatch.setattr(ctx.delta, "translations", swapped)
    with pytest.raises(GeometryError) as e:
        thm_check("C2.1", 5)
    assert e.value.code == "stabilizer_mismatch"
    assert "A(0,1)" in str(e.value)


def test_c2_1_rejects_a_moved_circle_that_is_not_invariant(monkeypatch):
    # a strain fixing only A(0,1) moves one circle through it: the circle
    # moved there from point 0 fails its re-check
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    ctx = verify._context(5)
    r = ctx.space.points[1]
    strain = next(f for f in ctx.stabilizers[r] if f.k == 2)
    target = next(C for C in ctx.plane.circles if ctx.plane.incident(r, C)
                  and all(ctx.delta.circle_images(f, [C]) == [C] for f in ctx.stabilizers[r]))
    real = ctx.delta.circle_images

    def bent(f, circles):
        return [Circle(C.a, C.b, (C.c + 1) % 5) if (f, C) == (strain, target) else D
                for C, D in zip(circles, real(f, circles))]

    monkeypatch.setattr(ctx.delta, "circle_images", bent)
    with pytest.raises(GeometryError) as e:
        thm_check("C2.1", 5)
    assert e.value.code == "not_equivariant"


def test_t3_2_fails_on_a_generator_conjugate_outside_the_translations(monkeypatch):
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    ctx = verify._context(5)
    ctx.stabilizers, ctx.unit_translations  # built before the fault
    gen, tau = ctx.delta.generators()[0], PencilAut(1, 1, 0)
    real = verify.aut_compose

    def leaky(gf, f, h):
        # g·τ taken as the identity, so g·τ·g⁻¹ is g⁻¹, not a translation
        return IDENTITY if (f, h) == (gen, tau) else real(gf, f, h)

    monkeypatch.setattr(verify, "aut_compose", leaky)
    rep = thm_check("T3.2", 5)
    assert rep.status == "fail"
    assert rep.witnesses == [{"problem": "not_normal", "element": list(gen),
                              "translation": [1, 1, 0]}]


def test_unit_translations_must_close_to_the_translations(monkeypatch):
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    delta = verify._context(5).delta
    monkeypatch.setattr(delta, "translations", delta.translations + [PencilAut(2, 0, 0)])
    with pytest.raises(GeometryError) as e:
        verify._context(5).unit_translations
    assert e.value.code == "translations_not_closed"
    with pytest.raises(GeometryError) as e:
        thm_check("C3.4", 5)
    assert e.value.code == "translations_not_closed"


def test_c3_3_rejects_a_flipped_join_class(monkeypatch):
    # an entry off point 0's row: the orbit sweep never reads it, so only
    # the equivariance check sees it
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    space = verify._context(5).space
    space._joinclass[1][2] = (space._joinclass[1][2] + 1) % space.ncls
    with pytest.raises(GeometryError) as e:
        thm_check("C3.3", 5)
    assert e.value.code == "not_equivariant"


def test_c3_4_fails_on_merged_classes(monkeypatch):
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    space = verify._context(5).space
    first, second = space.class_ids[:2]
    merged = dict(space.class_members)
    merged[first] = sorted(merged[first] + merged.pop(second))
    monkeypatch.setattr(space, "class_members", merged)
    rep = thm_check("C3.4", 5)
    assert rep.status == "fail"
    # line 0 reaches only its own class of 25 lines
    assert rep.witnesses == [{"line": 0, "orbit_size": 25, "class_size": 50}]


def test_c3_4_fails_on_a_dropped_class(monkeypatch):
    # the lines of a dropped class belong to no class, which one line per
    # class cannot see: the classes must partition the lines
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    space = verify._context(5).space
    dropped = dict(space.class_members)
    dropped.pop(space.class_ids[1])
    monkeypatch.setattr(space, "class_members", dropped)
    rep = thm_check("C3.4", 5)
    assert rep.status == "fail"
    assert rep.witnesses == [{"problem": "classes_not_a_partition"}]


# The fifteen checks that rest on ``_Ctx.transport`` evaluate point 0, the
# member y = 0, or the circle (a, 0, 0) per a.  The loops they retired run
# the same per-point, per-member or per-circle body over every point, member
# or circle; each returns (cases, witnesses) as the parent's check did.


def _summed(results):
    cases, bad = 0, []
    for got, wit in results:
        cases += got
        bad += wit
    return cases, bad


def _every_point(at):
    return lambda ctx: _summed(at(ctx, x) for x in ctx.space.points)


def _every_member(on):
    return lambda ctx: _summed(on(ctx, M, verify.TangentFamily(ctx.plane, M))
                               for M in ctx.members)


def _every_member_equiv(laws):
    return _every_member(lambda ctx, M, fam: verify._equiv_laws(
        verify._equiv_report(ctx.plane, M, fam)[1], laws))


def _every_point_p4_6(ctx):
    return _summed(verify._p4_6_at(ctx, x, verify.TangentFamily(ctx.plane, ctx.member_of[x]))
                   for x in ctx.space.points)


def _every_point_l4_2(ctx):
    cases, bad, seen = 0, [], set()
    for x in ctx.space.points:
        got, wit, dirs = verify._l4_2_at(ctx, x)
        cases, bad, seen = cases + got, bad + wit, seen | dirs
    dcases, dbad = verify._direction_classes(ctx.q, seen)
    return cases + dcases, bad + dbad


def _every_point_loci(at):
    return lambda ctx: _summed(at(ctx, x, verify._loci_at(ctx, x)) for x in ctx.space.points)


def _every_circle_pair_p4_2(ctx):
    by_a = {}
    for M in ctx.bases:
        by_a.setdefault(M.a, []).append(M)
    return _summed(verify._p4_2_pairs(ctx, M, circles[i + 1:])
                   for _, circles in sorted(by_a.items()) for i, M in enumerate(circles))


RETIRED = {
    "P2.1": _every_point(verify._p2_1_at),
    "P2.4": _every_point(verify._p2_4_at),
    "T3.1": _every_point(verify._t3_1_at),
    "P4.1": _every_member(verify._p4_1_on),
    "C4.1": _every_member(verify._c4_1_on),
    "P4.2": _every_circle_pair_p4_2,
    "L4.1": _every_member(verify._l4_1_on),
    "P4.4": _every_member_equiv(("reflexive", "symmetric", "transitive")),
    "P4.5": _every_member_equiv(("single_witness",)),
    "P4.6": _every_point_p4_6,
    "P4.7": _every_member_equiv(("two_circle_count",)),
    "L4.2": _every_point_l4_2,
    "T4.1": _every_point_loci(verify._t4_1_at),
    "C4.2": _every_point_loci(verify._c4_2_at),
    "R4.1": _every_member_equiv(("square_class_rule", "block_count")),
}


def test_declared_symmetries_match_the_retired_loops():
    # every retired loop but P4.2's and L4.2's, which count their cases their
    # own way, is declared in the catalog: a dropped declaration fails here
    declared = {sym: {cid for cid, (s, *_) in verify._CATALOG.items() if s is sym}
                for sym in (verify._at_point0, verify._on_member0)}
    assert declared[verify._at_point0] == {"P2.1", "P2.4", "T3.1", "P4.6", "T4.1", "C4.2"}
    assert declared[verify._on_member0] == {"P4.1", "C4.1", "L4.1", "P4.4", "P4.5", "P4.7",
                                            "R4.1"}
    assert set.union(*declared.values()) == set(RETIRED) - {"P4.2", "L4.2"}


@pytest.mark.parametrize("q", [3, 5, 7])
def test_moved_checks_represent_the_retired_loops(q):
    # the same verdict on both routes, and the representative stands for
    # exactly the retired loop's cases
    ctx = verify._context(q)
    for cid, retired in RETIRED.items():
        rep = thm_check(cid, q)
        cases, bad = retired(ctx)
        assert not bad and rep.status == "pass", cid
        assert rep.details["mode"] == "orbit", cid
        assert rep.details["cases_represented"] == cases, cid


def test_moved_checks_name_their_representative():
    reps = {cid: thm_check(cid, 5).details["representative"] for cid in RETIRED}
    assert reps["P4.2"] == [[a, 0, 0] for a in range(1, 5)]
    assert {cid: r for cid, r in reps.items() if cid != "P4.2"} == {
        cid: [0, 0, 0] if cid in ("P4.1", "C4.1", "L4.1", "P4.4", "P4.5", "P4.7", "R4.1")
        else "A(0,0)" for cid in RETIRED if cid != "P4.2"}


def test_family_checks_miss_a_fault_off_the_member_y_0(monkeypatch):
    # the family of the member y = 1 claims A(0,2) and A(0,3) inequivalent:
    # only the retired loop over every member builds it
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    target, flip = Circle(0, 0, 1), (affine(0, 2), affine(0, 3))

    class Flipped(TangentFamily):
        def __init__(self, plane, L):
            super().__init__(plane, L)
            self.damaged = L == target

        def equivalent(self, a, b):
            return super().equivalent(a, b) != (self.damaged and (a, b) == flip)

    monkeypatch.setattr(verify, "TangentFamily", Flipped)
    ctx = verify._context(5)
    for cid in ("P4.4", "P4.5", "R4.1"):
        assert RETIRED[cid](ctx)[1], cid
        assert thm_check(cid, 5).status == "pass", cid


def test_ordered_pair_checks_miss_a_fault_off_point_0(monkeypatch):
    # joins and a touching circle damaged at first point A(1,0): P2.1, P2.4,
    # P4.6 and L4.2 evaluate first point A(0,0) only
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    ctx = verify._context(5)
    space, plane = ctx.space, ctx.plane
    special = next(line for line in space.lines if line.kind == SPECIAL
                   and line.points[0].x == 3)
    real_join, real_touching = space.join, plane.touching_circle
    x = affine(1, 0)

    def damaged_join(a, b):
        return special if a == x and b in (affine(2, 1), affine(1, 1)) else real_join(a, b)

    def damaged_touching(p, K, r):
        return Circle(2, 0, 0) if (p, r) == (x, affine(2, 1)) else real_touching(p, K, r)

    monkeypatch.setattr(space, "join", damaged_join)
    monkeypatch.setattr(plane, "touching_circle", damaged_touching)
    for cid in ("P2.1", "P2.4", "P4.6", "L4.2"):
        bad = RETIRED[cid](ctx)[1]
        assert bad and all("A(1,0)" in w.values() or w.get("circle") == [1, 3, 1]
                           for w in bad), cid
        assert thm_check(cid, 5).status == "pass", cid


def test_t3_1_misses_a_fault_off_point_0(monkeypatch):
    # a circle no stabilizer element fixes, listed in the vertex pencil at
    # A(0,1) only
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    ctx = verify._context(5)
    r = affine(0, 1)
    monkeypatch.setitem(ctx.vertex_members, r, ctx.vertex_members[r] + [Circle(1, 2, 3)])
    bad = RETIRED["T3.1"](ctx)[1]
    assert bad and {w["r"] for w in bad} == {"A(0,1)"}
    assert thm_check("T3.1", 5).status == "pass"


def test_loci_checks_miss_a_fault_off_point_0(monkeypatch):
    # the base of (1, 3, 1), a circle through I(1) and A(1,0) but not A(0,0),
    # moved: only the loci at A(1,0) and the other points on it read it
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    ctx = verify._context(5)
    monkeypatch.setitem(ctx.bases, Circle(1, 3, 1), affine(3, 3))
    bad = RETIRED["T4.1"](ctx)[1]
    assert bad and "A(1,0)" in {w["x"] for w in bad}
    assert "A(0,0)" not in {w["x"] for w in bad}
    assert thm_check("T4.1", 5).status == "pass"


def test_p4_2_misses_a_fault_between_two_translates(monkeypatch):
    # the base of (1, 1, 1), A(2,2), moved to A(2,3), the base of (1, 1, 2):
    # against (1, 0, 0), based at A(0,0), both bases read the same, so only
    # the retired loop's pair of those two sees the fault
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    ctx = verify._context(5)
    assert (ctx.bases[Circle(1, 1, 1)], ctx.bases[Circle(1, 1, 2)]) == (affine(2, 2), affine(2, 3))
    monkeypatch.setitem(ctx.bases, Circle(1, 1, 1), affine(2, 3))
    bad = RETIRED["P4.2"](ctx)[1]
    assert {"circles": [[1, 1, 1], [1, 1, 2]], "disjoint": True} in bad
    assert thm_check("P4.2", 5).status == "pass"


# the transport certificate, clause by clause


def _transport_with(monkeypatch, shift):
    """The error P2.1 raises on a fresh q=5 context whose unit translation
    y -> y + 1 is ``shift(plane)``."""
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    real = verify.circle_add_map

    def patched(plane, Q):
        return shift(plane) if Q == Circle(0, 0, 1) else real(plane, Q)

    monkeypatch.setattr(verify, "circle_add_map", patched)
    with pytest.raises(GeometryError) as e:
        thm_check("P2.1", 5)
    return e.value


def test_transport_rejects_a_unit_translation_that_is_not_an_automorphism(monkeypatch):
    def collapsed(plane):
        perm = list(range(len(plane.points)))
        perm[1] = perm[0]
        return PermutationMap(plane, perm)

    e = _transport_with(monkeypatch, collapsed)
    assert e.code == "not_automorphism"
    assert e.witnesses == [{"problem": "not_bijective"}]


def test_transport_rejects_a_map_that_does_not_permute_the_members(monkeypatch):
    # y -> y + x: an automorphism fixing every ideal point, but it carries
    # the member y = c onto the circle y = x + c
    e = _transport_with(monkeypatch, lambda plane: PermutationMap(plane, [
        x * 5 + (y + x) % 5 for x in range(5) for y in range(5)] + list(range(25, 30))))
    assert e.code == "pencil_not_fixed"
    assert "[1, 0, 1]" in str(e)


def test_transport_rejects_units_that_miss_a_point(monkeypatch):
    # y -> y + 1 replaced by the identity: x -> x + 1 alone reaches 5
    # points, and the identity is not the group's (1, 0, 1), whose
    # permutation the space build checks to reach every point
    e = _transport_with(monkeypatch, lambda plane: PermutationMap(plane, list(range(30))))
    assert e.code == "not_equivariant"
    assert "[1, 0, 1] is not the group's" in str(e)


def test_transport_rejects_a_shift_that_is_not_the_groups(monkeypatch):
    # y -> y + 2 fixes the pencil and reaches every point, but it is not the
    # group's (1, 0, 1), under which the join tables are certified
    e = _transport_with(monkeypatch, lambda plane: PermutationMap(plane, [
        x * 5 + (y + 2) % 5 for x in range(5) for y in range(5)] + list(range(25, 30))))
    assert e.code == "not_equivariant"
    assert "[1, 0, 1] is not the group's" in str(e)


def test_transport_rejects_an_uncertified_space(monkeypatch):
    # a join-class entry off point 0's row: the reduced checks never read
    # it, but the certificate does
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    space = verify._context(5).space
    space._joinclass[1][2] = (space._joinclass[1][2] + 1) % space.ncls
    for cid in ("P2.1", "P4.4", "T4.1", "P4.2"):
        with pytest.raises(GeometryError) as e:
            thm_check(cid, 5)
        assert e.value.code == "not_equivariant", cid
