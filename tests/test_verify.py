import pytest

from laguerre import (Budget, Circle, GeometryError, LaguerrePlane, PencilAut,
                      PermutationMap, affine, canonical_pencil, ideal, thm_check,
                      thm_equiv_rel, thm_tangency_locus, verify)
from laguerre.autgroup import IDENTITY, aut_compose, aut_inverse
from laguerre.skewaffine import SPECIAL
from laguerre.verify import CHECK_IDS, CHECK_SUMMARIES, TangentFamily


def test_catalog_is_closed():
    assert len(CHECK_IDS) == 29
    assert len(set(CHECK_IDS)) == 29
    assert set(CHECK_SUMMARIES) == set(CHECK_IDS)
    # report order, and one checker per id
    assert CHECK_IDS == (
        "P2.1", "P2.2", "P2.3", "P2.4", "P2.5", "P2.6", "C2.1",
        "T3.1", "P3.1", "C3.1", "L3.1", "P3.2", "T3.2", "C3.3", "C3.4",
        "P4.1", "C4.1", "P4.2", "P4.3", "L4.1",
        "P4.4", "P4.5", "P4.6", "P4.7", "L4.2", "T4.1", "C4.2", "T4.2", "R4.1")
    assert list(verify._CATALOG) == list(CHECK_IDS)
    assert all(callable(checker) for checker, _ in verify._CATALOG.values())


def test_unknown_id_rejected():
    with pytest.raises(GeometryError) as e:
        thm_check("P9.9", 5)
    assert e.value.code == "bad_check"
    with pytest.raises(GeometryError):
        thm_check("P4.4", 2)


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
    with pytest.raises(GeometryError):
        thm_equiv_rel(plane5, Circle(1, 0, 0))
    with pytest.raises(GeometryError):
        thm_equiv_rel(plane2, Circle(0, 0, 0))


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
    plane = verify._context(5).plane
    real = plane.pencil_tangent

    def two_generators(N, pencil):
        member, base = real(N, pencil)
        return member, affine(base.x % 2, base.y)

    monkeypatch.setattr(plane, "pencil_tangent", two_generators)
    t41, c42 = thm_check("T4.1", 5), thm_check("C4.2", 5)
    assert (t41.status, len(t41.witnesses)) == ("fail", 100)
    assert (c42.status, c42.cases_checked, len(c42.witnesses)) == ("fail", 100, 100)
    assert c42.witnesses[0] == {"beta": 1, "x": "A(0,0)", "locus": None}


def test_tangency_locus_rejects_bad_vertex(plane5):
    pencil = canonical_pencil(plane5)
    with pytest.raises(GeometryError):
        thm_tangency_locus(plane5, pencil, ideal(0), affine(0, 0))
    with pytest.raises(GeometryError):
        thm_tangency_locus(plane5, pencil, affine(0, 1), affine(0, 0))


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
    real = delta.apply
    glide = PencilAut(4, 0, 1)

    def bent(f, obj):
        if f == glide and isinstance(obj, Circle) and obj.a == 0:
            return obj
        return real(f, obj)

    monkeypatch.setattr(delta, "apply", bent)
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
    plane = verify._context(5).plane
    real = plane.pencil_tangent

    def moved(M, pencil):
        # the base of (1, 0, 0) is A(0,0); claim A(0,1), the base of (1, 0, 1)
        member, base = real(M, pencil)
        return (member, affine(0, 1)) if M == Circle(1, 0, 0) else (member, base)

    monkeypatch.setattr(plane, "pencil_tangent", moved)
    rep = thm_check("P4.2", 5)
    assert rep.status == "fail"
    assert rep.cases_checked == 1200
    assert rep.witnesses == [{"circles": [[1, 0, 0], [1, 0, 1]], "disjoint": True}]


def test_run_suite_derives_each_plane_fact_once(monkeypatch):
    # q^3 - q^2 circles avoid the vertex; 105 lines carry a circle, and each
    # of the (q - 1) q^2 loci fits one more.  The vertex pencil at each of
    # the q^2 residual points is built once, for T3.1 and T3.2 together
    # (T3.2 alone rebuilt it for each of the 75 elements with one fixed
    # point).  The other 136 calls are one per tangency base (100) and six
    # for each of the six tangent families (the q members and T4.2's circle).
    # Only point 0's stabilizer is scanned, once, by the space build; the
    # context conjugates the space's copy along the translations to every
    # other point (C2.1, T3.1, T3.2 and the fixed points read those).
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    ctx = verify._context(5)
    calls = {"pencil_tangent": 0, "circle_through": 0, "pencil_members": 0,
             "stabilizer": 0}
    for name in calls:
        owner = ctx.delta if name == "stabilizer" else ctx.plane
        real = getattr(owner, name)

        def counted(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    assert all(rep.ok for rep in verify.run_suite(5))
    assert calls == {"pencil_tangent": 100, "circle_through": 205,
                     "pencil_members": 25 + 136, "stabilizer": 1}


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
    # circles with c = 0
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
            if not all(delta.apply(f, C) == C for f in stab):
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
    cases, bad = 0, []
    for line in space.lines:
        cases += len(space.translation_perms)
        imgs = {space.line_image(perm, line).index for perm in space.translation_perms}
        if imgs != set(space.class_members[line.class_id]):
            bad.append(line.index)
    rep = thm_check("C3.4", q)
    assert not bad and rep.status == "pass"
    assert rep.details["mode"] == "orbit"
    assert rep.details["cases_represented"] == cases


def test_c2_1_applies_the_group_at_point_0_only(monkeypatch):
    # on a warm context: 260 images for point 0's scan of the 125 circles,
    # then 45 at each of the 25 points (5 moved circles, 20 invariance
    # re-checks, 20 remnant-orbit images); the scan at every point made 7,000
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    ctx = verify._context(5)
    ctx.stabilizers
    real, calls = ctx.delta.apply, []

    def counted(f, obj):
        calls.append(f)
        return real(f, obj)

    monkeypatch.setattr(ctx.delta, "apply", counted)
    assert thm_check("C2.1", 5).status == "pass"
    assert len(calls) == 1385


def test_stabilizers_reject_a_conjugate_that_moves_the_point(monkeypatch):
    # the translations to points 1 and 2 swapped: Stab(0) conjugated by the
    # wrong one fixes point 2, not point 1
    monkeypatch.setattr(verify, "_CTX_CACHE", {})
    space = verify._context(5).space
    swapped = list(space.translations)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    monkeypatch.setattr(space, "translations", swapped)
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
                  and all(ctx.delta.apply(f, C) == C for f in ctx.stabilizers[r]))
    real = ctx.delta.apply

    def bent(f, obj):
        if (f, obj) == (strain, target):
            return Circle(obj.a, obj.b, (obj.c + 1) % 5)
        return real(f, obj)

    monkeypatch.setattr(ctx.delta, "apply", bent)
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
