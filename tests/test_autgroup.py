import itertools
from functools import partial

import pytest

from laguerre import (Circle, DeltaGroup, GeometryError, GroupSpace, LaguerrePlane,
                      PencilAut, PermutationMap, affine, canonical_pencil,
                      classify_by_scan, ideal, verify_a1a2a3)
from laguerre import autgroup
from laguerre.autgroup import (aut_circles, aut_compose, aut_inverse, classify_aut,
                               require_reach)
from laguerre.plane import aut_index, circle_add_map, circle_image, inversion_map, reach


def aut_point(gf, f, pt):
    """The oracle: the closed form of the canonical action on one Point."""
    if pt.kind == "I":
        return pt
    q = gf.q
    return affine((f.k * pt.x + f.t) % q, (f.k * f.k * pt.y + f.g) % q)


def test_group_sizes():
    for q in (3, 5, 7):
        pl = LaguerrePlane(q)
        d = DeltaGroup.build(pl, canonical_pencil(pl))
        assert len(d.elements) == q * q * (q - 1)


@pytest.mark.parametrize("q", (5, 7))
def test_delta_is_not_the_whole_pencil_stabilizer(q):
    # the scaling (x, y) -> (x, c y), (inf, a) -> (inf, c a) by a primitive
    # root c is a plane automorphism that fixes the vertex I(0) and permutes
    # the canonical pencil's members, but moves the vertex generator's
    # points: Δ is the pointwise stabilizer of that generator inside the
    # pencil stabilizer
    pl = LaguerrePlane(q)
    pencil, c = canonical_pencil(pl), pl.gf.primitive_root()
    scale = {p: ideal(c * p.x % q) if p.kind == "I" else affine(p.x, c * p.y % q)
             for p in pl.points}
    pm = PermutationMap(pl, [pl.point_index[scale[p]] for p in pl.points]).verified()
    members = pl.pencil_members(pencil)
    assert pm.apply_point(ideal(0)) == ideal(0)
    assert sorted(map(pm.apply_circle, members)) == sorted(members)
    assert pm.apply_point(ideal(1)) != ideal(1)
    d = DeltaGroup.build(pl, pencil)
    assert all(d.perm(f) != pm.perm for f in d.elements)


def test_build_rejects_char2(plane2):
    with pytest.raises(GeometryError) as e:
        DeltaGroup.build(plane2, canonical_pencil(plane2))
    assert e.value.code == "char2_group"


def test_action_examples(plane5):
    gf = plane5.gf
    assert aut_point(gf, PencilAut(2, 1, 3), affine(1, 1)) == affine(3, 2)
    assert aut_circles(gf.q, PencilAut(1, 1, 0), [Circle(1, 0, 0)]) == [Circle(1, 3, 1)]
    assert aut_point(gf, PencilAut(2, 1, 3), ideal(4)) == ideal(4)


def test_algebra_examples(plane5):
    gf = plane5.gf
    assert aut_compose(gf, PencilAut(2, 0, 0), PencilAut(1, 1, 0)) == PencilAut(2, 2, 0)
    f = PencilAut(2, 1, 3)
    assert aut_inverse(gf, f) == PencilAut(3, 2, 3)
    assert aut_compose(gf, f, aut_inverse(gf, f)) == PencilAut(1, 0, 0)


def test_compose_matches_pointwise_action(plane5):
    gf = plane5.gf
    pts = plane5.points
    for f in (PencilAut(2, 1, 3), PencilAut(4, 0, 2)):
        for h in (PencilAut(3, 2, 0), PencilAut(1, 4, 4)):
            fh = aut_compose(gf, f, h)
            for p in pts:
                assert aut_point(gf, fh, p) == aut_point(gf, f, aut_point(gf, h, p))


def test_every_element_is_an_automorphism_q_le_7():
    # image of each circle's point set equals the predicted circle's set
    for q in (3, 5, 7):
        pl = LaguerrePlane(q)
        d = DeltaGroup.build(pl, canonical_pencil(pl))
        for k, t, g in d.elements:
            for a in range(q):
                for b in range(q):
                    for c in range(q):
                        b2 = (k * b - 2 * a * t) % q
                        c2 = (a * t * t - k * b * t + k * k * c + g) % q
                        for x in range(q):
                            y = (a * x * x + b * x + c) % q
                            xi = (k * x + t) % q
                            yi = (k * k * y + g) % q
                            assert (a * xi * xi + b2 * xi + c2) % q == yi


def test_incidence_preserved(delta5, plane5):
    f = PencilAut(3, 2, 4)
    perm, circles = delta5.perm(f), plane5.circles[:25]
    for C, Ci in zip(circles, delta5.circle_images(f, circles)):
        for p in plane5.circle_points(C):
            assert plane5.incident(plane5.points[perm[plane5.point_index[p]]], Ci)


def test_stabilizer_examples(delta5):
    stab0 = delta5.stabilizer(affine(0, 0))
    assert sorted(stab0) == [PencilAut(k, 0, 0) for k in range(1, 5)]
    stab11 = delta5.stabilizer(affine(1, 1))
    assert len(stab11) == 4 and PencilAut(2, 4, 2) in stab11
    # closed form (k, u(1-k), v(1-k^2)) against the brute filter
    for u, v in ((2, 3), (4, 0)):
        expect = sorted(PencilAut(k, u * (1 - k) % 5, v * (1 - k * k) % 5)
                        for k in range(1, 5))
        assert sorted(delta5.stabilizer(affine(u, v))) == expect
    with pytest.raises(GeometryError) as e:
        delta5.stabilizer(ideal(2))
    assert e.value.code == "stabilizer_on_base"


def test_stabilizer_size_q3():
    pl = LaguerrePlane(3)
    d = DeltaGroup.build(pl, canonical_pencil(pl))
    for p in d.space_points():
        assert len(d.stabilizer(p)) == 2


def test_orbit_examples(delta5):
    stab0 = delta5.stabilizer(affine(0, 0))
    assert delta5.orbit(stab0, affine(1, 1)) == \
        {affine(1, 1), affine(2, 4), affine(3, 4), affine(4, 1)}
    assert delta5.orbit(stab0, affine(0, 1)) == {affine(0, 1), affine(0, 4)}
    assert delta5.orbit(delta5.elements, affine(0, 0)) == \
        {affine(x, y) for x in range(5) for y in range(5)}


def test_classification_examples(plane5):
    gf = plane5.gf
    assert classify_aut(gf, PencilAut(1, 0, 2)) == "translation_generators"
    assert classify_aut(gf, PencilAut(4, 0, 0)) == "symmetry"
    assert classify_aut(gf, PencilAut(4, 0, 1)) == "glide"
    assert classify_aut(gf, PencilAut(1, 0, 0)) == "identity"
    assert classify_aut(gf, PencilAut(1, 2, 1)) == "translation_circle_direction"
    assert classify_aut(gf, PencilAut(2, 1, 1)) == "strain"


def test_classification_matches_fixed_point_scan():
    for q in (3, 5, 7):
        pl = LaguerrePlane(q)
        d = DeltaGroup.build(pl, canonical_pencil(pl))
        for f in d.elements:
            pm = PermutationMap.from_aut(pl, f)
            assert classify_by_scan(pl, pm.perm) == classify_aut(pl.gf, f)


def test_classify_by_scan_rejects_an_unclassifiable_permutation(plane5):
    # (x, 0) and (x, 1) swapped on every affine generator: each generator is
    # fixed setwise but none pointwise, and 15 points are fixed
    perm = list(range(len(plane5.points)))
    for x in range(5):
        perm[x * 5], perm[x * 5 + 1] = x * 5 + 1, x * 5
    with pytest.raises(GeometryError) as e:
        classify_by_scan(plane5, perm)
    assert e.value.code == "unclassifiable"


def test_census_q5(delta5):
    census = delta5.census()
    assert census == {"identity": 1, "translation_generators": 4,
                      "translation_circle_direction": 20, "strain": 50,
                      "symmetry": 5, "glide": 20}
    translations = census["translation_generators"] + \
        census["translation_circle_direction"]
    assert translations == 24
    assert sum(census.values()) == 100


def test_census_formulas():
    for q in (3, 7, 11):
        pl = LaguerrePlane(q)
        d = DeltaGroup.build(pl, canonical_pencil(pl))
        census = d.census()
        assert census["identity"] == 1
        assert census["translation_generators"] + \
            census["translation_circle_direction"] == q * q - 1
        assert census["strain"] == (q - 3) * q * q
        assert census["symmetry"] == q
        assert census["glide"] == q * (q - 1)


def test_symmetries_are_involutions_fixing_two_generators(delta5, plane5):
    gf = plane5.gf
    for f in delta5.elements:
        if classify_aut(gf, f) != "symmetry":
            continue
        assert aut_compose(gf, f, f) == PencilAut(1, 0, 0)
        pointwise = 0
        for gen in plane5.generators:
            pts = plane5.generator_points(gen)
            if all(aut_point(gf, f, p) == p for p in pts):
                pointwise += 1
        assert pointwise == 2  # its axis and the ideal generator


def test_semidirect_factorization_every_point(delta5):
    for r in delta5.space_points():
        assert delta5.semidirect_factorization(delta5.stabilizer(r))


def test_translations_and_generators(delta5, plane5):
    assert delta5.translations == [PencilAut(1, t, g) for t in range(5)
                                   for g in range(5)]
    assert delta5.generators() == [PencilAut(2, 0, 0), PencilAut(1, 1, 0),
                                   PencilAut(1, 0, 1)]
    # a subgroup holds only its own translations, and the three generators
    # give more than it: the residual build finds it
    pencil = canonical_pencil(plane5)
    sub = DeltaGroup(plane5, pencil, delta5.elements[::2], None)
    assert sub.translations == delta5.translations[::2]
    assert sub.generators() == delta5.generators()
    with pytest.raises(GeometryError) as e:
        GroupSpace.build(plane5, pencil, sub, check_preconditions=False)
    assert e.value.code == "generators_not_closed"
    assert "do not give the 50 elements" in str(e.value)


def test_translations_normal_and_commutative(delta5, plane5):
    gf = plane5.gf
    T = [f for f in delta5.elements if f.k == 1]
    tset = set(T)
    for f in delta5.elements:
        fi = aut_inverse(gf, f)
        for tau in T:
            assert aut_compose(gf, aut_compose(gf, f, tau), fi) in tset
    for t1, t2 in itertools.combinations(T, 2):
        assert aut_compose(gf, t1, t2) == aut_compose(gf, t2, t1)


def test_normally_transitive(delta5, plane5):
    ok, witness = delta5.normally_transitive()
    assert ok and witness is None
    # translations alone have trivial stabilizers
    pencil = canonical_pencil(plane5)
    T = DeltaGroup(plane5, pencil, [f for f in delta5.elements if f.k == 1], None)
    ok, witness = T.normally_transitive()
    assert not ok and witness["problem"] == "no_separating_element"
    identity = DeltaGroup(plane5, pencil, [PencilAut(1, 0, 0)], None)
    ok, witness = identity.normally_transitive()
    assert not ok and witness["problem"] == "not_transitive"


def test_normally_transitive_fails_q3():
    # the two-element stabilizers of parallel points coincide
    pl = LaguerrePlane(3)
    d = DeltaGroup.build(pl, canonical_pencil(pl))
    ok, witness = d.normally_transitive()
    assert not ok
    assert witness["problem"] == "no_separating_element"


def test_a1a2a3_canonical():
    for q in (3, 5, 7):
        pl = LaguerrePlane(q)
        d = DeltaGroup.build(pl, canonical_pencil(pl))
        rep = d.verify_axioms()
        assert rep.status == "pass", rep.witnesses


def _a3_by_tangent_members(plane, pencil):
    """A3 as it was before circle masks, kept as the oracle: one
    ``tangent_members`` call, with the closed-form intersection, per circle
    off the vertex."""
    bad, cases = [], 0
    for M in plane.circles:
        if plane.incident(pencil.p, M):
            continue
        cases += 1
        hits = plane.tangent_members(pencil, M)
        if len(hits) != 1:
            bad.append({"axiom": "A3", "circle": list(M),
                        "tangent_members": sorted(list(L) for L, _ in hits)})
    bad.sort(key=lambda w: w["circle"])
    return cases, bad, {"circles": cases, "status": "fail" if bad else "pass"}


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_a3_on_masks_matches_tangent_members(q):
    # the canonical pencil, p:1,2 and ideal:2@K:2,1,3, reduced mod q; the
    # failing set is empty except at q = 2, where the two must agree too
    pl = LaguerrePlane(q)
    pencils = [canonical_pencil(pl), pl.pencil(affine(1 % q, 2 % q), Circle(0, 0, 2 % q)),
               pl.pencil(ideal(2 % q), Circle(2 % q, 1 % q, 3 % q))]
    for pencil in pencils:
        got = autgroup._check_a3(pl, pencil)
        assert got == _a3_by_tangent_members(pl, pencil), pencil
        assert bool(got[1]) == (q == 2), pencil


def test_a1a2a3_char2_a3_fails(plane2):
    rep = verify_a1a2a3(plane2, canonical_pencil(plane2), None)
    assert rep.status == "fail"
    got = {tuple(w["circle"]): len(w["tangent_members"]) for w in rep.witnesses}
    assert got == {(1, 0, 0): 2, (1, 0, 1): 2, (1, 1, 0): 0, (1, 1, 1): 0}


def test_normalizer_primitives_are_automorphisms(plane5):
    for pm in (circle_add_map(plane5, Circle(2, 3, 1)), inversion_map(plane5)):
        ok, wit = pm.verify()
        assert ok, wit
    inv = inversion_map(plane5)
    assert inv.apply_circle(Circle(1, 2, 3)) == Circle(3, 2, 1)
    assert inv.apply_point(ideal(2)) == affine(0, 2)


def test_conjugated_group_other_pencils():
    pl = LaguerrePlane(5)
    for pencil in (pl.pencil(affine(0, 0), Circle(0, 0, 0)),
                   pl.pencil(affine(1, 2), Circle(1, 0, 1)),
                   pl.pencil(ideal(2), Circle(2, 1, 3))):
        d = DeltaGroup.build(pl, pencil)
        assert len(d.elements) == 100
        rep = d.verify_axioms()
        assert rep.status == "pass", rep.witnesses
        # conjugated elements really are plane automorphisms
        for f in d.elements:
            pm = PermutationMap(pl, [d.image(f, i) for i in range(len(pl.points))])
            ok, wit = pm.verify()
            assert ok, wit


def _pencils(pl):
    """The canonical pencil, p:1,2 and ideal:2@K:2,1,3 (coefficients mod q)."""
    q = pl.q
    return (canonical_pencil(pl), pl.pencil(affine(1, 2), Circle(0, 0, 2)),
            pl.pencil(ideal(2), Circle(2, 1, 3 % q)))


@pytest.mark.parametrize("q", (3, 5, 7))
def test_whole_permutations_match_the_single_point_action(q):
    # perm and from_aut list at once what image and aut_index give per point
    pl = LaguerrePlane(q)
    indices = range(len(pl.points))
    for pencil in _pencils(pl):
        d = DeltaGroup.build(pl, pencil)
        for f in d.elements:
            assert d.perm(f) == [d.image(f, i) for i in indices], (pencil, f)
            assert PermutationMap.from_aut(pl, f).perm == [aut_index(q, f, i) for i in indices]


@pytest.mark.parametrize("q", (3, 5, 7, 11))
def test_stabilizer_matches_the_image_scan(q):
    # the closed form's q - 1 fixing elements against a scan of the group
    # through image, for the whole group and for the subset elements[::2],
    # which keeps only its own elements
    pl = LaguerrePlane(q)
    for pencil in _pencils(pl):
        full = DeltaGroup.build(pl, pencil)
        for d in (full, DeltaGroup(pl, pencil, full.elements[::2], full.normalizer)):
            for x in d.space_points():
                i = pl.point_index[x]
                assert d.stabilizer(x) == [f for f in d.elements if d.image(f, i) == i], \
                    (pencil, len(d.elements), x)


@pytest.mark.parametrize("q", (3, 5, 7))
def test_circle_images_match_one_circle_at_a_time(q):
    # the list route against the whole permutation's circle images, read
    # back through the plane's mask positions; on the canonical chart, where
    # the list route reads the closed form, also against the circle holding
    # the images of each circle's point ids, one at a time (the route off it)
    pl = LaguerrePlane(q)
    for pencil in _pencils(pl):
        d = DeltaGroup.build(pl, pencil)
        for f in d.elements:
            got = d.circle_images(f, pl.circles)
            assert got == list(map(pl.circles.__getitem__,
                                   PermutationMap(pl, d.perm(f)).circle_images)), (pencil, f)
            assert all(type(C) is Circle for C in got)
            if d.canonical:
                assert got == [circle_image(pl, partial(d.image, f), C) for C in pl.circles]
        for bad in (Circle(0, 0, q), Circle(0, 0, -1)):
            with pytest.raises(GeometryError) as e:
                d.circle_images(PencilAut(2, 1, 1), [Circle(1, 2, 0), bad])
            assert e.value.code == "not_a_circle" and repr(bad) in str(e.value)


def _reference_normalizer(pl, pencil):
    """The normalizer as a Point dict, composed step by step: for an affine
    vertex p the inversion, then the x-shift by p.x, then adding K; for an
    ideal vertex adding K alone; the identity for the canonical pencil."""
    gf, q = pl.gf, pl.q
    p, K = pencil
    if p == ideal(0) and K.a == 0 and K.b == 0:
        return {pt: pt for pt in pl.points}

    def add(pt):
        if pt.kind == "I":
            return ideal((pt.x + K.a) % q)
        return affine(pt.x, (pt.y + pl.evaluate(K, pt.x)) % q)

    def shift(pt):
        return aut_point(gf, PencilAut(1, p.x, 0), pt)

    def invert(pt):
        if pt.kind == "I":
            return affine(0, pt.x)
        if pt.x == 0:
            return ideal(pt.y)
        xi = gf.inv(pt.x)
        return affine(xi, pt.y * xi * xi % q)

    steps = (add,) if p.kind == "I" else (invert, shift, add)
    out = {}
    for pt in pl.points:
        img = pt
        for step in steps:
            img = step(img)
        out[pt] = img
    return out


@pytest.mark.parametrize("q", [3, 5])
def test_action_matches_closed_form(q):
    # reference: aut_point conjugated Point by Point through the normalizer
    pl = LaguerrePlane(q)
    for pencil in _pencils(pl):
        d = DeltaGroup.build(pl, pencil)
        fwd = _reference_normalizer(pl, pencil)
        back = {v: k for k, v in fwd.items()}
        assert len(back) == len(pl.points)
        for f in d.elements:
            perm = d.perm(f)
            for i, pt in enumerate(pl.points):
                want = fwd[aut_point(pl.gf, f, back[pt])]
                assert pl.points[d.image(f, i)] == want, (pencil, f, pt)
                assert pl.points[perm[i]] == want
            for C, D in zip(pl.circles[::7], d.circle_images(f, pl.circles[::7])):
                img = {fwd[aut_point(pl.gf, f, back[x])] for x in pl.circle_points(C)}
                assert set(pl.circle_points(D)) == img, (pencil, f, C)


def test_transposition_is_not_an_automorphism(plane5):
    # swap A(0,0) and A(0,1): generators stay generators, but every circle
    # through exactly one of the two points loses its image
    perm = list(range(len(plane5.points)))
    perm[0], perm[1] = 1, 0
    ok, wit = PermutationMap(plane5, perm).verify()
    assert not ok
    assert {w["problem"] for w in wit} == {"circle_image"}
    assert sorted(w["circle"] for w in wit) == \
        sorted([a, b, c] for a in range(5) for b in range(5) for c in (0, 1))
    with pytest.raises(GeometryError) as e:
        PermutationMap(plane5, perm).verified()
    assert e.value.code == "not_automorphism"
    assert e.value.witnesses == wit


def _swap(pl, u, v):
    """The bijection of ``pl.points`` that exchanges ``u`` and ``v``."""
    perm = list(range(len(pl.points)))
    i, j = pl.point_index[u], pl.point_index[v]
    perm[i], perm[j] = j, i
    return perm


def test_swap_across_generators_breaks_both_generators(plane5):
    # A(0,0) and A(1,0) lie on different generators, so both generators lose
    # their image, after the 40 circles through exactly one of the two
    # points (c = 0, or a + b + c = 0), in circles order
    ok, wit = PermutationMap(plane5, _swap(plane5, affine(0, 0), affine(1, 0))).verify()
    assert not ok
    assert wit == [{"problem": "circle_image", "circle": [a, b, c]}
                   for a in range(5) for b in range(5) for c in range(5)
                   if (c == 0) != ((a + b + c) % 5 == 0)] + [
        {"problem": "generator_image", "generator": {"t": "A", "x": 0}},
        {"problem": "generator_image", "generator": {"t": "A", "x": 1}}]


def _point_set_image(pl, by_set, perm, C):
    """The retired point-set route: the circle whose point set is the image
    of ``C``'s, or None."""
    return by_set.get(frozenset(pl.points[perm[pl.point_index[p]]]
                                for p in pl.circle_points(C)))


def _point_set_verify(pl, perm):
    """``PermutationMap.verify`` as it was before circle masks, kept as the
    oracle of the mask route."""
    if sorted(perm) != list(range(len(pl.points))):
        return False, [{"problem": "not_bijective"}]
    by_set = {frozenset(pl.circle_points(C)): C for C in pl.circles}
    witnesses = [{"problem": "circle_image", "circle": list(C)} for C in pl.circles
                 if _point_set_image(pl, by_set, perm, C) is None]
    gen_sets = [frozenset(pl.generator_points(h)) for h in pl.generators]
    for g, gp in zip(pl.generators, gen_sets):
        if frozenset(pl.points[perm[pl.point_index[p]]] for p in gp) not in gen_sets:
            witnesses.append({"problem": "generator_image", "generator": g.to_json()})
    return not witnesses, witnesses


@pytest.mark.parametrize("q", [3, 5, 7])
def test_mask_route_matches_point_set_route(q):
    # the unit translations, two transpositions (along and across a
    # generator) and the normalizer of each non-canonical pencil
    pl = LaguerrePlane(q)
    maps = [PermutationMap.from_aut(pl, PencilAut(1, 1, 0)),
            circle_add_map(pl, Circle(0, 0, 1)),
            PermutationMap(pl, _swap(pl, affine(0, 0), affine(0, 1))),
            PermutationMap(pl, _swap(pl, affine(0, 0), affine(1, 0)))]
    maps += [DeltaGroup.build(pl, pencil).normalizer for pencil in _pencils(pl)[1:]]
    by_set = {frozenset(pl.circle_points(C)): C for C in pl.circles}
    for pm in maps:
        assert pm.verify() == _point_set_verify(pl, pm.perm)
        for C in pl.circles:
            want = _point_set_image(pl, by_set, pm.perm, C)
            if want is None:
                with pytest.raises(GeometryError) as e:
                    pm.apply_circle(C)
                assert e.value.code == "not_automorphism"
            else:
                assert pm.apply_circle(C) == want, (pm.perm, C)


@pytest.mark.parametrize("C", [Circle(9, 9, 9), Circle(-1, 0, 0)])
def test_a_triple_off_the_plane_is_not_a_circle(plane5, delta5, C):
    # (-1, 0, 0) would read the mask of circle (4, 0, 0) if positions were
    # not range-checked
    off_chart = DeltaGroup.build(plane5, _pencils(plane5)[1])
    calls = (lambda: PermutationMap.from_aut(plane5, PencilAut(2, 1, 3)).apply_circle(C),
             lambda: off_chart.normalizer.apply_circle(C),
             lambda: delta5.circle_images(PencilAut(2, 1, 3), [C]),
             lambda: off_chart.circle_images(PencilAut(2, 1, 3), [C]))
    for call in calls:
        with pytest.raises(GeometryError) as e:
            call()
        assert e.value.code == "not_a_circle"


def test_the_plane_builds_no_masks_until_read():
    pl = LaguerrePlane(5)
    assert "circle_masks" not in vars(pl) and "mask_positions" not in vars(pl)
    assert pl.mask_positions[pl.circle_masks[7]] == 7


# A2 witnesses (r, least target x, targets its orbit missed) at q = 5 for
# subgroups whose stabilizers are too small; k = 1 and the identity alone
# both have trivial stabilizers on the base circle
_TRIVIAL = {
    "canonical": [
        ("A(0,0)", "A(1,0)", ["A(2,0)", "A(3,0)", "A(4,0)"]),
        ("A(1,0)", "A(0,0)", ["A(2,0)", "A(3,0)", "A(4,0)"]),
        ("A(2,0)", "A(0,0)", ["A(1,0)", "A(3,0)", "A(4,0)"]),
        ("A(3,0)", "A(0,0)", ["A(1,0)", "A(2,0)", "A(4,0)"]),
        ("A(4,0)", "A(0,0)", ["A(1,0)", "A(2,0)", "A(3,0)"]),
    ],
    "p:1,2": [
        ("A(0,2)", "A(2,2)", ["A(3,2)", "A(4,2)", "I(0)"]),
        ("A(2,2)", "A(0,2)", ["A(3,2)", "A(4,2)", "I(0)"]),
        ("A(3,2)", "A(0,2)", ["A(2,2)", "A(4,2)", "I(0)"]),
        ("A(4,2)", "A(0,2)", ["A(2,2)", "A(3,2)", "I(0)"]),
        ("I(0)", "A(0,2)", ["A(2,2)", "A(3,2)", "A(4,2)"]),
    ],
}
_PLUS_MINUS_ONE = {
    "canonical": [
        ("A(0,0)", "A(1,0)", ["A(2,0)", "A(3,0)"]),
        ("A(1,0)", "A(0,0)", ["A(3,0)", "A(4,0)"]),
        ("A(2,0)", "A(0,0)", ["A(1,0)", "A(3,0)"]),
        ("A(3,0)", "A(0,0)", ["A(2,0)", "A(4,0)"]),
        ("A(4,0)", "A(0,0)", ["A(1,0)", "A(2,0)"]),
    ],
    "p:1,2": [
        ("A(0,2)", "A(2,2)", ["A(3,2)", "I(0)"]),
        ("A(2,2)", "A(0,2)", ["A(4,2)", "I(0)"]),
        ("A(3,2)", "A(0,2)", ["A(2,2)", "I(0)"]),
        ("A(4,2)", "A(0,2)", ["A(2,2)", "A(3,2)"]),
        ("I(0)", "A(0,2)", ["A(3,2)", "A(4,2)"]),
    ],
}


@pytest.mark.parametrize("name", ["canonical", "p:1,2"])
def test_subgroups_fail_a1_a2(name):
    # the action and the stabilizers must come from the group's own
    # elements, not from the closed form of the full group
    pl = LaguerrePlane(5)
    pencil = _pencils(pl)[0 if name == "canonical" else 1]
    full = DeltaGroup.build(pl, pencil)
    subsets = {
        "k=1": ([f for f in full.elements if f.k == 1], _TRIVIAL, "pass",
                "no_separating_element"),
        "k=+-1": ([f for f in full.elements if f.k in (1, 4)], _PLUS_MINUS_ONE,
                  "pass", "no_separating_element"),
        "identity": ([PencilAut(1, 0, 0)], _TRIVIAL, "fail", "not_transitive"),
    }
    for label, (elements, a2, a1_status, nt_problem) in subsets.items():
        d = DeltaGroup(pl, pencil, elements, full.normalizer)
        rep = d.verify_axioms()
        assert rep.status == "fail", label
        assert rep.cases_checked == 130, label
        assert rep.details == {"A1": {"points": 25, "status": a1_status},
                               "A2": {"stabilizers": 5, "status": "fail"},
                               "A3": {"circles": 100, "status": "pass"}}, label
        want = [{"axiom": "A1", "unreached": "A(0,1)"}] if a1_status == "fail" else []
        want += [{"axiom": "A2", "r": r, "x": x, "missed": missed}
                 for r, x, missed in a2[name]]
        assert rep.witnesses == want, label
        ok, witness = d.normally_transitive()
        assert not ok and witness["problem"] == nt_problem, label
        if nt_problem == "not_transitive":
            assert witness == {"problem": "not_transitive", "from": "A(0,0)",
                               "unreached": "A(0,1)"}
        else:
            assert witness == {"problem": "no_separating_element",
                               "x": "A(0,0)", "y": "A(0,1)"}


def test_require_reach_compares_the_reached_set_not_its_size():
    # i -> i + 2 (mod 6) carries 1 to {1, 3, 5}: three elements, as many as
    # {0, 2, 4} has, and none of them
    moves = [lambda i: (i + 2) % 6]
    assert reach(1, moves) == {1, 3, 5}
    with pytest.raises(GeometryError) as e:
        require_reach(1, moves, {0, 2, 4}, "not_transitive", "1", "points")
    assert e.value.code == "not_transitive"
    assert "to 0 of the 3 points and 3 more" in str(e.value)
    # a true orbit passes, in any order and with repeats in the domain
    require_reach(1, moves, [5, 3, 1, 3], "not_transitive", "1", "points")
    assert reach(0, [lambda i: (i + 1) % 6]) == set(range(6))


def test_normalizer_mismatch_is_a_geometry_error(monkeypatch):
    # a normalizer that is an automorphism but misses the target pencil must
    # be rejected, also under python -O
    real = autgroup.circle_add_map
    monkeypatch.setattr(autgroup, "circle_add_map",
                        lambda plane, Q: real(plane, Circle(0, 0, 0)))
    pl = LaguerrePlane(5)
    with pytest.raises(GeometryError) as e:
        DeltaGroup.build(pl, pl.pencil(ideal(2), Circle(2, 1, 3)))
    assert e.value.code == "normalizer_mismatch"


def test_group_json(delta5):
    blob = delta5.to_json()
    assert blob["q"] == 5
    assert blob["pencil"] == {"p": {"t": "I", "a": 0}, "K": [0, 0, 0]}
    assert len(blob["elements"]) == 100
    assert blob["elements"] == sorted(blob["elements"])
