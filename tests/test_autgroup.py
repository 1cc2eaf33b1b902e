import itertools

import pytest

from laguerre import (Circle, DeltaGroup, GeometryError, LaguerrePlane,
                      PencilAut, PermutationMap, affine, canonical_pencil,
                      classify_by_scan, ideal, verify_a1a2a3)
from laguerre.autgroup import (aut_circle, aut_compose, aut_inverse, aut_point,
                               circle_add_map, classify_aut, inversion_map)


def test_group_sizes():
    for q in (3, 5, 7):
        pl = LaguerrePlane(q)
        d = DeltaGroup.build(pl, canonical_pencil(pl))
        assert len(d.elements) == q * q * (q - 1)


def test_build_rejects_char2(plane2):
    with pytest.raises(GeometryError):
        DeltaGroup.build(plane2, canonical_pencil(plane2))


def test_action_examples(plane5):
    gf = plane5.gf
    assert aut_point(gf, PencilAut(2, 1, 3), affine(1, 1)) == affine(3, 2)
    assert aut_circle(gf, PencilAut(1, 1, 0), Circle(1, 0, 0)) == Circle(1, 3, 1)
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
    for C in plane5.circles[:25]:
        Ci = delta5.apply(f, C)
        for p in plane5.circle_points(C):
            assert plane5.incident(delta5.apply(f, p), Ci)


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
            assert classify_by_scan(pl, pm.point_map) == classify_aut(pl.gf, f)


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
        assert delta5.semidirect_factorization(r)


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


def test_normally_transitive(delta5):
    ok, witness = delta5.normally_transitive()
    assert ok and witness is None
    # translations alone have trivial stabilizers
    T = [f for f in delta5.elements if f.k == 1]
    ok, witness = delta5.normally_transitive(elements=T)
    assert not ok and witness["problem"] == "no_separating_element"
    ok, witness = delta5.normally_transitive(elements=[PencilAut(1, 0, 0)])
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
        # spot: conjugated elements really are plane automorphisms
        for f in d.elements[::17]:
            pm = PermutationMap(pl, {p: d.apply(f, p) for p in pl.points})
            ok, wit = pm.verify()
            assert ok, wit


def test_normalizer_mismatch_is_a_geometry_error(monkeypatch):
    # a normalizer that is an automorphism but misses the target pencil must
    # be rejected, also under python -O
    from laguerre import autgroup
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
