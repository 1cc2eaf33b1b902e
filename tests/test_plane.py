import itertools
from functools import cached_property

import pytest

from laguerre import (Circle, DeltaGroup, GeometryError, LaguerrePlane, PermutationMap,
                      affine, canonical_pencil, ideal)
from laguerre import plane as plane_module
from laguerre.plane import Pencil
from laguerre.report import run_check
import oracles
from oracles import derived_affine, pencil_tangent, tangent_members


def test_build_counts():
    for q, npts, ncirc in ((3, 12, 27), (5, 30, 125), (2, 6, 8)):
        pl = LaguerrePlane(q)
        assert len(pl.points) == npts == q * q + q
        assert len(pl.circles) == ncirc == q ** 3
        for C in pl.circles:
            assert len(pl.circle_points(C)) == q + 1
    assert LaguerrePlane(2).gf.char2


def test_parallel():
    pl = LaguerrePlane(5)
    assert pl.parallel(affine(1, 0), affine(1, 4))
    assert pl.parallel(ideal(0), ideal(3))
    assert not pl.parallel(affine(1, 0), ideal(0))
    assert not pl.parallel(affine(1, 0), affine(2, 0))


def test_incident(plane5):
    assert plane5.incident(affine(2, 4), Circle(1, 0, 0))
    assert plane5.incident(ideal(1), Circle(1, 0, 0))
    assert not plane5.incident(affine(1, 3), Circle(1, 0, 0))


def test_circle_through_examples(plane5):
    assert plane5.circle_through(affine(0, 0), affine(1, 1), affine(2, 4)) == Circle(1, 0, 0)
    assert plane5.circle_through(affine(0, 0), affine(1, 1), ideal(0)) == Circle(0, 1, 0)
    with pytest.raises(GeometryError) as e:
        plane5.circle_through(affine(0, 0), affine(0, 1), affine(2, 4))
    assert e.value.code == "parallel_points"


def test_circle_through_all_triples_small():
    # every pairwise nonparallel triple joins into exactly one circle
    for q in (3, 5):
        pl = LaguerrePlane(q)
        for trip in itertools.combinations(pl.points, 3):
            if any(pl.parallel(u, v) for u, v in itertools.combinations(trip, 2)):
                continue
            C = pl.circle_through(*trip)
            assert all(pl.incident(p, C) for p in trip)
            brute = [D for D in pl.circles
                     if all(pl.incident(p, D) for p in trip)]
            assert brute == [C]


def test_intersection_examples(plane5):
    assert plane5.intersection(Circle(1, 0, 0), Circle(0, 0, 0)) == (affine(0, 0),)
    assert plane5.intersection(Circle(1, 0, 0), Circle(0, 0, 1)) == \
        (affine(1, 1), affine(4, 1))
    # equal leading coefficients share exactly the ideal point
    assert plane5.intersection(Circle(0, 0, 0), Circle(0, 0, 1)) == (ideal(0),)
    for meet in (plane5.intersection, plane5.intersection_size):
        with pytest.raises(GeometryError) as e:
            meet(Circle(1, 0, 0), Circle(1, 0, 0))
        assert e.value.code == "identical_circles"


def test_tangency_examples(plane5, plane2):
    assert plane5.intersection_size(Circle(1, 0, 0), Circle(0, 0, 0)) == 1
    assert plane5.intersection_size(Circle(1, 0, 0), Circle(0, 0, 1)) == 2
    assert plane2.intersection_size(Circle(1, 0, 0), Circle(0, 0, 1)) == 1


def test_tangency_fast_path_agrees_with_counting():
    # both code paths on every circle pair
    for q in (2, 3, 5):
        pl = LaguerrePlane(q)
        for C1, C2 in itertools.combinations(pl.circles, 2):
            pts = pl.intersection(C1, C2)
            assert len(pts) == pl.intersection_size(C1, C2)
            assert all(pl.incident(p, C1) and pl.incident(p, C2) for p in pts)


def test_touching_circle_examples(plane5):
    K = Circle(0, 0, 0)
    assert plane5.touching_circle(ideal(0), K, affine(0, 1)) == Circle(0, 0, 1)
    assert plane5.touching_circle(affine(0, 0), K, affine(1, 1)) == Circle(1, 0, 0)
    with pytest.raises(GeometryError) as e:
        plane5.touching_circle(affine(0, 0), K, affine(0, 1))
    assert e.value.code == "parallel_points"
    with pytest.raises(GeometryError) as e:
        plane5.touching_circle(affine(0, 1), K, affine(1, 1))
    assert e.value.code == "not_on_circle"
    with pytest.raises(GeometryError) as e:
        plane5.touching_circle(affine(0, 0), K, affine(1, 0))
    assert e.value.code == "on_circle"


def test_touching_circle_uniqueness_brute():
    # oracle: filter all circles for the touching property
    pl = LaguerrePlane(3)
    for K in pl.circles:
        for p in pl.circle_points(K):
            for r in pl.points:
                if pl.incident(r, K) or pl.parallel(p, r):
                    continue
                brute = [C for C in pl.circles
                         if pl.incident(r, C) and C != K
                         and pl.intersection(C, K) == (p,)]
                assert brute == [pl.touching_circle(p, K, r)]


def test_parallel_point(plane5):
    K = Circle(1, 0, 0)
    assert plane5.parallel_point(affine(2, 3), K) == affine(2, 4)
    assert plane5.parallel_point(ideal(4), K) == ideal(1)
    assert plane5.parallel_point(affine(2, 4), K) == affine(2, 4)


def test_pencils(plane5):
    members = plane5.pencil_members(canonical_pencil(plane5))
    assert members == [Circle(0, 0, c) for c in range(5)]
    at_origin = plane5.pencil_members(plane5.pencil(affine(0, 0), Circle(0, 0, 0)))
    assert at_origin == [Circle(m, 0, 0) for m in range(5)]
    with pytest.raises(GeometryError):
        plane5.pencil(affine(0, 1), Circle(0, 0, 0))


def test_pencil_members_pairwise_touch_at_vertex():
    for q in (3, 5):
        pl = LaguerrePlane(q)
        for K in pl.circles:
            for p in pl.circle_points(K):
                members = pl.pencil_members(pl.pencil(p, K))
                assert len(members) == q
                for M, N in itertools.combinations(members, 2):
                    assert pl.intersection(M, N) == (p,)


def test_joining_pencil(plane5):
    joined = plane5.joining_pencil(affine(0, 0), affine(1, 1))
    assert len(joined) == 5
    assert all(plane5.incident(affine(0, 0), C) and plane5.incident(affine(1, 1), C)
               for C in joined)
    assert plane5.joining_pencil(ideal(1), affine(0, 0)) == \
        [Circle(1, b, 0) for b in range(5)]
    with pytest.raises(GeometryError):
        plane5.joining_pencil(affine(0, 0), affine(0, 1))


def test_pencil_tangent_examples(plane5):
    pencil = canonical_pencil(plane5)
    assert pencil_tangent(plane5, Circle(1, 3, 1), pencil) == \
        (Circle(0, 0, 0), affine(1, 0))
    assert pencil_tangent(plane5, Circle(1, 0, 0), pencil) == \
        (Circle(0, 0, 0), affine(0, 0))


def test_closed_forms_are_checked_against_the_sweep(monkeypatch):
    # the canonical pencil's tangency point and the touching circle are
    # closed forms, each checked against incidence before it is returned
    plane = LaguerrePlane(5)
    pencil = canonical_pencil(plane)
    monkeypatch.setattr(oracles, "tangent_members", lambda plane, pencil, M: [
        (L, affine(4, 4)) for L, _ in tangent_members(plane, pencil, M)])
    with pytest.raises(GeometryError) as e:
        oracles.pencil_tangent(plane, Circle(1, 3, 1), pencil)
    assert e.value.code == "tangency_mismatch"
    monkeypatch.setattr(plane, "intersection", lambda C1, C2: (affine(0, 0), affine(1, 1)))
    with pytest.raises(GeometryError) as e:
        plane.touching_circle(affine(0, 0), Circle(0, 0, 0), affine(1, 1))
    assert e.value.code == "touching_circle_mismatch"


def test_pencil_tangent_char2_fails_with_witnesses(plane2):
    pencil = canonical_pencil(plane2)
    with pytest.raises(GeometryError) as e:
        pencil_tangent(plane2, Circle(1, 0, 0), pencil)
    assert e.value.code == "a3_char2"
    assert e.value.witnesses[0]["tangent_members"] == [[0, 0, 0], [0, 0, 1]]
    # every vertex-avoiding circle has 0 or 2 tangent members in char 2
    for C in plane2.circles:
        if plane2.incident(ideal(0), C):
            continue
        count = len(tangent_members(plane2, pencil, C))
        assert count == (2 if C.b == 0 else 0)


def test_verify_axioms_pass_small():
    for q in (2, 3, 5):
        rep = LaguerrePlane(q).verify_axioms()
        assert rep.status == "pass"
        assert not rep.witnesses


def test_derived_affine_ideal_center(plane5):
    da = derived_affine(plane5, ideal(0))
    assert len(da.points) == 25
    assert len(da.lines) == 30
    assert da.report.status == "pass"


def test_derived_affine_every_center_q5(plane5):
    for p in plane5.points:
        da = derived_affine(plane5, p)
        assert len(da.points) == 25
        assert len(da.lines) == 30
        assert da.report.status == "pass"


def test_derived_affine_q3_affine_center(plane3):
    da = derived_affine(plane3, affine(0, 0))
    assert len(da.points) == 9
    assert len(da.lines) == 12
    assert da.report.status == "pass"


def test_plane_json_stable(plane3):
    blob = plane3.to_json()
    assert blob["q"] == 3
    assert blob["points"][0] == {"t": "A", "x": 0, "y": 0}
    assert blob["points"][-1] == {"t": "I", "a": 2}
    assert blob["circles"] == sorted(blob["circles"])
    assert blob["generators"][-1] == {"t": "I"}


def _incidence_masks(pl):
    """The plane's circle masks, a circle mask per point derived from them,
    and its generator masks."""
    cm = pl.circle_masks
    pc = [sum(1 << ci for ci, m in enumerate(cm) if m >> i & 1) for i in range(len(pl.points))]
    return cm, pc, pl.generator_masks


@pytest.mark.parametrize("q", [3, 5, 7])
def test_incidence_masks_match_closed_forms(q):
    # the sweep reads only the masks; circle_through and intersection_size
    # stay under test against them
    pl = LaguerrePlane(q)
    cm, pc, gm = _incidence_masks(pl)
    index = pl.point_index
    for g, m in zip(pl.generators, gm):
        assert m == sum(1 << index[p] for p in pl.generator_points(g))
    gen_pts = [pl.generator_points(g) for g in pl.generators]
    for g1, g2, g3 in itertools.combinations(gen_pts, 3):
        for trip in itertools.product(g1, g2, g3):
            common = pc[index[trip[0]]] & pc[index[trip[1]]] & pc[index[trip[2]]]
            assert common == 1 << pl.circles.index(pl.circle_through(*trip))
    for (i, C1), (j, C2) in itertools.combinations(enumerate(pl.circles), 2):
        assert (cm[i] & cm[j]).bit_count() == pl.intersection_size(C1, C2)


def _closed_form_points(pl, C):
    """The points of ``C`` from its equation, as ``Point`` tuples in
    ``points`` order: the oracle for ``circle_ids`` and ``circle_points``."""
    return tuple([affine(x, pl.evaluate(C, x)) for x in range(pl.q)] + [ideal(C.a)])


def _bit_loop_images(pm):
    """``pm.circle_images`` by the retired bit loop: each circle's image mask
    built one set bit at a time, then looked up."""
    def image(m):
        out = 0
        while m:
            low = m & -m
            out |= 1 << pm.perm[low.bit_length() - 1]
            m ^= low
        return out

    return [pm.plane.mask_positions.get(image(m)) for m in pm.plane.circle_masks]


@pytest.mark.parametrize("q", [3, 5, 7])
def test_circle_ids_match_incidence_and_the_retired_encodings(q):
    pl = LaguerrePlane(q)
    for C, ids in zip(pl.circles, pl.circle_ids):
        assert [i for i, p in enumerate(pl.points) if pl.incident(p, C)] == list(ids)
        assert pl.circle_points(C) == _closed_form_points(pl, C)
    assert pl.circle_masks == [pl.mask(_closed_form_points(pl, C)) for C in pl.circles]


@pytest.mark.parametrize("q", [3, 5, 7])
def test_circle_images_match_the_retired_bit_loop(q):
    pl = LaguerrePlane(q)
    maps = list(pl.certified_maps)
    assert len(maps) == 6
    for pencil in (canonical_pencil(pl), pl.pencil(affine(1, 2), Circle(0, 0, 2)),
                   pl.pencil(ideal(2), Circle(2, 1, 3 % q))):
        delta = DeltaGroup.build(pl, pencil)
        maps += [PermutationMap(pl, delta.perm(f)) for f in delta.elements]
    for pm in maps:
        assert pm.circle_images == _bit_loop_images(pm)
    C = Circle(1, 2, 0)
    for pm in maps[:6]:
        assert pm.apply_circle(C) == pl.circles[_bit_loop_images(pm)[pl.circle_position(C)]]


def test_a_map_sending_two_points_of_a_circle_to_one_index_is_refused(plane5):
    # A(1,0) goes where A(0,0) goes: the image of a circle through A(1,0)
    # holds five points if the circle passes A(0,0) too, else two points of
    # x = 0; neither is a circle, and every other circle keeps its place
    pm = PermutationMap(plane5, list(range(len(plane5.points))))
    pm.perm[5] = 0
    moved = [i for i, ids in enumerate(plane5.circle_ids) if 5 in ids]
    assert plane5.circle_position(Circle(0, 0, 0)) in moved
    assert pm.circle_images == [None if i in moved else i for i in range(len(plane5.circles))]
    assert pm.verify() == (False, [{"problem": "not_bijective"}])


class _RepeatedId(LaguerrePlane):
    """Incidence fault: y = 0 lists the ids of y = 1 with A(0,1) replaced by
    A(0,0), twice.  Summed, the two bits of A(0,0) would carry into the bit
    of A(0,1) and alias y = 1."""

    @cached_property
    def circle_ids(self):
        ids = list(super().circle_ids)
        one = ids[self.circle_position(Circle(0, 0, 1))]
        assert one[0] == 1  # A(0,1)
        ids[self.circle_position(Circle(0, 0, 0))] = (0, 0) + one[1:]
        return ids


def test_a_circle_repeating_an_index_matches_no_circle():
    pl = _RepeatedId(5)
    y0 = pl.circle_position(Circle(0, 0, 0))
    assert pl.circle_masks[y0] == pl.mask(map(pl.points.__getitem__, set(pl.circle_ids[y0])))
    assert pl.circle_masks[y0] not in LaguerrePlane(5).circle_masks
    assert len(pl.mask_positions) == len(pl.circles)
    identity = PermutationMap(pl, list(range(len(pl.points))))
    assert identity.circle_images == list(range(len(pl.circles)))


class _Moved(LaguerrePlane):
    """Incidence fault: ``circle`` holds the point ``new`` instead of ``old``.
    The fault is written into ``circle_ids``, the plane's one incidence
    source, from which its masks and ``circle_points`` are read; ``new`` is a
    point, or a raw index for an id that names no point."""

    circle = old = new = None

    @cached_property
    def circle_ids(self):
        ids = list(super().circle_ids)
        pos, old = self.circle_position(self.circle), self.point_index[self.old]
        new = self.new if isinstance(self.new, int) else self.point_index[self.new]
        ids[pos] = tuple(sorted(new if i == old else i for i in ids[pos]))
        return ids


class _MovedPoint(_Moved):
    """Circle (1,2,3) holds A(0,4) instead of A(0,3), a point moved along its
    generator."""

    circle, old, new = Circle(1, 2, 3), affine(0, 3), affine(0, 4)


def test_verify_axioms_reports_moved_point_as_join():
    rep = _MovedPoint(5).verify_axioms()
    assert rep.status == "fail"
    pairs = [w for w in rep.witnesses if "circles" in w]
    triples = [w for w in rep.witnesses if "points" in w]
    # A(0,4) and any two other points of the circle lie on a second circle
    assert len(pairs) == 10
    assert all(w["axiom"] == "join" and [1, 2, 3] in w["circles"] for w in pairs)
    # two of its other points lie on two circles with A(0,4), none with A(0,3)
    assert len(triples) == 20
    assert sum("A(0,3)" in w["points"] for w in triples) == 10
    assert sum("A(0,4)" in w["points"] for w in triples) == 10
    assert rep.witnesses[:len(pairs) + len(triples)] == pairs + triples
    # the incidence already failed, so pencil mismatches are witnesses
    assert any("member" in w for w in rep.witnesses)
    assert not any(w["axiom"] == "generator_meet" for w in rep.witnesses)


def test_derived_affine_reports_moved_point():
    rep = derived_affine(_MovedPoint(5), ideal(1)).report
    assert rep.status == "fail"
    assert rep.cases_checked == 901
    assert len(rep.witnesses) == 52
    assert rep.witnesses[0] == {"axiom": "two_point_join",
                                "points": ["A(0,3)", "A(1,1)"], "lines": 0}


# the flag the orbit route reads pencil_members at: point 0 on circle 0
_REP = Pencil(affine(0, 0), Circle(0, 0, 0))


class _WrongMember(LaguerrePlane):
    """Closed-form fault: the pencil at A(1,0) on y = 0 lists a circle that
    misses the vertex."""

    at = Pencil(affine(1, 0), Circle(0, 0, 0))

    def pencil_members(self, pencil, verify=True):
        members = super().pencil_members(pencil, verify)
        if pencil == self.at:
            a, b, c = members[-1]
            members[-1] = Circle(a, b, (c + 1) % self.q)
        return members


class _WrongMemberAtRep(_WrongMember):
    """As ``_WrongMember``, at the representative's pencil."""

    at = _REP


def test_verify_axioms_rejects_wrong_pencil_member():
    with pytest.raises(GeometryError) as e:
        _retired_sweep(_WrongMember(5))
    assert e.value.code == "pencil_member_mismatch"
    assert str(e.value) == ("Circle(a=4, b=2, c=0) does not touch "
                            "Circle(a=0, b=0, c=0) at A(1,0)")
    with pytest.raises(GeometryError) as e:
        _WrongMemberAtRep(5).verify_axioms()
    assert e.value.code == "pencil_member_mismatch"
    assert str(e.value) == ("Circle(a=4, b=0, c=1) does not touch "
                            "Circle(a=0, b=0, c=0) at A(0,0)")


class _TwoWrongMembers(_WrongMember):
    """Closed-form fault: as ``_WrongMember``, and the pencil at A(0,0) on
    y = x, at an earlier vertex but a later circle, lists a wrong member too."""

    def pencil_members(self, pencil, verify=True):
        members = super().pencil_members(pencil, verify)
        if pencil == (affine(0, 0), Circle(0, 1, 0)):
            a, b, c = members[-1]
            members[-1] = Circle(a, b, (c + 1) % self.q)
        return members


class _TwoWrongMembersAtRep(_WrongMemberAtRep):
    """As ``_WrongMemberAtRep``, and the member y = x^2, earlier in the same
    list, is wrong too."""

    def pencil_members(self, pencil, verify=True):
        members = super().pencil_members(pencil, verify)
        if pencil == self.at:
            a, b, c = members[1]
            members[1] = Circle(a, b, (c + 1) % self.q)
        return members


def test_verify_axioms_raises_the_first_mismatch_in_circle_order():
    with pytest.raises(GeometryError) as e:
        _retired_sweep(_TwoWrongMembers(5))
    assert str(e.value) == ("Circle(a=4, b=2, c=0) does not touch "
                            "Circle(a=0, b=0, c=0) at A(1,0)")
    with pytest.raises(GeometryError) as e:
        _TwoWrongMembersAtRep(5).verify_axioms()
    assert str(e.value) == ("Circle(a=1, b=0, c=1) does not touch "
                            "Circle(a=0, b=0, c=0) at A(0,0)")


class _DroppedMember(LaguerrePlane):
    """Closed-form fault: the pencil at A(1,0) on y = 0 lacks one member."""

    at = Pencil(affine(1, 0), Circle(0, 0, 0))

    def pencil_members(self, pencil, verify=True):
        members = super().pencil_members(pencil, verify)
        if pencil == self.at:
            members = members[:-1]
        return members


class _DroppedMemberAtRep(_DroppedMember):
    """As ``_DroppedMember``, at the representative's pencil."""

    at = _REP


def test_verify_axioms_reports_uncovered_pencil():
    # the missing member's five points off the vertex stay uncovered
    rep = _retired_sweep(_DroppedMember(5))
    assert rep.status == "fail"
    assert rep.witnesses == [{"axiom": "touch", "pencil": ["A(1,0)", [0, 0, 0]],
                              "covered": 21}]
    rep = _DroppedMemberAtRep(5).verify_axioms()
    assert rep.status == "fail"
    assert rep.witnesses == [{"axiom": "touch", "pencil": ["A(0,0)", [0, 0, 0]],
                              "covered": 21}]


class _NotACircle(LaguerrePlane):
    """Closed-form fault: the pencil at A(1,0) on y = 0 lists a triple that
    is not a circle of the plane."""

    at = Pencil(affine(1, 0), Circle(0, 0, 0))

    def pencil_members(self, pencil, verify=True):
        members = super().pencil_members(pencil, verify)
        if pencil == self.at:
            members[-1] = Circle(4, 0, 7)
        return members


class _NotACircleAtRep(_NotACircle):
    """As ``_NotACircle``, at the representative's pencil."""

    at = _REP


def test_verify_axioms_rejects_member_outside_the_plane():
    for sweep, vertex in ((lambda: _retired_sweep(_NotACircle(5)), "A(1,0)"),
                          (_NotACircleAtRep(5).verify_axioms, "A(0,0)")):
        with pytest.raises(GeometryError) as e:
            sweep()
        assert e.value.code == "pencil_member_mismatch"
        assert str(e.value) == ("Circle(a=4, b=0, c=7) does not touch Circle(a=0, b=0, c=0) "
                                f"at {vertex}: not a circle of the plane")


def _uncertified(monkeypatch):
    """Send ``verify_axioms`` down its exhaustive path: the inversion is
    replaced by a swap of A(0,0) and A(0,1), which fails its certificate."""
    def swapped(pl):
        perm = list(range(len(pl.points)))
        perm[0], perm[1] = perm[1], perm[0]
        return PermutationMap(pl, perm)

    monkeypatch.setattr(plane_module, "inversion_map", swapped)


def test_a_failing_plane_certificate_runs_again_at_its_next_read(monkeypatch):
    # a cached property whose getter raises caches nothing: with the
    # inversion swapped, every read raises the swap's own witnesses, and once
    # the real inversion is back the next read certifies the plane and is kept
    pl = LaguerrePlane(5)
    real = plane_module.inversion_map
    _uncertified(monkeypatch)
    witnesses = plane_module.inversion_map(pl).verify()[1]
    assert witnesses and {w["problem"] for w in witnesses} == {"circle_image"}
    for _ in range(2):
        with pytest.raises(GeometryError) as e:
            pl.certified_maps
        assert (e.value.code, e.value.witnesses) == ("not_automorphism", witnesses)
        assert "certified_maps" not in vars(pl)
    monkeypatch.setattr(plane_module, "inversion_map", real)
    got = pl.certified_maps
    assert vars(pl)["certified_maps"] is got
    assert got.inversion.perm == real(pl).perm


class _SameAsY1(LaguerrePlane):
    """Incidence fault: y = 0 lists the points of y = 1, so the two circles
    share a mask."""

    @cached_property
    def circle_ids(self):
        ids = list(super().circle_ids)
        ids[self.circle_position(Circle(0, 0, 0))] = ids[self.circle_position(Circle(0, 0, 1))]
        return ids


def test_a_plane_whose_circles_share_a_mask_is_uncertified():
    # y = 0 holds y = 1's points: the two circles share a mask, so the
    # certificate raises and the sweep runs every case, finding the pair
    pl = _SameAsY1(5)
    with pytest.raises(GeometryError) as e:
        pl.certified_maps
    assert e.value.code == "not_automorphism"
    rep = pl.verify_axioms()
    assert (rep.status, rep.details["mode"]) == ("fail", "exhaustive")
    assert {"axiom": "join", "circles": [[0, 0, 0], [0, 0, 1]]} in rep.witnesses


def _counted_pencil_members(monkeypatch, pl):
    calls = []
    real = pl.pencil_members

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pl, "pencil_members", counted)
    return calls


def test_verify_axioms_calls_pencil_members_once_per_pencil(monkeypatch):
    # exhaustive path: q pencils at each of the q^2 + q vertices; a pencil's
    # list serves all of its q members as base (one call per flag made
    # q^3 (q + 1) = 750)
    _uncertified(monkeypatch)
    pl = LaguerrePlane(5)
    calls = _counted_pencil_members(monkeypatch, pl)
    rep = pl.verify_axioms()
    assert (rep.status, rep.details["mode"]) == ("pass", "exhaustive")
    assert len(calls) == 150


def test_orbit_route_calls_pencil_members_at_the_representative_only(monkeypatch):
    pl = LaguerrePlane(5)
    calls = _counted_pencil_members(monkeypatch, pl)
    rep = pl.verify_axioms()
    assert (rep.status, rep.details["mode"]) == ("pass", "orbit")
    assert calls == [(_REP,)]
    assert rep.details["representative"]["flags"] == [["A(0,0)", [0, 0, 0]]]


def test_orbit_route_misses_a_fault_off_the_representative():
    # the pencil at A(1,0) on y = 0 is damaged, a flag the certificate
    # carries onto the representative's: only the oracle evaluates it
    pl = _WrongMember(5)
    with pytest.raises(GeometryError) as e:
        _retired_sweep(pl)
    assert e.value.code == "pencil_member_mismatch"
    rep = pl.verify_axioms()
    assert (rep.status, rep.details["mode"]) == ("pass", "orbit")


@pytest.mark.parametrize("q, cases", [(5, 11_126), (7, 80_949), (11, 1_195_239)])
def test_cases_represented_equal_the_exhaustive_counts(q, cases):
    # the case counts of the exhaustive sweep before the orbit route
    details = LaguerrePlane(q).verify_axioms().details
    assert details["mode"] == "orbit"
    assert details["cases_represented"] == cases
    assert sum(s["cases_represented"] for s in details["stages"].values()) == cases


def _retired_sweep(pl):
    """The plane sweep before incidence counters, kept as the oracle: the
    O(n^2) pair scan, a loop per generator triple, and one closed-form call
    per flag."""
    def sweep():
        q = pl.q
        witnesses = []
        cases = 0
        cm, pc, gm = _incidence_masks(pl)
        points, index = pl.points, pl.point_index
        for i, mi in enumerate(cm):
            for j in range(i + 1, len(cm)):
                cases += 1
                if (mi & cm[j]).bit_count() > 2:
                    witnesses.append({"axiom": "join",
                                      "circles": [list(pl.circles[i]), list(pl.circles[j])]})
        gen_pts = [[index[p] for p in pl.generator_points(g)] for g in pl.generators]
        for g1, g2, g3 in itertools.combinations(range(q + 1), 3):
            for i1 in gen_pts[g1]:
                for i2 in gen_pts[g2]:
                    m12 = pc[i1] & pc[i2]
                    for i3 in gen_pts[g3]:
                        cases += 1
                        if (m12 & pc[i3]).bit_count() != 1:
                            witnesses.append({"axiom": "join", "points": [
                                repr(points[i1]), repr(points[i2]), repr(points[i3])]})
        strict = not witnesses
        circle_index = {C: i for i, C in enumerate(pl.circles)}
        sizes = [m.bit_count() for m in cm]
        for K, mk in zip(pl.circles, cm):
            for p in pl.circle_points(K):
                cases += 1
                vertex = 1 << index[p]
                covered = total = 0
                for M in pl.pencil_members(Pencil(p, K), verify=False):
                    mi = circle_index.get(M)
                    if mi is None:
                        raise GeometryError(f"{M} does not touch {K} at {p}: not a circle "
                                            "of the plane", code="pencil_member_mismatch")
                    if M != K and cm[mi] & mk != vertex:
                        if strict:
                            raise GeometryError(f"{M} does not touch {K} at {p}",
                                                code="pencil_member_mismatch")
                        witnesses.append({"axiom": "touch", "pencil": [repr(p), list(K)],
                                          "member": list(M)})
                    covered |= cm[mi]
                    total += sizes[mi] - 1
                seen = covered.bit_count()
                if seen != q * q + 1 or total != q * q:
                    witnesses.append({"axiom": "touch", "pencil": [repr(p), list(K)],
                                      "covered": seen})
        for C, m in zip(pl.circles, cm):
            cases += 1
            if any((m & g).bit_count() != 1 for g in gm):
                witnesses.append({"axiom": "generator_meet", "circle": list(C)})
        cases += 1
        if not 3 <= sizes[circle_index[Circle(0, 0, 0)]] < len(points):
            witnesses.append({"axiom": "nondegeneracy"})
        return cases, witnesses, {}

    return run_check("laguerre-axioms", pl.q, sweep)


class _SharedThird(_Moved):
    """y = x^2 holds A(0,1) for A(0,0), so it shares exactly three points
    with y = 1."""

    circle, old, new = Circle(1, 0, 0), affine(0, 0), affine(0, 1)


class _CrossedJoin(_Moved):
    """y = x^2 holds A(1,3) for A(3,4): the circles through A(0,0) and A(1,1)
    miss A(3,4), and those through A(0,0) and A(1,3) hit A(2,4) twice, so
    in that block the later pair has the earlier third generator."""

    circle, old, new = Circle(1, 0, 0), affine(3, 4), affine(1, 3)


class _NonFirstMember(_Moved):
    """y = 2 holds A(1,1) for A(1,2), so it meets y = 1 in A(1,1) besides
    I(0): the canonical pencil passes the touch test at its first base
    y = 0 only."""

    circle, old, new = Circle(0, 0, 2), affine(1, 2), affine(1, 1)


def _outcome(sweep):
    """A sweep's status and witnesses, or the error it raised."""
    try:
        rep = sweep()
    except GeometryError as e:
        return {"raised": e.code, "message": str(e)}, None
    return {"status": rep.status, "witnesses": rep.witnesses}, rep


# closed-form faults the orbit route does not read: compared on the
# exhaustive path, which a failed certificate selects
_OFF_REPRESENTATIVE = (_WrongMember, _TwoWrongMembers, _DroppedMember)


@pytest.mark.parametrize("cls, q", [
    (LaguerrePlane, 2), (LaguerrePlane, 3), (LaguerrePlane, 5), (LaguerrePlane, 7),
    (_MovedPoint, 5), (_WrongMember, 5), (_TwoWrongMembers, 5), (_DroppedMember, 5),
    (_SharedThird, 5), (_CrossedJoin, 5), (_NonFirstMember, 5),
    (_WrongMemberAtRep, 5), (_TwoWrongMembersAtRep, 5), (_DroppedMemberAtRep, 5),
], ids=lambda v: v.__name__.lstrip("_") if isinstance(v, type) else f"q{v}")
def test_verify_axioms_matches_retired_sweep(cls, q, monkeypatch):
    plane = cls(q)
    oracle, oracle_rep = _outcome(lambda: _retired_sweep(plane))
    if cls in _OFF_REPRESENTATIVE:
        _uncertified(monkeypatch)
    got, rep = _outcome(plane.verify_axioms)
    assert got == oracle
    if rep is not None:
        incidence_fault = issubclass(cls, (_MovedPoint, _Moved))
        exhaustive = incidence_fault or cls in _OFF_REPRESENTATIVE
        assert rep.details["mode"] == ("exhaustive" if exhaustive else "orbit")
        full = rep.cases_checked if exhaustive else rep.details["cases_represented"]
        assert full == oracle_rep.cases_checked


def test_shared_third_point_is_a_join_witness():
    rep = _SharedThird(5).verify_axioms()
    assert {"axiom": "join", "circles": [[0, 0, 1], [1, 0, 0]]} in rep.witnesses


def test_crossed_join_orders_triples_by_third_generator():
    rep = _CrossedJoin(5).verify_axioms()
    block = [w["points"] for w in rep.witnesses
             if "points" in w and w["points"][0] == "A(0,0)" and w["points"][1][2] == "1"]
    assert block == [["A(0,0)", "A(1,3)", "A(2,4)"], ["A(0,0)", "A(1,1)", "A(3,4)"],
                     ["A(0,0)", "A(1,3)", "A(4,1)"], ["A(0,0)", "A(1,3)", "I(1)"]]


def test_non_first_member_fault_reported_at_every_base():
    rep = _NonFirstMember(5).verify_axioms()
    at_vertex = [w for w in rep.witnesses if w.get("pencil", [None])[0] == "I(0)"]
    assert at_vertex == [
        {"axiom": "touch", "pencil": ["I(0)", [0, 0, 0]], "covered": 25},
        {"axiom": "touch", "pencil": ["I(0)", [0, 0, 1]], "member": [0, 0, 2]},
        {"axiom": "touch", "pencil": ["I(0)", [0, 0, 1]], "covered": 25},
        {"axiom": "touch", "pencil": ["I(0)", [0, 0, 2]], "member": [0, 0, 1]},
        {"axiom": "touch", "pencil": ["I(0)", [0, 0, 2]], "covered": 25},
        {"axiom": "touch", "pencil": ["I(0)", [0, 0, 3]], "covered": 25},
        {"axiom": "touch", "pencil": ["I(0)", [0, 0, 4]], "covered": 25},
    ]


class _OffThePlane(_Moved):
    """Incidence fault: y = 0 lists the index 30, one past the last point of
    the plane at q = 5, for A(0,0)."""

    circle, old, new = Circle(0, 0, 0), affine(0, 0), 30


class _BelowThePlane(_OffThePlane):
    """As ``_OffThePlane`` with the index -1, which a list lookup would
    silently read as the last point."""

    new = -1


def test_a_circle_listing_a_point_off_the_plane_is_not_a_point():
    for cls in (_OffThePlane, _BelowThePlane):
        for read in (lambda pl: pl.verify_axioms(), lambda pl: pl.circle_points(pl.circle),
                     lambda pl: derived_affine(pl, ideal(0))):
            with pytest.raises(GeometryError) as e:
                read(cls(5))
            assert (e.value.code, str(e.value)) == (
                "not_a_point", f"{cls.new} is not a point of the plane"), cls


def test_a_pencil_or_derived_plane_off_the_plane_is_not_a_point(plane5):
    # A(9,0) agrees mod 5 with A(4,0) on y = 0, but it is no point of the plane
    for call in (lambda: plane5.pencil(affine(9, 0), Circle(0, 0, 0)),
                 lambda: derived_affine(plane5, affine(9, 0))):
        with pytest.raises(GeometryError) as e:
            call()
        assert (e.value.code, str(e.value)) == ("not_a_point",
                                                "A(9,0) is not a point of the plane")


def test_a_map_applied_off_the_plane_is_not_a_point(plane5):
    identity = PermutationMap(plane5, list(range(len(plane5.points))))
    assert identity.apply_point(affine(4, 4)) == affine(4, 4)
    with pytest.raises(GeometryError) as e:
        identity.apply_point(affine(0, 9))
    assert (e.value.code, str(e.value)) == ("not_a_point", "A(0,9) is not a point of the plane")


@pytest.mark.parametrize("kept", [0, 1, 3])
@pytest.mark.parametrize("q", [3, 5])
def test_fewer_certified_maps_leave_more_orbits_and_the_same_report(q, kept, monkeypatch):
    # the first 0, 1 and 3 maps leave several orbits per stage: every
    # circle and flag, the orbits of y -> y + x^2, and the q + 1 generators
    full = LaguerrePlane(q).verify_axioms().details["stages"]
    certified = LaguerrePlane.certified_maps.func
    monkeypatch.setattr(LaguerrePlane, "certified_maps",
                        property(lambda self: certified(self)[:kept]))
    rep = LaguerrePlane(q).verify_axioms()
    assert (rep.status, rep.witnesses, rep.details["mode"]) == ("pass", [], "orbit")
    stages = rep.details["stages"]
    assert ({s: c["cases_represented"] for s, c in stages.items()}
            == {s: c["cases_represented"] for s, c in full.items()})
    representative = rep.details["representative"]
    assert len(representative["flags"]) > 1
    assert len(representative["circles"]) == {0: q ** 3, 1: q * q, 3: 1}[kept]
    if kept == 0:
        # each circle pair once: a representative skips the lower ones
        for stage in ("circle_pairs", "flags", "generator_meet"):
            assert stages[stage]["cases"] == stages[stage]["cases_represented"]
        assert stages["circle_pairs"]["cases"] == {3: 351, 5: 7_750}[q]
