"""The finite Laguerre plane over GF(q) in the parabola model.

Points are ``F^2`` together with one ideal point ``(inf, a)`` per value of
``a``; circles are coefficient triples ``(a, b, c)`` standing for the graph
of ``y = a x^2 + b x + c`` plus the ideal point ``(inf, a)``; two points are
parallel when they share a generator (a vertical line, or the ideal
generator).  Circles are kept as coefficient triples, never as point sets:
that makes equality canonical and group actions O(1), while point sets are
derived on demand.  The one stored incidence is a point bitset per circle
(``circle_masks``, read from ``circle_points`` on first use, and keyed back
to circle positions ``a*q*q+b*q+c`` by ``mask_positions``): a point's bit is
its position in ``points`` (affine ``x*q+y``, ideal ``q*q+a``).  The axiom
sweep counts incidences by OR-ing masks into saturating counters (a bit set
in ``threes`` lies in at least three of the masks), and reads the closed form
``pencil_members`` once per pencil, not once per flag.

Tangency is defined set-theoretically (exactly one common point).  For odd
q the quadratic-discriminant shortcut computes the same counts and the two
routes are compared in the test suite; in characteristic 2 the counting
definition is the only one used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .field import GF, SQUARE, ZERO
from .report import Report, run_check

AFFINE = "A"
IDEAL = "I"


def bits(m: int) -> list[int]:
    """The positions of the set bits of ``m >= 0``, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


class GeometryError(ValueError):
    """Violated geometric precondition; ``code`` names the violation."""

    def __init__(self, message: str, code: str = "geometry", witnesses: list | None = None):
        super().__init__(message)
        self.code = code
        self.witnesses = witnesses or []


def not_a_point(pt) -> GeometryError:
    """The error for a lookup of something that is not a plane point."""
    return GeometryError(f"{pt!r} is not a point of the plane", code="not_a_point")


class Point(NamedTuple):
    kind: str  # AFFINE or IDEAL
    x: int     # affine x coordinate, or the ideal label a
    y: int     # affine y coordinate; always 0 for ideal points

    def to_json(self) -> dict:
        if self.kind == IDEAL:
            return {"t": "I", "a": self.x}
        return {"t": "A", "x": self.x, "y": self.y}

    def __repr__(self) -> str:
        return f"I({self.x})" if self.kind == IDEAL else f"A({self.x},{self.y})"


def affine(x: int, y: int) -> Point:
    return Point(AFFINE, x, y)


def ideal(a: int) -> Point:
    return Point(IDEAL, a, 0)


class Generator(NamedTuple):
    kind: str  # AFFINE (vertical line x = const) or IDEAL
    x: int

    def to_json(self) -> dict:
        return {"t": "I"} if self.kind == IDEAL else {"t": "A", "x": self.x}


class Circle(NamedTuple):
    a: int
    b: int
    c: int


class Pencil(NamedTuple):
    """The family of circles mutually tangent at ``p``, seeded by ``base``."""

    p: Point
    base: Circle


class LaguerrePlane:
    """Full enumeration of the plane over GF(q), plus incidence machinery."""

    def __init__(self, q: int):
        self.gf = GF(q)
        self.q = q
        self.points: list[Point] = sorted(
            [affine(x, y) for x in range(q) for y in range(q)] + [ideal(a) for a in range(q)]
        )
        self.point_index = {p: i for i, p in enumerate(self.points)}
        self.circles: list[Circle] = [
            Circle(a, b, c) for a in range(q) for b in range(q) for c in range(q)
        ]
        self.generators: list[Generator] = [Generator(AFFINE, x) for x in range(q)] + [
            Generator(IDEAL, 0)
        ]

    # -- incidence basics -----------------------------------------------

    def evaluate(self, C: Circle, x: int) -> int:
        return ((C.a * x + C.b) * x + C.c) % self.q

    def incident(self, pt: Point, C: Circle) -> bool:
        if pt.kind == IDEAL:
            return pt.x == C.a
        return pt.y == self.evaluate(C, pt.x)

    def parallel(self, u: Point, v: Point) -> bool:
        if u.kind != v.kind:
            return False
        return u.kind == IDEAL or u.x == v.x

    def generator_of(self, pt: Point) -> Generator:
        return Generator(IDEAL, 0) if pt.kind == IDEAL else Generator(AFFINE, pt.x)

    def generator_points(self, gen: Generator) -> tuple[Point, ...]:
        if gen.kind == IDEAL:
            return tuple(ideal(a) for a in range(self.q))
        return tuple(affine(gen.x, y) for y in range(self.q))

    def circle_points(self, C: Circle) -> tuple[Point, ...]:
        """The points of ``C`` in ``points`` order, built on every call."""
        return tuple([affine(x, self.evaluate(C, x)) for x in range(self.q)] + [ideal(C.a)])

    def mask(self, pts) -> int:
        """The bitset of ``pts`` over positions in ``points``."""
        index, m = self.point_index, 0
        for p in pts:
            m |= 1 << index[p]
        return m

    def circle_position(self, C) -> int:
        """The position of ``C`` in ``circles``; ``not_a_circle`` for a
        triple that is not a circle of the plane."""
        q = self.q
        if not all(0 <= v < q for v in C):
            raise GeometryError(f"{C!r} is not a circle of the plane", code="not_a_circle")
        a, b, c = C
        return (a * q + b) * q + c

    @cached_property
    def circle_masks(self) -> list[int]:
        """The point mask of each circle, in ``circles`` order, read from
        ``circle_points`` on first use."""
        return [self.mask(self.circle_points(C)) for C in self.circles]

    @cached_property
    def mask_positions(self) -> dict[int, int]:
        """Circle position by point mask: the circle with exactly these points."""
        return {m: i for i, m in enumerate(self.circle_masks)}

    # -- joins, intersections, tangency ---------------------------------

    def circle_through(self, p1: Point, p2: Point, p3: Point) -> Circle:
        """The unique circle through three pairwise nonparallel points."""
        pts = [p1, p2, p3]
        for u, v in itertools.combinations(pts, 2):
            if self.parallel(u, v):
                raise GeometryError(f"parallel points {u}, {v}", code="parallel_points")
        gf = self.gf
        ideals = [p for p in pts if p.kind == IDEAL]
        affs = [p for p in pts if p.kind == AFFINE]
        if len(ideals) == 1:
            a = ideals[0].x
            (x1, y1), (x2, y2) = ((affs[0].x, affs[0].y), (affs[1].x, affs[1].y))
            b = gf.div((y1 - a * x1 * x1) - (y2 - a * x2 * x2), x1 - x2)
            c = gf.sub(y1, a * x1 * x1 + b * x1)
            return Circle(a, b, c)
        (x1, y1), (x2, y2), (x3, y3) = ((p.x, p.y) for p in affs)
        s12 = gf.div(y2 - y1, x2 - x1)
        s13 = gf.div(y3 - y1, x3 - x1)
        a = gf.div(s13 - s12, x3 - x2)
        b = gf.sub(s12, a * (x1 + x2))
        c = gf.sub(y1, x1 * (a * x1 + b))
        return Circle(a, b, c)

    def intersection(self, C1: Circle, C2: Circle) -> tuple[Point, ...]:
        """All common points of two distinct circles, sorted."""
        if C1 == C2:
            raise GeometryError("identical circles", code="identical_circles")
        gf = self.gf
        q = self.q
        da = (C1.a - C2.a) % q
        db = (C1.b - C2.b) % q
        dc = (C1.c - C2.c) % q
        out: list[Point] = []
        if da == 0:
            out.append(ideal(C1.a))
            if db != 0:
                x = gf.div(-dc, db)
                out.append(affine(x, self.evaluate(C1, x)))
            return tuple(sorted(out))
        if gf.char2:
            for x in range(q):
                if ((da * x + db) * x + dc) % q == 0:
                    out.append(affine(x, self.evaluate(C1, x)))
            return tuple(sorted(out))
        disc = (db * db - 4 * da * dc) % q
        for r in gf.sqrts(disc):
            x = gf.div(-db + r, 2 * da)
            out.append(affine(x, self.evaluate(C1, x)))
        return tuple(sorted(out))

    def intersection_size(self, C1: Circle, C2: Circle) -> int:
        """|C1 ∩ C2| without materializing points (discriminant fast path)."""
        if C1 == C2:
            raise GeometryError("identical circles", code="identical_circles")
        q = self.q
        da = (C1.a - C2.a) % q
        db = (C1.b - C2.b) % q
        dc = (C1.c - C2.c) % q
        if da == 0:
            return 1 if db == 0 else 2
        if self.gf.char2:
            return sum(1 for x in range(q) if ((da * x + db) * x + dc) % q == 0)
        cls = self.gf.square_class((db * db - 4 * da * dc) % q)
        if cls == ZERO:
            return 1
        return 2 if cls == SQUARE else 0

    def touching_circle(self, p: Point, K: Circle, r: Point) -> Circle:
        """The unique circle through ``r`` tangent to ``K`` at ``p``."""
        if not self.incident(p, K):
            raise GeometryError(f"{p} not on {K}", code="not_on_circle")
        if self.incident(r, K):
            raise GeometryError(f"{r} already on {K}", code="on_circle")
        if self.parallel(p, r):
            raise GeometryError(f"parallel points {p}, {r}", code="parallel_points")
        gf = self.gf
        if p.kind == IDEAL:
            # members at an ideal point keep (a, b); r is affine here
            c = gf.sub(r.y, K.a * r.x * r.x + K.b * r.x)
            C = Circle(K.a, K.b, c)
        else:
            if r.kind == IDEAL:
                m = gf.sub(r.x, K.a)
            else:
                m = gf.div(r.y - self.evaluate(K, r.x), (r.x - p.x) ** 2)
            C = Circle((K.a + m) % gf.q, (K.b - 2 * m * p.x) % gf.q,
                       (K.c + m * p.x * p.x) % gf.q)
        if not (self.incident(r, C) and self.intersection(C, K) == (p,)):
            raise GeometryError(f"{C} is not the circle through {r} touching {K} "
                                f"at {p}", code="touching_circle_mismatch")
        return C

    def parallel_point(self, x: Point, K: Circle) -> Point:
        """The unique point of ``K`` on the generator of ``x``."""
        if x.kind == IDEAL:
            return ideal(K.a)
        return affine(x.x, self.evaluate(K, x.x))

    # -- pencils ----------------------------------------------------------

    def pencil(self, p: Point, K: Circle) -> Pencil:
        if not self.incident(p, K):
            raise GeometryError(f"{p} not on {K}", code="not_on_circle")
        return Pencil(p, K)

    def pencil_members(self, pencil: Pencil, verify: bool = True) -> list[Circle]:
        """All q circles tangent to each other at ``pencil.p`` (base included)."""
        p, K = pencil
        q = self.q
        if p.kind == IDEAL:
            members = [Circle(K.a, K.b, c) for c in range(q)]
        else:
            # member m has leading coefficient a = K.a + m; running over a
            # lists them in sorted order
            x = p.x
            members = []
            for a in range(q):
                m = a - K.a
                members.append(Circle(a, (K.b - 2 * m * x) % q, (K.c + m * x * x) % q))
        if verify:
            for M in members:
                if not self.incident(p, M) or (M != K and self.intersection_size(M, K) != 1):
                    raise GeometryError(f"{M} does not touch {K} at {p}",
                                        code="pencil_member_mismatch")
        return members

    def joining_pencil(self, x: Point, y: Point) -> list[Circle]:
        """All q circles through two nonparallel points."""
        if self.parallel(x, y):
            raise GeometryError(f"parallel points {x}, {y}", code="parallel_points")
        gf = self.gf
        q = self.q
        if x.kind == IDEAL or y.kind == IDEAL:
            idp, aff = (x, y) if x.kind == IDEAL else (y, x)
            a = idp.x
            return sorted(
                Circle(a, b, gf.sub(aff.y, a * aff.x * aff.x + b * aff.x)) for b in range(q)
            )
        out = []
        for a in range(q):
            b = gf.div((x.y - a * x.x * x.x) - (y.y - a * y.x * y.x), x.x - y.x)
            c = gf.sub(x.y, a * x.x * x.x + b * x.x)
            out.append(Circle(a, b, c))
        return sorted(out)

    def tangent_members(self, pencil: Pencil, M: Circle) -> list[tuple[Circle, Point]]:
        """Pencil members tangent to ``M``, with their tangency points."""
        out = []
        for L in self.pencil_members(pencil, verify=False):
            if L == M:
                continue
            pts = self.intersection(L, M)
            if len(pts) == 1:
                out.append((L, pts[0]))
        return out

    def pencil_tangent(self, M: Circle, pencil: Pencil) -> tuple[Circle, Point]:
        """The unique pencil member tangent to ``M`` and the tangency point.

        ``M`` must avoid the pencil vertex.  In characteristic 2 the count
        is never one, so the full tangent list is raised as the witness.
        """
        if self.incident(pencil.p, M):
            raise GeometryError(f"{pencil.p} lies on {M}", code="on_circle")
        hits = self.tangent_members(pencil, M)
        if self.gf.char2:
            raise GeometryError(
                f"tangency-count axiom fails in characteristic 2 for {M}: "
                f"{len(hits)} tangent members",
                code="a3_char2",
                witnesses=[{"circle": list(M), "tangent_members": sorted(list(L) for L, _ in hits)}],
            )
        if len(hits) != 1:
            raise GeometryError(
                f"{len(hits)} tangent members for {M}", code="a3_violated",
                witnesses=[{"circle": list(M), "count": len(hits)}],
            )
        member, point = hits[0]
        gf = self.gf
        if pencil.p == ideal(0) and pencil.base.a == 0 and pencil.base.b == 0 and M.a != 0:
            # closed form for the canonical pencil; must match the sweep
            u = gf.div(-M.b, 2 * M.a)
            v = gf.sub(M.c, gf.div(M.b * M.b, 4 * M.a))
            if point != affine(u, v) or member != Circle(0, 0, v):
                raise GeometryError(f"closed-form tangency disagrees with the sweep "
                                    f"for {M}", code="tangency_mismatch")
        return member, point

    # -- axiom verification ------------------------------------------------

    def incidence_masks(self) -> tuple[list[int], list[int], list[int]]:
        """Incidence as bitsets over positions in ``points`` and ``circles``.

        Returns a point mask per circle, a circle mask per point and a point
        mask per generator, in ``circles``, ``points`` and ``generators``
        order.  The first is the plane's ``circle_masks``; the other two are
        derived from it and ``generator_points`` on every call, so incidence
        has no other definition in the axiom sweep.
        """
        circle_masks = self.circle_masks
        point_masks = [0] * len(self.points)
        for ci, m in enumerate(circle_masks):
            for i in bits(m):
                point_masks[i] |= 1 << ci
        gen_masks = [self.mask(self.generator_points(g)) for g in self.generators]
        return circle_masks, point_masks, gen_masks

    def verify_axioms(self) -> Report:
        """Exhaustively check the four defining axioms of the plane.

        Every check reads the incidence masks of ``incidence_masks``, not
        the closed forms ``circle_through`` and ``intersection_size``.
        Join uniqueness is split into existence plus uniqueness through
        every admissible triple (exactly one circle contains all three) and
        the pairwise bound |C1 ∩ C2| <= 2, which avoids a cubic scan over
        circles.  Both run on saturating counters: OR-ing the masks of a
        family into ``ones``, ``twos`` and ``threes`` marks every bit that
        at least one, two or three of them hold.  Over the circle masks of
        a circle's points, ``threes`` holds the circles meeting it in three
        points or more; over the point masks of the circles through two
        nonparallel points, a later point off ``ones ^ twos`` lies on no
        circle or on two of them.

        The touching axiom takes each pencil from the closed form
        ``pencil_members``: every member must meet the base circle in the
        vertex alone, and the members must cover each point off the vertex
        generator exactly once.  The closed form is called once per pencil,
        at the pencil's first circle in ``circles`` order.  When that flag
        passes, its members pass through the vertex, and their other points
        number q² and cover q², so any two meet in the vertex alone: each
        member's flag as base there is counted and holds untested.  A
        closed-form fault at a pencil's other bases is not seen here, and
        ``pencil_members`` is tested at every base on its own.  A member
        that fails the first test raises ``pencil_member_mismatch`` while
        the join checks have passed, since the closed form is then at fault;
        once the incidence itself has failed them, it is reported as a
        ``touch`` witness instead.  A member that is not a circle of the
        plane always raises.  Findings are reported, and the least of them
        raised, in flag order (circle, then vertex, then member), as when
        each flag was swept on its own.
        """
        def sweep():
            q = self.q
            witnesses = []
            cases = 0
            cm, pc, gm = self.incidence_masks()
            points, circles = self.points, self.circles
            bit_count = int.bit_count

            # pairwise intersection bound (uniqueness half of the join axiom):
            # the circles through three or more points of circle i
            n = len(circles)
            for i, mi in enumerate(cm):
                cases += n - 1 - i
                ones = twos = threes = 0
                for k in bits(mi):
                    m = pc[k]
                    threes |= twos & m
                    twos |= ones & m
                    ones |= m
                for j in bits(threes >> (i + 1)):
                    witnesses.append({"axiom": "join",
                                      "circles": [list(circles[i]), list(circles[i + 1 + j])]})

            # existence and uniqueness: every pairwise-nonparallel triple
            # lies on exactly one circle.  For each pair on generators
            # g1 < g2 < q the points of later generators are counted at
            # once; a block's witnesses are ordered by g3, then by the pair
            gen_pts = [[self.point_index[p] for p in self.generator_points(g)]
                       for g in self.generators]
            later = [0] * (q + 1)
            for g in range(q, 0, -1):
                later[g - 1] = later[g] | gm[g]
            for g1, g2 in itertools.combinations(range(q), 2):
                rest = later[g2]
                cases += len(gen_pts[g1]) * len(gen_pts[g2]) * sum(
                    map(len, gen_pts[g2 + 1:]))
                block = []
                for i1 in gen_pts[g1]:
                    for i2 in gen_pts[g2]:
                        ones = twos = 0
                        for k in bits(pc[i1] & pc[i2]):
                            m = cm[k]
                            twos |= ones & m
                            ones |= m
                        bad = rest & ~(ones ^ twos)
                        if not bad:
                            continue
                        for g3 in range(g2 + 1, q + 1):
                            for i3 in gen_pts[g3]:
                                if bad >> i3 & 1:
                                    block.append((g3, {"axiom": "join", "points": [
                                        repr(points[i1]), repr(points[i2]), repr(points[i3])]}))
                block.sort(key=itemgetter(0))
                witnesses.extend(w for _, w in block)

            # touching axiom: each pencil partitions the points off its vertex generator
            strict = not witnesses
            circle_index = {C: i for i, C in enumerate(circles)}
            sizes = list(map(bit_count, cm))
            findings = []    # ((circle, vertex, member position), witness)
            mismatches = []  # ((circle, vertex, member position), message)
            for pi, (p, at_p) in enumerate(zip(points, pc)):
                vertex = 1 << pi
                kept = set()  # the members of the pencils at p that passed
                for ki in bits(at_p):
                    cases += 1
                    if ki in kept:
                        continue
                    K, mk = circles[ki], cm[ki]
                    members = self.pencil_members(Pencil(p, K), verify=False)
                    mis = [circle_index.get(M) for M in members]
                    failed = False
                    for pos, mi in enumerate(mis):
                        if mi is None:
                            failed = True
                            mismatches.append(((ki, pi, pos), f"{members[pos]} does not touch "
                                               f"{K} at {p}: not a circle of the plane"))
                        elif mi != ki and cm[mi] & mk != vertex:
                            failed = True
                            M = circles[mi]
                            if strict:
                                mismatches.append(((ki, pi, pos),
                                                   f"{M} does not touch {K} at {p}"))
                            findings.append(((ki, pi, pos), {
                                "axiom": "touch", "pencil": [repr(p), list(K)],
                                "member": list(M)}))
                    if None in mis:
                        continue
                    covered = 0
                    for mi in mis:
                        covered |= cm[mi]
                    seen = bit_count(covered)
                    if seen != q * q + 1 or sum(sizes[mi] - 1 for mi in mis) != q * q:
                        findings.append(((ki, pi, len(mis)), {
                            "axiom": "touch", "pencil": [repr(p), list(K)], "covered": seen}))
                    elif not failed:
                        kept.update(mis)
            if mismatches:
                raise GeometryError(min(mismatches)[1], code="pencil_member_mismatch")
            findings.sort(key=itemgetter(0))
            witnesses.extend(w for _, w in findings)

            # each generator meets each circle exactly once
            for C, m in zip(circles, cm):
                cases += 1
                if any(bit_count(m & g) != 1 for g in gm):
                    witnesses.append({"axiom": "generator_meet", "circle": list(C)})

            # a circle with at least three, but not all, points
            cases += 1
            if not (3 <= sizes[circle_index[Circle(0, 0, 0)]] < len(points)):
                witnesses.append({"axiom": "nondegeneracy"})
            return cases, witnesses, {}

        return run_check("laguerre-axioms", self.q, sweep)

    # -- derived affine plane ----------------------------------------------

    def derived_affine(self, p: Point) -> "DerivedAffine":
        """The affine plane living on the points nonparallel to ``p``."""
        pts = [x for x in self.points if not self.parallel(x, p)]
        lines: list[frozenset] = []
        for C in self.circles:
            if self.incident(p, C):
                lines.append(frozenset(x for x in self.circle_points(C) if x != p))
        for g in self.generators:
            gp = self.generator_points(g)
            if p not in gp:
                lines.append(frozenset(gp))

        def sweep():
            cases, witnesses = 0, []
            for u, v in itertools.combinations(pts, 2):
                cases += 1
                n = sum(1 for L in lines if u in L and v in L)
                if n != 1:
                    witnesses.append({"axiom": "two_point_join", "points": [repr(u), repr(v)],
                                      "lines": n})
            for L in lines:
                for x in pts:
                    if x in L:
                        continue
                    cases += 1
                    n = sum(1 for M in lines if x in M and not (M & L))
                    if n != 1:
                        witnesses.append({"axiom": "playfair", "point": repr(x),
                                          "line": sorted(map(repr, L)), "parallels": n})
            cases += 1
            triangle = any(
                not any(set((a, b, c)) <= L for L in lines)
                for a, b, c in itertools.combinations(pts[: min(len(pts), 12)], 3)
            )
            if not triangle:
                witnesses.append({"axiom": "triangle"})
            return cases, witnesses, {}

        report = run_check("derived-affine", self.q, sweep)
        return DerivedAffine(p, pts, sorted(lines, key=sorted), report)

    # -- export -------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "points": [p.to_json() for p in self.points],
            "generators": [g.to_json() for g in self.generators],
            "circles": [list(C) for C in self.circles],
        }


@dataclass
class DerivedAffine:
    """Derived affine plane at a point: its points, lines, and axiom report."""

    center: Point
    points: list[Point]
    lines: list[frozenset]
    report: Report


def canonical_pencil(plane: LaguerrePlane) -> Pencil:
    """The reference pencil: vertex ``(inf, 0)`` on the circle y = 0."""
    return plane.pencil(ideal(0), Circle(0, 0, 0))
