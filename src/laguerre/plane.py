"""The finite Laguerre plane over GF(q) in the parabola model.

Points are ``F^2`` together with one ideal point ``(inf, a)`` per value of
``a``; circles are coefficient triples ``(a, b, c)`` standing for the graph
of ``y = a x^2 + b x + c`` plus the ideal point ``(inf, a)``; two points are
parallel when they share a generator (a vertical line, or the ideal
generator).  Circles are kept as coefficient triples, never as point sets:
that makes equality canonical and group actions O(1), while point sets are
derived on demand.  The one incidence is ``circle_ids``, each circle's
indices in ``points`` (affine ``x*q+y``, ideal ``q*q+a``); ``circle_points``
and the bitsets ``circle_masks`` (keyed back to positions ``a*q*q+b*q+c``
by ``mask_positions``) are read from it, a mask always as an OR of bits.

Plane automorphisms live here too: ``PermutationMap``, a list of point
indices that carries a circle by OR-ing the image bits of its ids
(``circle_images``, ``circle_image``) and is verified against the masks,
and the maps built from closed forms, ``PermutationMap.from_aut``
(``PencilAut``: its whole permutation is ``aut_perm``, its single-point
form ``aut_index``), ``circle_add_map`` and ``inversion_map``.  The plane's
one certificate, the cached ``certified_maps``, verifies six of them
(``PlaneMaps``, by name) for the axiom sweep and the catalog; only
``autgroup``'s normalizer builds a map of its own.  One sweep runs its four
stages over lists of circles, point pairs and flags: orbit representatives
by ``reach`` when the certificate holds, every case when it raises
``not_automorphism``.  ``pencil_members`` is read at the listed flags.

Tangency is defined set-theoretically (exactly one common point).  For odd
q the quadratic-discriminant shortcut computes the same counts and the two
routes are compared in the test suite; in characteristic 2 the counting
definition is the only one used.
"""

from __future__ import annotations

import itertools
from functools import cached_property, reduce
from operator import itemgetter, or_
from typing import Callable, Iterator, NamedTuple

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


class PointIndex(dict):
    """Position by point: looking up anything that is not a point of the
    plane raises ``not_a_point``."""

    def __missing__(self, pt):
        raise not_a_point(pt)


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
        self.point_index = PointIndex((p, i) for i, p in enumerate(self.points))
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

    @cached_property
    def circle_ids(self) -> list[tuple[int, ...]]:
        """Each circle's point indices, ascending, in ``circles`` order: at
        fixed (a, b) the generator x = const, rotated by a x^2 + b x, holds
        the point of each c; every tuple shares the ints of ``ix``."""
        q, ix = self.q, list(range(len(self.points)))
        rows = [ix[x * q:x * q + q] for x in range(q)]
        ids: list[tuple[int, ...]] = []
        for a in range(q):
            for b in range(q):
                turn = [(a * x + b) * x % q for x in range(q)]
                ids += zip(*[r[s:] + r[:s] for r, s in zip(rows, turn)], [ix[q * q + a]] * q)
        return ids

    def circle_points(self, C: Circle) -> tuple[Point, ...]:
        """The points of ``C``, read from its ``circle_ids``."""
        self.circle_masks  # not_a_point for an id off the plane
        return tuple(map(self.points.__getitem__, self.circle_ids[self.circle_position(C)]))

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
        ``circle_ids`` on first use; ``not_a_point`` for an id off the plane."""
        ids, n = self.circle_ids, len(self.points)
        lo, hi = min(map(min, ids)), max(map(max, ids))
        if lo < 0 or hi >= n:
            raise not_a_point(lo if lo < 0 else hi)
        bit = [1 << i for i in range(n)]
        return [reduce(or_, map(bit.__getitem__, t)) for t in ids]

    @cached_property
    def mask_positions(self) -> dict[int, int]:
        """Circle position by point mask: the circle with exactly these points."""
        return {m: i for i, m in enumerate(self.circle_masks)}

    @cached_property
    def generator_masks(self) -> list[int]:
        """The point mask of each generator, in ``generators`` order."""
        return [self.mask(self.generator_points(g)) for g in self.generators]

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
        self.point_index[p]  # not_a_point off the plane
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

    def tangent_hits(self, pencil: Pencil) -> Iterator[tuple[Circle, list[tuple[Circle, int]]]]:
        """Each circle avoiding the vertex of ``pencil``, in circle order, with
        its tangent members as (member, touch bit): the member masks it
        shares exactly one bit with.  The members come from one
        ``pencil_members`` call; the masks decide tangency."""
        cm, position = self.circle_masks, self.circle_position
        members = [(L, cm[position(L)]) for L in self.pencil_members(pencil, verify=False)]
        vertex = 1 << self.point_index[pencil.p]
        for M, m in zip(self.circles, cm):
            if not m & vertex:
                yield M, [(L, s) for L, ml in members if (s := m & ml).bit_count() == 1]

    # -- axiom verification ------------------------------------------------

    def verify_axioms(self) -> Report:
        """Check the four defining axioms of the plane in one sweep, at
        representatives under a machine-checked symmetry or at every case.

        Every check reads the incidence masks, not the closed forms
        ``circle_through`` and ``intersection_size``.  Join uniqueness is
        split into existence plus uniqueness through every admissible triple
        (exactly one circle contains all three) and the pairwise bound
        |C1 ∩ C2| <= 2.  The touching axiom takes each pencil from the closed
        form ``pencil_members`` (``_touch_flag``).

        Certificate.  The six maps of ``certified_maps`` (``PlaneMaps``),
        each verified against this plane's own masks, no two circles sharing
        a mask, so each map's ``circle_images`` is a permutation of the
        circles.  Every stage's predicate is kept by a map that carries
        points, circles and generators to points, circles and generators, so
        a representative of each orbit stands for its orbit.

        The sweep (``_sweep``) runs over a list of circles, of point pairs
        (u, v) each with its third points, and of flags.  Certified, the
        lists hold representatives from ``reach`` over the maps, never from
        an assumed orbit count:

        - circles: each orbit's least circle;
        - pairs: u from the orbits of the points, v from the orbits of the
          maps fixing u on the points nonparallel to u; the third points are
          every point off the generators of u and v;
        - flags (u, K): the maps that fix u give representatives K among the
          circles through u.  ``pencil_members`` is read only there, so a
          closed-form fault at another flag is not seen (it is tested on
          its own at every base).

        The report then has ``mode: "orbit"``, the ``representative`` circles,
        pairs and flags, and ``cases_represented``, the case count of the
        exhaustive sweep; ``stages`` gives both counts per stage.

        Uncertified, every case is its own representative (``mode:
        "exhaustive"``), so a fault in the incidence itself keeps its full
        witness list: every circle, every pair with u on an earlier generator
        than v, its third points on the generators after v's, and every flag.
        """

        def sweep():
            try:
                maps = self.certified_maps
            except GeometryError as e:
                if e.code != "not_automorphism":
                    raise
                maps = None
            return self._sweep(maps)

        return run_check("laguerre-axioms", self.q, sweep)

    @cached_property
    def certified_maps(self) -> PlaneMaps:
        """The plane's certificate, the one place its six maps are built and
        verified: each passes ``PermutationMap.verify`` against this plane's
        own masks, and no two circles share a mask.  Else it raises
        ``not_automorphism``, naming the failing map by its ``PlaneMaps``
        field, with its witnesses, and caches nothing, so the next read runs
        it again."""
        if len(self.mask_positions) != len(self.circles):
            raise GeometryError("two circles share a point mask", code="not_automorphism")
        g = self.gf.primitive_root()
        maps = [*(circle_add_map(self, Q)
                  for Q in (Circle(1, 0, 0), Circle(0, 1, 0), Circle(0, 0, 1))),
                PermutationMap.from_aut(self, PencilAut(1, 1, 0)),
                PermutationMap.from_aut(self, PencilAut(g, 0, 0)), inversion_map(self)]
        return PlaneMaps(*(m.verified(f"the plane map {name}")
                           for name, m in zip(PlaneMaps._fields, maps)))

    def _touch_flag(self, pi: int, ki: int, strict: bool, findings: list,
                    mismatches: list) -> list[int]:
        """The touch test of the flag (point ``pi``, circle ``ki``) on the
        closed form ``pencil_members``: every member must meet the base
        circle in the vertex alone, and the members must cover each point
        off the vertex generator exactly once.  A member that is not a
        circle of the plane, or (when ``strict``, the join checks having
        passed, so the closed form is at fault) that fails the first test,
        goes to ``mismatches``; what the incidence fails goes to
        ``findings``.  Both are keyed (circle, vertex, member position), the
        flag order.  Returns the member positions if the flag passes."""
        q, cm = self.q, self.circle_masks
        p, K, mk = self.points[pi], self.circles[ki], cm[ki]
        vertex = 1 << pi
        members = self.pencil_members(Pencil(p, K), verify=False)

        def position(M):
            try:
                return self.circle_position(M)
            except GeometryError:
                return None

        mis = list(map(position, members))
        failed = False
        for pos, mi in enumerate(mis):
            if mi is None:
                failed = True
                mismatches.append(((ki, pi, pos), f"{members[pos]} does not touch "
                                   f"{K} at {p}: not a circle of the plane"))
            elif mi != ki and cm[mi] & mk != vertex:
                failed = True
                M = self.circles[mi]
                if strict:
                    mismatches.append(((ki, pi, pos), f"{M} does not touch {K} at {p}"))
                findings.append(((ki, pi, pos), {
                    "axiom": "touch", "pencil": [repr(p), list(K)], "member": list(M)}))
        if None in mis:
            return []
        covered = 0
        for mi in mis:
            covered |= cm[mi]
        seen = covered.bit_count()
        if seen != q * q + 1 or sum(cm[mi].bit_count() - 1 for mi in mis) != q * q:
            findings.append(((ki, pi, len(mis)), {
                "axiom": "touch", "pencil": [repr(p), list(K)], "covered": seen}))
            return []
        return [] if failed else mis

    def _sweep(self, maps: tuple[PermutationMap, ...] | None) -> tuple[int, list, dict]:
        """The case count, witnesses and details of the four stages at the
        representatives of the orbits of ``maps``, or at every case when
        ``maps`` is None.

        - Pair bound: each listed circle against every circle except itself
          and the listed circles before it.
        - Triples: OR-ing the masks of the circles through u and v into
          ``ones`` and ``twos`` marks the points on at least one and on at
          least two of them, so a third point off ``ones ^ twos`` lies on no
          circle or on two.  Witnesses are sorted by generator triple, then
          by points.
        - Touch: a flag is skipped when a pencil that passed at its vertex
          holds its circle.  Those members pass through the vertex, and their
          other points number q² and cover q², so any two meet in the vertex
          alone: the flag holds untested and is counted.  Findings are
          reported, and the least mismatch raised, in flag order (circle,
          then vertex, then member).
        - Generator meet at each listed circle (it meets each generator
          once), then nondegeneracy (y = 0 has at least three, but not all,
          points).
        """
        points, circles, cm, gm = self.points, self.circles, self.circle_masks, self.generator_masks
        npts, n, every = len(points), len(circles), (1 << len(points)) - 1
        gen = {g: i for i, g in enumerate(self.generators)}
        gi = [gen[self.generator_of(p)] for p in points]
        later = [0] * len(gm)  # the points of the generators after each
        for g in range(len(gm) - 1, 0, -1):
            later[g - 1] = later[g] | gm[g]
        point_moves = [m.perm.__getitem__ for m in maps or ()]
        circle_moves = [m.circle_images.__getitem__ for m in maps or ()]
        circle_reps = _representatives(range(n), circle_moves)
        through, pairs, flags = {}, [], []
        for u in _representatives(range(npts), point_moves):
            fixing = [i for i, move in enumerate(point_moves) if move(u) == u]
            through[u] = on_u = [k for k, m in enumerate(cm) if m >> u & 1]
            flags += [(u, k) for k in _representatives(on_u, [circle_moves[i] for i in fixing])]
            if maps is None:
                pairs += [(u, v, later[gi[v]]) for v in range(u + 1, npts)
                          if gi[u] < gi[v] and later[gi[v]]]
            else:
                off_u = [v for v in range(npts) if gi[v] != gi[u]]
                pairs += [(u, v, every & ~(gm[gi[u]] | gm[gi[v]]))
                          for v in _representatives(off_u, [point_moves[i] for i in fixing])]

        witnesses, done = [], 0
        for c in circle_reps:
            mc, done = cm[c], done | 1 << c
            witnesses += [{"axiom": "join",
                           "circles": sorted([list(circles[c]), list(circles[j])])}
                          for j, m in enumerate(cm)
                          if not done >> j & 1 and (mc & m).bit_count() > 2]

        triples, found = 0, []
        for u, v, rest in pairs:
            ones = twos = 0
            for k in through[u]:
                m = cm[k]
                if m >> v & 1:
                    twos |= ones & m
                    ones |= m
            triples += rest.bit_count()
            for w in bits(rest & ~(ones ^ twos)):
                t = tuple(sorted((u, v, w)))
                found.append((tuple(gi[i] for i in t), t))
        witnesses += [{"axiom": "join", "points": [repr(points[i]) for i in t]}
                      for _, t in sorted(found)]

        strict, findings, mismatches, passed = not witnesses, [], [], set()
        for u, k in flags:
            if (u, k) not in passed:
                passed.update((u, m) for m in self._touch_flag(u, k, strict, findings, mismatches))
        if mismatches:
            raise GeometryError(min(mismatches)[1], code="pencil_member_mismatch")
        witnesses += [w for _, w in sorted(findings, key=itemgetter(0))]

        witnesses += [{"axiom": "generator_meet", "circle": list(circles[c])}
                      for c in circle_reps if any((cm[c] & g).bit_count() != 1 for g in gm)]
        if not 3 <= cm[self.circle_position(Circle(0, 0, 0))].bit_count() < npts:
            witnesses.append({"axiom": "nondegeneracy"})

        r = len(circle_reps)
        cases = {"circle_pairs": r * n - r * (r + 1) // 2, "triples": triples,
                 "flags": len(flags), "generator_meet": r, "nondegeneracy": 1}
        if maps is None:
            return sum(cases.values()), witnesses, {
                "mode": "exhaustive", "stages": {s: {"cases": c} for s, c in cases.items()}}
        sizes = [g.bit_count() for g in gm]
        represented = {
            "circle_pairs": n * (n - 1) // 2,
            "triples": sum(a * b * c for a, b, c in itertools.combinations(sizes, 3)),
            "flags": sum(map(int.bit_count, cm)), "generator_meet": n, "nondegeneracy": 1}
        return sum(cases.values()), witnesses, {
            "mode": "orbit",
            "representative": {
                "circles": [list(circles[c]) for c in circle_reps],
                "pairs": [[repr(points[u]), repr(points[v])] for u, v, _ in pairs],
                "flags": [[repr(points[u]), list(circles[k])] for u, k in flags]},
            "cases_represented": sum(represented.values()),
            "stages": {s: {"cases": c, "cases_represented": represented[s]}
                       for s, c in cases.items()}}

    # -- export -------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "points": [p.to_json() for p in self.points],
            "generators": [g.to_json() for g in self.generators],
            "circles": [list(C) for C in self.circles],
        }


def canonical_pencil(plane: LaguerrePlane) -> Pencil:
    """The reference pencil: vertex ``(inf, 0)`` on the circle y = 0."""
    return plane.pencil(ideal(0), Circle(0, 0, 0))


# -- plane automorphisms ------------------------------------------------------


class PencilAut(NamedTuple):
    """The map (x, y) -> (k x + t, k^2 y + g) fixing every ideal point: the
    elements of the canonical pencil's group (``autgroup``), and the x-shift
    and scaling that the axiom sweep transports along."""

    k: int
    t: int
    g: int


def aut_index(q: int, f: PencilAut, i: int) -> int:
    """The closed form of ``f`` on the index of a point in canonical coordinates."""
    if i >= q * q:
        return i
    k, t, g = f
    x, y = divmod(i, q)
    return (k * x + t) % q * q + (k * k * y + g) % q


def aut_perm(q: int, f: PencilAut) -> list[int]:
    """``aut_index`` at every canonical index at once: the permutation of ``f``."""
    k, t, g = f
    rows = [(k * x + t) % q * q for x in range(q)]
    cols = [(k * k * y + g) % q for y in range(q)]
    return [r + c for r in rows for c in cols] + list(range(q * q, q * q + q))


def circle_image(plane: LaguerrePlane, image: Callable[[int], int], C: Circle) -> Circle:
    """The circle holding the images of ``C``'s points under ``image``:
    ``not_a_circle`` if ``C`` is none, ``not_automorphism`` if that is none."""
    at, ids = plane.mask_positions, plane.circle_ids[plane.circle_position(C)]
    i = at.get(reduce(or_, [1 << image(j) for j in ids]))
    if i is None:
        raise GeometryError(f"image of {C} is not a circle", code="not_automorphism")
    return plane.circles[i]


class PermutationMap:
    """An explicit permutation of point indices that must carry circles to
    circles: ``perm[i]`` is the index of the image of ``plane.points[i]``.

    This is the closed-form-free oracle: it knows nothing about parameters,
    only point images, and derives circle images by OR-ing the image bits
    of each circle's ids and looking the mask up in ``plane.mask_positions``.
    """

    def __init__(self, plane: LaguerrePlane, perm: list[int]):
        self.plane = plane
        self.perm = perm

    def apply_point(self, pt: Point) -> Point:
        return self.plane.points[self.perm[self.plane.point_index[pt]]]

    def apply_circle(self, C: Circle) -> Circle:
        return circle_image(self.plane, self.perm.__getitem__, C)

    @cached_property
    def circle_images(self) -> list[int | None]:
        """Per circle position, the position of the circle holding the images
        of its points, or None where no circle holds them."""
        at, img = self.plane.mask_positions, [1 << j for j in self.perm]
        return [at.get(reduce(or_, map(img.__getitem__, t))) for t in self.plane.circle_ids]

    def verify(self) -> tuple[bool, list]:
        """Bijectivity plus circles-to-circles and generators-to-generators."""
        plane = self.plane
        if sorted(self.perm) != list(range(len(plane.points))):
            return False, [{"problem": "not_bijective"}]
        witnesses = [{"problem": "circle_image", "circle": list(C)}
                     for C, i in zip(plane.circles, self.circle_images) if i is None]
        img, gens = [1 << j for j in self.perm], plane.generator_masks
        witnesses += [{"problem": "generator_image", "generator": g.to_json()}
                      for g, m in zip(plane.generators, gens)
                      if reduce(or_, map(img.__getitem__, bits(m))) not in gens]
        return not witnesses, witnesses

    def verified(self, name: str = "the permutation") -> "PermutationMap":
        """This map, once ``verify`` passes; else ``not_automorphism``, which
        calls the map ``name``."""
        ok, wit = self.verify()
        if not ok:
            raise GeometryError(f"{name} is not a plane automorphism",
                                code="not_automorphism", witnesses=wit)
        return self

    def compose(self, other: "PermutationMap") -> "PermutationMap":
        """self after other."""
        return PermutationMap(self.plane, [self.perm[j] for j in other.perm])

    def inverse(self) -> "PermutationMap":
        back = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            back[j] = i
        return PermutationMap(self.plane, back)

    @classmethod
    def from_aut(cls, plane: LaguerrePlane, f: PencilAut) -> "PermutationMap":
        return cls(plane, aut_perm(plane.q, f))


class PlaneMaps(NamedTuple):
    """The six verified maps of ``LaguerrePlane.certified_maps``, by name."""

    add_x2: PermutationMap     # (x, y) -> (x, y + x^2)
    add_x: PermutationMap      # (x, y) -> (x, y + x)
    add_1: PermutationMap      # (x, y) -> (x, y + 1), the unit translation (1, 0, 1)
    shift_x: PermutationMap    # (x, y) -> (x + 1, y), the unit translation (1, 1, 0)
    scale: PermutationMap      # (x, y) -> (g x, g^2 y), g the least primitive root
    inversion: PermutationMap  # (x, y) -> (1/x, y/x^2)


def circle_add_map(plane: LaguerrePlane, Q: Circle) -> PermutationMap:
    """(x, y) -> (x, y + Q(x)); shifts every circle by the coefficients of Q."""
    q = plane.q
    return PermutationMap(plane, [x * q + (y + plane.evaluate(Q, x)) % q
                                  for x in range(q) for y in range(q)]
                          + [q * q + (a + Q.a) % q for a in range(q)])


def inversion_map(plane: LaguerrePlane) -> PermutationMap:
    """(x, y) -> (1/x, y/x^2), swapping the ideal generator with x = 0."""
    gf, q = plane.gf, plane.q
    perm = list(range(q * q, q * q + q))  # (0, y) -> (inf, y)
    for x in range(1, q):
        xi = gf.inv(x)
        perm.extend(xi * q + (y * xi * xi) % q for y in range(q))
    perm.extend(range(q))  # (inf, a) -> (0, a)
    return PermutationMap(plane, perm)


def reach(start, moves) -> set:
    """Everything reachable from ``start`` by repeated ``moves``."""
    seen, todo = {start}, [start]
    while todo:
        here = todo.pop()
        for move in moves:
            there = move(here)
            if there not in seen:
                seen.add(there)
                todo.append(there)
    return seen


def _representatives(domain, moves) -> list:
    """The least element of each orbit of ``moves`` on ``domain``, ascending;
    the moves keep ``domain``."""
    left, reps = set(domain), []
    for x in sorted(left):
        if x in left:
            reps.append(x)
            left -= reach(x, moves)
    return reps
