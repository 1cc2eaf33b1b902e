"""The residual skewaffine plane: the group space of Δ, the pointwise
stabilizer of the vertex generator inside the pencil stabilizer.

Points are the plane points off the vertex generator.  The join of x and y
is ``{x}`` together with the orbit of ``y`` under the stabilizer of ``x``;
joins of nonparallel points fill the affine remnant of a circle, joins of
parallel points stay inside one generator and pick up only the square-class
half of it ("special" lines).  Parallelism is the group orbit relation on
lines.

Point indices.  Inside ``GroupSpace`` a point is its index in the sorted
list ``points``.  A group element acts only through ``point_perm``, its
whole permutation of plane indices (``DeltaGroup.perm``) restricted to these
points, and ``line_image`` carries a line along it.  The build reads Δ only
as its order and the permutations of its generators m, a primitive-root
scaling, and the two unit translations (the Schreier step, Sims 1970):
T_i, the translation carrying point 0 to point i, is a word in the units
(``_schreier``), Stab(0), ``stabilizer0``, the powers of
s = T_{m(0)}⁻¹ m, and Δ is the translations times Stab(0), so the
stabilizer of point i is T_i Stab(0) T_i⁻¹.  The closed-form join route
is the group's own oracle, ``DeltaGroup.join_oracle``, on positions in
these points, so this module does no field arithmetic.  Named points appear
only at the boundary: ``join``, ``Line.points`` and ``Line.base_points``,
witnesses and ``to_json``, which builds each point's dict once: every
line's ``base`` and ``points`` are those same dicts, so the export encodes
each point once (``cli``), and its payload is read-only.

Line identity.  The join x_i ⊔ x_j is {i} together with T_i applied to o,
the Stab(0)-orbit of T_i⁻¹(j), so T_i carries the line (0, o), point 0
with o, onto it.  A line is identified by the sorted tuple of its point
indices and that orbit.  Index order is point order, so lines sort as their
point sets do, and then by orbit, numbered in order of least point.  The
orbit matters for identity only at q = 3, where the two-point sets x⊔y and
y⊔x coincide while their orbits differ; keying on the bare set there would
merge lines from different parallel classes and break both the census and
the Euclidean axiom.  The orbit is the parallel class: g carries
the line (i, o) to the line (g(i), o), because T_{g(i)}⁻¹ g T_i fixes point
0, and the translations carry (0, o) to every (i, o).  So ``class_id`` is
the least index of a line with that orbit, and a line's kind is its orbit's.

Tables.  The whole incidence structure is point 0's orbits moved along the
translations, so every table is derived once per (i, o), and row i of each
is point 0's row moved along T_i: entry j reads the orbit o of T_i⁻¹(j).
``_joinline[i][j]`` is the index of the line (i, o); ``_joinclass[i][j]``
the position c of its class in ``class_ids`` (not o: the two orders
differ); ``_byclass[i][c]`` the points of that line other than i, one tuple
per (i, o), so the line through i and j is ``_byclass[i][_joinclass[i][j]]``;
and ``_witmask[i][c]`` the bits of those points.  The diagonal, point 0's
own orbit, reads -1 in the first two tables.

Every join is computed twice.  The orbit route above gives every pair's
line.  The group's closed form (``DeltaGroup.join_oracle``), the circle
through x and y with its vertex at x or the square-class offsets of a
parallel pair, runs once per (i, o), on i and the least point of T_i(o);
its point set must equal the orbit route's, and its kind the orbit's, or
the build raises ``join_mismatch``.  Any other y of the same orbit lies on
that line, and its closed-form line is the same.

Axiom budgets.  T, V, Pgm, Des and Pap quantify first over two points, and
every case is decided by the join-line and join-class tables, which the
group permutes.  Their default ``orbit`` budget therefore fixes the first
point to one representative and takes one second point per orbit of its
stabilizer (q + 2 orbits); this is McKay's isomorph rejection ("Isomorph-free
exhaustive generation", J. Algorithms 26, 1998).  The reduction is
machine-checked once per space, before its first orbit sweep, by one
certificate, ``_check_tables``: both tables must be equivariant under the
three generators of the group, and the generators must carry the
representative to every point (``autgroup.require_reach``, which with
``PermutationMap.verified`` states every reduction's group); the sweeps
also read ``_byclass`` and ``_witmask``, so these must agree with
``_joinclass`` row by row.  Otherwise the sweep raises
``not_equivariant``.  Like ``_check_dilatation`` below, it is a cached
property: read lazily, never in the build, and kept once it passes (a
failing one runs again at its next read).  ``exhaustive`` sweeps every
ordered pair and is the brute-force oracle for the reduction; ``sample:K``
draws K seeded cases of T, Des and Pap.  The other axioms have no sampled
form and are swept exhaustively under ``sample:K``; L1, L2, P1 and P2 are
quadratic and always exhaustive.

Row sweeps.  The orbit and exhaustive sweeps of T, Des and Pap decide a row
of cases at once: for T the (x', y') pairs of one (x, y, z), for Des and
Pap every case of one (u, x).  A row may only accept.  Every case it does
not accept goes to the axiom's case predicate (``_t_case_holds``,
``_des_case_holds``, ``_pap_case``) in the sweep's loop order, so the case
count, the witnesses and their order are those of a case-by-case sweep.
The rows rest on one dilatation at point 0, c, checked once per space
after the tables (``_check_dilatation``): c is the first power in
``stabilizer0`` whose cycles on the other points are exactly the lines
through point 0, the sets ``_byclass[0][k]`` for the classes k in
``_joinclass[0]``; it keeps ``_joinclass``; and ``_joinline[0]`` and
``_joinclass[0]`` partition the other points alike, one line per class
through point 0.  Stab(0) is GF(q)* acting by dilatation, a cyclic group,
so a generator passes.  The generators carry point 0 to any u, say by a;
the powers of a c a⁻¹ then fix u, turn each line through u as one cycle,
keep the classes and commute.
T: the cases of a row are the pairs of one class k, and some a cʲ carries
(0, y0), y0 = ``_byclass[0][k][0]``, to each of them, and a witness z' of
(0, y0) with it; so the one AND ``_witmask[0][c1] & _witmask[y0][c2]``, for
the classes c1, c2 of x⊔z and y⊔z, accepts the row, which has
n·|``_byclass[0][k]``| cases.  Des: x' on u⊔x is g(x) for one of the powers
g at u, and y' = g(y), z' = g(z) meet every clause of ``_des_case_holds``.
Pap: with powers m, h at u with m(x) = y and h(y) = z, set y' = h(x') and
z' = hm(x'); then z⊔z' = hm(x⊔x'), y⊔z' = m(x⊔y') as hm = mh, and
z⊔y' = h(y⊔x'), in the classes ``_pap_case`` asks for, and one line per
class keeps y' and z' off u⊔x.  So every Des and Pap case holds, and
their rows count their cases without a predicate call.  No normal
transitivity is used; q = 3 passes too.  T, Des and Pap rows run only on
a certified space: an orbit sweep of a space that fails either
certificate raises ``not_equivariant``, and an exhaustive one sends every
case to the predicate.  Sampled sweeps decide each draw with the
predicate.
"""

from __future__ import annotations

import random
from functools import cached_property
from operator import and_

from .plane import GeometryError, LaguerrePlane, Pencil, PencilAut, Point
from .autgroup import CIRCLE_LINE, SPECIAL, STRAIGHT, DeltaGroup, require_reach
from .report import Budget, Report, run_check

AXIOMS = ("L1", "L2", "P1", "P2", "T", "V", "Pgm", "Des", "Pap")

# axioms quantifying first over two points; these default to orbit sweeps
ORBIT_AXIOMS = ("T", "V", "Pgm", "Des", "Pap")

# reading notes that travel with an axiom's report
_NOTES = {
    "Pap": ("y and z range over the line of u and x, as the printed join "
            "equalities force (coincidences among x, y, z allowed); the "
            "two join bundles are taken distinct (x' off the line of u "
            "and x), the usual nondegeneracy of this configuration - "
            "with collapsed bundles the statement is false already for "
            "q = 5; configurations where a printed join is undefined "
            "(y = x' or z = x') are vacuous"),
}


class Line:
    """One line of the group space.

    ``ids`` are the sorted indices of its points in ``space_points``, the
    point list of its space.  ``bases`` is definitional: every x whose join
    with some other point of the line reproduces the line.  Straight lines
    have all their points there, proper lines exactly one.  ``class_id``,
    the least line index of its parallel class, tells it apart from a line
    with the same points (see "Line identity" above).
    """

    __slots__ = ("index", "ids", "kind", "bases", "space_points", "class_id")

    def __init__(self, index: int, ids: tuple[int, ...], kind: str, bases: tuple[int, ...],
                 space_points: list[Point], class_id: int):
        self.index, self.ids, self.kind, self.bases = index, ids, kind, bases
        self.space_points, self.class_id = space_points, class_id

    @property
    def points(self) -> tuple[Point, ...]:
        return tuple(self.space_points[i] for i in self.ids)

    @property
    def base_points(self) -> tuple[Point, ...]:
        return tuple(self.space_points[i] for i in self.bases)


class GroupSpace:
    """Points, lines, and parallel classes of the residual plane."""

    def __init__(self, plane: LaguerrePlane, pencil: Pencil, delta: DeltaGroup):
        self.plane = plane
        self.pencil = pencil
        self.delta = delta
        self.q = plane.q
        self.points: list[Point] = []
        self.lines: list[Line] = []

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, plane: LaguerrePlane, pencil: Pencil, delta: DeltaGroup,
              check_preconditions: bool = True) -> "GroupSpace":
        gs = cls(plane, pencil, delta)
        if check_preconditions:
            _, bad, _ = delta.check_a1a2()
            if bad:
                raise GeometryError("transitivity axioms fail for this group",
                                    code="a1a2_failed", witnesses=bad)
        gs._build()
        return gs

    def point_perm(self, f: PencilAut) -> list[int]:
        """The permutation of point indices by which ``f`` acts: the group's
        action on plane indices, restricted to the residual points."""
        return list(map(self._local.__getitem__,
                        map(self.delta.perm(f).__getitem__, self._plane_ids)))

    def line_image(self, perm: list[int], line: Line) -> Line:
        """The line ``perm`` carries ``line`` to (``not_equivariant`` if none)."""
        ids = tuple(sorted(map(perm.__getitem__, line.ids)))
        try:
            return self._line_by_key[(ids, line.class_id)]
        except KeyError:
            raise GeometryError(f"the permutation carries line {line.index} onto no line",
                                code="not_equivariant") from None

    def _build(self) -> None:
        self._gens = self.delta.generators()
        delta, plane = self.delta, self.plane
        self.points = delta.space_points()
        self.n = n = len(self.points)
        # plane index of each residual point, and back (-1 off the space)
        self._plane_ids = [plane.point_index[p] for p in self.points]
        self._local = [-1] * len(plane.points)
        for i, k in enumerate(self._plane_ids):
            self._local[k] = i

        self._gen_perms = [self.point_perm(g) for g in self._gens]
        translations, self.stabilizer0 = self._schreier()
        # the orbit of each point under the stabilizer of point 0, numbered
        # in order of least point; the first is point 0's own
        orbit_ids: dict[tuple[int, ...], int] = {}
        orbit_of = [orbit_ids.setdefault(tuple(sorted({p[k] for p in self.stabilizer0})),
                                         len(orbit_ids)) for k in range(n)]
        self._orbits0 = orbits = list(orbit_ids)

        # the key of the line (i, o), for every orbit o but point 0's own,
        # and its points other than i: T_i carries the line (0, o), point 0
        # and the orbit o, to it
        lines0 = [(0,) + orbit for orbit in orbits[1:]]
        keys: list[list[tuple]] = []
        minus_rows: list[list[tuple | None]] = []
        bases: dict[tuple, list[int]] = {}
        kinds: dict[int, str] = {}
        closed_form = delta.join_oracle()
        for i, trans in enumerate(translations):
            row, minus = [], [None]
            for o, line0 in enumerate(lines0, 1):
                ids = tuple(sorted(map(trans.__getitem__, line0)))
                at_i = ids.index(i)
                rest = ids[:at_i] + ids[at_i + 1:]
                kind, want = closed_form(i, rest[0])
                if want != ids or kinds.setdefault(o, kind) != kind:
                    raise GeometryError(
                        f"join mismatch between orbit and closed form "
                        f"at {self.points[i]}, {self.points[rest[0]]}",
                        code="join_mismatch")
                bases.setdefault((ids, o), []).append(i)
                row.append((ids, o))
                minus.append(rest)
            keys.append(row)
            minus_rows.append(minus)

        # a parallel class is a Stab(0)-orbit; its id is its least line index
        line_index: dict[tuple, int] = {}
        self.class_members: dict[int, list[int]] = {}
        class_of: dict[int, int] = {}
        for ix, key in enumerate(sorted(bases)):
            ids, o = key
            line_index[key] = ix
            cid = class_of.setdefault(o, ix)
            self.class_members.setdefault(cid, []).append(ix)
            self.lines.append(Line(ix, ids, kinds[o], tuple(bases[key]), self.points, cid))
        self.class_ids = list(self.class_members)
        self.ncls = len(self.class_ids)
        self._line_by_key = {(l.ids, l.class_id): l for l in self.lines}

        # each orbit's class position in class_ids (see "Tables" above)
        position = [-1] + [self.class_ids.index(class_of[o]) for o in range(1, len(orbits))]
        by_position = sorted(range(1, len(orbits)), key=position.__getitem__)
        bit = [1 << j for j in range(n)]
        self._joinline, self._joinclass, self._byclass, self._witmask = [], [], [], []
        for trans, row, minus in zip(translations, keys, minus_rows):
            # the orbit of T_i⁻¹(j) for each j, that is r[T_i(k)] = orbit of k
            r = [0] * n
            for k, j in enumerate(trans):
                r[j] = orbit_of[k]
            lids = [-1] + [line_index[key] for key in row]
            self._joinline.append(list(map(lids.__getitem__, r)))
            self._joinclass.append(list(map(position.__getitem__, r)))
            self._byclass.append([minus[o] for o in by_position])
            self._witmask.append([sum(map(bit.__getitem__, minus[o])) for o in by_position])

    def _schreier(self) -> tuple[list[list[int]], list[list[int]]]:
        """T_i for every point i, a word in the units found by a walk from
        point 0, and Stab(0), the powers of s = T_k m, k = T_{m(0)}⁻¹(0).
        ``translations_not_regular`` unless no unit leaves the space and
        each unit after each T_i is the T_j of its image j of point 0.  s
        fixes point 0, so ⟨s⟩ meets the translations only in 1, and the
        generators give all of Δ and Stab(0) if n·|⟨s⟩| = |Δ|, else
        ``generators_not_closed``.  At most |Δ|/n powers are listed."""
        (m, *units), n, order = self._gen_perms, self.n, len(self.delta.elements)
        trans: list[list[int] | None] = [list(range(n))] + [None] * (n - 1)
        walk, clash = [] if any(-1 in u for u in units) else [0], []
        for i in walk:
            for t in [list(map(u.__getitem__, trans[i])) for u in units]:
                if trans[t[0]] is None:
                    trans[t[0]] = t
                    walk.append(t[0])
                elif trans[t[0]] != t:
                    clash.append(t[0])
        if clash or len(walk) != n:
            p = self.points[(clash or [trans.index(None)])[0]]
            raise GeometryError("the unit translations do not act regularly",
                                code="translations_not_regular", witnesses=[{"point": repr(p)}])
        s = list(map(trans[trans[m[0]].index(0)].__getitem__, m))
        powers = [trans[0], s]
        while powers[-1] != trans[0] and len(powers) * n <= order:
            powers.append(list(map(s.__getitem__, powers[-1])))
        if powers.pop() != trans[0] or -1 in m or len(powers) * n != order:
            raise GeometryError(f"the generators do not give the {order} elements of "
                                "the group", code="generators_not_closed")
        return trans, powers

    # -- public queries -----------------------------------------------------

    def join(self, x: Point, y: Point) -> Line:
        if x == y:
            raise GeometryError("join needs two distinct points", code="join_degenerate")
        local, index = self._local, self.plane.point_index
        i = local[index[x]]  # not_a_point off the plane
        # x is resolved fully before y is looked up
        j = local[index[y]] if i >= 0 else -1
        if i < 0 or j < 0:
            raise GeometryError("point lies on the vertex generator",
                                code="point_on_base_generator")
        return self.lines[self._joinline[i][j]]

    def census(self) -> dict:
        counts = {CIRCLE_LINE: 0, STRAIGHT: 0, SPECIAL: 0}
        for line in self.lines:
            counts[line.kind] += 1
        return {
            "points": self.n,
            "lines": len(self.lines),
            "by_kind": counts,
            "classes": self.ncls,
        }

    def to_json(self) -> dict:
        points = [p.to_json() for p in self.points]
        return {
            "q": self.q,
            "points": points,
            "lines": [{"base": points[line.bases[0]], "kind": line.kind,
                       "class": line.class_id, "points": [points[i] for i in line.ids]}
                      for line in self.lines],
        }

    # -- axiom checking -----------------------------------------------------

    def check_axiom(self, axiom: str, budget: Budget | None = None) -> Report:
        """Sweep one axiom; the default budget is ``orbit``."""
        if axiom not in AXIOMS:
            raise GeometryError(f"unknown axiom {axiom!r}", code="bad_axiom")
        if budget is None:
            budget = Budget("orbit")
        checker = getattr(self, f"_ax_{axiom}")
        return run_check(axiom, self.q, lambda: checker(budget), _NOTES.get(axiom))

    def certify(self) -> dict[PencilAut, list[int]]:
        """Raise ``not_equivariant`` unless the join tables pass the
        certificate every orbit sweep rests on (``_check_tables``): then the
        group's generators, the unit translations among them, carry every
        join to the join of the image pair.  It returns the line permutation
        it checked for each generator."""
        return self._check_tables

    def _witness(self, names: tuple[str, ...], *idx: int) -> dict:
        return {name: repr(self.points[i]) for name, i in zip(names, idx)}

    def _sweep(self, budget: Budget, names: tuple[str, ...], pair,
               draw=None, holds=None) -> tuple[int, list, dict]:
        """Sweep an axiom whose cases start with two quantified points and
        return (cases, witnesses, details).

        ``pair(first, second, fail)`` evaluates every case with those two
        points, passes each failing case to ``fail`` (keywords become extra
        witness fields), and returns how many cases it evaluated.  ``orbit``
        evaluates one first point and one second point per orbit of its
        stabilizer, and reports how many cases of the full sweep these stand
        for.  ``sample:K`` needs ``draw(randrange)``, which returns one case
        or ``None`` for a rejected draw, and the case predicate ``holds``; it
        stops at the first failing case.  Any other budget, and ``sample:K``
        for an axiom without ``draw``, runs all ordered pairs of distinct
        points, first point outermost.
        """
        witnesses = []

        def fail(*case, **extra):
            witnesses.append(dict(self._witness(names, *case), **extra))

        n = self.n
        if budget.mode == "sample" and draw is not None:
            randrange = random.Random(budget.seed).randrange
            cases = 0
            while cases < budget.samples:
                case = draw(randrange)
                if case is None:
                    continue
                cases += 1
                if not holds(*case):
                    fail(*case)
                    break
            return cases, witnesses, {"mode": "sample", "samples": budget.samples,
                                      "seed": budget.seed}
        if budget.mode != "orbit":
            cases = sum(pair(x, y, fail) for x in range(n) for y in range(n) if x != y)
            return cases, witnesses, {"mode": "exhaustive"}
        first, orbits = self._orbit_reps()
        second, cases, represented = [], 0, 0
        for y, size in orbits:
            got = pair(first, y, fail)
            cases += got
            represented += n * size * got
            second.append({"point": repr(self.points[y]), "orbit_size": size,
                           "cases": got})
        return cases, witnesses, {"mode": "orbit", "first": repr(self.points[first]),
                                  "second": second, "cases_represented": represented}

    def _orbit_reps(self) -> tuple[int, list[tuple[int, int]]]:
        """Point 0 and, per orbit of its stabilizer on the other points, the
        least point index with the orbit size."""
        self.certify()
        # _orbits0[0] is the orbit of point 0 itself
        return 0, [(orbit[0], len(orbit)) for orbit in self._orbits0[1:]]

    def _row_certificate(self, budget: Budget) -> bool:
        """Whether the rows of a T, Des or Pap sweep may rest on the
        dilatation (``_check_dilatation``): a sampled sweep reads no rows,
        and an exhaustive sweep of a space that fails the certificate sends
        every case to the case predicate.  An orbit sweep re-raises."""
        if budget.mode == "sample":
            return False
        try:
            self._check_dilatation  # raises unless the space is certified
        except GeometryError:
            if budget.mode == "orbit":
                raise
            return False
        return True

    @cached_property
    def _check_tables(self) -> dict[PencilAut, list[int]]:
        """The certificate of every orbit sweep, and the first half of the
        one every T, Des and Pap row rests on (``_check_dilatation`` runs
        it first).  Every axiom case is decided by the join-line and
        join-class tables.  Each generator must carry the join line of
        (x, y) to the join line of the image pair and keep its class, and
        the generators must carry point 0 to every point; then point 0
        alone can stand for all first points, and carries the dilatation
        at point 0 to every point.  The sweeps also read the classes, and
        the line through i and j as ``_byclass[i][_joinclass[i][j]]``, and
        their witnesses through ``_witmask``.  So ``_byclass[i][c]``, in
        index order, and the bits of ``_witmask[i][c]`` must be exactly the
        points j != i with ``_joinclass[i][j] == c``, and the diagonal must
        read -1."""
        n, ncls, jl, jc = self.n, self.ncls, self._joinline, self._joinclass
        perms = self._gen_perms
        # each generator's line permutation; the diagonal's -1 stays -1
        line_perms = [[self.line_image(perm, line).index for line in self.lines] + [-1]
                      for perm in perms]
        for i, (jl_i, jc_i, byc_i, wm_i) in enumerate(zip(jl, jc, self._byclass,
                                                          self._witmask)):
            for g, perm, line_perm in zip(self._gens, perms, line_perms):
                jl_gi, jc_gi = jl[perm[i]], jc[perm[i]]
                if (list(map(jl_gi.__getitem__, perm)) != list(map(line_perm.__getitem__, jl_i))
                        or list(map(jc_gi.__getitem__, perm)) != jc_i):
                    j = next(j for j in range(n) if jl_gi[perm[j]] != line_perm[jl_i[j]]
                             or jc_gi[perm[j]] != jc_i[j])
                    raise GeometryError(
                        "join tables are not equivariant under the group",
                        code="not_equivariant",
                        witnesses=[{"generator": list(g), "x": repr(self.points[i]),
                                    "y": repr(self.points[j])}])
            members: list[list[int]] = [[] for _ in range(ncls)]
            for j, c in enumerate(jc_i):
                if j != i and 0 <= c < ncls:
                    members[c].append(j)
            if (jc_i[i] != -1 or sum(map(len, members)) != n - 1
                    or list(map(tuple, byc_i)) != list(map(tuple, members))
                    or wm_i != [sum(map((1).__lshift__, m)) for m in members]):
                raise GeometryError(
                    "the by-class and witness-mask tables disagree with "
                    "the join classes", code="not_equivariant",
                    witnesses=[{"x": repr(self.points[i])}])
        require_reach(0, [perm.__getitem__ for perm in perms], range(n),
                      "not_equivariant", repr(self.points[0]), "points")
        return dict(zip(self._gens, line_perms))

    @cached_property
    def _check_dilatation(self) -> list[int]:
        """The second half of the certificate of every T, Des and Pap row,
        after ``_check_tables``; returns c, a dilatation at point 0 (see
        "Row sweeps").  (a) c is the first power in ``stabilizer0`` that
        fixes point 0 and whose cycles on the other points are exactly the
        lines through it, the sets ``_byclass[0][k]`` of the classes k in
        ``_joinclass[0]``; (b) c keeps ``_joinclass``; (c) ``_joinline[0]``
        and ``_joinclass[0]`` partition the other points alike, so one line
        of each class passes through point 0."""
        self.certify()
        n, jl, jc = self.n, self._joinline, self._joinclass
        lines = {self._byclass[0][c] for c in jc[0][1:]}

        def turns(perm):
            # from its first point, |line| steps visit the line and return
            for line in lines:
                k, seen = line[0], []
                for _ in line:
                    seen.append(k)
                    k = perm[k]
                if k != line[0] or tuple(sorted(seen)) != line:
                    return False
            return perm[0] == 0

        c = next(filter(turns, self.stabilizer0), None)
        if c is None:
            raise GeometryError("no element of the stabilizer of point 0 turns "
                                "each line through it", code="not_equivariant")
        for i in range(n):
            if list(map(jc[c[i]].__getitem__, c)) != jc[i]:
                raise GeometryError("the dilatation does not keep the join classes",
                                    code="not_equivariant",
                                    witnesses=[{"x": repr(self.points[i])}])
        if not (len(set(zip(jl[0][1:], jc[0][1:])))
                == len(set(jl[0][1:])) == len(set(jc[0][1:]))):
            raise GeometryError("the lines and the classes through point 0 differ",
                                code="not_equivariant")
        return c

    def _ax_L1(self, budget: Budget):
        def pair(i, j, fail):
            ids = self.lines[self._joinline[i][j]].ids
            if i not in ids or j not in ids:
                fail(i, j)
            return 1

        return self._sweep(Budget(), ("x", "y"), pair)

    def _ax_L2(self, budget: Budget):
        jl, jc, byc = self._joinline, self._joinclass, self._byclass

        def pair(i, j, fail):
            jl_i = jl[i]
            lid, others = jl_i[j], byc[i][jc[i][j]]
            for k in others:
                if jl_i[k] != lid:
                    fail(i, j, k)
            return len(others)

        return self._sweep(Budget(), ("x", "y", "z"), pair)

    def _ax_P1(self, budget: Budget):
        # lines from x in one parallel class, per (x, class): must be exactly
        # 1.  Each case (line, x) reads the count of x in the line's class,
        # so only the points whose count is not 1 are listed, per class
        off = [[] for _ in range(self.ncls)]
        for i, (row, by_class) in enumerate(zip(self._joinline, self._byclass)):
            for c in range(self.ncls):
                hit = len({row[j] for j in by_class[c]})
                if hit != 1:
                    off[c].append((i, hit))
        class_of = {cid: c for c, cid in enumerate(self.class_ids)}
        witnesses = [dict(self._witness(("x",), i), line=line.index, count=hit)
                     for line in self.lines for i, hit in off[class_of[line.class_id]]]
        return len(self.lines) * self.n, witnesses, {"mode": "exhaustive"}

    def _ax_P2(self, budget: Budget):
        # direction-reversal must be class-functional; that single pass is
        # logically the full quantifier over pairs of parallel ordered pairs
        rev: dict[int, int] = {}
        jc = self._joinclass

        def pair(i, j, fail):
            fwd, bwd = jc[i][j], jc[j][i]
            if rev.setdefault(fwd, bwd) != bwd:
                fail(i, j, fwd_class=fwd, bwd_class=bwd, expected_bwd=rev[fwd])
            return 1

        return self._sweep(Budget(), ("x", "y"), pair)

    def _ax_Pgm(self, budget: Budget):
        jc, wm = self._joinclass, self._witmask
        n = self.n

        def pair(x, y, fail):
            cases = 0
            for z in range(n):
                if z == x or z == y:
                    continue
                cases += 1
                if not (wm[z][jc[x][y]] & wm[y][jc[x][z]]):
                    fail(x, y, z)
            return cases

        return self._sweep(budget, ("x", "y", "z"), pair)

    def _ax_V(self, budget: Budget):
        jc, wm, byc = self._joinclass, self._witmask, self._byclass
        n = self.n

        def pair(x, y, fail):
            cases = 0
            partners = byc[x][jc[x][y]]
            for z in range(n):
                if z == x or z == y:
                    continue
                c1 = jc[x][z]
                c2 = jc[y][z]
                for y2 in partners:
                    cases += 1
                    if not (wm[x][c1] & wm[y2][c2]):
                        fail(x, y, z, y2)
            return cases

        return self._sweep(budget, ("x", "y", "z", "y'"), pair)

    def _t_case_holds(self, x, y, z, x2, y2) -> bool:
        jc, wm = self._joinclass, self._witmask
        return bool(wm[x2][jc[x][z]] & wm[y2][jc[y][z]])

    def _ax_T(self, budget: Budget):
        jc, wm, byc = self._joinclass, self._witmask, self._byclass
        n = self.n
        holds = self._t_case_holds
        certified = self._row_certificate(budget)

        def pair(x, y, fail):
            cases = 0
            cxy = jc[x][y]
            # the row of z is every (x', y') of class cxy against the classes
            # of x⊔z and y⊔z; certified, the class's pair (0, y0) decides it
            accepted = [0] * n
            if certified:
                y0, count = byc[0][cxy][0], n * len(byc[0][cxy])
                accepted = list(map(and_, map(wm[0].__getitem__, jc[x]),
                                    map(wm[y0].__getitem__, jc[y])))
            for z in range(n):
                if z == x or z == y:
                    continue
                if accepted[z]:
                    cases += count
                    continue
                for x2 in range(n):
                    for y2 in byc[x2][cxy]:
                        cases += 1
                        if not holds(x, y, z, x2, y2):
                            fail(x, y, z, x2, y2)
            return cases

        def draw(randrange):
            x = randrange(n); y = randrange(n); z = randrange(n)
            if x == y or x == z or y == z:
                return None
            x2 = randrange(n)
            partners = byc[x2][jc[x][y]]
            return x, y, z, x2, partners[randrange(len(partners))]

        return self._sweep(budget, ("x", "y", "z", "x'", "y'"), pair, draw, holds)

    def _des_case_holds(self, u, x, y, z, x2) -> bool:
        jc, byc_u = self._joinclass, self._byclass[u]
        cxy, cxz, cyz = jc[x][y], jc[x][z], jc[y][z]
        on_uz = byc_u[jc[u][z]]
        for y2 in byc_u[jc[u][y]]:
            if y2 == x2 or jc[x2][y2] != cxy:
                continue
            for z2 in on_uz:
                if z2 == x2 or z2 == y2:
                    continue
                if jc[x2][z2] == cxz and jc[y2][z2] == cyz:
                    return True
        return False

    def _ax_Des(self, budget: Budget):
        n, jc, byc = self.n, self._joinclass, self._byclass
        holds = self._des_case_holds
        # a certified dilatation makes every case hold (see "Row sweeps")
        certified = self._row_certificate(budget)

        def pair(u, x, fail):
            line = byc[u][jc[u][x]]
            if certified:
                return (n - 2) * (n - 3) * len(line)
            cases = 0
            for y in range(n):
                if y in (u, x):
                    continue
                for z in range(n):
                    if z in (u, x, y):
                        continue
                    for x2 in line:
                        cases += 1
                        if not holds(u, x, y, z, x2):
                            fail(u, x, y, z, x2)
            return cases

        def draw(randrange):
            u = randrange(n); x = randrange(n); y = randrange(n); z = randrange(n)
            if u == x or u == y or u == z or x == y or x == z or y == z:
                return None
            opts = byc[u][jc[u][x]]
            return u, x, y, z, opts[randrange(len(opts))]

        return self._sweep(budget, ("u", "x", "y", "z", "x'"), pair, draw, holds)

    def _pap_case(self, u, x, y, z, x2) -> bool:
        if y == x2 or z == x2:
            return True  # vacuous: a printed join is undefined
        jc = self._joinclass
        want1 = jc[x][x2]
        line = self._byclass[u][jc[u][x2]]
        for y2 in line:
            if y2 == x or y2 == z:
                continue
            c_xy2 = jc[x][y2]
            c_yx2 = jc[y][x2]
            for z2 in line:
                if z2 == z or z2 == y:
                    continue
                if jc[z][z2] == want1 and jc[y][z2] == c_xy2 and jc[z][y2] == c_yx2:
                    return True
        return False

    def _ax_Pap(self, budget: Budget):
        n, jc, jl, byc = self.n, self._joinclass, self._joinline, self._byclass
        holds = self._pap_case
        # a certified dilatation makes every case hold (see "Row sweeps")
        certified = self._row_certificate(budget)

        def pair(u, x, fail):
            online = byc[u][jc[u][x]]
            lid = jl[u][x]
            offline = [x2 for x2 in range(n)
                       if x2 != u and x2 != x and jl[u][x2] != lid]
            if certified:
                return len(online) ** 2 * len(offline)
            cases = 0
            for y in online:
                for z in online:
                    for x2 in offline:
                        cases += 1
                        if not holds(u, x, y, z, x2):
                            fail(u, x, y, z, x2)
            return cases

        def draw(randrange):
            u = randrange(n); x = randrange(n)
            if u == x:
                return None
            online = byc[u][jc[u][x]]
            y = online[randrange(len(online))]
            z = online[randrange(len(online))]
            x2 = randrange(n)
            if x2 == u or x2 == x or jl[u][x2] == jl[u][x]:
                return None
            return u, x, y, z, x2

        return self._sweep(budget, ("u", "x", "y", "z", "x'"), pair, draw, holds)

