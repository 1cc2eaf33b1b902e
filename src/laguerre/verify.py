"""One machine check per statement in the checking catalog.

``_CATALOG`` lists the checks in report order, each with its symmetry,
evaluation and summary; ``CHECK_IDS`` and ``CHECK_SUMMARIES`` are read off
it, and ``thm_check`` is the one driver.  A check sweeps the statement's
quantifiers over the canonical pencil of the plane of the requested size
and returns (cases, witnesses, details), as the residual-plane axiom
checkers do: the evaluation alone, or through the symmetry it declares.
Checks verify conclusions, not intermediate constructions.

Nine checks are exhaustive (P2.2, P2.3, P2.5, P2.6, P3.1, C3.1, L3.1, P3.2,
P4.3).  The other twenty evaluate a representative and move it along a
symmetry checked first, each generator orbit by ``autgroup.require_reach``
(Kaski and Östergård's isomorph rejection).  Each layer has one
certificate, read by every reduction above it: the plane's
``certified_maps`` and the residual space's ``certificate``.  T4.2
evaluates the circle (0, 0, 0), along the plane's y-shifts; C2.1 the
invariant circles at point 0, along the translations, each re-checked
where it lands; T3.2 normality on the generators, which the residual build
checks give Δ, and the factorization at point 0, the units checked to
close to T; C3.3 Pgm at the ``orbit`` budget, under the space's
certificate; C3.4 one line per class, the classes checked to partition the
lines and each reached by ``reach`` along the units' line permutations in
the space's certificate.  The other fifteen rest on ``_Ctx.transport``:
the unit translations (1, 1, 0) and (1, 0, 1), the plane's maps x ↦ x + 1
and y ↦ y + 1, fix the vertex generator pointwise, permute the pencil
members and are the group's own action, and the space's certificate
holds.  They then carry point 0 to every residual point (the residual
build checks it), the member y = 0 to every member (each residual point
lies on one) and the circle (a, 0, 0) to every circle (a, b, c), a != 0,
keeping every plane, pencil and join fact.  So P2.1, L4.2 and P4.6 run the
ordered residual pairs at x = point 0; P2.4 the circles based at point 0;
T3.1 point 0's stabilizer; T4.1 and C4.2 the loci at x = point 0; P4.2 the
circle (a, 0, 0) paired with every circle of equal a; and P4.1, C4.1, L4.1,
P4.4, P4.5, P4.7 and R4.1 the tangent family of the member y = 0; all but
L4.2 and P4.2 declare that symmetry, ``_at_point0`` or ``_on_member0``.  A
reduced check reports ``mode: "orbit"``, its ``representative`` (C3.3 and
C3.4 name none) and ``cases_represented``, the case count of the full sweep
(``_orbit``).  The tests keep each retired loop as an oracle; a reduced
check, by design, cannot see a fault off its representative.
``L3.1`` is deliberately report-only: it publishes the census of
fixed-point-free group elements and asserts only the restricted claims that
hold in this model (see its reading notes).

The group acts on circle lists (``DeltaGroup.circle_images``), never one
circle at a time: C2.1's scan at point 0 and each re-check where a circle
lands, the slopes of L3.1, T3.2 and P3.1 (a slice of ``plane.circles``),
and the member tests of P3.1, T3.1 and T3.2 compare lists.  On points it
acts through whole permutations (``DeltaGroup.perm``: C3.1's q symmetries,
P3.2's filter, T3.1's symmetry) and orbits, never one image at a time.
P4.3 runs on height masks (bit y for height y), its witnesses the set bits
of an XOR.

Plane facts that several checks read are derived once per q, in tables of
``_Ctx``: ``bases``, circle -> tangency point (P2.1, P2.4, P4.2, T4.1), the
one bit its mask shares with one member mask, from the sweep A3 runs
(``plane.tangent_hits``);
``line_circles``, line -> circle (P2.1, P2.3, P2.5, P2.6); ``member_of``,
point -> pencil member (L4.2 and ``vertex_members``); ``vertex_members``,
point -> the members of the vertex pencil there (T3.1, T3.2);
``stabilizers``, point -> its stabilizer (C2.1, T3.1, T3.2, and
``fixed_points``); ``family0``, the tangent family of the member y = 0, the
only one built (T4.2 and the family checks).  The first check to read a
table builds it, and its ``elapsed_ms`` includes the build.
"""

from __future__ import annotations

import itertools
from functools import cached_property, partial, reduce
from operator import itemgetter, or_

from .plane import (Circle, GeometryError, IDEAL, LaguerrePlane, PencilAut, Point,
                    affine, bits, canonical_pencil, ideal, reach)
from .autgroup import IDENTITY, DeltaGroup, aut_compose, aut_inverse, require_reach
from .skewaffine import GroupSpace, SPECIAL, STRAIGHT
from .report import PASS, REPORT_ONLY, Report, run_check

# reading notes that travel with a check's report
_NOTES = {
    "C2.1": ("scoped to invariant circles through the fixed point, the only "
             "configuration the surrounding statements use; at q = 3 the "
             "two-element stabilizers also leave circles missing the fixed "
             "point invariant, and transitivity is impossible there"),
    "L3.1": ("report-only: the unrestricted claim 'fixed-point-free implies "
             "translation' fails in this model for the reflected elements "
             "(k = -1, g != 0), which move no point of the residual set yet "
             "reverse line directions on every derived plane at the vertex "
             "generator; asserted instead: every fixed-point-free element "
             "has k = 1 or k = -1, and every fixed-point-free k = 1 element "
             "is a translation"),
    "P4.7": ("the second point ranges over affine points off the member: the "
             "two-circle construction joins it to the ideal point, which "
             "needs the pair nonparallel"),
    "L4.2": ("reading: an ideal point on the join circle based at x through "
             "y forces its unique opposite on the join circle based at y "
             "through x; verified by sweeping all ordered nonparallel affine "
             "pairs and checking the two leading coefficients are negatives, "
             "plus nonemptiness of every direction class"),
}

# checks that pass as report-only: they publish a census and assert only
# restricted claims (see their reading notes)
_REPORT_ONLY_IDS = frozenset({"L3.1"})


class TangentFamily:
    """The circles tangent to one circle L, as incidence bitmasks.

    Circles are grouped by their touch point on L, in point order; circle i
    is bit i.  Every table comes from incidence alone.  Each plane point p,
    on L or off it, ideal or affine, gets the mask of the circles through
    it.  Two circles meet exactly when they share a point, so ``inter[i]``
    (bit j set when circles i and j meet, i itself included) is the OR of
    those masks over the points of circle i.  ``samept[i]`` (same touch
    point) is the mask of circle i's touch point, since a tangent circle
    meets L only there.  ``point_mask[p]`` is the mask of a point p off L.

    Two points a, b off a pencil member are tangency-equivalent when every
    tangent circle through a meets every one through b.  ``meets[a]``, the
    AND of ``inter[i]`` over the circles i through a, and ``links[a]``, the
    OR of ``inter[i] & ~samept[i]`` over the same circles, turn that test
    and the single-witness test into one mask operation each.  Both are
    derived from ``inter`` and ``samept`` on first use.
    """

    def __init__(self, plane: LaguerrePlane, L: Circle):
        lpts = plane.circle_points(L)
        self.off_points = [p for p in plane.points if p not in lpts]
        circles: list[Circle] = []
        touch: list[Point] = []
        for t in lpts:
            for M in plane.pencil_members(plane.pencil(t, L), verify=False):
                if M != L:
                    circles.append(M)
                    touch.append(t)
        self.circles = circles
        self.touch = touch
        self._pts = cpts = [plane.circle_points(C) for C in circles]
        through = dict.fromkeys(plane.points, 0)
        for i, pts in enumerate(cpts):
            for p in pts:
                through[p] |= 1 << i
        inter = []
        for pts in cpts:
            m = 0
            for p in pts:
                m |= through[p]
            inter.append(m)
        self.inter = inter
        self.samept = [through[t] for t in touch]
        self.point_mask = {p: through[p] for p in self.off_points}

    @cached_property
    def meets(self) -> dict[Point, int]:
        out = dict.fromkeys(self.off_points, (1 << len(self.circles)) - 1)
        for m, pts in zip(self.inter, self._pts):
            for p in pts:
                if p in out:
                    out[p] &= m
        return out

    @cached_property
    def links(self) -> dict[Point, int]:
        out = dict.fromkeys(self.off_points, 0)
        for m, same, pts in zip(self.inter, self.samept, self._pts):
            for p in pts:
                if p in out:
                    out[p] |= m & ~same
        return out

    def equivalent(self, a: Point, b: Point) -> bool:
        """Every tangent circle through a meets every one through b."""
        return not (self.point_mask[b] & ~self.meets[a])

    def witness_pair(self, a: Point, b: Point) -> bool:
        """Some tangent pair at distinct points through a, b that meets."""
        return bool(self.point_mask[b] & self.links[a])

    def common_tangents(self, a: Point, b: Point) -> int:
        return (self.point_mask[a] & self.point_mask[b]).bit_count()


class _Ctx:
    """Per-q lazily built plane, group and residual plane, plus the tables
    and the transport certificate that several checks read."""

    def __init__(self, q: int):
        self.q = q
        self.plane = LaguerrePlane(q)
        self.pencil = canonical_pencil(self.plane)
        self.members = self.plane.pencil_members(self.pencil)

    @cached_property
    def delta(self) -> DeltaGroup:
        return DeltaGroup.build(self.plane, self.pencil)

    @cached_property
    def space(self) -> GroupSpace:
        return GroupSpace.build(self.plane, self.pencil, self.delta,
                                check_preconditions=False)

    @cached_property
    def bases(self) -> dict[Circle, Point]:
        """The tangency point of each circle off the vertex, in circle order:
        the one bit its mask shares with its one tangent member
        (``plane.tangent_hits``); ``a3_violated`` unless there is one."""
        plane, out = self.plane, {}
        for M, hits in plane.tangent_hits(self.pencil):
            if len(hits) != 1:
                raise GeometryError(f"{len(hits)} tangent members for {M}", code="a3_violated",
                                    witnesses=[{"circle": list(M), "count": len(hits)}])
            out[M] = plane.points[hits[0][1].bit_length() - 1]
        return out

    @cached_property
    def line_circles(self) -> list[Circle | None]:
        """The circle through each line's first three points; None for a special line."""
        return [None if line.kind == SPECIAL else self.plane.circle_through(*line.points[:3])
                for line in self.space.lines]

    @cached_property
    def member_of(self) -> dict[Point, Circle]:
        """The pencil member through each point off the vertex that lies on
        one: ``members`` are verified to meet only at the vertex."""
        return {p: M for M in self.members for p in self.plane.circle_points(M)
                if p != self.pencil.p}

    @cached_property
    def vertex_members(self) -> dict[Point, list[Circle]]:
        """The members of the vertex pencil at each residual point, through
        its ``member_of`` member."""
        plane = self.plane
        return {r: plane.pencil_members(plane.pencil(r, self.member_of[r]), verify=False)
                for r in self.space.points}

    @cached_property
    def stabilizers(self) -> dict[Point, list[PencilAut]]:
        """Each point's stabilizer, in residual and (k, t, g) order: Stab(0),
        one scan of the group, conjugated by T_r = (1, x, y), which is
        ``delta.translations`` at r = A(x, y).  Δ is transitive, so |Δ|/q²
        elements fixing r are Stab(r); else ``stabilizer_mismatch``."""
        gf, delta, points = self.plane.gf, self.delta, self.space.points
        stab0, out = delta.stabilizer(points[0]), {}
        for r, T in zip(points, delta.translations):
            Ti = aut_inverse(gf, T)
            stab = sorted({aut_compose(gf, aut_compose(gf, T, s), Ti) for s in stab0})
            if len(stab) * self.q ** 2 != len(delta.elements) or delta.orbit(stab, r) != {r}:
                raise GeometryError(f"Stab(0) conjugated to {r!r} is not its stabilizer",
                                    code="stabilizer_mismatch")
            out[r] = stab
        return out

    @cached_property
    def unit_translations(self) -> list[PencilAut]:
        """The unit generators, checked to close to all q² translations."""
        units = self.delta.generators()[1:]
        require_reach(IDENTITY, [partial(aut_compose, self.plane.gf, u) for u in units],
                      self.delta.translations, "translations_not_closed", "the identity",
                      "translations")
        return units

    @cached_property
    def fixed_points(self) -> dict[PencilAut, list[Point]]:
        """The residual points each group element fixes, in residual order,
        read off ``stabilizers``; shared by P3.1, L3.1 and T3.2."""
        fixed = {f: [] for f in self.delta.elements}
        for r, stab in self.stabilizers.items():
            for f in stab:
                fixed[f].append(r)
        return fixed

    @cached_property
    def family0(self) -> TangentFamily:
        """The tangent family of the member y = 0, the pencil's base."""
        return TangentFamily(self.plane, self.pencil.base)

    @cached_property
    def transport(self) -> Point:
        """Point 0, once the unit translations, x ↦ x + 1 and y ↦ y + 1 in
        ``plane.certified_maps``, are certified to carry the cases at point 0
        or on the member y = 0 to every case: each must fix the vertex
        generator pointwise and permute ``members`` (``pencil_not_fixed``) and
        be the group's unit translation, which the space build walks to every
        point (``not_equivariant``), and ``space.certificate`` must hold."""
        generator, members = self.delta.base_generator_points(), set(self.members)
        units, maps = self.unit_translations, self.plane.certified_maps
        for u, m in zip(units, (maps.shift_x, maps.add_1)):
            if (any(m.apply_point(p) != p for p in generator)
                    or set(map(m.apply_circle, self.members)) != members):
                raise GeometryError(f"the unit translation {list(u)} does not fix the "
                                    "pencil", code="pencil_not_fixed")
            if m.perm != self.delta.perm(u):
                raise GeometryError(f"the unit translation {list(u)} is not the "
                                    "group's", code="not_equivariant")
        self.space.certificate  # raises unless the tables are certified
        return self.space.points[0]

    @cached_property
    def equiv_report(self) -> Report:
        """``_equiv_report`` on ``family0``, the member y = 0's family."""
        return _equiv_report(self.plane, self.pencil.base, self.family0)[1]

    @cached_property
    def loci(self) -> list[tuple[int, Circle | None, Report]]:
        """``_locus_report`` per ideal direction, at point 0."""
        return _loci_at(self, self.transport)


_CTX_CACHE: dict[int, _Ctx] = {}


def _context(q: int) -> _Ctx:
    ctx = _CTX_CACHE.get(q)
    if ctx is None:
        ctx = _CTX_CACHE[q] = _Ctx(q)
    return ctx


def _equiv_report(plane: LaguerrePlane, member: Circle,
                  fam: TangentFamily) -> tuple[dict[Point, str], Report]:
    """Brute-force the equivalence off ``member`` on its tangent family
    ``fam`` and verify its shape: equivalence laws, the single-witness
    characterization, the two-circle count against ideal points, and the
    square-class partition rule.  Returns the square class of each point
    off ``member`` with the report."""

    def rule_class(p: Point) -> str:
        """Square class of the height offset (ideal points use their label)."""
        return plane.gf.square_class(p.x if p.kind == IDEAL else p.y - member.c)

    pts = fam.off_points
    classes = {p: rule_class(p) for p in pts}

    def sweep():
        cases, witnesses = 0, []
        for a in pts:
            cases += 1
            if not fam.equivalent(a, a):
                witnesses.append({"law": "reflexive", "a": repr(a)})
        # transitivity via block consistency, one case per pair, reported
        # after the pair laws
        transitive = []
        for a, b in itertools.combinations(pts, 2):
            cases += 2
            e1, e2 = fam.equivalent(a, b), fam.equivalent(b, a)
            if e1 != e2:
                witnesses.append({"law": "symmetric", "a": repr(a), "b": repr(b)})
            if e1 != fam.witness_pair(a, b):
                witnesses.append({"law": "single_witness", "a": repr(a), "b": repr(b)})
            if (classes[a] == classes[b]) != e1:
                witnesses.append({"law": "square_class_rule", "a": repr(a), "b": repr(b)})
                transitive.append({"law": "transitive", "a": repr(a), "b": repr(b)})
            if a.kind == IDEAL and b.kind != IDEAL:
                cnt = fam.common_tangents(a, b)
                if (cnt == 2) != e1:
                    witnesses.append({"law": "two_circle_count", "a": repr(a),
                                      "b": repr(b), "count": cnt})
        witnesses += transitive
        nblocks = len(set(classes.values()))
        if nblocks != 2:
            witnesses.append({"law": "block_count", "blocks": nblocks})
        return cases, witnesses, {"blocks": nblocks}

    return classes, run_check("equiv-rel", plane.q, sweep)


def _locus_report(plane: LaguerrePlane, q_ideal: Point, x: Point,
                  base_of) -> tuple[Circle | None, Report]:
    """Sweep the joining pencil of ``q_ideal`` and ``x``, with ``base_of``,
    circle -> tangency point: the bases must fill the affine part of exactly
    one circle, and that circle must contain the opposite ideal point
    ``ideal(-beta)`` of the vertex I(0).  The circle is fitted through the
    first three pairwise nonparallel bases; without such a triple it is
    None, and the bases fail as ``not_a_circle``."""
    beta = q_ideal.x
    bases = list(map(base_of, plane.joining_pencil(q_ideal, x)))
    fit = next((t for t in itertools.combinations(bases, 3)
                if not any(itertools.starmap(plane.parallel,
                                             itertools.combinations(t, 2)))), None)
    locus = None if fit is None else plane.circle_through(*fit)
    qprime = ideal((-beta) % plane.q)

    def sweep():
        witnesses = []
        expect = set(plane.circle_points(locus)) - {ideal(locus.a)} if locus else set()
        if set(bases) != expect or len(bases) != len(set(bases)):
            witnesses.append({"problem": "not_a_circle",
                              "bases": sorted(map(repr, bases))})
        if locus is not None and not plane.incident(qprime, locus):
            witnesses.append({"problem": "missing_opposite_ideal_point",
                              "locus": list(locus), "q_prime": repr(qprime)})
        return len(bases) + 1, witnesses, {"locus": locus and list(locus),
                                           "q_prime": qprime.to_json()}

    return locus, run_check("tangency-locus", plane.q, sweep)


# ---------------------------------------------------------------------------
# individual checkers; each returns (cases, witnesses, details)
# ---------------------------------------------------------------------------


def _orbit(cases_represented: int, representative=None) -> dict:
    """The orbit part of a reduced check's details: ``mode``, the
    ``representative`` where the check names one, and ``cases_represented``,
    the case count of the full sweep."""
    details = {"mode": "orbit"}
    if representative is not None:
        details["representative"] = representative
    details["cases_represented"] = cases_represented
    return details


def _at_point0(ctx: _Ctx, at):
    """``at(ctx, x)``, the (cases, witnesses) with first point x, at point 0
    only: the transport carries them to every residual point."""
    x0 = ctx.transport
    cases, bad = at(ctx, x0)
    return cases, bad, _orbit(len(ctx.space.points) * cases, repr(x0))


def _on_member0(ctx: _Ctx, on):
    """``on(ctx, L, fam)``, the (cases, witnesses) of the member L with
    tangent family fam, on the member y = 0 only: the transport carries
    them to every member."""
    ctx.transport  # raises unless the transport is certified
    L = ctx.pencil.base
    cases, bad = on(ctx, L, ctx.family0)
    return cases, bad, _orbit(len(ctx.members) * cases, list(L))


def _p2_1_at(ctx: _Ctx, x: Point):
    plane, space = ctx.plane, ctx.space
    members = set(ctx.members)
    cases, bad = 0, []
    for y in space.points:
        if x == y:
            continue
        cases += 1
        line = space.join(x, y)
        if plane.parallel(x, y):
            gens = {p.x for p in line.points}
            if line.kind != SPECIAL or len(gens) != 1 or gens != {x.x}:
                bad.append({"x": repr(x), "y": repr(y), "problem": "not_in_generator"})
            continue
        M = ctx.line_circles[line.index]
        if M is None or set(line.points) != set(plane.circle_points(M)) - {ideal(M.a)}:
            bad.append({"x": repr(x), "y": repr(y), "problem": "not_a_remnant"})
            continue
        if M in members:
            continue
        base = ctx.bases.get(M)  # None: M passes through the vertex
        if base is None:
            bad.append({"x": repr(x), "y": repr(y), "problem": "circle_through_vertex"})
        elif base != x:
            bad.append({"x": repr(x), "y": repr(y), "problem": "base_mismatch",
                        "base": repr(base)})
    return cases, bad


def _check_p2_2(ctx: _Ctx):
    space = ctx.space
    cases, bad = 0, []
    for M in ctx.members:
        pts = [p for p in ctx.plane.circle_points(M) if p.kind != IDEAL]
        line = space.join(pts[0], pts[1])
        bases = line.base_points
        cases += len(line.points)
        if line.kind != STRAIGHT or bases != line.points:
            bad.append({"member": list(M), "bases": sorted(map(repr, bases))})
    return cases, bad, {}


def _check_p2_3(ctx: _Ctx):
    cases, bad = 0, []
    for cid, ids in ctx.space.class_members.items():
        circles = [C for C in map(ctx.line_circles.__getitem__, ids) if C is not None]
        ideals = {C.a for C in circles}
        cases += len(circles) * (len(circles) - 1) // 2
        if len(ideals) > 1:
            bad.append({"class": cid, "ideal_points": sorted(ideals)})
    return cases, bad, {}


def _p2_4_at(ctx: _Ctx, r: Point):
    """P2.4's cases on the circles based at r."""
    plane, space = ctx.plane, ctx.space
    cases, bad = 0, []
    for M, base in ctx.bases.items():
        if base != r:
            continue
        remnant = set(plane.circle_points(M)) - {ideal(M.a)}
        for y in sorted(remnant):
            if y == base:
                continue
            cases += 1
            if set(space.join(base, y).points) != remnant:
                bad.append({"circle": list(M), "y": repr(y)})
    return cases, bad


def _check_p2_5(ctx: _Ctx):
    space = ctx.space
    members = set(ctx.members)
    cases, bad = 0, []
    for line, C in zip(space.lines, ctx.line_circles):
        if C is None:
            continue
        cases += 1
        straight = line.base_points == line.points
        if straight != (C in members):
            bad.append({"line": line.index, "straight": straight})
    return cases, bad, {}


def _check_p2_6(ctx: _Ctx):
    space = ctx.space
    cases, bad = 0, []
    lines_by_a: dict[int, list] = {}
    for line, C in zip(space.lines, ctx.line_circles):
        if C is not None and C.a != 0:  # a = 0: the circle passes through the vertex
            lines_by_a.setdefault(C.a, []).append(line)
    for a, lines in sorted(lines_by_a.items()):
        for L1, L2 in itertools.combinations(lines, 2):
            cases += 1
            if L1.class_id != L2.class_id:
                bad.append({"a": a, "lines": [L1.index, L2.index]})
    return cases, bad, {}


def _check_c2_1(ctx: _Ctx):
    """T_r carries Stab(0)'s invariant circles onto Stab(r) = T_r Stab(0) T_r⁻¹'s.
    Only that scan is reduced: every point is evaluated, its moved circles
    re-checked where they land, so the check declares no symmetry."""
    plane, images, space = ctx.plane, ctx.delta.circle_images, ctx.space
    invariant0 = plane.circles
    for f in ctx.stabilizers[space.points[0]]:
        invariant0 = [C for C, D in zip(invariant0, images(f, invariant0)) if C == D]
    cases, bad = 0, []
    off_vertex_invariant = 0
    for (r, stab), T in zip(ctx.stabilizers.items(), ctx.delta.translations):
        moved = sorted(images(T, invariant0))  # circle order
        if any(images(f, moved) != moved for f in stab):
            C = min(C for f in stab for C, D in zip(moved, images(f, moved)) if C != D)
            raise GeometryError(f"{list(C)} is not invariant at {r!r}", code="not_equivariant")
        for C in moved:
            if not plane.incident(r, C):
                off_vertex_invariant += 1
                continue
            cases += 1
            missed = _remnant_missed(ctx, stab, r, C)
            if missed:
                bad.append({"r": repr(r), "circle": list(C),
                            "missed": sorted(map(repr, missed))})
    return cases, bad, {"invariant_missing_fixed_point": off_vertex_invariant}


def _remnant_missed(ctx: _Ctx, stab: list[PencilAut], r: Point, C: Circle) -> set[Point]:
    """The points of C, other than r and the one on the vertex generator,
    that ``stab``, the stabilizer of r, does not carry the least of them to."""
    targets = set(ctx.plane.circle_points(C)) - {ctx.plane.parallel_point(ctx.pencil.p, C), r}
    return targets - ctx.delta.orbit(stab, min(targets))


def _t3_1_at(ctx: _Ctx, r: Point):
    """T3.1's cases at r.  Stab(r) is T_r Stab(0) T_r⁻¹ (``stabilizers``)
    and the symmetry at r is T_r sym(0) T_r⁻¹, so the transport carries
    point 0's cases to r's."""
    plane, delta = ctx.plane, ctx.delta
    gf = plane.gf
    K = ctx.pencil.base
    stab, vertex_members = ctx.stabilizers[r], ctx.vertex_members[r]
    cases, bad = 0, []
    for f in stab:
        cases += len(vertex_members)
        bad += [{"r": repr(r), "element": list(f), "member": list(M)}
                for M, N in zip(vertex_members, delta.circle_images(f, vertex_members)) if N != M]
    sym = PencilAut(gf.q - 1, (2 * r.x) % gf.q, 0)
    cases += 1
    index, fixed = plane.point_index, {i for i, j in enumerate(delta.perm(sym)) if i == j}
    ok = (sym in stab
          and aut_compose(gf, sym, sym) == IDENTITY
          and {index[p] for p in plane.generator_points(plane.generator_of(r))} <= fixed
          and delta.circle_images(sym, [K]) == [K]
          and not {index[p] for p in plane.circle_points(K)} <= fixed)
    if not ok:
        bad.append({"r": repr(r), "problem": "symmetry_missing"})
    for M in vertex_members:
        cases += 1
        if _remnant_missed(ctx, stab, r, M):
            bad.append({"r": repr(r), "member": list(M), "problem": "not_transitive"})
    return cases, bad


def _is_translation(ctx: _Ctx, f: PencilAut) -> bool:
    """Behavioral test: identity or fixed-point free off the vertex
    generator, and preserving every line direction of the derived plane at
    the vertex (slopes of the a = 0 circles)."""
    return (f == IDENTITY or not ctx.fixed_points[f]) and _keeps_slopes(ctx, f)


def _keeps_slopes(ctx: _Ctx, f: PencilAut, alpha: int = 0, all_heights: bool = False) -> bool:
    """``f`` keeps the slope b of every circle (alpha, b, 0), or with
    ``all_heights`` of every (alpha, b, c): a slice of ``plane.circles``,
    which runs through (a, b, c) in ascending order."""
    q = ctx.q
    circles = ctx.plane.circles[alpha * q * q:(alpha + 1) * q * q:1 if all_heights else q]
    slope = itemgetter(1)
    return list(map(slope, ctx.delta.circle_images(f, circles))) == list(map(slope, circles))


def _transitive_along(ctx: _Ctx, fixing, expected, problem: str, name: str, rows):
    """The subgroup ``fixing`` is ``expected`` (else ``problem``), and
    carries the first point of each (key, points) of ``rows`` to all of
    them (else ``not_transitive_along_{name}``): one case each."""
    bad = [] if set(fixing) == expected else [{"problem": problem,
                                               "got": sorted(map(list, fixing))}]
    bad += [{"problem": f"not_transitive_along_{name}", name: key} for key, pts in rows
            if set(pts) != ctx.delta.orbit(fixing, pts[0])]
    return 1 + len(rows), bad, {}


def _check_p3_1(ctx: _Ctx):
    plane, delta = ctx.plane, ctx.delta
    fixing = [f for f in delta.elements
              if _is_translation(ctx, f) and delta.circle_images(f, ctx.members) == ctx.members]
    rows = [(list(M), [p for p in plane.circle_points(M) if p != ctx.pencil.p])
            for M in ctx.members]
    return _transitive_along(ctx, fixing, {PencilAut(1, t, 0) for t in range(plane.q)},
                             "member_fixing_translations", "member", rows)


def _check_c3_1(ctx: _Ctx):
    """The symmetry based at r, (q - 1, 2 r.x, 0), depends on r.x alone:
    its q permutations are built once, and the ordered pair (x, y) passes
    when one based on the member carries x's plane index to y's."""
    plane, q = ctx.plane, ctx.q
    swaps = [ctx.delta.perm(PencilAut(q - 1, 2 * rx % q, 0)) for rx in range(q)]
    cases, bad = 0, []
    for R in ctx.members:
        pts = [p for p in plane.circle_points(R) if p.kind != IDEAL]
        ids = list(map(plane.point_index.__getitem__, pts))
        reached = {i: {swaps[r.x][i] for r in pts} for i in ids}
        for (x, i), (y, j) in itertools.permutations(zip(pts, ids), 2):
            cases += 1
            if j not in reached[i]:
                bad.append({"member": list(R), "x": repr(x), "y": repr(y)})
    return cases, bad, {}


def _check_l3_1(ctx: _Ctx):
    plane, delta = ctx.plane, ctx.delta
    q = plane.q
    cases, bad = 0, []
    translations, glides = [], []
    for f in delta.elements:
        cases += 1
        if ctx.fixed_points[f]:
            continue
        if f.k == 1:
            translations.append(f)
        elif f.k == q - 1:
            glides.append(f)
        else:
            bad.append({"problem": "fixpoint_free_with_unexpected_ratio",
                        "element": list(f)})
    # restricted claim: the k=1 ones act as translations on the derived
    # plane at the vertex (both line directions preserved classwise)
    for f in translations:
        cases += 1
        if not _keeps_slopes(ctx, f, all_heights=True):
            bad.append({"problem": "translation_not_direction_preserving",
                        "element": list(f)})
    # the reflected ones are not translations of any derived plane at a
    # vertex-generator point: some line direction always flips
    glide_ok = True
    for f in glides:
        for alpha in range(q):
            cases += 1
            if _keeps_slopes(ctx, f, alpha):
                glide_ok = False
                bad.append({"problem": "glide_preserves_directions",
                            "element": list(f), "alpha": alpha})
    details = {"translation_count": len(translations), "glide_count": len(glides),
               "glides_never_translations": glide_ok}
    return cases, bad, details


def _check_p3_2(ctx: _Ctx):
    plane, delta = ctx.plane, ctx.delta
    gens = [plane.generator_points(g) for g in plane.generators]
    gen_ids = [set(map(plane.point_index.__getitem__, gp)) for gp in gens]
    fixing = [f for f, perm in zip(delta.elements, map(delta.perm, delta.elements))
              if all(set(map(perm.__getitem__, ids)) == ids for ids in gen_ids)]
    rows = [(repr(aff[0]), aff) for aff in ([p for p in gp if p.kind != IDEAL] for gp in gens)
            if aff]
    return _transitive_along(ctx, fixing, {PencilAut(1, 0, g) for g in range(plane.q)},
                             "generator_fixing_subgroup", "generator", rows)


def _check_t3_2(ctx: _Ctx):
    """The normalizer of T is a group, and the generators give Δ (the
    residual build, ``ctx.space``, read first, checks it), so they suffice.
    T is a group and |T| |Stab(r)| = |Δ|, so the factorization at point 0
    gives it at r: T·Stab(r) = T·T_r·Stab(0)·T_r⁻¹ = T·Stab(0)·T_r⁻¹ = Δ."""
    delta, gf, q = ctx.delta, ctx.plane.gf, ctx.q
    cases, bad = 0, []
    translations = delta.translations
    orbit = delta.orbit(translations, affine(0, 0))
    cases += 1
    if orbit != set(ctx.space.points):
        bad.append({"problem": "translations_not_transitive"})
    tset = set(translations)
    for g in delta.generators():
        gi = aut_inverse(gf, g)
        for tau in translations:
            cases += 1
            if aut_compose(gf, aut_compose(gf, g, tau), gi) not in tset:
                bad.append({"problem": "not_normal", "element": list(g),
                            "translation": list(tau)})
    ctx.unit_translations  # raises unless T is closed
    p0 = ctx.space.points[0]
    cases += 2
    if not delta.semidirect_factorization(ctx.stabilizers[p0]):
        bad.append({"problem": "factorization_not_bijective", "r": repr(p0)})
    # fixed-point elements are strains: they fix the vertex pencil at each
    # of their fixed points
    for f in delta.elements:
        fixed = ctx.fixed_points[f]
        if not fixed or len(fixed) == len(ctx.space.points):
            continue
        for r in fixed:
            members = ctx.vertex_members[r]
            cases += len(members)
            bad += [{"problem": "fixed_point_element_not_strain", "element": list(f), "r": repr(r)}
                    for M, N in zip(members, delta.circle_images(f, members)) if N != M]
    # fixed-point-free k=1 elements fix a line pencil through the vertex
    for f in translations:
        if f == IDENTITY:
            continue
        cases += 1
        if f.t == 0:
            ok = _keeps_slopes(ctx, f, all_heights=True)
        else:
            line = [Circle(0, gf.div(f.g, f.t), c) for c in range(q)]
            ok = delta.circle_images(f, line) == line
        if not ok:
            bad.append({"problem": "translation_without_direction", "element": list(f)})
    return cases, bad, {}


def _check_c3_3(ctx: _Ctx):
    """The translation pairs commute, all of them; Pgm is handed to the
    space's orbit sweep, which reduces under its own certificate, so the
    check declares no symmetry of its own."""
    gf, translations = ctx.plane.gf, ctx.delta.translations
    cases = len(translations) * (len(translations) - 1) // 2
    bad = [{"problem": "translations_not_commutative", "pair": [list(t1), list(t2)]}
           for t1, t2 in itertools.combinations(translations, 2)
           if aut_compose(gf, t1, t2) != aut_compose(gf, t2, t1)]
    rep = ctx.space.check_axiom("Pgm")
    bad.extend(rep.witnesses)
    return cases + rep.cases_checked, bad, _orbit(cases + rep.details["cases_represented"])


def _check_c3_4(ctx: _Ctx):
    """One line per class stands for all: a class's lines share their T-orbit.
    The representatives are lines, moved along the line permutations of the
    space's ``certificate``, not a point or a member, so neither declared
    symmetry fits."""
    space = ctx.space
    units = ctx.unit_translations  # raises unless they close to T, before the certificate
    moves = [space.certificate[u].__getitem__ for u in units]
    cases, bad = 0, []
    if sorted(itertools.chain(*space.class_members.values())) != list(range(len(space.lines))):
        bad.append({"problem": "classes_not_a_partition"})
    for ids in space.class_members.values():
        cases += space.n  # the translations, one per point
        reached = reach(ids[0], moves)
        if reached != set(ids):
            bad.append({"line": ids[0], "orbit_size": len(reached),
                        "class_size": len(ids)})
    return cases, bad, _orbit(space.n * len(space.lines))


def _p4_1_on(ctx: _Ctx, L: Circle, fam: TangentFamily):
    cases, bad = 0, []
    for (M, tm), (N, tn) in itertools.combinations(zip(fam.circles, fam.touch), 2):
        if tm == tn:
            continue
        cases += 1
        if M.a == N.a and M.b == N.b:
            bad.append({"member": list(L), "circles": [list(M), list(N)]})
    return cases, bad


def _c4_1_on(ctx: _Ctx, L: Circle, fam: TangentFamily):
    plane = ctx.plane
    cases, bad = 0, []
    by_a: dict[int, list[Circle]] = {}
    for M in fam.circles:
        if M.a != 0:
            by_a.setdefault(M.a, []).append(M)
    for a, group in sorted(by_a.items()):
        for M, N in itertools.combinations(group, 2):
            cases += 1
            common = [p for p in plane.intersection(M, N) if p.kind != IDEAL]
            if not common:
                bad.append({"member": list(L), "circles": [list(M), list(N)]})
    return cases, bad


def _p4_2_pairs(ctx: _Ctx, M: Circle, others: list[Circle]):
    """P4.2's cases pairing M with each circle of ``others`` but M, all of
    M's a, so the ideal point M's remnant leaves out is on both."""
    plane, bases = ctx.plane, ctx.bases
    rm, bm = set(plane.circle_points(M)) - {ideal(M.a)}, bases[M]
    cases, bad = 0, []
    for N in others:
        if N == M:
            continue
        cases += 1
        disjoint = rm.isdisjoint(plane.circle_points(N))
        bn = bases[N]
        base_par = bm != bn and plane.parallel(bm, bn)
        if disjoint != base_par:
            bad.append({"circles": [list(M), list(N)], "disjoint": disjoint})
    return cases, bad


def _check_p4_2(ctx: _Ctx):
    """The translations keep a and carry (a, 0, 0) to every circle of equal
    a != 0, so it is paired with each of them; every unordered pair is a
    translate of two of these ordered ones.  It has one representative per
    a, and its full sweep counts unordered pairs, half of n times its cases,
    so it reduces here and not through ``_at_point0``."""
    ctx.transport  # raises unless the transport is certified
    by_a: dict[int, list[Circle]] = {}
    for M in ctx.bases:
        by_a.setdefault(M.a, []).append(M)
    cases, bad, reps = 0, [], []
    for a, circles in sorted(by_a.items()):
        reps.append(Circle(a, 0, 0))
        got, wit = _p4_2_pairs(ctx, reps[-1], circles)
        cases += got
        bad.extend(wit)
    return cases, bad, _orbit(len(ctx.space.points) * cases // 2, list(map(list, reps)))


def _check_p4_3(ctx: _Ctx):
    """On height masks, bit y for height y: each line's, its bases' and the
    members' heights.  Every line has a base, so two lines are base-aligned
    exactly when their base masks are the same one member bit: each class's
    lines are grouped by that mask, and each line meets the later lines of
    its group, in class order, the aligned pairs of ``combinations``."""
    space, cases, bad = ctx.space, 0, []
    ybit = [1 << p.y for p in space.points]
    yvals = [reduce(or_, map(ybit.__getitem__, line.ids), 0) for line in space.lines]
    base_y = [reduce(or_, map(ybit.__getitem__, line.bases), 0) for line in space.lines]
    members = reduce(or_, [1 << M.c for M in ctx.members])
    per_pair = members.bit_count()
    for ids in space.class_members.values():
        groups: dict[int, list[int]] = {}
        for i in ids:
            if base_y[i] & members and base_y[i].bit_count() == 1:
                groups.setdefault(base_y[i], []).append(i)
        later = {i: group[n + 1:] for group in groups.values() for n, i in enumerate(group)}
        for i in filter(later.__contains__, ids):
            cases += per_pair * len(later[i])
            yi = yvals[i]
            bad += [{"lines": [i, j], "straight_height": e}
                    for j in later[i] for e in bits((yi ^ yvals[j]) & members)]
    return cases, bad, {}


def _l4_1_on(ctx: _Ctx, L: Circle, fam: TangentFamily):
    cases, bad = 0, []
    inter, samept = fam.inter, fam.samept
    for qi in range(len(fam.circles)):
        linked = inter[qi] & ~samept[qi]
        others = bits(linked)
        for pi in others:
            cases += len(others)
            miss = linked & ~inter[pi] & ~samept[pi]
            if miss:
                ri = (miss & -miss).bit_length() - 1
                bad.append({"member": list(L), "P": list(fam.circles[pi]),
                            "Q": list(fam.circles[qi]), "R": list(fam.circles[ri])})
    return cases, bad


def _equiv_laws(rep: Report, laws: tuple[str, ...]):
    """An equivalence report's cases and its witnesses of the named laws."""
    return rep.cases_checked, [w for w in rep.witnesses if w["law"] in laws]


def _laws(ctx: _Ctx, L: Circle, fam: TangentFamily, laws: tuple[str, ...]):
    """P4.4, P4.5, P4.7 and R4.1 on the member y = 0, ``equiv_report``'s laws."""
    return _equiv_laws(ctx.equiv_report, laws)


def _p4_6_at(ctx: _Ctx, x: Point, fam: TangentFamily):
    """P4.6's cases with first point x; ``fam`` is the tangent family of
    x's member."""
    plane, space = ctx.plane, ctx.space
    cases, bad = 0, []
    for y in space.points:
        if y == x or not plane.parallel(x, y):
            continue
        line_pts = set(space.join(x, y).points)
        for w in range(plane.q):
            z = affine(x.x, w)
            if z == x:
                continue
            cases += 1
            if (z in line_pts) != fam.equivalent(z, y):
                bad.append({"x": repr(x), "y": repr(y), "z": repr(z)})
    return cases, bad


def _l4_2_at(ctx: _Ctx, x: Point):
    """L4.2's pair cases with first point x, and the set of ideal
    directions of their joins."""
    plane = ctx.plane
    q = plane.q
    cases, bad = 0, []
    seen_dirs: set[int] = set()

    def join_circle(x: Point, y: Point) -> Circle:
        # the circle carrying the line based at x through y
        Lx = ctx.member_of[x]
        return Lx if plane.incident(y, Lx) else plane.touching_circle(x, Lx, y)

    for y in ctx.space.points:
        if y == x or plane.parallel(x, y):
            continue
        cases += 1
        fwd = join_circle(x, y)
        bwd = join_circle(y, x)
        if (fwd.a + bwd.a) % q != 0:
            bad.append({"x": repr(x), "y": repr(y),
                        "fwd": list(fwd), "bwd": list(bwd)})
        seen_dirs.add(fwd.a)
    return cases, bad, seen_dirs


def _direction_classes(q: int, seen_dirs: set[int]):
    """L4.2's nonemptiness cases: one per direction class."""
    return q - 1, [{"problem": "direction_class_empty", "beta": beta}
                   for beta in range(1, q) if beta not in seen_dirs]


def _check_l4_2(ctx: _Ctx):
    """The translations keep every ideal point, so the joins at point 0
    show every direction that the joins at any point show.  The q - 1
    direction cases count once, not once per point, so the check reduces
    here and not through ``_at_point0``."""
    x0 = ctx.transport
    cases, bad, seen_dirs = _l4_2_at(ctx, x0)
    dcases, dbad = _direction_classes(ctx.q, seen_dirs)
    return cases + dcases, bad + dbad, _orbit(
        len(ctx.space.points) * cases + dcases, repr(x0))


def _loci_at(ctx: _Ctx, x: Point) -> list[tuple[int, Circle | None, Report]]:
    """``_locus_report`` at x, per ideal direction, on ``bases``."""
    return [(beta, *_locus_report(ctx.plane, ideal(beta), x, ctx.bases.__getitem__))
            for beta in range(1, ctx.q)]


def _t4_1_at(ctx: _Ctx, x: Point, loci):
    """T4.1's cases on the loci at x.  Δ fixes every ideal point, so the
    transport carries the loci at point 0 to those at every point."""
    return (sum(rep.cases_checked for *_, rep in loci),
            [dict(w, beta=beta, x=repr(x)) for beta, _, rep in loci for w in rep.witnesses])


def _c4_2_at(ctx: _Ctx, x: Point, loci):
    plane = ctx.plane
    return len(loci), [{"beta": beta, "x": repr(x), "locus": locus and list(locus)}
                       for beta, locus, _ in loci
                       if locus is None or not plane.incident(ideal(-beta % plane.q), locus)]


def _check_t4_2(ctx: _Ctx):
    """T4.2 at (0, 0, 0) for all q³ circles: its predicates are incidence
    properties, and the y-shifts by x², x and 1 in ``certified_maps`` carry
    (0, 0, 0) to every circle along their ``circle_images``.  (0, 0, 0) is
    the member y = 0, so its family is the context's.  The transport's
    translations keep a circle's a, so ``_on_member0`` reaches only the
    members, and the check reduces along the y-shifts instead.  This route
    cannot see a fault in another circle's ``TangentFamily``; the
    all-circles loop in the tests is its oracle."""
    plane, L = ctx.plane, ctx.pencil.base
    maps = plane.certified_maps
    require_reach(plane.circle_position(L),
                  [m.circle_images.__getitem__ for m in (maps.add_x2, maps.add_x, maps.add_1)],
                  range(len(plane.circles)), "not_transitive", str(list(L)), "circles")
    fam = ctx.family0
    pts = fam.off_points
    cases, bad = 0, []
    for ai, a in enumerate(pts):
        for b in pts[ai + 1:]:
            if plane.parallel(a, b):
                continue
            cases += 1
            two = fam.common_tangents(a, b) == 2
            allmeet = fam.equivalent(a, b)
            one = fam.witness_pair(a, b)
            if not (two == allmeet == one):
                bad.append({"circle": list(L), "x": repr(a), "y": repr(b),
                            "exactly_two": two, "all_meet": allmeet,
                            "one_pair": one})
    return cases, bad, _orbit(len(plane.circles) * cases, list(L))


# The catalog in report order: each check's symmetry (None, or the one
# ``thm_check`` runs the evaluation through), evaluation and summary; the
# only source of the ids, their order, their summaries and dispatch.  A
# row's lambda reads its table when the check runs, so the first reader pays.
_CATALOG = {
    "P2.1": (_at_point0, _p2_1_at, "joins of nonparallel points are circle remnants based at the first point; parallel joins stay inside one generator"),
    "P2.2": (None, _check_p2_2, "lines carried by pencil members are straight"),
    "P2.3": (None, _check_p2_3, "parallel circle remnants share their ideal point"),
    "P2.4": (_at_point0, _p2_4_at, "a circle avoiding the vertex is the line based at its tangency point, whichever second point is used"),
    "P2.5": (None, _check_p2_5, "straight circle remnants come only from pencil members"),
    "P2.6": (None, _check_p2_6, "circle remnants with equal ideal points are parallel"),
    "C2.1": (None, _check_c2_1, "stabilizer-invariant circles through the fixed point carry a transitive stabilizer action off the fixed and vertex-parallel points"),
    "T3.1": (_at_point0, _t3_1_at, "point stabilizers fix the vertex pencil at their point, contain the two-generator symmetry, and act transitively on invariant remnants"),
    "P3.1": (None, _check_p3_1, "the member-fixing translations act transitively along each pencil member"),
    "C3.1": (None, _check_c3_1, "any two points of a pencil member are swapped by a symmetry based on that member"),
    "L3.1": (None, _check_l3_1, "census of fixed-point-free elements (report-only; restricted claims asserted)"),
    "P3.2": (None, _check_p3_2, "the generator-fixing translations act transitively along each generator"),
    "T3.2": (None, _check_t3_2, "translations form a normal transitive subgroup, the translation/stabilizer factorization is bijective, and fixed-point elements are strains"),
    "C3.3": (None, _check_c3_3, "the residual plane satisfies the parallelogram condition and the translation subgroup is commutative"),
    "C3.4": (None, _check_c3_4, "line parallelism coincides with translation reachability"),
    "P4.1": (_on_member0, _p4_1_on, "circles tangent to one member at distinct points never meet only on the vertex generator"),
    "C4.1": (_on_member0, _c4_1_on, "parallel circle lines based on one straight line always meet"),
    "P4.2": (None, _check_p4_2, "parallel proper circle lines are disjoint exactly when their base points are distinct and parallel"),
    "P4.3": (None, _check_p4_3, "a straight circle line meeting one of two base-aligned parallel lines meets the other"),
    "L4.1": (_on_member0, _l4_1_on, "intersection with a middle tangent circle propagates to the outer pair"),
    "P4.4": (_on_member0, partial(_laws, laws=("reflexive", "symmetric", "transitive")), "the tangency relation is an equivalence off each member"),
    "P4.5": (_on_member0, partial(_laws, laws=("single_witness",)), "one intersecting tangent pair at distinct points already forces equivalence"),
    "P4.6": (_at_point0, lambda ctx, x: _p4_6_at(ctx, x, ctx.family0), "special-line membership matches the tangency equivalence"),
    "P4.7": (_on_member0, partial(_laws, laws=("two_circle_count",)), "equivalence of an ideal point to an affine point means exactly two common tangent circles"),
    "L4.2": (None, _check_l4_2, "reversing a join sends its ideal direction to a unique opposite ideal point"),
    "T4.1": (_at_point0, lambda ctx, x: _t4_1_at(ctx, x, ctx.loci), "the base points of a vertical joining pencil sweep exactly one circle"),
    "C4.2": (_at_point0, lambda ctx, x: _c4_2_at(ctx, x, ctx.loci), "the swept circle passes through the opposite ideal point"),
    "T4.2": (None, _check_t4_2, "two-tangent-circles existence, all-pairs intersection, and one intersecting distinct-tangency pair are equivalent"),
    "R4.1": (_on_member0, partial(_laws, laws=("square_class_rule", "block_count")), "the tangency equivalence is the square-class partition of height offsets"),
}

CHECK_IDS = tuple(_CATALOG)
CHECK_SUMMARIES = {cid: summary for cid, (*_, summary) in _CATALOG.items()}


def thm_check(check_id: str, q: int) -> Report:
    """Run one catalog check at q (canonical pencil), through its row's symmetry if any."""
    if check_id not in _CATALOG:
        raise GeometryError(f"unknown check id {check_id!r}", code="bad_check")
    if q == 2 or q % 2 == 0:
        raise GeometryError("catalog checks need an odd prime q", code="char2_group")
    symmetry, evaluation, summary = _CATALOG[check_id]
    ctx = _context(q)
    sweep = partial(evaluation, ctx) if symmetry is None else partial(symmetry, ctx, evaluation)
    rep = run_check(check_id, q, sweep, _NOTES.get(check_id),
                    REPORT_ONLY if check_id in _REPORT_ONLY_IDS else PASS)
    rep.details["summary"] = summary
    return rep


def run_suite(q: int, ids: tuple[str, ...] = CHECK_IDS) -> list[Report]:
    return [thm_check(cid, q) for cid in ids]
