"""The tests' oracles: brute-force and closed-form routes that no command
runs, kept to compare the package against.  Not collected by pytest (its
name matches no test pattern); the tests import it.

- ``classify_aut`` tags a group element by its parameters, and
  ``classify_by_scan`` by its fixed points alone; ``group_census``
  counts Δ by tag.
- ``normally_transitive`` checks Δ for a stabilizer separator at every
  ordered pair of residual points.
- ``pair_join`` is the closed-form join one pair at a time, the reference
  for ``DeltaGroup.join_oracle``'s whole rows.
- ``tangent_members`` and ``pencil_tangent`` find tangency by closed-form
  intersection, where A3 and the catalog read circle masks.
- ``derived_affine`` sweeps the affine plane at a point by brute force.
- ``thm_equiv_rel`` and ``thm_tangency_locus`` run the catalog's
  equivalence and locus reports on any canonical member and any point,
  with their input checks.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from laguerre import verify
from laguerre.autgroup import CIRCLE_LINE, SPECIAL, STRAIGHT
from laguerre.field import GF
from laguerre.plane import (IDEAL, Circle, GeometryError, LaguerrePlane, Pencil, PencilAut,
                            Point, affine, ideal)
from laguerre.report import Report, run_check

# classification tags, decided by (k, t, g) alone
AUT_CLASSES = (
    "identity",
    "translation_generators",
    "translation_circle_direction",
    "strain",
    "symmetry",
    "glide",
)


def classify_aut(gf: GF, f: PencilAut) -> str:
    """Tag by parameters; the fixed-point scan oracle must agree (tested)."""
    k, t, g = f
    if k == 1:
        if t == 0:
            return "identity" if g == 0 else "translation_generators"
        return "translation_circle_direction"
    if k == gf.q - 1:
        return "symmetry" if g == 0 else "glide"
    return "strain"


def classify_by_scan(plane: LaguerrePlane, perm: list[int]) -> str:
    """Classify an automorphism fixing the ideal generator purely by its
    fixed points and fixed generators, given as a permutation of point
    indices (no parameter knowledge)."""
    q = plane.q
    fixed_affine = [i for i in range(q * q) if perm[i] == i]
    gens = [range(x * q, x * q + q) for x in range(q)]
    fixed_setwise = [gp for gp in gens if {perm[i] for i in gp} == set(gp)]
    fixed_pointwise = [gp for gp in fixed_setwise if all(perm[i] == i for i in gp)]
    if len(fixed_affine) == q * q:
        return "identity"
    if not fixed_affine:
        if len(fixed_setwise) == len(gens):
            return "translation_generators"
        return "glide" if fixed_setwise else "translation_circle_direction"
    if fixed_pointwise:
        return "symmetry"
    if len(fixed_affine) == 1:
        return "strain"
    raise GeometryError("unclassifiable automorphism", code="unclassifiable")


def group_census(delta) -> dict[str, int]:
    """The elements of the group ``delta`` per ``classify_aut`` tag."""
    out = {tag: 0 for tag in AUT_CLASSES}
    for f in delta.elements:
        out[classify_aut(delta.gf, f)] += 1
    return out


def normally_transitive(delta) -> tuple[bool, dict | None]:
    """Transitive off the vertex generator, and every ordered pair of
    those points has a stabilizer separator."""
    pts, missing = delta._a1()
    if missing:
        return False, {"problem": "not_transitive", "from": repr(pts[0]),
                       "unreached": repr(missing[0])}
    stabs = {x: frozenset(delta.stabilizer(x)) for x in pts}
    for x in pts:
        for y in pts:
            if x != y and not (stabs[x] - stabs[y]):
                return False, {"problem": "no_separating_element",
                               "x": repr(x), "y": repr(y)}
    return True, None


def pair_join(delta):
    """The closed-form join of one pair: ``join(x, y)`` on positions in
    ``space_points()`` (canonically affine) is the kind and the ascending
    positions of x and the orbit of y under the closed-form stabilizer of x,
    the elements (k, x0(1 - k), y0(1 - k^2)) for every k != 0: {x} and
    (x0 + k dx, y0 + k^2 dy).  For dx != 0 that is the circle with its vertex
    at x, a straight line when dy = 0; for dx = 0 the special line, x's
    offsets by dy times the nonzero squares."""
    q, index = delta.plane.q, delta.plane.point_index
    canon = [divmod(delta._canonical_index(index[p]), q) for p in delta.space_points()]
    at = [-1] * (q * q)
    for i, (cx, cy) in enumerate(canon):
        at[cx * q + cy] = i

    def join(x: int, y: int) -> tuple[str, tuple[int, ...]]:
        (x0, y0), (x1, y1) = canon[x], canon[y]
        dx, dy = x1 - x0, y1 - y0
        pts = {x, *[at[(x0 + k * dx) % q * q + (y0 + k * k * dy) % q] for k in range(1, q)]}
        kind = SPECIAL if dx == 0 else STRAIGHT if dy == 0 else CIRCLE_LINE
        return kind, tuple(sorted(pts))

    return join


def tangent_members(plane: LaguerrePlane, pencil: Pencil, M: Circle) -> list[tuple[Circle, Point]]:
    """Pencil members tangent to ``M``, with their tangency points."""
    out = []
    for L in plane.pencil_members(pencil, verify=False):
        if L == M:
            continue
        pts = plane.intersection(L, M)
        if len(pts) == 1:
            out.append((L, pts[0]))
    return out


def pencil_tangent(plane: LaguerrePlane, M: Circle, pencil: Pencil) -> tuple[Circle, Point]:
    """The unique pencil member tangent to ``M`` and the tangency point.

    ``M`` must avoid the pencil vertex.  In characteristic 2 the count
    is never one, so the full tangent list is raised as the witness.
    """
    if plane.incident(pencil.p, M):
        raise GeometryError(f"{pencil.p} lies on {M}", code="on_circle")
    hits = tangent_members(plane, pencil, M)
    if plane.gf.char2:
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
    gf = plane.gf
    if pencil.p == ideal(0) and pencil.base.a == 0 and pencil.base.b == 0 and M.a != 0:
        # closed form for the canonical pencil; must match the sweep
        u = gf.div(-M.b, 2 * M.a)
        v = gf.sub(M.c, gf.div(M.b * M.b, 4 * M.a))
        if point != affine(u, v) or member != Circle(0, 0, v):
            raise GeometryError(f"closed-form tangency disagrees with the sweep "
                                f"for {M}", code="tangency_mismatch")
    return member, point


class DerivedAffine(NamedTuple):
    """Derived affine plane at a point: its points, lines, and axiom report."""

    center: Point
    points: list[Point]
    lines: list[frozenset]
    report: Report


def derived_affine(plane: LaguerrePlane, p: Point) -> DerivedAffine:
    """The affine plane living on the points nonparallel to ``p``."""
    plane.point_index[p]  # not_a_point off the plane
    pts = [x for x in plane.points if not plane.parallel(x, p)]
    lines: list[frozenset] = []
    for C in plane.circles:
        if plane.incident(p, C):
            lines.append(frozenset(x for x in plane.circle_points(C) if x != p))
    for g in plane.generators:
        gp = plane.generator_points(g)
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

    report = run_check("derived-affine", plane.q, sweep)
    return DerivedAffine(p, pts, sorted(lines, key=sorted), report)


def thm_equiv_rel(plane: LaguerrePlane, member: Circle) -> tuple[dict[Point, str], Report]:
    """Brute-force the equivalence off ``member`` and verify its shape:
    equivalence laws, the single-witness characterization, the two-circle
    count against ideal points, and the square-class partition rule.
    Returns the square class of each point off ``member`` with the report.
    The catalog runs the same report on the member y = 0 alone."""
    if plane.gf.char2:
        raise GeometryError("needs odd q", code="char2_group")
    if not (member.a == 0 and member.b == 0):
        raise GeometryError("member must belong to the canonical pencil",
                            code="not_canonical_member")
    # read from the module at call time, so a test can swap the family
    return verify._equiv_report(plane, member, verify.TangentFamily(plane, member))


def thm_tangency_locus(plane: LaguerrePlane, pencil: Pencil, q_ideal: Point,
                       x: Point) -> tuple[Circle | None, Report]:
    """Sweep the joining pencil of ``q_ideal`` and ``x``; the base points of
    its members must fill the affine part of exactly one circle, and that
    circle must contain the opposite ideal point.  The circle is fitted
    through the first three pairwise nonparallel bases; without such a
    triple it is None, and the bases fail as ``not_a_circle``.  The opposite
    point is ``ideal(-beta)`` for the vertex I(0) alone (``bad_vertex``)."""
    plane.point_index[q_ideal], plane.point_index[x]  # not_a_point off the plane
    if pencil.p != ideal(0):
        raise GeometryError(f"the pencil vertex {pencil.p!r} is not I(0)", code="bad_vertex")
    if q_ideal.kind != IDEAL or q_ideal.x == 0:
        raise GeometryError("second vertex must be ideal and distinct from "
                            "the pencil vertex", code="bad_vertex")
    if x.kind == IDEAL:
        raise GeometryError("x must be affine", code="bad_vertex")
    return verify._locus_report(plane, q_ideal, x,
                                lambda N: pencil_tangent(plane, N, pencil)[1])
