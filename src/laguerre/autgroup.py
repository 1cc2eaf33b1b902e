"""The group Δ of a tangency pencil: the pointwise stabilizer of the vertex
generator inside the pencil stabilizer.

For the canonical pencil (vertex ``(inf,0)`` on the circle ``y = 0``) the
group is parametrized by triples ``(k, t, g)`` with ``k != 0`` acting as

    (x, y)    ->  (k x + t,  k^2 y + g)
    (inf, a)  ->  (inf, a)
    (a, b, c) ->  (a,  k b - 2 a t,  a t^2 - k b t + k^2 c + g)

so it fixes the ideal generator pointwise and permutes the pencil members
among themselves; for c != 0, 1, ``(x, y) -> (x, c y)``, ``(inf, a) ->
(inf, c a)`` fixes the pencil too, but is not in Δ.  Any other pencil is
handled by conjugating with a normalizing plane automorphism assembled from
two primitives of ``plane``: adding a fixed quadratic to every y-coordinate
(``circle_add_map``), and the inversion ``(x, y) -> (1/x, y/x^2)`` that
swaps the ideal generator with ``x = 0`` (``inversion_map``).  The composed
normalizer is verified to be a plane automorphism by an exhaustive
circle-image check before it is used.

Point indices.  The group acts on indices in ``plane.points`` (affine
``x*q + y``, ideal ``q*q + a``) by the closed form above, read through the
normalizer's forward and back index lists, composed once when the group is
built.  ``DeltaGroup.perm`` gives an element's whole permutation
(``plane.aut_perm``, one list); the residual plane's point permutations and
the catalog read it.  ``DeltaGroup.image`` gives one point's image
(``plane.aut_index``); orbits and A1/A2 read it.  A stabilizer is read
from the closed form: the q - 1 elements fixing one canonical index, kept
where the group has them; ``join_oracle`` reads it for every k, the
residual build's closed-form join.  ``circle_images`` carries a list of
circles, by the closed form ``aut_circles`` on the canonical chart.  There
is no Point/Circle wrapper: a point's image is ``points[image(f, i)]``, a
circle's ``circle_images(f, [C])``.  A ``PermutationMap`` is an index list.  Either
carries a circle by OR-ing the image bits of its point ids
(``plane.circle_ids``): every circle at once in ``verified``, one at a time
in ``circle_images`` off the canonical chart (``plane.circle_image``).
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import chain
from typing import Callable, Iterable

from .field import GF
from .plane import (Circle, GeometryError, IDEAL, LaguerrePlane, Pencil, PencilAut,
                    PermutationMap, Point, aut_index, aut_perm, canonical_pencil,
                    circle_add_map, circle_image, ideal, inversion_map, reach)
from .report import Report, run_check

IDENTITY = PencilAut(1, 0, 0)

# kinds of residual lines, decided by the join oracle
CIRCLE_LINE, STRAIGHT, SPECIAL = "circle_line", "straight_pencil", "special"

# classification tags, decided by (k, t, g) alone
AUT_CLASSES = (
    "identity",
    "translation_generators",
    "translation_circle_direction",
    "strain",
    "symmetry",
    "glide",
)


def aut_circles(q: int, f: PencilAut, circles: list[Circle]) -> list[Circle]:
    """The closed form of ``f`` on each circle of a list, in one comprehension."""
    k, t, g = f
    new = tuple.__new__  # Circle._make without its length check
    return [new(Circle, (a, (k * b - 2 * a * t) % q, (a * t * t - k * b * t + k * k * c + g) % q))
            for a, b, c in circles]


def aut_compose(gf: GF, f: PencilAut, h: PencilAut) -> PencilAut:
    """The automorphism acting as ``f`` after ``h``."""
    q = gf.q
    return PencilAut((f.k * h.k) % q, (f.k * h.t + f.t) % q,
                     (f.k * f.k * h.g + f.g) % q)


def aut_inverse(gf: GF, f: PencilAut) -> PencilAut:
    q = gf.q
    ki = gf.inv(f.k)
    return PencilAut(ki, (-f.t * ki) % q, (-f.g * ki * ki) % q)


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


def require_reach(start, moves, domain, code: str, name: str, noun: str) -> None:
    """Raise ``code`` unless ``moves`` carry ``start`` (``name``) to exactly
    the ``domain`` of its ``noun``: then ``start`` may stand for every one."""
    reached, domain = reach(start, moves), set(domain)
    if reached != domain:
        raise GeometryError(f"the generators carry {name} to {len(reached & domain)} of the "
                            f"{len(domain)} {noun} and {len(reached - domain)} more", code=code)


class DeltaGroup:
    """Δ, the pencil stabilizer's pointwise stabilizer of the vertex
    generator: elements, action, census, join oracle, and axiom checks."""

    def __init__(self, plane: LaguerrePlane, pencil: Pencil,
                 elements: list[PencilAut], normalizer: PermutationMap | None):
        self.plane = plane
        self.pencil = pencil
        self.elements = elements
        self.normalizer = normalizer
        self.gf = plane.gf
        # index lists: canonical chart -> this pencil's chart, and back
        self._fwd = normalizer.perm if normalizer is not None else None
        self._back = normalizer.inverse().perm if normalizer is not None else None

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, plane: LaguerrePlane, pencil: Pencil) -> "DeltaGroup":
        if plane.gf.char2:
            raise GeometryError("the pencil-fixing group needs odd q",
                                code="char2_group")
        q = plane.q
        elements = [PencilAut(k, t, g)
                    for k in range(1, q) for t in range(q) for g in range(q)]
        p, K = pencil
        if p == ideal(0) and K.a == 0 and K.b == 0:
            return cls(plane, pencil, elements, None)
        if p.kind == IDEAL:
            # vertex already ideal: shift the whole coordinate chart by K
            norm = circle_add_map(plane, K)
        else:
            norm = circle_add_map(plane, K).compose(
                PermutationMap.from_aut(plane, PencilAut(1, p.x, 0))).compose(
                inversion_map(plane))
        norm = norm.verified()
        group = cls(plane, pencil, elements, norm)
        # the normalizer must carry the canonical pencil onto the target one
        base = canonical_pencil(plane)
        carried = (norm.apply_point(base.p) == p and norm.apply_circle(base.base) == K
                   and set(map(norm.apply_circle, plane.pencil_members(base)))
                   == set(plane.pencil_members(pencil)))
        if not carried:
            raise GeometryError("the normalizer does not carry the canonical "
                                f"pencil onto {pencil}", code="normalizer_mismatch")
        return group

    @property
    def canonical(self) -> bool:
        return self.normalizer is None

    # -- the action ---------------------------------------------------------

    def _canonical_index(self, i: int) -> int:
        """The index of plane point ``i`` in canonical coordinates."""
        return i if self._back is None else self._back[i]

    def image(self, f: PencilAut, i: int) -> int:
        """The index of the image of plane point ``i`` under ``f``."""
        c = aut_index(self.plane.q, f, self._canonical_index(i))
        return c if self._fwd is None else self._fwd[c]

    def perm(self, f: PencilAut) -> list[int]:
        """``image`` at every plane index at once: the permutation of ``f``."""
        p = aut_perm(self.plane.q, f)
        if self._fwd is None:
            return p
        return list(map(self._fwd.__getitem__, map(p.__getitem__, self._back)))

    def circle_images(self, f: PencilAut, circles: list[Circle]) -> list[Circle]:
        """The image of each circle of a list: on the canonical chart the
        closed form ``aut_circles``, after one range check of the whole list
        (``not_a_circle``); off it the circle holding the images of each
        circle's point ids."""
        plane, q = self.plane, self.plane.q
        if self._fwd is not None:
            image = partial(self.image, f)
            return [circle_image(plane, image, C) for C in circles]
        coords = set(chain.from_iterable(circles))
        if coords and (min(coords) < 0 or max(coords) >= q):
            list(map(plane.circle_position, circles))  # not_a_circle at the first one off
        return aut_circles(q, f, circles)

    @cached_property
    def translations(self) -> list[PencilAut]:
        """The k = 1 elements, in element order."""
        return [f for f in self.elements if f.k == 1]

    def generators(self) -> list[PencilAut]:
        """A primitive-root scaling, then the unit translations (1, 1, 0) and
        (1, 0, 1): the residual build reads Δ as their point permutations and
        raises ``generators_not_closed`` unless they give all of it."""
        return [PencilAut(self.gf.primitive_root(), 0, 0), PencilAut(1, 1, 0),
                PencilAut(1, 0, 1)]

    def census(self) -> dict[str, int]:
        out = {tag: 0 for tag in AUT_CLASSES}
        for f in self.elements:
            out[classify_aut(self.gf, f)] += 1
        return out

    # -- orbits and stabilizers ---------------------------------------------

    def base_generator_points(self) -> set[Point]:
        return set(self.plane.generator_points(self.plane.generator_of(self.pencil.p)))

    def space_points(self) -> list[Point]:
        """Points off the vertex generator (the residual point set)."""
        bad = self.base_generator_points()
        return [p for p in self.plane.points if p not in bad]

    def stabilizer(self, x: Point) -> list[PencilAut]:
        """The elements fixing ``x``, in element order, read from the closed
        form: the normalizer's index lists are inverse permutations, so f
        fixes ``x`` exactly when ``aut_index`` fixes its canonical index.  At
        the canonical point (x, y) those are (k, x(1 - k), y(1 - k^2)), one
        per k, and the group keeps the ones among its elements (one C-level
        membership pass, so no per-group index outlives the call); an ideal
        canonical index is fixed by every element."""
        if x in self.base_generator_points():
            raise GeometryError("point lies on the fixed generator; its "
                                "stabilizer is the whole group",
                                code="stabilizer_on_base")
        c, q = self._canonical_index(self.plane.point_index[x]), self.plane.q
        if c >= q * q:
            return list(self.elements)
        x0, y0 = divmod(c, q)
        fixing = {PencilAut(k, x0 * (1 - k) % q, y0 * (1 - k * k) % q) for k in range(1, q)}
        return list(filter(fixing.__contains__, self.elements))

    def join_oracle(self) -> Callable[[int, int], tuple[str, tuple[int, ...]]]:
        """The residual build's oracle: ``join(x, y)`` on positions in
        ``space_points()`` (canonically affine) is the kind and the ascending
        positions of x and the orbit of y under the closed-form stabilizer of
        x, ``stabilizer``'s for every k != 0: (x0 + k dx, y0 + k^2 dy).  For
        dx != 0 that is the circle (x0 + s, y0 + a s^2), a = dy/dx^2, with its
        vertex at x; for dx = 0 x's offsets by dy times each nonzero square."""
        q, index, gf = self.plane.q, self.plane.point_index, self.gf
        canon = [divmod(self._canonical_index(index[p]), q) for p in self.space_points()]
        at = [-1] * (q * q)
        for i, (cx, cy) in enumerate(canon):
            at[cx * q + cy] = i
        # per x0 and s, the row of x0 + s and s^2; 1/dx^2, a negative dx as q + dx
        rows = [[((x0 + s) % q * q, s * s) for s in range(q)] for x0 in range(q)]
        inv_square = [0] + [gf.inv(d * d) for d in range(1, q)]

        def join(x: int, y: int) -> tuple[str, tuple[int, ...]]:
            (x0, y0), (x1, y1) = canon[x], canon[y]
            dx, dy = x1 - x0, y1 - y0
            if dx == 0:
                pts = [x] + [at[x0 * q + (y0 + s * dy) % q] for s in gf.squares]
                return SPECIAL, tuple(sorted(pts))
            a = dy * inv_square[dx] % q
            pts = [at[row + (y0 + a * s2) % q] for row, s2 in rows[x0]]
            return STRAIGHT if a == 0 else CIRCLE_LINE, tuple(sorted(pts))

        return join

    def orbit(self, subset: Iterable[PencilAut], x: Point) -> set[Point]:
        i, points, image = self.plane.point_index[x], self.plane.points, self.image
        return {points[image(f, i)] for f in subset}

    # -- structure checks -----------------------------------------------

    def normally_transitive(self) -> tuple[bool, dict | None]:
        """Transitive off the vertex generator, and every ordered pair of
        those points has a stabilizer separator."""
        pts, missing = self._a1()
        if missing:
            return False, {"problem": "not_transitive", "from": repr(pts[0]),
                           "unreached": repr(missing[0])}
        stabs = {x: frozenset(self.stabilizer(x)) for x in pts}
        for x in pts:
            for y in pts:
                if x != y and not (stabs[x] - stabs[y]):
                    return False, {"problem": "no_separating_element",
                                   "x": repr(x), "y": repr(y)}
        return True, None

    def _a1(self) -> tuple[list[Point], list[Point]]:
        """The residual points, and those the first is not carried to (A1)."""
        space = self.space_points()
        return space, sorted(set(space) - self.orbit(self.elements, space[0]))

    def semidirect_factorization(self, stab: list[PencilAut]) -> bool:
        """Every element splits uniquely as (k=1 translation) o (an element
        of ``stab``, the stabilizer of a point)."""
        translations = self.translations
        products = {aut_compose(self.gf, t, s) for t in translations for s in stab}
        return len(translations) * len(stab) == len(self.elements) and \
            products == set(self.elements)

    def check_a1a2(self) -> tuple[int, list, dict]:
        """Transitivity off the vertex generator (A1) and circular
        transitivity of point stabilizers along the base circle (A2), as
        (cases, witnesses, details).  A2 reports the least target whose
        stabilizer orbit misses one."""
        space, missing = self._a1()
        cases = len(space)
        witnesses = [{"axiom": "A1", "unreached": repr(missing[0])}] if missing else []
        details = {"A1": {"points": len(space), "status": "fail" if missing else "pass"}}

        p, K = self.pencil
        kpts = [x for x in self.plane.circle_points(K) if x != p]
        a2_bad = []
        for r in kpts:
            stab = self.stabilizer(r)
            targets = set(kpts) - {r}
            for x in sorted(targets):
                cases += 1
                got = self.orbit(stab, x)
                if not targets <= got:
                    a2_bad.append({"axiom": "A2", "r": repr(r), "x": repr(x),
                                   "missed": sorted(map(repr, targets - got))})
                    break
        witnesses.extend(a2_bad)
        details["A2"] = {"stabilizers": len(kpts), "status": "fail" if a2_bad else "pass"}
        return cases, witnesses, details

    def verify_axioms(self) -> Report:
        return verify_a1a2a3(self.plane, self.pencil, self)

    # -- export -------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "q": self.plane.q,
            "pencil": {"p": self.pencil.p.to_json(), "K": list(self.pencil.base)},
            "elements": sorted([f.k, f.t, f.g] for f in self.elements),
        }


def _check_a3(plane: LaguerrePlane, pencil: Pencil) -> tuple[int, list, dict]:
    """A3, every circle avoiding the vertex has exactly one tangent member,
    as (cases, witnesses, details).  It reads the circle masks through
    ``plane.tangent_hits``: a circle M off the vertex is tangent to the
    member L exactly when their masks share one bit."""
    cases, bad = 0, []
    for M, hits in plane.tangent_hits(pencil):
        cases += 1
        if len(hits) != 1:
            bad.append({"axiom": "A3", "circle": list(M),
                        "tangent_members": sorted(list(L) for L, _ in hits)})
    return cases, bad, {"circles": cases, "status": "fail" if bad else "pass"}


_CHAR2_NOTE = ("characteristic 2: only the tangency-count axiom is evaluated; "
               "the parametrized group requires odd q")


def verify_a1a2a3(plane: LaguerrePlane, pencil: Pencil,
                  delta: DeltaGroup | None) -> Report:
    """Check transitivity off the vertex generator (A1), circular
    transitivity of point stabilizers along the base circle (A2), both by
    ``DeltaGroup.check_a1a2``, and the one-tangent-member property (A3),
    on circle masks (``_check_a3``).

    For q = 2 only A3 is evaluated (and fails, with the full witness list);
    the parametrized group does not exist there.
    """
    char2 = plane.gf.char2
    if delta is None and not char2:
        delta = DeltaGroup.build(plane, pencil)

    def sweep():
        cases, witnesses, details = (0, [], {}) if char2 else delta.check_a1a2()
        a3_cases, a3_bad, details["A3"] = _check_a3(plane, pencil)
        witnesses.extend(a3_bad)
        return cases + a3_cases, witnesses, details

    return run_check("A1A2A3", plane.q, sweep, _CHAR2_NOTE if char2 else None)
