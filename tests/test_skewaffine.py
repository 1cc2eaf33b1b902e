import pytest

from laguerre import (Circle, DeltaGroup, GeometryError, GroupSpace, autgroup,
                      LaguerrePlane, PencilAut, affine, canonical_pencil, ideal)
from laguerre.skewaffine import (AXIOMS, CIRCLE_LINE, ORBIT_AXIOMS, SPECIAL,
                                 STRAIGHT)
from oracles import pair_join


def test_join_examples(space5):
    L = space5.join(affine(0, 0), affine(1, 1))
    assert set(L.points) == {affine(0, 0), affine(1, 1), affine(2, 4),
                             affine(3, 4), affine(4, 1)}
    assert L.kind == CIRCLE_LINE

    Ls = space5.join(affine(0, 0), affine(0, 1))
    assert set(Ls.points) == {affine(0, 0), affine(0, 1), affine(0, 4)}
    assert Ls.kind == SPECIAL

    # the join is not symmetric
    Lr = space5.join(affine(0, 1), affine(0, 0))
    assert set(Lr.points) == {affine(0, 1), affine(0, 0), affine(0, 2)}
    assert Lr is not Ls


def test_join_errors(space5):
    # x is resolved fully before y: a point on the vertex generator first
    # wins over a y off the plane, and a first point off the plane over one
    # on the vertex generator
    outside = affine(7, 7)
    for x, y, code in ((affine(0, 0), affine(0, 0), "join_degenerate"),
                       (ideal(0), affine(0, 0), "point_on_base_generator"),
                       (affine(0, 0), ideal(0), "point_on_base_generator"),
                       (ideal(0), outside, "point_on_base_generator"),
                       (outside, ideal(0), "not_a_point")):
        with pytest.raises(GeometryError) as e:
            space5.join(x, y)
        assert e.value.code == code, (x, y)


def test_point_outside_the_plane_is_a_geometry_error(space5):
    delta, outside = space5.delta, affine(7, 7)
    plane = space5.plane
    off_chart = DeltaGroup.build(plane, plane.pencil(affine(1, 2), Circle(0, 0, 2)))
    for call, code in ((lambda: delta.stabilizer(outside), "not_a_point"),
                       (lambda: plane.point_index[outside], "not_a_point"),
                       (lambda: space5.join(outside, affine(0, 0)), "not_a_point"),
                       (lambda: space5.join(affine(0, 0), outside), "not_a_point"),
                       (lambda: delta.circle_images(PencilAut(2, 1, 3), [Circle(7, 7, 7)]),
                        "not_a_circle"),
                       (lambda: off_chart.circle_images(PencilAut(2, 1, 3), [Circle(7, 7, 7)]),
                        "not_a_circle")):
        with pytest.raises(GeometryError) as e:
            call()
        assert e.value.code == code


def test_census_counts():
    expected = {
        3: (9, 39, 18, 3, 18, 5),
        5: (25, 155, 100, 5, 50, 7),
        7: (49, 399, 294, 7, 98, 9),
    }
    for q, (npts, nlines, ncirc, nstraight, nspecial, ncls) in expected.items():
        pl = LaguerrePlane(q)
        gs = GroupSpace.build(pl, canonical_pencil(pl),
                              DeltaGroup.build(pl, canonical_pencil(pl)),
                              check_preconditions=False)
        census = gs.census()
        assert census["points"] == npts
        assert census["lines"] == nlines
        assert census["by_kind"] == {CIRCLE_LINE: ncirc, STRAIGHT: nstraight,
                                     SPECIAL: nspecial}
        assert census["classes"] == ncls


def test_census_formulas_q11():
    q = 11
    pl = LaguerrePlane(q)
    gs = GroupSpace.build(pl, canonical_pencil(pl),
                          DeltaGroup.build(pl, canonical_pencil(pl)),
                          check_preconditions=False)
    census = gs.census()
    assert census["points"] == q * q
    assert census["by_kind"][CIRCLE_LINE] == q * q * (q - 1)
    assert census["by_kind"][STRAIGHT] == q
    assert census["by_kind"][SPECIAL] == 2 * q * q
    assert census["classes"] == q + 2


def test_line_sizes(space5):
    for line in space5.lines:
        if line.kind == SPECIAL:
            assert len(line.points) == 1 + 2  # 1 + (q-1)/2
        else:
            assert len(line.points) == 5


def test_straight_lines_are_exactly_the_members():
    for q in (3, 5, 7):
        pl = LaguerrePlane(q)
        gs = GroupSpace.build(pl, canonical_pencil(pl),
                              DeltaGroup.build(pl, canonical_pencil(pl)),
                              check_preconditions=False)
        member_sets = {frozenset(affine(x, c) for x in range(q)) for c in range(q)}
        for line in gs.lines:
            kind, bases = line.kind, line.base_points
            straight = bases == line.points
            assert straight == (frozenset(line.points) in member_sets)
            if not straight:
                assert len(bases) == 1  # proper lines: unique basepoint


def test_classify_line_examples(space5):
    member_line = space5.join(affine(0, 2), affine(1, 2))
    kind, bases = member_line.kind, member_line.base_points
    assert kind == STRAIGHT and len(bases) == 5

    circle_line = space5.join(affine(0, 0), affine(1, 1))
    kind, bases = circle_line.kind, circle_line.base_points
    assert kind == CIRCLE_LINE and bases == (affine(0, 0),)

    special = space5.join(affine(0, 0), affine(0, 1))
    kind, bases = special.kind, special.base_points
    assert kind == SPECIAL and bases == (affine(0, 0),)


def test_q3_twin_special_lines():
    # at q = 3 the two orientations of a two-point special line share the
    # point set but not the offset class; they are distinct proper lines,
    # in different parallel classes
    pl = LaguerrePlane(3)
    gs = GroupSpace.build(pl, canonical_pencil(pl),
                          DeltaGroup.build(pl, canonical_pencil(pl)),
                          check_preconditions=False)
    a = gs.join(affine(0, 0), affine(0, 1))
    b = gs.join(affine(0, 1), affine(0, 0))
    assert set(a.points) == set(b.points)
    assert a.class_id != b.class_id
    assert a.index != b.index
    assert a.base_points == (affine(0, 0),)
    assert b.base_points == (affine(0, 1),)


def test_parallel_examples(space5):
    l1 = space5.join(affine(0, 0), affine(1, 1))   # remnant of (1,0,0)
    l2 = space5.join(affine(1, 0), affine(0, 1))   # remnant of (1,3,1)
    assert set(l2.points) == {affine(x, (x * x + 3 * x + 1) % 5) for x in range(5)}
    assert l1.class_id == l2.class_id
    m2 = space5.join(affine(0, 0), affine(1, 2))   # remnant of (2,0,0)
    assert l1.class_id != m2.class_id
    s1 = space5.join(affine(0, 0), affine(0, 1))
    s2 = space5.join(affine(1, 2), affine(1, 3))
    assert s1.class_id == s2.class_id              # square offsets both
    assert space5.line_image(space5.point_perm(PencilAut(1, 1, 2)), s1) is s2


def _closed_form_label(gs, canon, i, j):
    """The kind and group-invariant label of the join of points i and j from
    canonical coordinates: the leading coefficient A of the circle through
    both with its vertex at i, or the square class of the height offset of a
    parallel pair (offsets scale by k^2, leading coefficients are fixed)."""
    (x0, y0), (x1, y1) = canon[i], canon[j]
    gf = gs.plane.gf
    if x0 == x1:
        return SPECIAL, gf.square_class(y1 - y0)
    A = gf.div(y1 - y0, (x1 - x0) ** 2)
    return STRAIGHT if A == 0 else CIRCLE_LINE, A


def _canonical_coordinates(gs):
    return [divmod(gs.delta._canonical_index(gs.plane.point_index[p]), gs.q)
            for p in gs.points]


def test_parallel_fast_agrees_with_orbit_relation():
    # the closed-form invariant: both or neither special, and equal labels
    # (the leading coefficient or the offset class), read off a base point
    # and another point of each line
    for q in (3, 5, 7):
        pl = LaguerrePlane(q)
        gs = GroupSpace.build(pl, canonical_pencil(pl),
                              DeltaGroup.build(pl, canonical_pencil(pl)),
                              check_preconditions=False)
        canon = _canonical_coordinates(gs)
        labels = []
        for L in gs.lines:
            other = next(j for j in L.ids if j != L.bases[0])
            kind, label = _closed_form_label(gs, canon, L.bases[0], other)
            assert kind == L.kind
            labels.append((kind == SPECIAL, label))
        for L1, key1 in zip(gs.lines, labels):
            for L2, key2 in zip(gs.lines, labels):
                assert (L1.class_id == L2.class_id) == (key1 == key2)


def test_build_rejects_non_transitive_group(plane5):
    pencil = canonical_pencil(plane5)
    full = DeltaGroup.build(plane5, pencil)
    crippled = DeltaGroup(plane5, pencil,
                          [f for f in full.elements if f.k == 1], None)
    with pytest.raises(GeometryError) as e:
        GroupSpace.build(plane5, pencil, crippled)
    assert e.value.code == "a1a2_failed"


def test_build_checks_only_a1_a2(monkeypatch):
    # the precondition reads A1 and A2; A3, the sweep over every circle
    # (autgroup._check_a3), is not part of it
    def no_a3(*args, **kwargs):
        raise AssertionError("A3 was evaluated")

    monkeypatch.setattr(autgroup, "_check_a3", no_a3)
    plane = LaguerrePlane(5)
    pencil = canonical_pencil(plane)
    delta = DeltaGroup.build(plane, pencil)
    space = GroupSpace.build(plane, pencil, delta)
    assert len(space.lines) == 155
    # the spy is live: the full report does evaluate A3
    with pytest.raises(AssertionError, match="A3 was evaluated"):
        delta.verify_axioms()


def test_build_rejects_generators_not_closed(plane5, monkeypatch):
    # a group of the translations alone, which the scaling leaves; and the
    # whole group with the scaling cut to -1, which gives only k = ±1
    pencil = canonical_pencil(plane5)
    full = DeltaGroup.build(plane5, pencil)
    translations = DeltaGroup(plane5, pencil,
                              [f for f in full.elements if f.k == 1], None)
    with pytest.raises(GeometryError) as e:
        GroupSpace.build(plane5, pencil, translations, check_preconditions=False)
    assert e.value.code == "generators_not_closed"
    monkeypatch.setattr(full, "generators", lambda: [PencilAut(4, 0, 0), PencilAut(1, 1, 0),
                                                     PencilAut(1, 0, 1)])
    with pytest.raises(GeometryError) as e:
        GroupSpace.build(plane5, pencil, full, check_preconditions=False)
    assert e.value.code == "generators_not_closed"


def test_build_rejects_join_mismatch(monkeypatch):
    # the scaling conjugated by the swap of A(1,1) and A(1,2), no
    # automorphism: it still fixes point 0 and has order q - 1, so the
    # generators pass the order check, but its orbits are no circle lines
    plane, pencil, delta = _fresh(5)
    true_perm, scaling = delta.perm, delta.generators()[0]
    a, b = plane.point_index[affine(1, 1)], plane.point_index[affine(1, 2)]
    swap = {a: b, b: a}

    def bent(f):
        perm = true_perm(f)
        if f != scaling:
            return perm
        return [swap.get(j, j) for j in (perm[swap.get(i, i)] for i in range(len(perm)))]

    monkeypatch.setattr(delta, "perm", bent)
    with pytest.raises(GeometryError) as e:
        GroupSpace.build(plane, pencil, delta, check_preconditions=False)
    assert e.value.code == "join_mismatch"


@pytest.mark.parametrize("q", (5, 7))
def test_build_rejects_a_stabilizer_cut_to_plus_minus_one(q, monkeypatch):
    # the subgroup k = ±1, generated by the scaling -1 and the unit
    # translations, passes the order check; but point 0's stabilizer orbits
    # split each circle line into halves, so the orbit route's point sets
    # fall short of the closed-form circles
    plane, pencil, delta = _fresh(q)
    sub = DeltaGroup(plane, pencil, [f for f in delta.elements if f.k in (1, q - 1)], None)
    monkeypatch.setattr(sub, "generators",
                        lambda: [PencilAut(q - 1, 0, 0)] + delta.generators()[1:])
    with pytest.raises(GeometryError) as e:
        GroupSpace.build(plane, pencil, sub, check_preconditions=False)
    assert e.value.code == "join_mismatch"


def test_build_rejects_a_kind_that_differs_along_an_orbit(monkeypatch):
    # a closed form that calls the pencil member through point 1 a circle
    # line still matches its classes, but not the kind that the same
    # stabilizer orbit has at point 0
    plane, pencil, delta = _fresh(5)
    true_row = delta.join_oracle()

    def relabelled(x):
        labels, kinds = true_row(x)
        return labels, [CIRCLE_LINE if k == STRAIGHT and x == 1 else k for k in kinds]

    monkeypatch.setattr(delta, "join_oracle", lambda: relabelled)
    with pytest.raises(GeometryError) as e:
        GroupSpace.build(plane, pencil, delta, check_preconditions=False)
    assert e.value.code == "join_mismatch"


def _literal_row(delta, power):
    """``join_oracle``'s rows on the canonical pencil, whose residual point
    x q + y is A(x, y), with k**power in place of k^2: the class of y is the
    orbit of its offset (dx, dy) under (k dx, k**power dy), named by its
    least member, whose kind it reads off dx = 0 or dy = 0 (none at x)."""
    q = delta.plane.q

    def row(x):
        (x0, y0), labels = divmod(x, q), []
        for y in range(q * q):
            dx, dy = (y // q - x0) % q, (y % q - y0) % q
            labels.append(min((k * dx % q, k ** power * dy % q) for k in range(1, q)))
        return labels, {label: None if label == (0, 0) else SPECIAL if label[0] == 0
                        else STRAIGHT if label[1] == 0 else CIRCLE_LINE for label in labels}

    return row


def _members(labels):
    """The points of each class of a join oracle's row."""
    members = {}
    for y, label in enumerate(labels):
        members.setdefault(label, set()).add(y)
    return members


def _row_classes(row, x):
    """Row x of a join oracle as the set of its classes, each the points it
    holds and its kind."""
    labels, kinds = row(x)
    return {(frozenset(points), kinds[label]) for label, points in _members(labels).items()}


@pytest.mark.parametrize("q", (5, 7))
def test_build_rejects_offsets_over_every_nonzero_value(q, monkeypatch):
    # k in place of k^2: the special line through x becomes its whole
    # generator and each circle line a straight one, which no stabilizer
    # orbit is; with k^2 the same literal form has the group's own classes
    plane, pencil, delta = _fresh(q)
    true_row, literal = delta.join_oracle(), _literal_row(delta, 2)
    assert all(_row_classes(literal, x) == _row_classes(true_row, x) for x in range(q * q))
    monkeypatch.setattr(delta, "join_oracle", lambda: _literal_row(delta, 1))
    with pytest.raises(GeometryError) as e:
        GroupSpace.build(plane, pencil, delta, check_preconditions=False)
    assert e.value.code == "join_mismatch"


_PENCILS = {"canonical": None, "p:1,2": lambda pl: pl.pencil(affine(1, 2), Circle(0, 0, 2)),
            "ideal:2@K:2,1,3": lambda pl: pl.pencil(ideal(2), Circle(2, 1, 3 % pl.q))}


@pytest.mark.parametrize("q", (3, 5, 7))
@pytest.mark.parametrize("pencil", list(_PENCILS))
def test_join_oracle_rows_match_the_per_pair_reference(q, pencil):
    # at every ordered pair: y and z share a class of row x exactly when z
    # lies on the closed-form line through x and y, and the class has that
    # line's kind; x alone has its own class
    plane, pencil, delta = _fresh(q, _PENCILS[pencil])
    row, join, n = delta.join_oracle(), pair_join(delta), q * q
    for x in range(n):
        labels, kinds = row(x)
        members = _members(labels)
        assert len(labels) == n and members[labels[x]] == {x}
        for y in range(n):
            if y != x:
                kind, pts = join(x, y)
                assert members[labels[y]] == set(pts) - {x}, (x, y)
                assert kinds[labels[y]] == kind, (x, y)


def test_build_computes_one_row_per_point(monkeypatch):
    # whole rows: the build asks the closed form for exactly one row per
    # residual point, and no single pair
    plane, pencil, delta = _fresh(7)
    true_row, calls = delta.join_oracle(), []

    def counted(x):
        calls.append(x)
        return true_row(x)

    monkeypatch.setattr(delta, "join_oracle", lambda: counted)
    gs = GroupSpace.build(plane, pencil, delta, check_preconditions=False)
    assert sorted(calls) == list(range(gs.n)) and gs.n == 49


def _fresh(q, pencil=None):
    plane = LaguerrePlane(q)
    pencil = pencil(plane) if pencil else canonical_pencil(plane)
    return plane, pencil, DeltaGroup.build(plane, pencil)


def _bend_unit(monkeypatch, delta, bend):
    """``delta.perm`` with the permutation of the unit (1, 0, 1) bent."""
    monkeypatch.setattr(delta, "perm", lambda f: bend(DeltaGroup.perm(delta, f))
                        if f == PencilAut(1, 0, 1) else DeltaGroup.perm(delta, f))


def test_build_rejects_translations_that_are_not_regular(monkeypatch):
    # the unit y -> y + 1 replaced by x -> x + 1, which reaches q points
    # only, or bent to carry A(0,0) onto the vertex generator: no word
    # reaches A(0,1), and the build stops before it computes any row
    plane, pencil, delta = _fresh(5)
    x_unit, vertex = delta.perm(PencilAut(1, 1, 0)), plane.point_index[ideal(0)]

    def off_space(perm):
        perm[0], perm[vertex] = perm[vertex], perm[0]
        return perm

    def no_row(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(delta, "join_oracle", lambda: no_row)
    for bend in (lambda perm: x_unit, off_space):
        _bend_unit(monkeypatch, delta, bend)
        with pytest.raises(GeometryError) as e:
            GroupSpace.build(plane, pencil, delta, check_preconditions=False)
        assert e.value.code == "translations_not_regular"
        assert e.value.witnesses == [{"point": "A(0,1)"}]


def test_build_rejects_a_translation_bent_off_point_0(monkeypatch):
    # the bent unit still carries point 0 where it should and reaches every
    # point, but two of its words to one point disagree off point 0
    plane, pencil, delta = _fresh(5)
    bent_at = {plane.point_index[affine(1, 1)]: plane.point_index[affine(1, 2)],
               plane.point_index[affine(1, 2)]: plane.point_index[affine(1, 1)]}
    _bend_unit(monkeypatch, delta,
               lambda perm: [perm[bent_at.get(i, i)] for i in range(len(perm))])
    with pytest.raises(GeometryError) as e:
        GroupSpace.build(plane, pencil, delta, check_preconditions=False)
    assert e.value.code == "translations_not_regular"
    assert e.value.witnesses == [{"point": "A(1,1)"}]


@pytest.mark.parametrize("q", (3, 5))
def test_build_never_calls_square_class(q, monkeypatch):
    # a line is its point set and its stabilizer orbit: the build derives no
    # square class, and the closed form enumerates the square offsets itself
    plane, pencil, delta = _fresh(q)
    want = GroupSpace.build(plane, pencil, delta, check_preconditions=False)

    def no_square_class(*args):
        raise AssertionError("square_class was called")

    monkeypatch.setattr(type(plane.gf), "square_class", no_square_class)
    got = GroupSpace.build(plane, pencil, delta, check_preconditions=False)
    assert [(l.ids, l.kind, l.bases) for l in got.lines] == \
        [(l.ids, l.kind, l.bases) for l in want.lines]
    assert got._joinline == want._joinline


def _per_point_route(gs):
    """The residual build as it was before point 0's stabilizer orbits were
    moved along the translations: every point's stabilizer by a scan of the
    whole group, each join {x} plus the orbit of y under it, the kind and
    label from canonical coordinates, and the parallel classes as orbits of
    every group element on the lines.  A line is (ids, kind, bases); returns
    the join table by line, the lines and the classes as sets of lines, and
    nothing else of the space."""
    n, delta = gs.n, gs.delta
    canon = _canonical_coordinates(gs)
    join = {}
    for i, x in enumerate(gs.points):
        stab = [gs.point_perm(f) for f in delta.stabilizer(x)]
        for j in range(n):
            if j != i:
                ids = tuple(sorted({perm[j] for perm in stab} | {i}))
                join[i, j] = (ids, *_closed_form_label(gs, canon, i, j))
    bases = {key: set() for key in join.values()}
    for (i, _), key in join.items():
        bases[key].add(i)
    line = {key: (key[0], key[1], tuple(sorted(bases[key]))) for key in bases}
    perms = [gs.point_perm(f) for f in delta.elements]
    classes = {frozenset(line[(tuple(sorted(perm[i] for i in ids)), kind, label)]
                         for perm in perms)
               for ids, kind, label in line}
    return {pair: line[key] for pair, key in join.items()}, set(line.values()), classes


def _per_pair_tables(gs):
    """The residual tables as they were derived before each row became
    point 0's row moved along T_i: passes over every ordered pair, from the
    join-line table, the lines and ``class_ids``.  Returns the join-class,
    by-class, witness-mask and line-minus-base tables."""
    n, ncls, jl = gs.n, len(gs.class_ids), gs._joinline
    cls_index = {cid: i for i, cid in enumerate(gs.class_ids)}
    jc = [[cls_index[gs.lines[jl[i][j]].class_id] if i != j else -1
           for j in range(n)] for i in range(n)]
    byclass = [[[] for _ in range(ncls)] for _ in range(n)]
    witmask = [[0] * ncls for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                byclass[i][jc[i][j]].append(j)
                witmask[i][jc[i][j]] |= 1 << j
    minus = [[None if i == j else tuple(k for k in gs.lines[jl[i][j]].ids if k != i)
              for j in range(n)] for i in range(n)]
    return jc, byclass, witmask, minus


@pytest.mark.parametrize("q, pencil", [
    (3, None), (5, None), (7, None),
    (5, lambda pl: pl.pencil(affine(1, 2), Circle(0, 0, 2))),
    (5, lambda pl: pl.pencil(ideal(3), Circle(3, 0, 0))),
    (7, lambda pl: pl.pencil(affine(1, 2), Circle(0, 0, 2))),
    (7, lambda pl: pl.pencil(ideal(3), Circle(3, 0, 0))),
])
def test_transported_orbits_match_the_per_point_route(q, pencil):
    plane, pencil, delta = _fresh(q, pencil)
    gs = GroupSpace.build(plane, pencil, delta, check_preconditions=False)
    join, lines, classes = _per_point_route(gs)
    content = [(l.ids, l.kind, l.bases) for l in gs.lines]
    assert {(i, j): content[gs._joinline[i][j]] for i in range(gs.n)
            for j in range(gs.n) if i != j} == join
    assert len(content) == len(lines) and set(content) == lines
    assert {frozenset(content[ix] for ix in members)
            for members in gs.class_members.values()} == classes
    assert all(gs.lines[ix].class_id == cid
               for cid, members in gs.class_members.items() for ix in members)
    # every other table against the per-pair passes; a class is numbered by
    # its position in class_ids, not by its orbit
    jc, byclass, witmask, minus = _per_pair_tables(gs)
    assert gs.ncls == len(gs.class_ids)
    assert gs._joinclass == jc
    assert [[list(members) for members in row] for row in gs._byclass] == byclass
    assert gs._witmask == witmask
    # the line through i and j, less i, is the by-class entry of their
    # class: one tuple per base point and line through it
    for i in range(gs.n):
        shared = {}
        for j in range(gs.n):
            if j != i:
                line = gs._byclass[i][jc[i][j]]
                assert line == minus[i][j]
                assert shared.setdefault(gs._joinline[i][j], line) is line


@pytest.mark.parametrize("q", (3, 5, 7, 11))
@pytest.mark.parametrize("pencil", ["canonical", "p:1,2", "ideal:2@K:2,1,3"])
def test_generator_words_match_the_scanned_group(q, pencil):
    # the scans the build retired, as oracles: the words in the unit
    # translations are the scanned translations ordered by the image of
    # point 0, and the powers of s are the scanned stabilizer of point 0.
    # Off the canonical pencil the scaling moves point 0 from q = 5 on, so
    # s = T⁻¹ m needs its translation factor
    make = {"canonical": None, "p:1,2": lambda pl: pl.pencil(affine(1, 2), Circle(0, 0, 2)),
            "ideal:2@K:2,1,3": lambda pl: pl.pencil(ideal(2), Circle(2, 1, 3 % q))}
    gs = GroupSpace.build(*_fresh(q, make[pencil]), check_preconditions=False)
    scanned = sorted(map(gs.point_perm, gs.delta.translations), key=lambda perm: perm[0])
    assert gs._schreier()[0] == scanned
    assert {tuple(perm) for perm in map(gs.point_perm, gs.delta.stabilizer(gs.points[0]))} \
        == set(map(tuple, gs.stabilizer0))
    assert len(gs.stabilizer0) == q - 1
    assert (gs._gen_perms[0][0] != 0) == (pencil != "canonical") or q == 3


def test_axiom_reports_exhaustive_small(space3):
    from laguerre import Budget
    for axiom in ("L1", "L2", "P1", "P2", "T", "V", "Pgm", "Des", "Pap"):
        rep = space3.check_axiom(axiom)
        assert rep.status == "pass", (axiom, rep.witnesses)
        want = "orbit" if axiom in ORBIT_AXIOMS else "exhaustive"
        assert rep.details["mode"] == want
        assert rep.cases_checked > 0
        rep = space3.check_axiom(axiom, Budget("exhaustive", 0, 0))
        assert rep.status == "pass", (axiom, rep.witnesses)
        assert rep.details == {"mode": "exhaustive"}
        assert rep.cases_checked > 0


def test_axiom_budget_modes(space5):
    from laguerre import Budget
    rep = space5.check_axiom("T", Budget("sample", 2000, seed=42))
    assert rep.status == "pass"
    assert rep.cases_checked == 2000
    assert rep.details == {"mode": "sample", "samples": 2000, "seed": 42}
    rep = space5.check_axiom("T")  # the default is the orbit sweep
    assert rep.details["mode"] == "orbit"
    assert rep.details["first"] == "A(0,0)"
    assert len(rep.details["second"]) == 5 + 2  # q + 2 stabilizer orbits
    rep = space5.check_axiom("L1", Budget("orbit", 0, 0))  # nothing to reduce
    assert rep.details == {"mode": "exhaustive"}
    for axiom in ("L1", "L2", "P1", "P2", "V", "Pgm"):  # no sampled form
        rep = space5.check_axiom(axiom, Budget("sample", 10, seed=3))
        assert rep.details == {"mode": "exhaustive"}, axiom
        assert rep.cases_checked == space5.check_axiom(
            axiom, Budget("exhaustive", 0, 0)).cases_checked
    with pytest.raises(GeometryError) as e:
        space5.check_axiom("XX")
    assert e.value.code == "bad_axiom"


def test_orbit_matches_exhaustive(space3, space5):
    from laguerre import Budget
    for gs in (space3, space5):
        for axiom in ORBIT_AXIOMS:
            orbit = gs.check_axiom(axiom, Budget("orbit", 0, 0))
            brute = gs.check_axiom(axiom, Budget("exhaustive", 0, 0))
            assert orbit.status == brute.status == "pass", (gs.q, axiom)
            details = orbit.details
            assert details["cases_represented"] == brute.cases_checked, (gs.q, axiom)
            assert sum(o["cases"] for o in details["second"]) == orbit.cases_checked
            assert sum(o["orbit_size"] for o in details["second"]) == gs.n - 1
            assert orbit.cases_checked < brute.cases_checked


def test_orbit_sweep_rejects_non_equivariant_tables(plane5, delta5):
    gs = GroupSpace.build(plane5, canonical_pencil(plane5), delta5,
                          check_preconditions=False)
    gs._joinclass[0][1] = (gs._joinclass[0][1] + 1) % gs.ncls
    with pytest.raises(GeometryError) as e:
        gs.check_axiom("T")
    assert e.value.code == "not_equivariant"


def test_orbit_sweep_rejects_a_generator_that_breaks_a_line(plane5, delta5):
    # two points swapped by the first generator's permutation: some line is
    # carried onto a point set that is no line, a typed error, not a KeyError
    gs = GroupSpace.build(plane5, canonical_pencil(plane5), delta5,
                          check_preconditions=False)
    perm = gs._gen_perms[0]
    perm[0], perm[1] = perm[1], perm[0]
    with pytest.raises(GeometryError) as e:
        gs.check_axiom("T")
    assert e.value.code == "not_equivariant"


def test_sampled_reports_deterministic(space5):
    from laguerre import Budget
    r1 = space5.check_axiom("Des", Budget("sample", 5000, seed=7))
    r2 = space5.check_axiom("Des", Budget("sample", 5000, seed=7))
    assert r1.to_dict() == r2.to_dict()


def _damaged_space5(plane5, delta5, consistent):
    # consistent: one join class changed, and _byclass/_witmask rebuilt from
    # it; stale: three join classes changed alone
    gs = GroupSpace.build(plane5, canonical_pencil(plane5), delta5,
                          check_preconditions=False)
    jc = gs._joinclass
    for i, j in ((3, 8),) if consistent else ((2, 5), (5, 2), (7, 11)):
        jc[i][j] = (jc[i][j] + 1) % gs.ncls
    if consistent:
        gs._byclass = [[[j for j in range(gs.n) if j != i and jc[i][j] == c]
                        for c in range(gs.ncls)] for i in range(gs.n)]
        gs._witmask = [[sum(1 << j for j in members) for members in row]
                       for row in gs._byclass]
    return gs


def test_sampled_failure_witnesses_are_pinned(plane5, delta5):
    # three damaged join classes make T, Des and Pap fail; the draw count and
    # the first failing case depend on every randrange call, so a change to
    # the draw order or the rejections shows here
    from laguerre import Budget
    gs = _damaged_space5(plane5, delta5, consistent=False)
    expected = {
        "T": (24, {"x": "A(3,0)", "y": "A(0,2)", "z": "A(1,0)",
                   "x'": "A(2,4)", "y'": "A(4,1)"}),
        "Des": (22, {"u": "A(3,0)", "x": "A(0,2)", "y": "A(1,0)",
                     "z": "A(2,4)", "x'": "A(4,3)"}),
        "Pap": (27, {"u": "A(1,1)", "x": "A(0,2)", "y": "A(2,2)",
                     "z": "A(4,0)", "x'": "A(1,0)"}),
    }
    for axiom, (cases, witness) in expected.items():
        rep = gs.check_axiom(axiom, Budget("sample", 10 ** 6, seed=7))
        assert rep.status == "fail"
        assert (rep.cases_checked, rep.witnesses) == (cases, [witness]), axiom


def test_exhaustive_failure_witnesses_are_pinned(plane5, delta5):
    # every failing case of T, Des and Pap at q = 5, in sweep order: the
    # case count, the witness count, the first three witnesses and a digest
    # of the whole list stay as the per-case sweep reported them.  Des and
    # Pap read the line of u and x as _byclass[u][_joinclass[u][x]], so a
    # damaged join class also moves the line they read
    import hashlib
    import json
    from laguerre import Budget
    expected = {
        True: {
            "T": (1265046, 8091, [
                ("A(0,0)", "A(0,3)", "A(1,3)", "A(0,0)", "A(0,2)"),
                ("A(0,0)", "A(0,3)", "A(1,3)", "A(0,1)", "A(0,3)"),
                ("A(0,0)", "A(0,3)", "A(1,3)", "A(0,1)", "A(0,4)")],
                "c15271129a573d1a296e7e23fa675419c6eefa1bffe310d3a0a9a7875f1e978e"),
            "Des": (1114212, 14750, [
                ("A(0,0)", "A(0,1)", "A(0,3)", "A(1,3)", "A(0,4)"),
                ("A(0,0)", "A(0,2)", "A(0,3)", "A(1,3)", "A(0,3)"),
                ("A(0,0)", "A(0,2)", "A(2,2)", "A(3,2)", "A(0,3)")],
                "696136183a1b673cdbaf8f888ecc45464c0dc231e4e7378bddbaff923e113d60"),
            "Pap": (169280, 1866, [
                ("A(0,0)", "A(0,2)", "A(0,3)", "A(0,2)", "A(1,3)"),
                ("A(0,0)", "A(0,3)", "A(0,2)", "A(0,2)", "A(1,3)"),
                ("A(0,0)", "A(0,3)", "A(0,3)", "A(0,2)", "A(1,3)")],
                "c22de6e83376f7bcc41370efbe5a0400902a45f4d40cb24b817203fbb84c7d24"),
        },
        False: {
            "T": (1263850, 13950, [
                ("A(0,0)", "A(0,2)", "A(1,0)", "A(0,0)", "A(0,2)"),
                ("A(0,0)", "A(0,2)", "A(1,0)", "A(0,0)", "A(0,3)"),
                ("A(0,0)", "A(0,2)", "A(1,0)", "A(0,1)", "A(0,3)")],
                "e08d59dd2a8c862fe0cdc61ac2ef0cc6e6b72a6fc5912bd3e98cb58f4405ed8d"),
            "Des": (1112188, 37869, [
                ("A(0,0)", "A(0,1)", "A(0,2)", "A(1,0)", "A(0,4)"),
                ("A(0,0)", "A(0,1)", "A(1,0)", "A(0,2)", "A(0,4)"),
                ("A(0,0)", "A(0,1)", "A(1,2)", "A(2,1)", "A(0,4)")],
                "9b91c3c90b1d726bd9b3600cd73a150950eb9ab95b04393438d5b8d55ddb4790"),
            "Pap": (168560, 3820, [
                ("A(0,0)", "A(0,2)", "A(0,2)", "A(0,3)", "A(1,0)"),
                ("A(0,0)", "A(0,2)", "A(0,3)", "A(0,3)", "A(1,0)"),
                ("A(0,0)", "A(0,3)", "A(0,2)", "A(0,3)", "A(1,0)")],
                "e4e0837e145da964fc1d07fc1b7134146aa8811b726a060e17c4ecaf9d6d2fc6"),
        },
    }
    names = {"T": ("x", "y", "z", "x'", "y'"), "Des": ("u", "x", "y", "z", "x'"),
             "Pap": ("u", "x", "y", "z", "x'")}
    for consistent, by_axiom in expected.items():
        gs = _damaged_space5(plane5, delta5, consistent)
        for axiom, (cases, count, first, digest) in by_axiom.items():
            rep = gs.check_axiom(axiom, Budget("exhaustive", 0, 0))
            got = rep.witnesses
            assert rep.cases_checked == cases, (consistent, axiom)
            assert len(got) == count, (consistent, axiom)
            assert got[:3] == [dict(zip(names[axiom], w)) for w in first]
            assert hashlib.sha256(json.dumps(got).encode()).hexdigest() == digest


def _witness(gs, names, *case):
    """A sweep's witness of a failing case: each named point by its repr."""
    return {name: repr(gs.points[i]) for name, i in zip(names, case)}


def _pap_cases(gs, pairs):
    """Every Pap case whose (u, x) is in ``pairs``, in the sweep's loop order."""
    jl, jc, byc = gs._joinline, gs._joinclass, gs._byclass
    for u, x in pairs:
        offline = [x2 for x2 in range(gs.n)
                   if x2 != u and x2 != x and jl[u][x2] != jl[u][x]]
        online = byc[u][jc[u][x]]
        for y in online:
            for z in online:
                for x2 in offline:
                    yield u, x, y, z, x2


def _move_a_point(gs):
    # u = A(0,0): the line of u and A(0,2) in _byclass, less u, has its point
    # A(0,2) moved onto A(0,1), from (2, 3) to (1, 3)
    row = gs._byclass[0]
    assert row[gs._joinclass[0][2]] == (2, 3)
    row[gs._joinclass[0][2]] = (1, 3)
    return gs


def test_pap_rows_keep_x_out_of_the_y_prime_pool(plane5, delta5):
    # u = A(0,0), x = A(0,1), x' = A(0,2): the line of u⊔x' gets its point
    # A(0,2) moved onto x, so x enters the y' pool of the rows at (u, x).
    # With class 0 read as the diagonal's -1, a y' = x there finds a z', as
    # the case predicate, which skips y' = x, does not; the rows must drop x
    # too, or they accept a failing case.  The remap also makes every pair
    # of class 0 read its line from the last class, so most of the failing
    # cases come from there.  The damaged tables fail the table certificate,
    # so the orbit sweep refuses to run and the exhaustive one sends every
    # row to the predicate
    from laguerre import Budget
    gs = _move_a_point(GroupSpace.build(plane5, canonical_pencil(plane5), delta5,
                                        check_preconditions=False))
    gs._joinclass = [[-1 if c == 0 else c for c in jc_i] for jc_i in gs._joinclass]
    names = ("u", "x", "y", "z", "x'")
    with pytest.raises(GeometryError) as e:
        gs.check_axiom("Pap", Budget("orbit", 0, 0))
    assert e.value.code == "not_equivariant"
    every = [(u, x) for u in range(gs.n) for x in range(gs.n) if u != x]
    rep = gs.check_axiom("Pap", Budget("exhaustive", 0, 0))
    want = [_witness(gs, names, *case) for case in _pap_cases(gs, every)
            if not gs._pap_case(*case)]
    assert (rep.cases_checked, len(want)) == (182000, 29994)
    assert rep.witnesses == want
    assert want[0] == dict(zip(names, ("A(0,0)", "A(0,1)", "A(1,2)",
                                       "A(1,2)", "A(0,2)")))


def _p1_2(pl):
    return pl.pencil(affine(1, 2), Circle(0, 0, 2))


@pytest.fixture(scope="module")
def space5_p1_2():
    return GroupSpace.build(*_fresh(5, _p1_2), check_preconditions=False)


def test_row_sweeps_decide_passing_spaces(space3, space5, space7, space5_p1_2,
                                          monkeypatch):
    # the rows accept every case of a passing space, so its orbit and
    # exhaustive sweeps of T, Des and Pap call no case predicate; the sampled
    # sweeps still decide each draw with one, which shows the count is live
    from laguerre import Budget
    calls = []
    for name in ("_t_case_holds", "_des_case_holds", "_pap_case"):
        def counted(self, *case, _predicate=getattr(GroupSpace, name)):
            calls.append(case)
            return _predicate(self, *case)
        monkeypatch.setattr(GroupSpace, name, counted)
    orbit, exhaustive = Budget("orbit", 0, 0), Budget("exhaustive", 0, 0)
    for gs, budgets in ((space3, (orbit, exhaustive)), (space5, (orbit, exhaustive)),
                        (space7, (orbit,)), (space5_p1_2, (orbit, exhaustive))):
        for axiom in ("T", "Des", "Pap"):
            for budget in budgets:
                assert gs.check_axiom(axiom, budget).status == "pass"
    assert calls == []
    for axiom in ("T", "Des", "Pap"):
        assert space5.check_axiom(axiom, Budget("sample", 10, seed=1)).status == "pass"
    assert len(calls) == 30


def _sweep_pairs(gs, mode):
    """The (first, second) point pairs that a sweep in ``mode`` evaluates."""
    if mode == "orbit":
        first, orbits = gs._orbit_reps()
        return [(first, y) for y, _ in orbits]
    return [(u, x) for u in range(gs.n) for x in range(gs.n) if u != x]


def _des_cases(gs, pairs):
    """Every Des case whose (u, x) is in ``pairs``, in the sweep's loop order."""
    jc, byc = gs._joinclass, gs._byclass
    for u, x in pairs:
        for y in range(gs.n):
            if y != u and y != x:
                for z in range(gs.n):
                    if z not in (u, x, y):
                        for x2 in byc[u][jc[u][x]]:
                            yield u, x, y, z, x2


def _row_masks(gs):
    """Bitsets for the retired Des and Pap rows, derived from the tables
    their predicates read: ``cls[i][c]`` holds the points j != i with
    ``_joinclass[i][j] == c``, and ``off[u][z]`` the points of the line
    ``_byclass[u][_joinclass[u][z]]`` (0 for z = u).  ``cls[i]`` has one spare last
    slot, so that the class -1 of the diagonal reads the points that carry
    it, as the predicates' comparisons do."""
    n, jc = gs.n, gs._joinclass
    cls = [[0] * (gs.ncls + 1) for _ in range(n)]
    for i in range(n):
        row, jc_i = cls[i], jc[i]
        for j in range(n):
            if j != i:
                row[jc_i[j]] |= 1 << j
    off = [[0 if z == u else sum(1 << k for k in gs._byclass[u][c])
            for z, c in enumerate(jc[u])] for u in range(n)]
    return cls, off


def _bitset_des(gs, budget):
    """Des as its row sweep decided it before the dilatation witnesses: a row
    (y, x') holds at z where some y' of u⊔y in class(x⊔y) from x' leaves a z'
    of u⊔z in class(x⊔z) from x' and in class(y⊔z) from y', all as ANDs of
    the bitsets ``_row_masks`` derives; every rejected row goes to the
    predicate.  Kept as the oracle of the certified Des sweep."""
    from operator import and_, or_
    n, jc, byc = gs.n, gs._joinclass, gs._byclass
    cls, off = _row_masks(gs)

    def pair(u, x, fail):
        cases = 0
        off_u, jc_x, line = off[u], jc[x], byc[u][jc[u][x]]
        reach = [list(map(and_, off_u, map(cls[x2].__getitem__, jc_x)))
                 for x2 in line]
        for y in range(n):
            if y in (u, x):
                continue
            jc_y, cxy = jc[y], jc_x[y]
            rejected = []
            for x2, row in zip(line, reach):
                hit = [0] * n
                y2s = off_u[y] & cls[x2][cxy]
                while y2s:
                    low = y2s & -y2s
                    y2s ^= low
                    y2_cls = cls[low.bit_length() - 1].__getitem__
                    hit = list(map(or_, hit, map(and_, row, map(y2_cls, jc_y))))
                hit[u] = hit[x] = hit[y] = 1
                if not all(hit):
                    rejected.append(x2)
            cases += (n - 3) * (len(line) - len(rejected))
            for z in range(n):
                if rejected and z not in (u, x, y):
                    for x2 in rejected:
                        cases += 1
                        if not gs._des_case_holds(u, x, y, z, x2):
                            fail(u, x, y, z, x2)
        return cases

    return gs._sweep(budget, ("u", "x", "y", "z", "x'"), pair)


def _bitset_pap(gs, budget):
    """Pap as its row sweep decided it before the table certificate: the
    row (y, z) over every x', as ANDs of the bitsets ``_row_masks`` derives
    at the start of each sweep from the tables the predicate reads, on any
    space; every case a row does not accept goes to the predicate.  Kept as
    the oracle of the certified rows."""
    from operator import and_, neg, or_
    n, jc, jl, byc = gs.n, gs._joinclass, gs._joinline, gs._byclass
    cls, off = _row_masks(gs)

    def pair(u, x, fail):
        cases = 0
        online = byc[u][jc[u][x]]
        offline = [x2 for x2 in range(n)
                   if x2 != u and x2 != x and jl[u][x2] != jl[u][x]]
        jc_x = jc[x]
        on_x2 = [off[u][x2] for x2 in offline]
        y2_pool = [m & ~(1 << x) for m in on_x2]
        want1 = [jc_x[x2] for x2 in offline]
        for y in online:
            jc_y_x2 = list(map(jc[y].__getitem__, offline))
            z2_for = [0] + list(map(cls[y].__getitem__, jc_x))
            for z in online:
                cls_z = cls[z].__getitem__
                y2s = list(map(and_, y2_pool, map(cls_z, jc_y_x2)))
                top = map(int.bit_length, y2s)
                low = map(int.bit_length, map(and_, y2s, map(neg, y2s)))
                ok = list(map(and_, map(and_, on_x2, map(cls_z, want1)),
                              map(or_, map(z2_for.__getitem__, top),
                                  map(z2_for.__getitem__, low))))
                for x2, accepted in zip(offline, ok):
                    cases += 1
                    if not accepted and not gs._pap_case(u, x, y, z, x2):
                        fail(u, x, y, z, x2)
        return cases

    return gs._sweep(budget, ("u", "x", "y", "z", "x'"), pair)


def test_pap_rows_match_the_bitset_rows(space3, space5, space5_p1_2, plane5, delta5):
    # on a certified space the rows read the stored witness masks; on the
    # damaged spaces, which fail the certificate, every row goes to the
    # predicate; the reports are the retired bitset rows' either way
    from laguerre import Budget
    for gs in (space3, space5, space5_p1_2):
        for mode in ("orbit", "exhaustive"):
            budget = Budget(mode, 0, 0)
            assert gs._ax_Pap(budget) == _bitset_pap(gs, budget), (gs.q, mode)
    budget = Budget("exhaustive", 0, 0)
    for consistent in (True, False):
        gs = _damaged_space5(plane5, delta5, consistent)
        got = gs._ax_Pap(budget)
        assert got[1], consistent
        assert got == _bitset_pap(gs, budget), consistent


def _with_calls(gs, axiom, budget, monkeypatch):
    """``axiom`` (T, Des or Pap) on ``gs`` under ``budget``, and the cases it
    passed to its case predicate."""
    name = {"T": "_t_case_holds", "Des": "_des_case_holds", "Pap": "_pap_case"}[axiom]
    sent = []
    predicate = getattr(gs, name)

    def recording(*case):
        sent.append(case)
        return predicate(*case)

    with monkeypatch.context() as patch:
        patch.setattr(gs, name, recording)
        got = getattr(gs, f"_ax_{axiom}")(budget)
    return got, sent


def test_des_witness_rows_accept_only_holding_cases(space3, space5, space5_p1_2,
                                                     monkeypatch):
    # a row the witness accepts is not shown to the predicate; each of its
    # cases must hold under the predicate, and the report must be the
    # retired bitset row's
    from itertools import repeat
    from laguerre import Budget
    for gs in (space3, space5, space5_p1_2):
        n, jc, byc, holds = gs.n, gs._joinclass, gs._byclass, gs._des_case_holds
        for mode in ("orbit", "exhaustive"):
            budget = Budget(mode, 0, 0)
            got, sent = _with_calls(gs, "Des", budget, monkeypatch)
            assert got == _bitset_des(gs, budget), (gs.q, mode)
            sent = {(u, x, y, x2) for u, x, y, _, x2 in sent}
            for u, x in _sweep_pairs(gs, mode):
                for y in range(n):
                    if y == u or y == x:
                        continue
                    zs = [z for z in range(n) if z not in (u, x, y)]
                    for x2 in byc[u][jc[u][x]]:
                        if (u, x, y, x2) not in sent:
                            assert all(map(holds, repeat(u), repeat(x), repeat(y),
                                           zs, repeat(x2))), (gs.q, mode, u, x, y, x2)


def test_des_reports_match_the_bitset_rows_on_damaged_spaces(plane5, delta5):
    # the damaged tables are not equivariant, so only the exhaustive sweep
    # runs on them
    from laguerre import Budget
    budget = Budget("exhaustive", 0, 0)
    for consistent in (True, False):
        gs = _damaged_space5(plane5, delta5, consistent)
        got = gs._ax_Des(budget)
        assert got[1], consistent
        assert got == _bitset_des(gs, budget), consistent


def test_des_witnesses_check_the_line_tables(plane5, delta5):
    # the line of u = A(0,0) and A(0,2), read for y or z = A(0,2) or A(0,3),
    # loses A(0,2) to A(0,1), so a y' = A(0,2) no longer counts.  Every
    # witness g with g(A(0,2)) = A(0,2) still carries the join classes as a
    # dilatation does; only the check of the by-class table against them
    # keeps its rows from accepting the cases that the predicate now fails.
    # The table fails the table certificate, so the orbit sweep refuses to run
    from laguerre import Budget
    gs = _move_a_point(GroupSpace.build(plane5, canonical_pencil(plane5), delta5,
                                        check_preconditions=False))
    names = ("u", "x", "y", "z", "x'")
    with pytest.raises(GeometryError) as e:
        gs.check_axiom("Des", Budget("orbit", 0, 0))
    assert e.value.code == "not_equivariant"
    rep = gs.check_axiom("Des", Budget("exhaustive", 0, 0))
    want = [_witness(gs, names, *case)
            for case in _des_cases(gs, _sweep_pairs(gs, "exhaustive"))
            if not gs._des_case_holds(*case)]
    assert (rep.cases_checked, len(want)) == (1113200, 4796)
    assert rep.witnesses == want
    assert want[0] == dict(zip(names, ("A(0,0)", "A(0,1)", "A(0,2)",
                                       "A(0,3)", "A(0,1)")))


def test_orbit_des_and_pap_reject_a_short_line_table(plane5, delta5):
    # the line of A(1,2) and A(0,0), off point 0, with its first point
    # dropped from _byclass: orbit Des and Pap read only point 0's row, and
    # would pass; the table certificate compares every row with the join
    # classes, while the exhaustive sweeps report the failing cases
    from laguerre import Budget
    gs = GroupSpace.build(plane5, canonical_pencil(plane5), delta5,
                          check_preconditions=False)
    row = gs._byclass[7]
    row[gs._joinclass[7][0]] = row[gs._joinclass[7][0]][1:]
    for axiom, cases, count in (("Des", 1111176, 3152), ("Pap", 168240, 396)):
        with pytest.raises(GeometryError) as e:
            gs.check_axiom(axiom)
        assert e.value.code == "not_equivariant", axiom
        rep = gs.check_axiom(axiom, Budget("exhaustive", 0, 0))
        assert (rep.status, rep.cases_checked, len(rep.witnesses)) == (
            "fail", cases, count), axiom


def _bitset_t(gs, budget):
    """T as its row sweep decided it before transport: the row of (x, y, z)
    holds where every (x', y') of class(x⊔y) ANDs the witness masks of x'
    in class(x⊔z) and of y' in class(y⊔z) to nonzero, one C-level pass over
    all the pairs; every rejected row goes to the predicate.  Kept as the
    oracle of the transported rows."""
    from operator import and_
    n, jc, byc = gs.n, gs._joinclass, gs._byclass
    flat = [([], []) for _ in range(gs.ncls)]
    for x2 in range(n):
        for (xs, ys), partners in zip(flat, byc[x2]):
            xs.extend([x2] * len(partners))
            ys.extend(partners)
    cols = [list(col) for col in zip(*gs._witmask)]

    def pair(x, y, fail):
        cases = 0
        cxy = jc[x][y]
        xs, ys = flat[cxy]
        of_x = [list(map(col.__getitem__, xs)) for col in cols]
        of_y = [list(map(col.__getitem__, ys)) for col in cols]
        for z in range(n):
            if z == x or z == y:
                continue
            if all(map(and_, of_x[jc[x][z]], of_y[jc[y][z]])):
                cases += len(xs)
                continue
            for x2 in range(n):
                for y2 in byc[x2][cxy]:
                    cases += 1
                    if not gs._t_case_holds(x, y, z, x2, y2):
                        fail(x, y, z, x2, y2)
        return cases

    return gs._sweep(budget, ("x", "y", "z", "x'", "y'"), pair)


def test_t_transport_rows_match_the_bitset_rows(space3, space5, space5_p1_2):
    from laguerre import Budget
    for gs in (space3, space5, space5_p1_2):
        for mode in ("orbit", "exhaustive"):
            budget = Budget(mode, 0, 0)
            assert gs._ax_T(budget) == _bitset_t(gs, budget), (gs.q, mode)


def test_t_reports_match_the_bitset_rows_on_damaged_spaces(plane5, delta5,
                                                           monkeypatch):
    # the damaged join classes are not equivariant, so the space is not
    # certified and every row goes to the predicate
    from laguerre import Budget
    budget = Budget("exhaustive", 0, 0)
    for consistent in (True, False):
        gs = _damaged_space5(plane5, delta5, consistent)
        got, sent = _with_calls(gs, "T", budget, monkeypatch)
        assert got[1], consistent
        assert got == _bitset_t(gs, budget), consistent
        assert len(sent) == got[0], consistent


def _unit_translations(gs):
    gs._gen_perms = [gs.point_perm(PencilAut(1, 1, 0)), gs.point_perm(PencilAut(1, 0, 1))]


def _stale_witmask(gs):
    mask = gs._witmask[7][2]
    gs._witmask[7][2] = mask & (mask - 1)


def _short_byclass(gs):
    gs._byclass[7][2] = gs._byclass[7][2][1:]


@pytest.mark.parametrize("damage, axiom", [
    pytest.param(damage, axiom, id=damage.__name__ + ("" if axiom == "T" else "-Des"))
    for axiom in ("T", "Des")
    for damage in (_stale_witmask, _short_byclass, _unit_translations)])
def test_t_transport_needs_each_certificate_clause(plane5, delta5, damage, axiom,
                                                   monkeypatch):
    # a witness mask off point 0 that lost a bit or a by-class list that lost
    # a point leaves the space uncertified, so the exhaustive T and Des
    # sweeps send every case to the predicate and their orbit sweeps refuse
    # to run.  Generators cut to the unit translations still reach every
    # point, and the dilatation supplies the motion within each class, so
    # that space is certified and its reports are the oracles'
    from laguerre import Budget
    gs = GroupSpace.build(plane5, canonical_pencil(plane5), delta5,
                          check_preconditions=False)
    damage(gs)
    budget = Budget("exhaustive", 0, 0)
    got, sent = _with_calls(gs, axiom, budget, monkeypatch)
    assert got == {"T": _bitset_t, "Des": _bitset_des}[axiom](gs, budget)
    if axiom == "Des":
        # Des reads its lines from _byclass, so a short one has fewer cases
        assert got[0] == (1111176 if damage is _short_byclass else 1113200)
    if damage is _unit_translations:
        assert sent == []
        orbit = gs.check_axiom(axiom)
        assert orbit.details["cases_represented"] == got[0]
        return
    assert len(sent) == got[0]
    with pytest.raises(GeometryError) as e:
        gs.check_axiom(axiom)
    assert e.value.code == "not_equivariant"


def _cut_stabilizer(gs):
    # (a) Stab(0) cut to the identity: no power turns each line through it
    gs.stabilizer0 = [list(range(gs.n))]


def _rotate_lines(gs):
    # (b) Stab(0) cut to the rotation of each line through point 0 in index
    # order: the right cycles, the wrong classes
    rotation = list(range(gs.n))
    for line in {gs._byclass[0][c] for c in gs._joinclass[0][1:]}:
        for k, j in enumerate(line):
            rotation[j] = line[(k + 1) % len(line)]
    gs.stabilizer0 = [rotation]


def _split_a_line(gs):
    # (c) the generators cut to the unit translations, and one point of a
    # circle line through point 0 moved onto the straight line through it,
    # along every translation, so the join lines stay equivariant
    translations = gs._schreier()[0]
    _unit_translations(gs)
    j, j2 = gs._byclass[0][3][0], gs._byclass[0][2][0]
    for i, trans in enumerate(translations):
        gs._joinline[i][trans[j]] = gs._joinline[i][trans[j2]]


@pytest.mark.parametrize("damage", [_cut_stabilizer, _rotate_lines, _split_a_line])
@pytest.mark.parametrize("axiom", ["T", "Des", "Pap"])
def test_rows_need_each_dilatation_clause(plane5, delta5, damage, axiom, monkeypatch):
    """Each damage passes the table certificate and fails one clause of the
    dilatation's, so the exhaustive sweeps send every case to the predicate
    and report as the oracles do, and the orbit sweeps refuse to run.  The
    tables are intact in the first two, and every case holds.  In the third,
    one class through each point u lies on two lines, and 300 Pap cases
    fail, each with x' of the class of u⊔x but off its line; certified rows
    would accept them."""
    from laguerre import Budget
    gs = GroupSpace.build(plane5, canonical_pencil(plane5), delta5,
                          check_preconditions=False)
    damage(gs)
    gs.certificate
    budget = Budget("exhaustive", 0, 0)
    got, sent = _with_calls(gs, axiom, budget, monkeypatch)
    oracle = {"T": _bitset_t, "Des": _bitset_des, "Pap": _bitset_pap}[axiom]
    assert got == oracle(gs, budget)
    assert len(sent) == got[0]
    assert len(got[1]) == (300 if (damage, axiom) == (_split_a_line, "Pap") else 0)
    with pytest.raises(GeometryError) as e:
        gs.check_axiom(axiom)
    assert e.value.code == "not_equivariant"


def test_orbit_pgm_and_v_reject_a_stale_witness_mask(plane5, delta5):
    # with one bit dropped from a witness mask the join tables stay
    # equivariant; the orbit sweeps of Pgm and V read the mask and must not
    # report from it (Pgm would pass, V find 1 of the 64 failing cases)
    from laguerre import Budget
    gs = GroupSpace.build(plane5, canonical_pencil(plane5), delta5,
                          check_preconditions=False)
    _stale_witmask(gs)
    for axiom, count in (("Pgm", 16), ("V", 64)):
        rep = gs.check_axiom(axiom, Budget("exhaustive", 0, 0))
        assert (rep.status, len(rep.witnesses)) == ("fail", count), axiom
        with pytest.raises(GeometryError) as e:
            gs.check_axiom(axiom)
        assert e.value.code == "not_equivariant", axiom


def test_certificates_are_checked_lazily_and_only_where_read():
    # the build checks no symmetry; Pgm and V check the tables, not the
    # dilatation that only the T, Des and Pap rows read
    certificates = ("certificate", "_check_dilatation")

    def cached(gs):
        return {name for name in certificates if name in vars(gs)}

    gs = GroupSpace.build(*_fresh(3), check_preconditions=False)
    assert cached(gs) == set()
    gs.check_axiom("Des")
    assert cached(gs) == {"certificate", "_check_dilatation"}
    gs = GroupSpace.build(*_fresh(3), check_preconditions=False)
    gs.check_axiom("Pgm")
    gs.check_axiom("V")
    assert cached(gs) == {"certificate"}
    gs.check_axiom("Pap")
    c = gs._check_dilatation
    assert c in gs.stabilizer0
    # at q = 3 a line through point 0 has one or two other points
    assert {tuple(sorted({j, c[j]})) for j in range(1, gs.n)} == \
        {gs._byclass[0][k] for k in gs._joinclass[0][1:]}


@pytest.mark.parametrize("damage, certificate", [(_stale_witmask, "certificate"),
                                                 (_cut_stabilizer, "_check_dilatation")])
def test_a_failing_certificate_runs_again_at_its_next_read(plane5, delta5, damage,
                                                           certificate):
    # a cached property whose getter raises caches nothing: a damaged space
    # fails its certificate at every read, and once the damage is undone
    # the next read certifies it and is kept
    gs = GroupSpace.build(plane5, canonical_pencil(plane5), delta5,
                          check_preconditions=False)
    witmask, stabilizer0 = [list(row) for row in gs._witmask], gs.stabilizer0
    damage(gs)
    for _ in range(2):
        with pytest.raises(GeometryError) as e:
            getattr(gs, certificate)
        assert e.value.code == "not_equivariant"
        assert certificate not in vars(gs)
    gs._witmask, gs.stabilizer0 = witmask, stabilizer0
    got = getattr(gs, certificate)
    assert vars(gs)[certificate] is got


def test_certificate_is_each_generators_line_permutation(space3, space5, space5_p1_2):
    # the permutations the table certificate checked, one per generator in
    # the group's order, each line's image under the generator's point action
    for gs in (space3, space5, space5_p1_2):
        got = gs.certificate
        assert list(got) == gs.delta.generators()
        for g, line_perm in got.items():
            perm = gs.point_perm(g)
            assert line_perm[:len(gs.lines)] == [gs.line_image(perm, line).index
                                                 for line in gs.lines], (gs.q, g)
        assert gs.certificate is got  # run once per space


def test_t_orbit_matches_exhaustive_q7(space7):
    from laguerre import Budget
    for gs in (space7, GroupSpace.build(*_fresh(7, _p1_2), check_preconditions=False)):
        for axiom in ("T", "Des", "Pap"):
            orbit = gs.check_axiom(axiom, Budget("orbit", 0, 0))
            brute = gs.check_axiom(axiom, Budget("exhaustive", 0, 0))
            assert orbit.status == brute.status == "pass", axiom
            assert orbit.details["cases_represented"] == brute.cases_checked, axiom
            if axiom == "T":
                assert brute.cases_checked == 30468690


def _p1_every_line_and_point(gs):
    """``_ax_P1`` as it was before its class lists, kept as the oracle: one
    case per (line, point), re-reading the per-(point, class) count."""
    counts = [[len({gs._joinline[i][j] for j in gs._byclass[i][c]})
               for c in range(gs.ncls)] for i in range(gs.n)]
    cases, witnesses = 0, []
    for line in gs.lines:
        c = gs.class_ids.index(line.class_id)
        for i in range(gs.n):
            cases += 1
            hit = counts[i][c] if gs._byclass[i][c] else 0
            if hit != 1:
                witnesses.append(dict(_witness(gs, ("x",), i), line=line.index, count=hit))
    return cases, witnesses, {"mode": "exhaustive"}


def test_p1_class_lists_match_every_line_and_point(space5):
    from laguerre import Budget
    assert space5._ax_P1(Budget()) == _p1_every_line_and_point(space5)
    # a damaged copy: point 3 sees two lines in the class of its join with
    # point 7, and point 4 none in the first class
    plane = LaguerrePlane(5)
    pencil = canonical_pencil(plane)
    gs = GroupSpace.build(plane, pencil, DeltaGroup.build(plane, pencil),
                          check_preconditions=False)
    c = gs._joinclass[3][7]
    other = next(j for j in gs._byclass[3][c] if j != 7)
    gs._joinline[3][7] = next(ix for ix in gs.class_members[gs.class_ids[c]]
                              if ix != gs._joinline[3][other])
    gs._byclass[4] = [()] + gs._byclass[4][1:]
    got = gs._ax_P1(Budget())
    assert got == _p1_every_line_and_point(gs)
    assert {(w["x"], w["count"]) for w in got[1]} == {("A(0,3)", 2), ("A(0,4)", 0)}


def test_noncanonical_space_smoke():
    # an affine-vertex pencil: same invariants, transported by conjugation
    pl = LaguerrePlane(5)
    pencil = pl.pencil(affine(0, 0), Circle(0, 0, 0))
    delta = DeltaGroup.build(pl, pencil)
    gs = GroupSpace.build(pl, pencil, delta, check_preconditions=False)
    census = gs.census()
    assert census["points"] == 25
    assert census["lines"] == 155
    assert census["classes"] == 7
    assert gs.check_axiom("P1").status == "pass"
    assert gs.check_axiom("P2").status == "pass"
    for axiom in ("T", "Des", "Pap"):
        rep = gs.check_axiom(axiom)
        assert rep.status == "pass", (axiom, rep.witnesses[:2])
        assert rep.details["mode"] == "orbit"


@pytest.mark.parametrize("q", (3, 5))
def test_every_vertex_pencil_matches_canonical(q):
    # the groups of all pencils are conjugate, so every census and every
    # default axiom sweep must come out as for the canonical pencil
    pl = LaguerrePlane(q)
    pencils = ([pl.pencil(affine(x, y), Circle(0, 0, y))
                for x in range(q) for y in range(q)]
               + [pl.pencil(ideal(a), Circle(a, 0, 0)) for a in range(q)])
    assert len(pencils) == q * q + q

    def outcomes(pencil):
        gs = GroupSpace.build(pl, pencil, DeltaGroup.build(pl, pencil),
                              check_preconditions=False)
        return gs.census(), [(rep.status, rep.cases_checked, rep.details["mode"])
                             for rep in map(gs.check_axiom, AXIOMS)]

    want = outcomes(canonical_pencil(pl))
    assert all(status == "pass" for status, _, _ in want[1])
    for pencil in pencils:
        assert outcomes(pencil) == want, pencil


def test_line_image_matches_point_action(space3, space5):
    # reference: act on the named points one at a time with DeltaGroup.image
    # and look the image up by point set and base-point set, which tell the
    # q = 3 twin lines apart
    pl = LaguerrePlane(5)
    pencil = pl.pencil(affine(1, 2), Circle(0, 0, 2))
    conjugated = GroupSpace.build(pl, pencil, DeltaGroup.build(pl, pencil),
                                  check_preconditions=False)
    for gs in (space3, space5, conjugated):
        by_points = {(line.points, line.base_points): line for line in gs.lines}
        assert len(by_points) == len(gs.lines)
        points, index = gs.plane.points, gs.plane.point_index
        for f in gs.delta.elements:
            perm = gs.point_perm(f)

            def act(p):
                return points[gs.delta.image(f, index[p])]

            for line in gs.lines:
                pts = tuple(sorted(map(act, line.points)))
                bases = tuple(sorted(map(act, line.base_points)))
                want = by_points[(pts, bases)]
                assert gs.line_image(perm, line) is want, (gs.q, f, line.index)


def test_space_json(space3):
    blob = space3.to_json()
    assert blob["q"] == 3
    assert len(blob["points"]) == 9
    assert len(blob["lines"]) == 39
    for entry in blob["lines"]:
        assert set(entry) == {"base", "kind", "class", "points"}
    # each point is encoded once: the lines hold the very dicts of "points"
    encoded = {id(p) for p in blob["points"]}
    for entry in blob["lines"]:
        assert id(entry["base"]) in encoded
        assert all(id(p) in encoded for p in entry["points"])
