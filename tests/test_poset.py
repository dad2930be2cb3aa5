"""Poset and simplicial-complex tests: Quillen/Brown/abelian posets,
order complexes, the link oracle, joins, wedges, and the text format."""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from quillen import constructions as cs
from quillen import group as gp
from quillen import poset as ps
from quillen import theorems as th
from quillen.errors import ComplexTooLarge, InvalidSpec, NodeNotInPoset
from quillen.homology import TorusComplex

import oracles


def G_of(name):
    return cs.catalog_group(name)


# -- posets -------------------------------------------------------------

def test_quillen_poset_s3():
    P = ps.quillen_poset(G_of("S3"), 2)
    assert len(P) == 3
    assert all(S.order == 2 for S in P.nodes)
    assert oracles.covers(P) == []


def test_quillen_poset_d8():
    P = ps.quillen_poset(G_of("D8"), 2)
    assert len(P) == 7  # 5 C2s + 2 V4s
    assert len(oracles.covers(P)) == 6  # each V4 covers 3 C2s


def test_brown_poset_proper():
    # D8 is a 2-group, so its Brown poset keeps D8 itself
    B = ps.brown_poset(G_of("D8"), 2)
    assert len(B) == 9  # 10 subgroups - trivial


def test_poset_intervals():
    G = G_of("D8")
    P = ps.quillen_poset(G, 2)
    Z = gp.center(G.full())
    up = ps.upper_interval(P, Z)
    assert len(up) == 2  # the two V4s
    V = up.nodes[0]
    low = oracles.lower_interval(P, V)
    assert len(low) == 3
    assert len(oracles.open_interval(P, Z, V)) == 0


@pytest.mark.parametrize("name,p,sizes", [
    ("S4", 2, [1, 3, 3, 6]),  # V4 normal, V4 = <(12),(34)>, (12)(34), (12)
    ("D8", 2, [1, 1, 1, 2, 2]),  # two V4s, Z, two classes of reflections
    ("C3C3:SL(2,3)", 3, None)])
def test_conjugacy_classes_are_orbits_under_all_of_g(name, p, sizes):
    G = G_of(name)
    P = ps.quillen_poset(G, p)
    classes = ps.conjugacy_classes(P)
    if sizes is not None:
        assert sorted(len(c) for c in classes) == sizes
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)
    for c in classes:
        assert c == sorted(c)
        for i in c:
            orbit = {P.index_of(gp.conjugate_subgroup(P.nodes[i], g))
                     for g in range(G.order)}
            assert orbit == set(c)


def test_index_of_missing_node():
    G = G_of("D8")
    P = ps.quillen_poset(G, 2)
    with pytest.raises(NodeNotInPoset):
        P.index_of(G.full())


def test_ab_poset_d8_above_center():
    G = G_of("D8")
    A = ps.ab_poset(G.full())
    Z = gp.center(G.full())
    up = ps.upper_interval(A, Z)
    # one C4 and two V4s strictly above the center
    assert len(up) == 3
    assert sorted(S.order for S in up.nodes) == [4, 4, 4]


LARGE = ("C3^4:(SD16oC4)", "C3^4:(SD16oD8)")  # orders 2592 and 5184


def _primes(n):
    return [q for q in range(2, n + 1)
            if n % q == 0 and all(q % r for r in range(2, q))]


@pytest.mark.parametrize("name", [name for name in cs.catalog_names()
                                  if name not in LARGE])
def test_above_and_below_match_all_pairs(name):
    """The bitsets, read as sets of node indices, are the strict
    inclusions found by comparing every pair of nodes."""
    G = G_of(name)
    for p in _primes(G.order):
        for P in (ps.quillen_poset(G, p), ps.brown_poset(G, p)):
            n = len(P)
            above = [frozenset(j for j in range(n) if i != j
                               and P.nodes[i] < P.nodes[j])
                     for i in range(n)]
            assert [frozenset(ps.bits(m)) for m in P.above] == above
            assert [frozenset(ps.bits(m)) for m in P.below] == \
                [frozenset(j for j in range(n) if i in above[j])
                 for i in range(n)]


def _assert_matches_the_oracles(P):
    """The relation, the core, the conjugacy classes and the conjunctive
    element from bitsets equal the old engines' (tests/oracles.py)."""
    assert oracles.relation_as_sets(P) == oracles.relation_by_pairs(P)
    assert P.core() == oracles.core_by_sets(P)
    assert ps.conjugacy_classes(P) == \
        oracles.conjugacy_classes_by_subgroups(P)
    assert ps.find_conjunctive_element(P) == \
        oracles.find_conjunctive_element_by_pairs(P)
    assert P.height() == max(
        (len(c) for c in ps.order_complex(P).simplices), default=0) - 1


def _assert_intervals_match_the_oracles(P):
    """Every upper interval: its relation and core."""
    for x in range(len(P)):
        Q = P.induced(ps.bits(P.above[x]))
        assert oracles.relation_as_sets(Q) == oracles.relation_by_pairs(Q)
        assert Q.core() == oracles.core_by_sets(Q)


def _manifest_rows():
    path = os.path.join(os.path.dirname(cs.__file__), "suite_manifest.json")
    with open(path) as fh:
        return sorted({(i["name"], i["prime"])
                       for i in json.load(fh)["instances"]})


@pytest.mark.parametrize("name,p", _manifest_rows(), ids=str)
def test_bitset_posets_match_the_oracles_on_manifest_rows(name, p):
    """Torus and Brown posets of every suite row; of the two large
    witnesses, the torus posets only (the Brown poset of
    C3^4:(SD16oC4) has its own test, that of C3^4:(SD16oD8) 13644
    nodes)."""
    G = G_of(name)
    A = ps.quillen_poset(G, p)
    _assert_matches_the_oracles(A)
    if name not in LARGE:
        _assert_intervals_match_the_oracles(A)
        _assert_matches_the_oracles(ps.brown_poset(G, p))


def test_bitset_brown_poset_of_c3_to_the_fourth_matches_the_oracles():
    P = ps.brown_poset(G_of("C3^4:(SD16oC4)"), 2)
    assert len(P) == 2925
    assert oracles.relation_as_sets(P) == oracles.relation_by_pairs(P)
    assert P.core() == oracles.core_by_sets(P)
    assert ps.conjugacy_classes(P) == \
        oracles.conjugacy_classes_by_subgroups(P)


def test_bitset_ab_poset_with_an_empty_witness_matches_the_oracles():
    """Ab(D8oD8) holds the trivial subgroup, whose witness is empty: the
    meet over no generators is every node."""
    A = ps.ab_poset(G_of("D8oD8"))
    assert A.nodes[0].generator_witness == ()
    assert A.above[0] == (1 << len(A)) - 2
    _assert_matches_the_oracles(A)
    _assert_intervals_match_the_oracles(A)


def test_wedge_formula_posets_match_the_oracles(monkeypatch):
    """The poset of the NX that `verify_pulkus_welker` builds on S3^3 at
    p = 2, whose witnesses generate its nodes, and the nodes of A it
    takes inside each NA, which are those of A inside NA."""
    T = TorusComplex(cs.direct_product([G_of("S3")] * 3), 2)
    A = T.poset
    seen, profiled = [], []
    classes, profile = th.ps.conjugacy_classes, th.poset_homology

    def record_classes(P):
        seen.append(P)
        return classes(P)

    def record_profile(P):
        profiled.append(frozenset(S.members for S in P.nodes))
        return profile(P)

    monkeypatch.setattr(th.ps, "conjugacy_classes", record_classes)
    monkeypatch.setattr(th, "poset_homology", record_profile)
    assert th.verify_pulkus_welker(T).agrees
    monkeypatch.undo()
    [PQ] = seen
    for S in PQ.nodes:
        assert T.group.closure(S.generator_witness) == S.member_set
    _assert_matches_the_oracles(PQ)
    _assert_intervals_match_the_oracles(PQ)
    for cls in oracles.conjugacy_classes_by_subgroups(PQ):
        NA = PQ.nodes[cls[0]]
        if NA.order < T.group.order:
            assert frozenset(X.members for X in A.nodes if X <= NA) \
                in profiled


def test_every_node_is_generated_by_its_witness():
    """The relation rests on it: a node contains H exactly when it
    holds H's generator witness."""
    for name in cs.catalog_names():
        G = G_of(name)
        posets = [ps.ab_poset(G)] if G.order <= 64 else []
        for p in _primes(G.order):
            posets.append(ps.quillen_poset(G, p))
            if name not in LARGE:
                posets.append(ps.brown_poset(G, p))
        for P in posets:
            for S in P.nodes:
                assert G.closure(S.generator_witness) == S.member_set, name


def test_conjugacy_classes_refuse_a_poset_not_closed_under_conjugation():
    G = G_of("S3")
    P = ps.quillen_poset(G, 2)
    with pytest.raises(NodeNotInPoset):
        ps.conjugacy_classes(P.induced([0]))


def test_find_conjunctive_element():
    G = G_of("D8")
    P = ps.quillen_poset(G, 2)
    c = ps.find_conjunctive_element(P)
    assert c is not None
    assert c.member_set == gp.center(G.full()).member_set
    # three isolated points: no conjunctive element
    S3 = G_of("S3")
    assert ps.find_conjunctive_element(ps.quillen_poset(S3, 2)) is None


# -- simplicial complexes -----------------------------------------------

def test_order_complex_chains():
    G = G_of("D8")
    P = ps.quillen_poset(G, 2)
    C = ps.order_complex(P)
    assert C.dim == 1
    assert oracles.n_simplices(C, 0) == 7
    assert oracles.n_simplices(C, 1) == 6
    assert oracles.vertices(C) == list(range(len(P)))


def test_empty_and_point_complexes():
    empty = ps.SimplicialComplex([])
    assert empty.dim == -1 and empty.simplices == ((),)
    pt = ps.SimplicialComplex([[0]], close=True)
    assert pt.dim == 0
    assert oracles.euler_characteristic_reduced(pt) == 0


def test_close_under_faces():
    C = ps.SimplicialComplex([[0, 1, 2]], close=True)
    assert oracles.n_simplices(C, 2) == 1
    assert oracles.n_simplices(C, 1) == 3
    assert oracles.n_simplices(C, 0) == 3
    assert (0, 2) in C.simplices


def test_repeated_vertices_collapse():
    C = ps.SimplicialComplex.import_text("1 1 2\n")
    assert C.simplices == ((), (1,), (2,), (1, 2))
    assert C.dim == 1


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sets(st.integers(0, 9), max_size=6), max_size=10))
def test_closure_matches_every_subset(facets):
    """Closing by codimension-1 steps from the top gives the complex that
    listing every subset of every facet gives, on random facet lists
    (empty, repeated and nested facets among them)."""
    C = ps.SimplicialComplex(facets, close=True)
    assert set(map(frozenset, C.simplices)) == \
        oracles.close_by_combinations(facets)
    assert len(C.simplices) == len(set(C.simplices))


def test_simplices_bucketed_by_dimension():
    """Simplices are sorted vertex tuples in cell order: by size, then
    lexicographic, the empty simplex first."""
    C = ps.SimplicialComplex([[3, 1, 2], [0, 4], [5]], close=True)
    assert all(list(s) == sorted(s) for s in C.simplices)
    assert list(C.simplices) == sorted(C.simplices, key=lambda s: (len(s), s))
    assert C.simplices[:7] == ((), (0,), (1,), (2,), (3,), (4,), (5,))
    assert C.simplices[-1] == (1, 2, 3) and C.dim == 2


def test_facets():
    C = ps.SimplicialComplex([[0, 1], [1, 2], [2]], close=True)
    assert oracles.facets(C) == [frozenset([0, 1]), frozenset([1, 2])]


def test_link():
    C = ps.SimplicialComplex([[0, 1, 2]], close=True)
    lk = oracles.link(C, [0])
    assert lk.dim == 1 and (1, 2) in lk.simplices
    with pytest.raises(oracles.SimplexNotInComplex):
        oracles.link(C, [0, 3])


def test_join_is_associative_on_sizes():
    s0 = ps.SimplicialComplex([[0], [1]], close=True)
    circle = oracles.join(s0, s0)
    assert circle.dim == 1
    assert oracles.n_simplices(circle, 1) == 4
    assert oracles.euler_characteristic_reduced(circle) == -1  # circle: chi~ = -1
    # join with the vertex-free complex is the identity
    assert oracles.join(s0, oracles.EMPTY_COMPLEX).simplices == s0.simplices


def test_wedge():
    tri = ps.SimplicialComplex([[0, 1], [1, 2], [0, 2]], close=True)
    W = oracles.wedge(oracles.WedgeAssembly(tri, ((tri, 0),)))
    assert oracles.n_simplices(W, 1) == 6
    assert oracles.n_simplices(W, 0) == 5
    with pytest.raises(oracles.BadAttachment):
        oracles.wedge(oracles.WedgeAssembly(tri, ((tri, 99),)))


def test_text_round_trip():
    G = G_of("D8")
    C = ps.order_complex(ps.quillen_poset(G, 2))
    text = C.export_text()
    back = ps.SimplicialComplex.import_text(text)
    assert back.simplices == C.simplices
    # facet-only input is closed over
    assert oracles.n_simplices(
        ps.SimplicialComplex.import_text("0 1 2\n"), 1) == 3
    # comments and blank lines ignored
    assert ps.SimplicialComplex.import_text("# c\n\n0 1\n").dim == 1


def test_a_bad_token_names_its_line():
    with pytest.raises(InvalidSpec, match=r"complex line 3 .*'0 1 x'"):
        ps.SimplicialComplex.import_text("0 1\n# c\n0 1 x\n")


def test_closing_too_many_faces_is_refused(monkeypatch):
    """One n-vertex simplex closes to 2^n faces: a line of 40 vertex ids
    is refused before any face is made.  The bound counts each distinct
    simplex given, the empty one among them, once, and each open one (a
    codimension-1 face of it is not given) 2^(vertex count) times; a
    complex at the bound is admitted."""
    with pytest.raises(ComplexTooLarge):
        ps.SimplicialComplex.import_text(" ".join(map(str, range(40))))
    monkeypatch.setattr(ps, "FACE_BOUND", 10)
    C = ps.SimplicialComplex.import_text("0 1 2\n2 1 0\n4\n")  # 8 + 1 + 1
    assert len(C.simplices) == 9
    with pytest.raises(ComplexTooLarge):
        ps.SimplicialComplex.import_text("0 1 2\n4\n5\n")  # 8 + 1 + 1 + 1
    # (0, 1) is given but open, (1, 2) given and closed: 8 + 4 + 4 * 1
    text = "0 1 2\n0 1\n1 2\n1\n2\n"
    monkeypatch.setattr(ps, "FACE_BOUND", 16)
    assert len(ps.SimplicialComplex.import_text(text).simplices) == 8
    monkeypatch.setattr(ps, "FACE_BOUND", 15)
    with pytest.raises(ComplexTooLarge):
        ps.SimplicialComplex.import_text(text)


def test_an_export_weighs_its_face_count(monkeypatch):
    """An exported complex is closed, so reading it back makes no new
    face: it is admitted at a bound of its face count, far below the sum
    of 2^(vertex count) over its lines, and refused one below.  Its
    facets alone weigh that sum over the facets."""
    C = ps.order_complex(ps.quillen_poset(cs.catalog_group("S4"), 2))
    text = C.export_text()
    monkeypatch.setattr(ps, "FACE_BOUND", len(C.simplices))
    assert sum(1 << len(s) for s in C.simplices) > 2 * ps.FACE_BOUND
    assert ps.SimplicialComplex.import_text(text).simplices == C.simplices
    facets = oracles.facets(C)
    assert 1 + sum(1 << len(f) for f in facets) > ps.FACE_BOUND
    with pytest.raises(ComplexTooLarge):
        ps.SimplicialComplex.import_text(
            "".join(" ".join(map(str, sorted(f))) + "\n" for f in facets))
    monkeypatch.setattr(ps, "FACE_BOUND", len(C.simplices) - 1)
    with pytest.raises(ComplexTooLarge):
        ps.SimplicialComplex.import_text(text)
