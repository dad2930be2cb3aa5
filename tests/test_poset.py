"""Poset and simplicial-complex tests: Quillen/Brown/abelian posets,
order complexes, links, joins, wedges, and the text format."""

import pytest
from hypothesis import given, settings, strategies as st

from quillen import constructions as cs
from quillen import group as gp
from quillen import poset as ps
from quillen.errors import NodeNotInPoset, SimplexNotInComplex

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
    G = G_of(name)
    for p in _primes(G.order):
        for P in (ps.quillen_poset(G, p), ps.brown_poset(G, p)):
            n = len(P)
            above = [frozenset(j for j in range(n) if i != j
                               and P.nodes[i] < P.nodes[j])
                     for i in range(n)]
            assert P.above == above
            assert P.below == [frozenset(j for j in range(n) if i in above[j])
                               for i in range(n)]


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
    assert C.n_simplices(0) == 7
    assert C.n_simplices(1) == 6
    assert C.vertices == list(range(len(P)))


def test_empty_and_point_complexes():
    empty = ps.SimplicialComplex([])
    assert empty.dim == -1 and empty.n_simplices(-1) == 1
    pt = ps.SimplicialComplex([[0]], close=True)
    assert pt.dim == 0
    assert oracles.euler_characteristic_reduced(pt) == 0


def test_close_under_faces():
    C = ps.SimplicialComplex([[0, 1, 2]], close=True)
    assert C.n_simplices(2) == 1
    assert C.n_simplices(1) == 3
    assert C.n_simplices(0) == 3
    assert frozenset([0, 2]) in C


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sets(st.integers(0, 9), max_size=6), max_size=10))
def test_closure_matches_every_subset(facets):
    """Closing by codimension-1 steps from the top gives the complex that
    listing every subset of every facet gives, on random facet lists
    (empty, repeated and nested facets among them)."""
    C = ps.SimplicialComplex(facets, close=True)
    assert C.simplices == oracles.close_by_combinations(facets)


def test_simplices_bucketed_by_dimension():
    C = ps.SimplicialComplex([[3, 1, 2], [0, 4], [5]], close=True)
    for k in range(-1, C.dim + 2):
        rescan = sorted((s for s in C.simplices if len(s) == k + 1),
                        key=lambda s: tuple(sorted(s)))
        assert list(C.simplices_of_dim(k)) == rescan
        assert C.n_simplices(k) == len(rescan)
    assert C.simplices_of_dim(1) is C.simplices_of_dim(1)
    assert C.simplices_of_dim(7) == ()


def test_facets():
    C = ps.SimplicialComplex([[0, 1], [1, 2], [2]], close=True)
    assert oracles.facets(C) == [frozenset([0, 1]), frozenset([1, 2])]


def test_link():
    C = ps.SimplicialComplex([[0, 1, 2]], close=True)
    lk = ps.link(C, [0])
    assert lk.dim == 1 and frozenset([1, 2]) in lk
    with pytest.raises(SimplexNotInComplex):
        ps.link(C, [0, 3])


def test_join_is_associative_on_sizes():
    s0 = ps.SimplicialComplex([[0], [1]], close=True)
    circle = oracles.join(s0, s0)
    assert circle.dim == 1
    assert circle.n_simplices(1) == 4
    assert oracles.euler_characteristic_reduced(circle) == -1  # circle: chi~ = -1
    # join with the vertex-free complex is the identity
    assert oracles.join(s0, oracles.EMPTY_COMPLEX).simplices == s0.simplices


def test_wedge():
    tri = ps.SimplicialComplex([[0, 1], [1, 2], [0, 2]], close=True)
    W = oracles.wedge(oracles.WedgeAssembly(tri, ((tri, 0),)))
    assert W.n_simplices(1) == 6
    assert W.n_simplices(0) == 5
    with pytest.raises(oracles.BadAttachment):
        oracles.wedge(oracles.WedgeAssembly(tri, ((tri, 99),)))


def test_text_round_trip():
    G = G_of("D8")
    C = ps.order_complex(ps.quillen_poset(G, 2))
    text = C.export_text()
    back = ps.SimplicialComplex.import_text(text)
    assert back.simplices == C.simplices
    # facet-only input is closed over
    assert ps.SimplicialComplex.import_text("0 1 2\n").n_simplices(1) == 3
    # comments and blank lines ignored
    assert ps.SimplicialComplex.import_text("# c\n\n0 1\n").dim == 1
