"""Homology engine tests: Smith normal form against sympy and against
the old Euclidean engine, classical fixtures with known homology, and
the sphericity and Cohen-Macaulay checkers."""

import functools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from quillen import constructions as cs
from quillen import homology
from quillen import poset as ps
from quillen.group import group_from_generators
from quillen.homology import (
    HomologyProfile,
    TorusComplex,
    _cells,
    _coreduce,
    _eliminate,
    _invariant_factors,
    _to_sparse,
    _unit_pivots,
    boundary_matrix,
    join_homology,
    poset_homology,
    reduced_homology,
    smith_normal_form,
    sphericity,
    wedge_homology,
)

import oracles


# -- Smith normal form vs sympy oracle ----------------------------------

def _oracle_factors(rows):
    M = Matrix(rows)
    if M.rank() == 0:
        return (), 0
    S = sympy_snf(M)
    diag = [abs(S[i, i]) for i in range(min(S.shape)) if S[i, i] != 0]
    return tuple(sorted(diag)), len(diag)


def test_snf_known_matrices():
    sparse = oracles.sparse
    assert smith_normal_form(sparse([[2, 0], [0, 3]])) == ((1, 6), 2)
    assert smith_normal_form(sparse([[0]])) == ((), 0)
    assert smith_normal_form(sparse([[4, 0], [0, 6]])) == ((2, 12), 2)
    assert smith_normal_form(sparse([[1, 2], [2, 4]])) == ((1,), 1)
    assert smith_normal_form({(0, 5): 7}) == ((7,), 1)


def test_snf_divisibility_chain():
    rng = random.Random(7)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        factors, rank = smith_normal_form(oracles.sparse(rows))
        assert len(factors) == rank
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        of, orank = _oracle_factors(rows)
        assert rank == orank
        assert tuple(sorted(factors)) == of


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-20, 20), min_size=1, max_size=5),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_snf_matches_sympy(rows):
    factors, rank = smith_normal_form(oracles.sparse(rows))
    of, orank = _oracle_factors(rows)
    assert rank == orank
    assert tuple(sorted(factors)) == of


# -- boundary matrices --------------------------------------------------

def _boundaries(faces, cells):
    """`boundary_matrix` between the given cells, one per degree k >= 0."""
    by_degree = {}
    for c in cells:
        by_degree.setdefault(len(faces[c]) - 1, []).append(c)
    return {k: boundary_matrix(faces, set(by_degree.get(k - 1, ())), cols)
            for k, cols in by_degree.items() if k >= 0}


def _assert_squares_to_zero(B):
    for k in B:
        into = {}  # column of the boundary from degree k -> its entries
        for (i, j), v in B[k].items():
            into.setdefault(j, []).append((i, v))
        prod = {}
        for (j, l), w in B.get(k + 1, {}).items():
            for i, v in into.get(j, ()):
                prod[i, l] = prod.get((i, l), 0) + v * w
        assert not any(prod.values()), k


def test_boundary_squares_to_zero():
    """On all cells, and restricted to the cells coreduction leaves: the
    restriction is a chain complex too."""
    for C in (ps.SimplicialComplex([[0, 1, 2, 3]], close=True),
              ps.SimplicialComplex(RP2_FACETS, close=True)):
        faces = _cells(C)
        alive = _coreduce(faces)
        _assert_squares_to_zero(_boundaries(faces, range(len(faces))))
        _assert_squares_to_zero(_boundaries(
            faces, [c for c in range(len(faces)) if alive[c]]))


def test_degree_zero_boundary_is_augmentation():
    C = ps.SimplicialComplex([[0], [1]], close=True)
    faces = _cells(C)
    assert faces == [(), (0,), (0,)]
    assert boundary_matrix(faces, {0}, [1, 2]) == {(0, 1): 1, (0, 2): 1}
    B = oracles.boundary_matrix(C, 0)
    assert B.shape == (1, 2)
    assert set(B.entries.values()) == {1}


# -- classical fixtures -------------------------------------------------

def simplex_boundary(n):
    """Boundary of the n-simplex: all proper faces of {0..n}."""
    import itertools
    return ps.SimplicialComplex(
        itertools.combinations(range(n + 1), n), close=True)


def test_sphere_homology():
    for n in range(1, 6):
        prof = reduced_homology(simplex_boundary(n))
        assert prof.nonzero_degrees() == (n - 1,)
        assert prof.betti_of(n - 1) == 1
        assert prof.torsion_of(n - 1) == ()


def test_full_simplex_contractible():
    C = ps.SimplicialComplex([range(4)], close=True)
    assert reduced_homology(C).is_trivial()


def test_empty_complex_homology():
    prof = reduced_homology(ps.SimplicialComplex([]))
    assert prof.betti_of(-1) == 1
    assert prof.nonzero_degrees() == (-1,)


RP2_FACETS = [
    (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 4, 5), (0, 3, 4),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
]


def test_projective_plane_torsion():
    C = ps.SimplicialComplex(RP2_FACETS, close=True)
    assert oracles.n_simplices(C, 2) == 10 and oracles.n_simplices(C, 1) == 15
    prof = reduced_homology(C)
    assert prof.betti_of(0) == 0
    assert prof.betti_of(1) == 0 and prof.torsion_of(1) == (2,)
    assert prof.betti_of(2) == 0 and prof.torsion_of(2) == ()


def test_octahedron_is_a_2_sphere():
    s0 = ps.SimplicialComplex([[0], [1]], close=True)
    octa = oracles.join(oracles.join(s0, s0), s0)
    assert oracles.n_simplices(octa, 2) == 8
    prof = reduced_homology(octa)
    assert prof.nonzero_degrees() == (2,)
    assert prof.betti_of(2) == 1


def test_join_of_zero_spheres_is_circle():
    s0 = ps.SimplicialComplex([[0], [1]], close=True)
    prof = reduced_homology(oracles.join(s0, s0))
    assert prof.nonzero_degrees() == (1,)
    assert prof.betti_of(1) == 1


def test_wedge_of_circles():
    tri = ps.SimplicialComplex([[0, 1], [1, 2], [0, 2]], close=True)
    W = oracles.wedge(oracles.WedgeAssembly(tri, ((tri, 0), (tri, 1))))
    prof = reduced_homology(W)
    assert prof.nonzero_degrees() == (1,)
    assert prof.betti_of(1) == 3


S0 = ps.SimplicialComplex([[0], [1]], close=True)
CIRCLE = ps.SimplicialComplex([[0, 1], [1, 2], [0, 2]], close=True)
RP2 = ps.SimplicialComplex(RP2_FACETS, close=True)
VERTEX_FREE = ps.SimplicialComplex([])


@pytest.mark.parametrize("X,Y", [
    (S0, S0), (RP2, RP2), (CIRCLE, RP2), (RP2, S0), (RP2, VERTEX_FREE),
    (VERTEX_FREE, CIRCLE), (VERTEX_FREE, VERTEX_FREE)],
    ids=["S0*S0", "RP2*RP2", "circle*RP2", "RP2*S0", "RP2*void",
         "void*circle", "void*void"])
def test_join_homology_matches_the_join_complex(X, Y):
    """Milnor's formula, Tor term included (RP2 * RP2 has H~_4 = Z/2),
    against the SNF of the explicit join."""
    got = join_homology(reduced_homology(X), reduced_homology(Y))
    assert got.to_json() == reduced_homology(oracles.join(X, Y)).to_json()


def test_wedge_homology_matches_the_wedge_complex():
    """A wedge with multiplicities: the circle base, RP2 twice and the
    circle three times, against the SNF of the explicit wedge."""
    pieces = ((RP2, 0), (RP2, 1), (CIRCLE, 0), (CIRCLE, 1), (CIRCLE, 2))
    W = reduced_homology(oracles.wedge(oracles.WedgeAssembly(CIRCLE, pieces)))
    got = wedge_homology([(reduced_homology(CIRCLE), 1),
                          (reduced_homology(RP2), 2),
                          (reduced_homology(CIRCLE), 3)])
    assert got.to_json() == W.to_json()
    assert got.betti_of(1) == 4 and got.torsion_of(1) == (2, 2)
    # a lone vertex-free piece is its own wedge
    void = reduced_homology(VERTEX_FREE)
    assert wedge_homology([(void, 1)]).to_json() == void.to_json()


def test_join_and_wedge_homology_normalize_mixed_torsion():
    """Z/4 (x) Z/6 = Tor(Z/4, Z/6) = Z/2, and Z/4 + Z/6 = Z/2 + Z/12,
    in the invariant-factor form that `reduced_homology` gives."""
    z4 = HomologyProfile(2, (0, 0, 0, 0), ((), (), (4,), ()))
    z6 = HomologyProfile(2, (0, 0, 0, 0), ((), (), (6,), ()))
    J = join_homology(z4, z6)
    assert J.dim == 5 and J.nonzero_degrees() == (3, 4)
    assert J.torsion_of(3) == (2,) and J.torsion_of(4) == (2,)
    assert wedge_homology([(z4, 1), (z6, 1)]).torsion_of(1) == (2, 12)


def test_euler_characteristic_consistency():
    for C in (simplex_boundary(3),
              ps.SimplicialComplex(RP2_FACETS, close=True)):
        prof = reduced_homology(C)
        chi = sum((-1) ** q * prof.betti_of(q)
                  for q in range(-1, prof.dim + 1))
        assert chi == oracles.euler_characteristic_reduced(C)


# -- coreduction vs the full boundary matrices --------------------------

def _assert_matches_full_snf(C):
    assert reduced_homology(C).to_json() == \
        oracles.reduced_homology_by_snf(C).to_json()


@settings(max_examples=120, deadline=None)
@given(st.lists(st.sets(st.integers(0, 8), max_size=4), max_size=9))
def test_coreduced_homology_matches_the_full_snf(facets):
    """Random complexes: disconnected, single-vertex and vertex-free ones
    come up as the facet lists are drawn."""
    _assert_matches_full_snf(ps.SimplicialComplex(facets, close=True))


def _relabel(C, rng):
    """C with its vertex ids permuted by a shuffle from ``rng``."""
    verts = oracles.vertices(C)
    ids = list(verts)
    rng.shuffle(ids)
    ren = dict(zip(verts, ids))
    return ps.SimplicialComplex([ren[v] for v in s] for s in C.simplices)


def test_coreduced_homology_on_fixtures():
    """The vertex-free complex, a point, disjoint pieces, RP2 and
    RP2 * RP2 (whose Tor term gives H~_4 = Z/2), and a wedge of circles
    and projective planes under seeded relabellings of its vertices."""
    rp2_twice = ps.SimplicialComplex(
        RP2_FACETS + [tuple(v + 6 for v in f) for f in RP2_FACETS],
        close=True)
    for C in (VERTEX_FREE, ps.SimplicialComplex([[4]], close=True),
              rp2_twice, ps.SimplicialComplex([[0, 1], [2, 3], [5]],
                                              close=True),
              RP2, oracles.join(RP2, RP2)):
        _assert_matches_full_snf(C)
    W = oracles.wedge(oracles.WedgeAssembly(
        CIRCLE, ((RP2, 0), (CIRCLE, 1), (RP2, 2), (CIRCLE, 2))))
    assert reduced_homology(W).describe() == "H~_1=Z^3+Z/2+Z/2"
    for seed in range(8):
        _assert_matches_full_snf(_relabel(W, random.Random(seed)))


def _building_gl3_f2():
    """The Tits building of GL3(F2): the incidence graph of the 7 points
    (nonzero vectors v) and 7 lines (normals n, the v with v.n = 0) of
    the projective plane over F2; H~_1 = Z^8."""
    return ps.SimplicialComplex(
        [(v, 7 + n) for v in range(1, 8) for n in range(1, 8)
         if bin(v & n).count("1") % 2 == 0], close=True)


def _snf_inputs(monkeypatch, C):
    """(profile, nonzeros of each matrix `smith_normal_form` received)."""
    seen = []
    snf = homology.smith_normal_form

    def recorded(matrix):
        seen.append(len(matrix))
        return snf(matrix)

    monkeypatch.setattr(homology, "smith_normal_form", recorded)
    return reduced_homology(C), seen


def test_coreduction_leaves_the_snf_a_small_residual(monkeypatch):
    """Coreduction pairs off every cell of the building that homology
    does not need, so the Smith normal form gets no nonzero entry; on
    RP2 * B(GL3(F2)), 1152 simplices whose full boundary matrices hold
    4168 nonzeros, it gets the few entries the torsion (Z/2)^8 needs."""
    B = _building_gl3_f2()
    prof, seen = _snf_inputs(monkeypatch, B)
    assert prof.describe() == "H~_1=Z^8" and sum(seen) == 0
    J = oracles.join(RP2, B)
    full = sum(len(oracles.boundary_matrix(J, k).entries)
               for k in range(J.dim + 1))
    prof, seen = _snf_inputs(monkeypatch, J)
    assert prof.torsion_of(3) == (2,) * 8 and prof.nonzero_degrees() == (3,)
    assert (len(J.simplices), full) == (1152, 4168)
    assert 0 < sum(seen) <= 100


# -- unit pivots + residual vs the old Euclidean engine -----------------

def _old_engine(matrix):
    """The old Euclidean engine on the whole matrix, with its chain by
    prime factorization: the oracle."""
    diag = oracles.eliminate(_to_sparse(matrix))
    return oracles.invariant_factors(diag), len(diag)


def _two_phases(matrix):
    """(number of unit pivots, residual diagonal) of the new path."""
    rows = _to_sparse(matrix)
    units = _unit_pivots(rows)
    return units, _eliminate(rows)


def _dense(B):
    m, n = B.shape
    return [[B.entries.get((i, j), 0) for j in range(n)] for i in range(m)]


def _assert_snf_agrees(matrix, dense=None):
    """The new path equals the old engine and, given the dense rows,
    sympy; its rank is the unit pivots plus the residual diagonal."""
    factors, rank = smith_normal_form(matrix)
    assert (factors, rank) == _old_engine(matrix)
    units, residual = _two_phases(matrix)
    assert rank == units + len(residual)
    if dense is not None:
        assert (tuple(sorted(factors)), rank) == _oracle_factors(dense)
    return units, residual


def test_snf_random_sparse_mixed_entries():
    rng = random.Random(11)
    for _ in range(150):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.uniform(0.2, 0.8)
        rows = [[rng.choice((1, -1, 1, -1, 2, -3, 4, 6))
                 if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)]
        _assert_snf_agrees(oracles.sparse(rows), rows)


def test_snf_without_unit_entries_is_all_residual():
    rng = random.Random(12)
    for _ in range(100):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.choice((0, 0, 2, -2, 3, 4, -6, 9)) for _ in range(n)]
                for _ in range(m)]
        units, _ = _assert_snf_agrees(oracles.sparse(rows), rows)
        assert units == 0


UNIT_FREE = (2, -2, 3, 4, -6, 9)


def _unit_free(rng, m, n, density):
    return [[rng.choice(UNIT_FREE) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]


def test_snf_unit_free_up_to_12x12():
    """No +-1 entry, so every pivot is a Euclidean step of the residual."""
    rng = random.Random(18)
    for _ in range(40):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        rows = _unit_free(rng, m, n, rng.uniform(0.1, 0.5))
        _assert_snf_agrees(oracles.sparse(rows), rows)


def test_invariant_factors_match_the_factorization_chain():
    """The gcd/lcm chain equals the chain by prime factorization on
    multisets with 1s and repeats."""
    rng = random.Random(19)
    pool = (1, 2, 3, 4, 5, 6, 8, 9, 12, 18, 25, 36, 49, 60, 97, 1024)
    for _ in range(300):
        diag = [1] * rng.randint(0, 3) + [rng.choice(pool)
                                          for _ in range(rng.randint(0, 10))]
        rng.shuffle(diag)
        assert _invariant_factors(diag) == oracles.invariant_factors(diag)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from((1, 2, 3, 4, 6, 8, 9, 12, 16, 27, 36, 97)),
                max_size=12))
def test_invariant_factors_match_the_pairwise_chain(diag):
    """On random multisets, chains among them (repeats of one order, or
    powers of one prime), the result is the pairwise gcd/lcm chain's."""
    assert _invariant_factors(diag) == oracles.invariant_factors_by_pairs(diag)


def test_invariant_factors_of_many_repeated_factors():
    """B(GL4(F3)) * RP^2's 729 factors 2 among 2916 units: already a
    chain, so no pair is visited."""
    diag = [1] * 2916 + [2] * 729
    assert _invariant_factors(diag) == \
        oracles.invariant_factors_by_pairs(diag) == (1,) * 2916 + (2,) * 729


_NO_STALL = """import json, sys, time
sys.path.insert(0, sys.argv[1])
from oracles import sparse
from quillen.homology import _invariant_factors, smith_normal_form
out = []
for rows in json.loads(sys.stdin.read()):
    matrix = sparse(rows)
    t0 = time.perf_counter()
    factors, rank = smith_normal_form(matrix)
    out.append([list(factors), rank, time.perf_counter() - t0])
print(json.dumps([out, list(_invariant_factors((6, 4 * (2**61 - 1))))]))
"""


def test_snf_does_not_stall_on_unit_free_25x25():
    """Two 25x25 matrices on which the old engine's pivot rotation grew
    entries to about 10^6 bits (seed 3 still ran after 60 s), and a
    chain whose prime factorization needs trial division up to 2^30.5.
    Run in a subprocess with a timeout, so that a stall fails the test
    instead of hanging it."""
    mats = [_unit_free(random.Random(seed), 25, 25, 0.2) for seed in (3, 17)]
    proc = subprocess.run([sys.executable, "-c", _NO_STALL,
                           os.path.dirname(os.path.abspath(__file__))],
                          input=json.dumps(mats), capture_output=True,
                          text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    snfs, chain = json.loads(proc.stdout)
    for rows, (factors, rank, seconds) in zip(mats, snfs):
        assert (tuple(factors), rank) == _oracle_factors(rows)
        assert seconds < 1
    assert chain == [2, 12 * (2**61 - 1)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sets(st.integers(0, 5), min_size=1, max_size=4),
                min_size=1, max_size=8))
def test_snf_on_boundaries_of_random_complexes(facets):
    C = ps.SimplicialComplex(facets, close=True)
    for k in range(0, C.dim + 1):
        B = oracles.boundary_matrix(C, k)
        _assert_snf_agrees(B.entries, _dense(B))


def _residual_torsion(C, dense):
    """Invariant factors > 1 of every residual block of C's boundaries."""
    out = []
    for k in range(0, C.dim + 1):
        B = oracles.boundary_matrix(C, k)
        _, residual = _assert_snf_agrees(B.entries,
                                         _dense(B) if dense else None)
        out += [f for f in _invariant_factors(residual) if f > 1]
    return out


def test_snf_residual_carries_projective_plane_torsion():
    rp2 = ps.SimplicialComplex(RP2_FACETS, close=True)
    assert _residual_torsion(rp2, dense=True) == [2]
    # H~_3 = Z/2 and, from the Tor term, H~_4 = Z/2
    assert _residual_torsion(oracles.join(rp2, rp2), dense=False) == [2, 2]


def test_torus_complex_of_s3_to_the_fourth():
    """A_2(S3^4) is the join of four copies of A_2(S3), three points
    each, so H~_3 = Z^((3-1)^4) and all else vanishes."""
    S3 = cs.catalog_group("S3")
    T = TorusComplex(cs.direct_product([S3] * 4), 2)
    C = T.complex
    assert [oracles.n_simplices(C, k) for k in range(4)] == [
        2874, 23868, 46494, 25515]
    prof = T.profile
    assert prof.nonzero_degrees() == (3,)
    assert prof.betti_of(3) == 16 and prof.torsion_of(3) == ()
    cm = T.cohen_macaulay
    assert cm.cohen_macaulay and cm.profile is prof
    # the profile comes from the beat-point core, which is not a point
    assert len(T.poset.core()) == 255
    assert prof.to_json() == reduced_homology(C).to_json()
    # its export, every face a line, is within the face bound on import
    assert sum(1 << len(s) for s in C.simplices[1:]) == 881412
    assert ps.SimplicialComplex.import_text(
        C.export_text()).simplices == C.simplices


# -- profiles -----------------------------------------------------------

def test_profile_equality_across_dims():
    a = HomologyProfile(1, (0, 2, 0), ((), (), ()))
    b = HomologyProfile(3, (0, 2, 0, 0, 0), ((), (), (), (), ()))
    assert a == b
    c = HomologyProfile(1, (0, 2, 1), ((), (), ()))
    assert a != c


def test_profile_json_shape():
    prof = reduced_homology(simplex_boundary(2))
    data = prof.to_json()
    assert data[0] == {"degree": -1, "betti": 0, "torsion": []}
    assert {"degree": 1, "betti": 1, "torsion": []} in data


def test_profile_describe():
    prof = reduced_homology(ps.SimplicialComplex(RP2_FACETS, close=True))
    assert "Z/2" in prof.describe()
    assert reduced_homology(
        ps.SimplicialComplex([range(3)], close=True)).describe() == "trivial"


# -- sphericity and Cohen-Macaulay --------------------------------------

def test_sphericity_verdicts():
    circle = reduced_homology(simplex_boundary(2))
    v = sphericity(circle, 1)
    assert v.weakly_spherical_in == 1 and v.homology_spherical
    assert v.witness is None and v.profile is circle
    v = sphericity(circle, 0)
    assert not v.homology_spherical
    assert v.witness == "nonzero homology in degrees [1]"
    rp2 = reduced_homology(ps.SimplicialComplex(RP2_FACETS, close=True))
    v = sphericity(rp2, 1)
    assert v.weakly_spherical_in == 1  # weakly: concentrated in degree 1
    assert not v.homology_spherical    # ... but with torsion
    assert v.witness == "torsion [2] in degree 1"


def test_sphericity_of_acyclic():
    C = ps.SimplicialComplex([range(3)], close=True)
    v = sphericity(reduced_homology(C), 5)
    assert v.homology_spherical  # acyclic counts as r-spherical for any r


def test_cohen_macaulay_positive():
    assert oracles.is_cohen_macaulay(simplex_boundary(2)).cohen_macaulay
    assert oracles.is_cohen_macaulay(simplex_boundary(3)).cohen_macaulay
    s0 = ps.SimplicialComplex([[0], [1]], close=True)
    assert oracles.is_cohen_macaulay(oracles.join(s0, s0)).cohen_macaulay


def test_cohen_macaulay_negative():
    # two disjoint edges: 1-dimensional but homology in degree 0
    C = ps.SimplicialComplex([[0, 1], [2, 3]], close=True)
    v = oracles.is_cohen_macaulay(C)
    assert not v.cohen_macaulay
    # an edge plus an isolated vertex: connected homology is fine at the
    # top, but the vertex link condition fails
    C2 = ps.SimplicialComplex([[0, 1], [2]], close=True)
    assert not oracles.is_cohen_macaulay(C2).cohen_macaulay
    # RP2 fails through torsion
    assert not oracles.is_cohen_macaulay(
        ps.SimplicialComplex(RP2_FACETS, close=True)).cohen_macaulay


# -- Cohen-Macaulay from upper intervals vs the link sweep --------------

def _perm(degree, cycles):
    img = list(range(degree))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            img[a - 1] = b - 1
    return img


def _assert_interval_check_matches_sweep(G, p):
    """The interval check, which reads no Delta(A), against the link
    sweep over Delta(A)."""
    T = TorusComplex(G, p)
    v = T.cohen_macaulay
    assert "complex" not in vars(T)
    assert v.to_json() == oracles.is_cohen_macaulay(T.complex).to_json()
    return v


LARGE = ("C3^4:(SD16oC4)", "C3^4:(SD16oD8)")  # orders 2592 and 5184


@pytest.mark.parametrize("name", [name for name in cs.catalog_names()
                                  if name not in LARGE])
def test_interval_cm_matches_sweep_on_catalog(name):
    """Every catalog group of order <= 1000, at every prime dividing it."""
    G = cs.catalog_group(name)
    assert G.order <= 1000
    for p in (2, 3, 5, 7):
        if G.order % p == 0:
            _assert_interval_check_matches_sweep(G, p)


PRODUCTS = pytest.mark.parametrize("factors,p", [
    (("S3", "S3", "S3"), 2), (("D10", "D14"), 2), (("S3", "D14"), 2),
    (("D14", "D14"), 2), (("S3", "D10"), 2), (("S3", "S3"), 2),
    (("C7:C3", "C7:C3"), 3), (("D10", "S3", "S3"), 2)],
    ids=lambda v: "x".join(v) if isinstance(v, tuple) else f"p{v}")


def _product(factors):
    return cs.direct_product([cs.dihedral(int(f[1:])) if f[0] == "D"
                              else cs.catalog_group(f) for f in factors])


def _wreath_products() -> dict:
    """S3 wr C2 and C2 wr C4 at p = 2, C3 wr C3 at p = 3."""
    return {
        "S3wrC2": (group_from_generators(6, [
            _perm(6, [[1, 2, 3]]), _perm(6, [[1, 2]]),
            _perm(6, [[1, 4], [2, 5], [3, 6]])]), 2),
        "C2wrC4": (group_from_generators(8, [
            _perm(8, [[1, 2]]), _perm(8, [[1, 3, 5, 7], [2, 4, 6, 8]])]), 2),
        "C3wrC3": (group_from_generators(9, [
            _perm(9, [[1, 2, 3]]),
            _perm(9, [[1, 4, 7], [2, 5, 8], [3, 6, 9]])]), 3)}


@PRODUCTS
def test_interval_cm_matches_sweep_on_products(factors, p):
    G = _product(factors)
    assert _assert_interval_check_matches_sweep(G, p).cohen_macaulay


def test_interval_cm_on_wreath_products():
    """C2 wr C4 at p = 2, and C3 wr C3 and C3 wr C3 x C3 at p = 3, are
    not Cohen-Macaulay: their complexes are spherical, but an upper
    interval is not.  S3 wr
    C2 at p = 2 is, with intervals that are spheres, not acyclic."""
    W = _wreath_products()
    assert _assert_interval_check_matches_sweep(*W["S3wrC2"]).cohen_macaulay
    v = _assert_interval_check_matches_sweep(*W["C2wrC4"])
    assert v.homology_spherical and not v.cohen_macaulay
    assert v.witness == ("link of [44] (dim 0): not 2-spherical (nonzero "
                         "homology in degrees [1]); H~_1=Z^2")
    v = _assert_interval_check_matches_sweep(*W["C3wrC3"])
    assert v.homology_spherical and not v.cohen_macaulay
    assert v.witness == ("link of [8] (dim 0): not 1-spherical (nonzero "
                         "homology in degrees [0]); H~_0=Z^3")
    # a failing torus of rank 2 at an odd prime: Delta(A<x) is Z^3 in
    # degree 0, so the link's H~_1 is three times the interval's H~_0
    G = cs.direct_product([W["C3wrC3"][0], cs.cyclic(3)])
    v = _assert_interval_check_matches_sweep(G, 3)
    assert v.homology_spherical and not v.cohen_macaulay
    assert v.witness == ("link of [75] (dim 0): not 2-spherical (nonzero "
                         "homology in degrees [1]); H~_1=Z^9")
    assert TorusComplex(G, 3).poset.nodes[75].order == 9


# -- poset homology from the beat-point core vs the full complex --------

@functools.lru_cache(maxsize=None)
def _catalog_posets() -> dict:
    """A_p and S_p of every catalog group at every prime dividing its
    order, keyed (name, p, "A" or "S").  S_2 of C3^4:(SD16oD8) is left
    out: it has 13644 nodes and takes about 8 s to enumerate."""
    out = {}
    for name in cs.catalog_names():
        G = cs.catalog_group(name)
        for p in (2, 3, 5, 7):
            if G.order % p == 0:
                out[name, p, "A"] = ps.quillen_poset(G, p)
                if (name, p) != ("C3^4:(SD16oD8)", 2):
                    out[name, p, "S"] = ps.brown_poset(G, p)
    return out


def _manifest_rows() -> list:
    path = os.path.join(os.path.dirname(cs.__file__), "suite_manifest.json")
    with open(path) as fh:
        return sorted({(i["name"], i["prime"])
                       for i in json.load(fh)["instances"]})


def _assert_core_homology(P):
    assert poset_homology(P).to_json() == \
        oracles.reduced_homology_by_snf(ps.order_complex(P)).to_json()


def _assert_torus_posets(A):
    """A_p(G) and the upper interval of one torus per class, the
    intervals that `TorusComplex.cohen_macaulay` reads."""
    _assert_core_homology(A)
    for x, *_ in ps.conjugacy_classes(A):
        _assert_core_homology(A.induced(ps.bits(A.above[x])))


@pytest.mark.parametrize("name,p", _manifest_rows(),
                         ids=lambda v: str(v))
def test_poset_homology_matches_the_complex_on_manifest_rows(name, p):
    posets = _catalog_posets()
    _assert_torus_posets(posets[name, p, "A"])
    if (name, p, "S") in posets:
        _assert_core_homology(posets[name, p, "S"])


@PRODUCTS
def test_poset_homology_matches_the_complex_on_products(factors, p):
    _assert_torus_posets(ps.quillen_poset(_product(factors), p))


def test_poset_homology_matches_the_complex_on_wreath_products():
    for G, p in _wreath_products().values():
        _assert_torus_posets(ps.quillen_poset(G, p))


def test_a_poset_with_a_maximum_or_a_minimum_cores_to_a_point(monkeypatch):
    """S_p of a p-group has the group as its maximum, and Ab(D) has the
    trivial subgroup as its minimum.  Their one-point cores give the
    trivial profile in the whole complex's dimension, and no complex is
    built."""
    def no_complex(P):
        raise AssertionError("an order complex was built")

    monkeypatch.setattr(homology, "order_complex", no_complex)
    for name, p in (("D8", 2), ("Q8", 2), ("ES27+", 3), ("D8oD8", 2)):
        G = cs.catalog_group(name)
        for P in (ps.brown_poset(G, p), ps.ab_poset(G)):
            assert len(P.core()) == 1
            h = poset_homology(P)
            assert h.is_trivial() and h.dim == P.height() > 0


def test_c3_to_the_fourth_torus_poset_is_its_own_core():
    A = _catalog_posets()["C3^4:(SD16oD8)", 2, "A"]
    assert len(A) == 2304 and A.core() == list(range(2304))


def test_empty_poset_homology():
    P = ps.SubgroupPoset(cs.catalog_group("S3"), [])
    assert P.height() == -1 and P.core() == []
    assert poset_homology(P).to_json() == \
        [{"degree": -1, "betti": 1, "torsion": []}]


def test_height_is_the_order_complex_dimension_on_the_catalog():
    for key, P in _catalog_posets().items():
        assert P.height() == ps.order_complex(P).dim, key


def test_catalog_torus_complexes_round_trip_through_the_text_format():
    """Every catalog torus complex is read back as exported, within the
    face bound."""
    for (name, p, kind), P in _catalog_posets().items():
        if kind == "A":
            C = ps.order_complex(P)
            back = ps.SimplicialComplex.import_text(C.export_text())
            assert back.simplices == C.simplices, (name, p)


def test_core_size_does_not_depend_on_the_removal_order():
    """Cores are unique up to isomorphism (Stong 1966): removing beat
    points from the last node down leaves a core of the same size, on
    every catalog poset and on A_2(S3^4), whose core has 255 nodes."""
    S3 = cs.catalog_group("S3")
    posets = {**_catalog_posets(),
              "S3^4": ps.quillen_poset(cs.direct_product([S3] * 4), 2)}
    for key, P in posets.items():
        assert len(oracles.beat_core_from_the_top(P)) == len(P.core()), key
