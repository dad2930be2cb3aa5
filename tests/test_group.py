"""Core group-engine tests: element arithmetic, subgroup primitives,
Sylow theory, quotients, and the p-series."""

import itertools
import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quillen import cli
from quillen import constructions as cs
from quillen import group as gp
from quillen.errors import (
    DecompositionNotFound,
    GroupTooLarge,
    HypothesisViolated,
    InvalidPermutation,
    NotSolvable,
)
from quillen.homology import TorusComplex

import oracles


def G_of(name):
    return cs.catalog_group(name)


# -- element arithmetic -------------------------------------------------

def test_identity_is_id_zero():
    for name in ("S3", "S4", "D8", "Q8"):
        G = G_of(name)
        assert G.identity == 0
        for a in range(G.order):
            assert G.mul(G.identity, a) == a
            assert G.mul(a, G.identity) == a


def test_inverses_and_associativity_s4():
    G = G_of("S4")
    for a in range(G.order):
        assert G.mul(a, G.inv(a)) == G.identity
    for a, b, c in itertools.islice(
            itertools.product(range(G.order), repeat=3), 500):
        assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


def test_element_orders_divide_group_order():
    for name in ("S4", "SD16", "SL(2,3)"):
        G = G_of(name)
        assert not (G.order % G.orders).any()


def test_power_matches_repeated_multiplication():
    G = G_of("D8")
    x = np.zeros(G.order, dtype=np.int64)
    for k in range(10):
        assert (G.powers(k) == x).all()
        x = G.table[x, np.arange(G.order)]


LARGER = {"S4xA4": lambda: cs.direct_product([G_of("S4"), G_of("A4")]),
          "C4096": lambda: cs.cyclic(4096)}


@pytest.mark.parametrize("name", [*cs.catalog_names(), *LARGER])
def test_orders_and_powers_match_the_scalar_oracles(name):
    """The whole-id arrays against one element at a time: repeated
    multiplication for orders (every 17th id of C4096, where that takes
    seconds), square-and-multiply for powers."""
    G = LARGER[name]() if name in LARGER else G_of(name)
    n = G.order
    ids = range(0, n, 17 if name == "C4096" else 1)
    assert G.orders[ids].tolist() == [oracles.element_order(G, a) for a in ids]
    for k in (0, 1, 2, 3, 5, n - 1, n, n + 1):
        assert G.powers(k).tolist() == [oracles.power(G, a, k) for a in range(n)]
    assert (G.powers(n - 1) == G.inverse).all()


def test_commutator_and_conjugation():
    G = G_of("S3")
    for a in range(G.order):
        for b in range(G.order):
            lhs = G.commutator(a, b)
            rhs = G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b))
            assert lhs == rhs
            assert G.conj(a, b) == G.mul(G.mul(G.inv(b), a), b)


def test_invalid_permutation_rejected():
    with pytest.raises(InvalidPermutation):
        gp.group_from_generators(3, [[0, 0, 1]])


def test_element_cap_enforced():
    with pytest.raises(GroupTooLarge):
        gp.group_from_generators(
            5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], cap=100)  # S5 = 120


def test_table_bound_caps_every_cap():
    assert gp.TABLE_ORDER_CAP == 16384  # ids fit int16: a 512 MiB table
    # C2^15 has 32768 elements; enumeration stops at 16385 of them
    swaps = [[2 * i + 1 if x == 2 * i else 2 * i if x == 2 * i + 1 else x
              for x in range(30)] for i in range(15)]
    with pytest.raises(GroupTooLarge, match="exceeds cap 16384"):
        gp.group_from_generators(30, swaps, cap=10 ** 9)
    # an abstract multiplication is refused before a product is listed
    with pytest.raises(GroupTooLarge, match="exceeds cap 16384"):
        cs.quaternion(1 << 15, cap=10 ** 9)
    # a direct product is refused before its table, 2 GiB at order 32768,
    # or its images are allocated
    C128, C256 = cs.cyclic(128, cap=10 ** 9), cs.cyclic(256, cap=10 ** 9)
    tracemalloc.start()
    try:
        with pytest.raises(GroupTooLarge, match="exceeds cap 16384"):
            cs.direct_product([C128, C256], cap=10 ** 9)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


# -- closure / subgroup properties (property-based) ---------------------

@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=23), max_size=3))
def test_closure_is_subgroup_of_s4(seed):
    G = G_of("S4")
    H = gp.subgroup_generated(G, seed)
    assert G.order % H.order == 0  # Lagrange
    for a in H.members:
        assert G.inv(a) in H.member_set
        for b in H.members:
            assert G.mul(a, b) in H.member_set


def test_small_witness_regenerates():
    G = G_of("SD16")
    for m in oracles.all_subgroups(G):
        S = gp.Subgroup(G, m)
        assert G.closure(S.generator_witness) == S.member_set


def test_missing_witness_is_computed_on_first_read_and_kept():
    G = G_of("SD16")
    for m in oracles.all_subgroups(G):
        S = gp.Subgroup(G, m)
        assert S._witness is None
        w = S.generator_witness
        assert w == gp._small_witness(G, S.member_set)
        assert S.generator_witness is w


def test_given_witness_is_kept_and_the_witness_is_read_only():
    G = G_of("S4")
    every = gp.Subgroup(G, range(G.order), list(range(G.order)))
    assert every.generator_witness == tuple(range(G.order))
    assert gp.subgroup_generated(G, [3, 1, 3]).generator_witness == (1, 3)
    assert G.full().generator_witness == G.generators
    with pytest.raises(AttributeError):
        every.generator_witness = ()


# -- predicates ---------------------------------------------------------

def test_is_prime_matches_sympy():
    from sympy import primerange
    assert [n for n in range(-2, 5000) if gp._is_prime(n)] == \
        list(primerange(0, 5000))


def test_prime_within_cap_tests_the_cap_first():
    """A prime past the cap is refused before trial division up to its
    square root, which would take minutes."""
    t0 = time.perf_counter()
    assert not gp.is_prime_within_cap(2**61 - 1)
    assert time.perf_counter() - t0 < 1.0
    assert [p for p in range(16370, 16400) if gp.is_prime_within_cap(p)] == \
        [16381]  # the largest prime at most TABLE_ORDER_CAP = 16384
    assert not gp.is_prime_within_cap(1) and gp.is_prime_within_cap(2)


def test_abelian_cyclic_predicates():
    assert gp.is_abelian(G_of("C3xC3"))
    assert gp.is_cyclic(G_of("C4"))
    assert not gp.is_cyclic(G_of("C3xC3"))
    assert not gp.is_abelian(G_of("S3"))


def test_exponent():
    assert gp.exponent(G_of("C3xC3")) == 3
    assert gp.exponent(G_of("S3")) == 6
    assert gp.exponent(G_of("Q8")) == 4
    assert gp.exponent(G_of("ES27+")) == 3
    assert gp.exponent(G_of("ES27-")) == 9


def test_elementary_abelian():
    assert gp.is_elementary_abelian(G_of("V4"), 2)
    assert gp.is_elementary_abelian(G_of("C3xC3"), 3)
    assert not gp.is_elementary_abelian(G_of("C4"), 2)


def test_dihedral_and_semidihedral_recognizers():
    assert gp.is_dihedral_2group(G_of("D8"))
    assert gp.is_dihedral_2group(G_of("D16"))
    assert not gp.is_dihedral_2group(G_of("Q8"))
    assert not gp.is_dihedral_2group(G_of("SD16"))
    assert gp.is_semidihedral_2group(G_of("SD16"))
    assert not gp.is_semidihedral_2group(G_of("D16"))
    assert not gp.is_semidihedral_2group(G_of("Q8"))


def test_extraspecial_recognizer():
    assert gp.is_extraspecial(G_of("D8"), 2)
    assert gp.is_extraspecial(G_of("Q8"), 2)
    assert gp.is_extraspecial(G_of("D8oD8"), 2)
    assert gp.is_extraspecial(G_of("ES27+"), 3)
    assert gp.is_extraspecial(G_of("ES27-"), 3)
    assert not gp.is_extraspecial(G_of("V4"), 2)
    assert not gp.is_extraspecial(G_of("D16"), 2)  # center != Frattini


def test_solvability():
    for name in ("S3", "S4", "A4", "SL(2,3)", "C3C3:SL(2,3)", "D8"):
        assert gp.is_solvable(G_of(name))
    A5 = gp.group_from_generators(
        5, [[1, 2, 3, 4, 0], [1, 0, 3, 2, 4]], label="A5")
    assert A5.order == 60
    assert not gp.is_solvable(A5)


# -- structural subgroups -----------------------------------------------

def test_center_and_derived():
    G = G_of("S4")
    assert gp.center(G).order == 1
    assert gp.derived_subgroup(G).order == 12  # A4
    D8 = G_of("D8")
    assert gp.center(D8).order == 2
    assert gp.derived_subgroup(D8).order == 2
    Q8 = G_of("Q8")
    assert gp.derived_subgroup(Q8).member_set == gp.center(Q8).member_set


def test_centralizer_normalizer():
    G = G_of("S4")
    P = gp.sylow_subgroup(G, 2)
    N = oracles.normalizer(G.full(), P)
    assert N.member_set == P.member_set  # D8 is self-normalizing in S4
    t = oracles.elements_of_order(G, 2)[0]
    C = gp.centralizer(G.full(), gp.subgroup_generated(G, [t]))
    assert t in C.member_set and G.order % C.order == 0


def test_normal_closure_and_is_normal():
    G = G_of("S4")
    three = oracles.elements_of_order(G, 3)[0]
    NC = gp.normal_closure(G, [three])
    assert NC.order == 12
    assert gp.is_normal(NC)
    P = gp.sylow_subgroup(G, 2)
    assert not gp.is_normal(P)
    # a transposition of S4 is normal-closed to S4, but inside a Sylow D8
    # only to the (non-normal in S4) Klein four-group it spans with its
    # conjugate; a double transposition would give the normal V4 in both
    E = oracles.elements(G)
    t = next(x for x in P.members
             if sum(i != j for i, j in enumerate(E[x])) == 2)
    inP = gp.normal_closure(P, [t])
    assert inP.order == 4 and inP <= P
    assert gp.is_normal(inP, P) and not gp.is_normal(inP)
    assert gp.normal_closure(G, [t]).order == 24


def test_sylow_subgroups():
    G = G_of("S4")
    P2 = gp.sylow_subgroup(G, 2)
    P3 = gp.sylow_subgroup(G, 3)
    assert P2.order == 8 and gp.is_dihedral_2group(P2)
    assert P3.order == 3
    assert len(oracles.all_sylow_subgroups(G, 2)) == 3
    assert len(oracles.all_sylow_subgroups(G, 3)) == 4
    # determinism
    assert gp.sylow_subgroup(G, 2).members == P2.members


def test_o_p_and_o_p_prime():
    S4 = G_of("S4")
    assert gp.o_p(S4, 2).order == 4  # V4
    assert gp.o_p(S4, 3).order == 1
    assert gp.o_p_prime(S4, 2).order == 1
    assert gp.o_p_prime(S4, 3).order == 4
    S3 = G_of("S3")
    assert gp.o_p_prime(S3, 2).order == 3
    assert gp.o_p(S3, 3).order == 3


def test_omega1():
    SD16 = G_of("SD16")
    O = gp.omega1(SD16, 2)
    assert O.order == 8 and gp.is_dihedral_2group(O)
    assert gp.omega1(G_of("ES27-"), 3).order == 9
    assert gp.omega1(G_of("D8"), 2).order == 8


def test_rank():
    assert gp.rank(G_of("D8").full(), 2) == 2
    assert gp.rank(G_of("Q8").full(), 2) == 1
    assert gp.rank(G_of("D8oD8").full(), 2) == 3
    assert gp.rank(G_of("ES27+").full(), 3) == 2
    assert gp.rank(G_of("C3xC3").full(), 3) == 2


RANK_PRODUCTS = [("S4", "A4"), ("S4", "C5:V4"), ("S4", "C7:C3"),
                 ("SL(2,3)", "C7:C3"), ("C3C3:SL(2,3)", "C2"),
                 ("S3", "S3", "S3")]


@pytest.mark.parametrize("names", [(n,) for n in cs.catalog_names()]
                         + RANK_PRODUCTS, ids="x".join)
def test_rank_matches_every_torus(names):
    """The rank grown above Omega1(Z(P)) equals the largest order of all
    the tori of P, on every Sylow subgroup of the catalog groups and of
    products of them."""
    G = cs.direct_product([G_of(n) for n in names]) if len(names) > 1 \
        else G_of(names[0])
    for p in _primes(G.order):
        P = gp.sylow_subgroup(G, p)
        assert gp.rank(P, p) == oracles.rank_by_all_tori(P, p), p


def test_frattini():
    assert gp.frattini_subgroup(G_of("D8").full(), 2).order == 2
    assert gp.frattini_subgroup(G_of("V4").full(), 2).order == 1
    assert gp.frattini_subgroup(G_of("C4").full(), 2).order == 2


# -- quotients and p-series ---------------------------------------------

def test_quotient_group_s4_by_v4():
    G = G_of("S4")
    V = gp.o_p(G, 2)
    Q = gp.quotient_group(G, V)
    assert Q.order == 6 and Q.provenance == "coset action (regular)"
    assert not gp.is_abelian(Q)  # S3
    # the table path's projection lands on the same element ids
    q = oracles.quotient_by_table(G, V)
    assert oracles.elements(Q) == oracles.elements(q.group)
    for a in range(0, G.order, 5):
        for b in range(0, G.order, 7):
            assert q.hom[G.mul(a, b)] == Q.mul(q.hom[a], q.hom[b])
    K = gp.sylow_subgroup(Q, 3)
    pre = q.preimage(K)
    assert pre.order == 12
    assert q.image(pre).member_set == K.member_set
    # the images of G's generators generate the quotient
    assert Q.closure(Q.generators) == frozenset(range(Q.order))
    assert len(Q.generators) <= len(G.generators)


def test_quotient_requires_normality():
    G = G_of("S4")
    with pytest.raises(HypothesisViolated):
        gp.quotient_group(G, gp.sylow_subgroup(G, 3))
    # N must lie in the subgroup it is taken out of
    P3, V = gp.sylow_subgroup(G, 3), gp.o_p(G, 2)
    with pytest.raises(HypothesisViolated):
        gp.quotient_group(P3, V)


def test_p_length():
    assert TorusComplex(G_of("S4"), 2).p_length == 2
    assert TorusComplex(G_of("S4"), 3).p_length == 1
    assert TorusComplex(G_of("S3"), 2).p_length == 1
    assert TorusComplex(G_of("C3C3:SL(2,3)"), 3).p_length == 2
    assert TorusComplex(G_of("C5:V4"), 5).p_length == 1
    series = TorusComplex(G_of("S4"), 2).p_series
    assert series[0].order == 1 and series[-1].order == 24
    A5 = gp.group_from_generators(5, [[1, 2, 3, 4, 0], [1, 0, 3, 2, 4]])
    with pytest.raises(NotSolvable):
        TorusComplex(A5, 2).p_series


def test_p_series_that_stalls_raises(monkeypatch):
    """An O_p' step that never grows stalls the series of S3 at p = 2
    short of S3: it raises instead of looping."""
    monkeypatch.setattr(gp, "o_p_prime", lambda G, p, N=None:
                        G.trivial_subgroup() if N is None else N)
    with pytest.raises(DecompositionNotFound):
        TorusComplex(G_of("S3"), 2).p_series


# -- enumeration --------------------------------------------------------

def test_elementary_abelian_subgroup_counts():
    G = G_of("D8")
    tori = gp.elementary_abelian_subgroups(G, 2)
    # D8: 5 involutions -> 5 C2s, plus 2 V4s
    assert len([t for t in tori if t.order == 2]) == 5
    assert len([t for t in tori if t.order == 4]) == 2
    assert len(tori) == 7


def test_all_p_subgroups_s4():
    G = G_of("S4")
    subs = gp.all_p_subgroups(G, 2)
    by_order = {}
    for s in subs:
        by_order[s.order] = by_order.get(s.order, 0) + 1
    # S4: 9 C2, 3 C4 + 4 V4 (one normal + 3 in the Sylows), 3 D8
    assert by_order[2] == 9
    assert by_order[4] == 7
    assert by_order[8] == 3


def test_all_subgroups_counts():
    assert len(oracles.all_subgroups(G_of("D8"))) == 10
    assert len(oracles.all_subgroups(G_of("Q8"))) == 6
    assert len(oracles.all_subgroups(G_of("S3"))) == 6


def test_abelian_subgroups_include_trivial():
    subs = gp.abelian_subgroups(G_of("D8"))
    assert subs[0].members == (0,)
    assert len(subs) == 9  # 10 subgroups of D8 minus the nonabelian whole


# -- enumerators and the derived subgroup against their definitions -----

LARGE = ("C3^4:(SD16oC4)", "C3^4:(SD16oD8)")  # orders 2592 and 5184
SMALL = [name for name in cs.catalog_names() if name not in LARGE]


def _primes(n):
    return [q for q in range(2, n + 1)
            if n % q == 0 and all(q % r for r in range(2, q))]


def _derived_by_all_commutators(S):
    G = S.parent
    return G.closure({G.commutator(a, b) for a in S.members for b in S.members})


@pytest.mark.parametrize("name", SMALL)
def test_enumerators_match_filtered_all_subgroups(name):
    G = G_of(name)
    assert G.order <= 216
    subs = oracles.all_subgroups(G)
    S = {K: gp.Subgroup(G, K) for K in subs}
    assert gp.abelian_subgroups(G)[0].order == 1
    assert oracles.member_sets(gp.abelian_subgroups(G)) == \
        [K for K in subs if gp.is_abelian(S[K])]
    for p in _primes(G.order):
        P = gp.sylow_subgroup(G, p)
        inP = [K for K in subs if K <= P.member_set]
        assert oracles.all_subgroups(P) == inP
        for scope, inside in ((G, subs), (P, inP)):
            psubs = [K for K in inside
                     if len(K) > 1 and gp.is_p_group(S[K], p)]
            assert oracles.member_sets(gp.all_p_subgroups(scope, p)) == psubs
            assert oracles.member_sets(
                gp.elementary_abelian_subgroups(scope, p)) == \
                [K for K in psubs if gp.is_elementary_abelian(S[K], p)]
        assert oracles.member_sets(gp.abelian_subgroups(P)) == \
            [K for K in inP if gp.is_abelian(S[K])]
        for found in (gp.abelian_subgroups(G), gp.all_p_subgroups(G, p),
                      gp.elementary_abelian_subgroups(G, p)):
            assert len(set(found)) == len(found)  # a poset would hide a repeat
            assert all(G.closure(K.generator_witness) == K.member_set
                       for K in found)


@pytest.mark.parametrize("name", SMALL)
def test_derived_series_matches_all_commutators(name):
    G = G_of(name)
    S = G.full()
    while True:
        D = gp.derived_subgroup(S)
        assert D.member_set == _derived_by_all_commutators(S)
        if D.order == S.order:
            break
        S = D
    for p in _primes(G.order):
        P = gp.sylow_subgroup(G, p)
        assert gp.derived_subgroup(P).member_set == \
            _derived_by_all_commutators(P)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["S4", "SL(2,3)", "C3:(D16xC2)", "C3C3:SL(2,3)"]),
       st.lists(st.integers(min_value=0, max_value=215), max_size=3))
def test_derived_subgroup_of_random_subgroups(name, picks):
    G = G_of(name)
    S = gp.subgroup_generated(G, [x % G.order for x in picks])
    assert gp.derived_subgroup(S).member_set == _derived_by_all_commutators(S)


# -- the generator masks against the member predicates they replaced ------

@pytest.mark.parametrize("names,primes", [
    (("S3", "S3", "S3"), (2, 3)), (("C7:C3", "C7:C3"), (3, 7)),
    (("D10", "D14"), (2,))], ids=lambda v: "x".join(map(str, v)))
def test_enumerators_match_member_predicates_at_scale(names, primes):
    # D10 and D14 are not in the catalog
    G = cs.direct_product([G_of(n) if n in SMALL else cs.dihedral(int(n[1:]))
                           for n in names])
    assert oracles.member_sets(gp.abelian_subgroups(G)) == \
        oracles.abelian_subgroups_by_predicate(G)
    for p in primes:
        assert oracles.member_sets(gp.elementary_abelian_subgroups(G, p)) == \
            oracles.elementary_abelian_subgroups_by_predicate(G, p)
        assert oracles.member_sets(gp.all_p_subgroups(G, p)) == \
            oracles.all_p_subgroups_by_predicate(G, p)
        P = gp.sylow_subgroup(G, p)
        assert gp.rank(P, p) == oracles.rank_by_predicate(P, p)


def test_tori_match_member_predicates_on_c3_4_sd16oc4():
    G = G_of("C3^4:(SD16oC4)")
    assert oracles.member_sets(gp.elementary_abelian_subgroups(G, 2)) == \
        oracles.elementary_abelian_subgroups_by_predicate(G, 2)


# -- growth by class representatives against the node-by-node engine ---

def _same_nodes(found, old):
    """The same node set as the old engine, with no repeats, and every
    node generated by its witness, conjugated nodes included: the bitset
    relation reads a node through its witness."""
    assert len(set(found)) == len(found)  # a poset would hide a repeat
    assert oracles.member_sets(found) == oracles.member_sets(old)
    assert all(K.parent.closure(K.generator_witness) == K.member_set
               for K in found)


@pytest.mark.parametrize("name", cs.catalog_names())
def test_enumerators_match_the_node_by_node_engine(name):
    G = G_of(name)
    _same_nodes(gp.abelian_subgroups(G), oracles.abelian_subgroups_by_steps(G))
    for p in _primes(G.order):
        P = gp.sylow_subgroup(G, p)
        for scope in (G, P):
            _same_nodes(
                gp.elementary_abelian_subgroups(scope, p),
                oracles.elementary_abelian_subgroups_by_steps(scope, p))
            _same_nodes(gp.all_p_subgroups(scope, p),
                        oracles.all_p_subgroups_by_steps(scope, p))
        _same_nodes(gp.abelian_subgroups(P),
                    oracles.abelian_subgroups_by_steps(P))
        assert gp.rank(P, p) == oracles.rank_by_steps(P, p)


def test_searches_inside_a_subgroup_conjugate_by_its_generators_only():
    """The point stabilizer S3 x S3 of S4 x S3 on 7 points is not normal,
    so a class conjugated out by the group's generators would leave it."""
    G = cs.direct_product([G_of("S4"), G_of("S3")])
    D = gp.Subgroup(G, np.flatnonzero(G.images[:, 0] == 0).tolist())
    assert D.order == 36 and not gp.is_normal(D)
    _same_nodes(gp.abelian_subgroups(D), oracles.abelian_subgroups_by_steps(D))
    for p in (2, 3):
        _same_nodes(gp.elementary_abelian_subgroups(D, p),
                    oracles.elementary_abelian_subgroups_by_steps(D, p))
        _same_nodes(gp.all_p_subgroups(D, p),
                    oracles.all_p_subgroups_by_steps(D, p))
    assert all(K <= D for K in gp.abelian_subgroups(D))


def test_tori_match_the_node_by_node_engine_at_scale():
    """A_3 of (C7:C3) x (C13:C3) x C3 x C3 (order 7371): 15187 tori in
    211 classes."""
    frobenius = [cs.build(cs.GroupSpec("semidirect_product", {
        "n": cs.GroupSpec("cyclic", {"order": n}),
        "h": cs.GroupSpec("cyclic", {"order": 3}),
        "action": {"gen_images": [[r]]}})) for n, r in ((7, 2), (13, 3))]
    G = cs.direct_product([*frobenius, cs.cyclic(3), cs.cyclic(3)],
                          cap=gp.TABLE_ORDER_CAP)
    found = gp.elementary_abelian_subgroups(G, 3)
    assert len(found) == 15187
    _same_nodes(found, oracles.elementary_abelian_subgroups_by_steps(G, 3))


def test_growth_in_one_entry_chunks_finds_the_same_nodes(monkeypatch):
    """With a budget of one entry, each chunk holds one representative
    and each extension one pair: the same nodes and witnesses."""
    G = G_of("C3C3:SL(2,3)")
    calls = [lambda: gp.abelian_subgroups(G),
             lambda: gp.all_p_subgroups(G, 2),
             lambda: gp.elementary_abelian_subgroups(G, 3)]
    whole = [[(K.members, K.generator_witness) for K in f()] for f in calls]
    monkeypatch.setattr(gp, "GROW_BUDGET", 1)
    assert [[(K.members, K.generator_witness) for K in f()]
            for f in calls] == whole


@pytest.mark.parametrize("name", cs.catalog_names())
def test_sylow_matches_least_extension_scan(name):
    G = G_of(name)
    for p in _primes(G.order):
        P, old = gp.sylow_subgroup(G, p), oracles.sylow_by_predicate(G, p)
        assert P.members == old.members
        assert P.generator_witness == old.generator_witness


def _subgroups_to_test(G):
    """The trivial subgroup, G, its Sylow subgroups, and the centres and
    derived subgroups of each."""
    found = [G.trivial_subgroup(), G.full()]
    found += [gp.sylow_subgroup(G, p) for p in _primes(G.order)]
    for S in found[1:]:
        found += [gp.center(S), gp.derived_subgroup(S)]
    return found


@pytest.mark.parametrize("name", SMALL)
def test_centralizer_normality_and_commutativity_by_definition(name):
    G = G_of(name)
    subs = _subgroups_to_test(G)
    for S in subs:
        assert gp.is_abelian(S) == all(G.mul(a, b) == G.mul(b, a)
                                       for a in S.members for b in S.members)
        for X in subs:
            assert gp.centralizer(S, X).members == tuple(
                s for s in S.members
                if all(G.mul(s, x) == G.mul(x, s) for x in X.members))
            assert gp.is_normal(S, X) == all(
                G.conj(s, x) in S.member_set
                for s in S.members for x in X.members)
        assert gp.is_normal(S) == all(G.conj(s, x) in S.member_set
                                      for s in S.members for x in range(G.order))


# -- the Cayley table against the per-element lookup it replaced ---------

def _table_by_lookup(G):
    """The table from one dictionary lookup per product."""
    n = G.order
    E = np.array(oracles.elements(G), dtype=np.int64)
    lookup = {E[i].tobytes(): i for i in range(n)}
    table = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        prods = E[i][E]  # row j = elements[i] o elements[j]
        row = table[i]
        for j in range(n):
            row[j] = lookup[prods[j].tobytes()]
    return table


def _inverses_by_scan(table):
    n = len(table)
    inv = np.empty(n, dtype=np.int32)
    for i in range(n):
        inv[np.flatnonzero(table[i] == 0)[0]] = i
    return inv


def _assert_table_exact(G):
    table = _table_by_lookup(G)
    assert G.table.dtype == np.int16 and G.inverse.dtype == np.int16
    assert np.array_equal(G.table, table)
    assert np.array_equal(G.inverse, _inverses_by_scan(table))
    assert (G.table[np.arange(G.order), G.inverse] == 0).all()


@pytest.mark.parametrize("name", SMALL)
def test_table_matches_lookup_on_catalog(name):
    _assert_table_exact(G_of(name))


def _assert_table_as_by_index_lookup(G):
    table, inverse = oracles.table_by_index_lookup(G)
    assert np.array_equal(G.table, table)
    assert np.array_equal(G.inverse, inverse)


@pytest.mark.parametrize("name", cs.catalog_names())
def test_table_matches_index_lookup_on_catalog(name):
    _assert_table_as_by_index_lookup(G_of(name))


def _moved_to(perm, off, degree):
    """``perm`` acting on off, off+1, ... and fixing the other points."""
    img = list(range(degree))
    for i, x in enumerate(perm):
        img[off + i] = off + x
    return img


def test_table_matches_lookup_on_long_bases_and_high_degree():
    S4, A4 = G_of("S4"), G_of("A4")
    G = cs.direct_product([S4, A4])
    assert G.degree == 8
    _assert_table_exact(G)
    _assert_table_as_by_index_lookup(G)
    # C3 on points 0..2 times S4 x A4 on points 256..263 of 264
    gens = ([_moved_to(oracles.elements(S4)[g], 256, 264)
             for g in S4.generators]
            + [_moved_to(oracles.elements(A4)[g], 260, 264)
               for g in A4.generators]
            + [_moved_to((1, 2, 0), 0, 264)])
    H = gp.group_from_generators(264, gens)
    assert H.order == 3 * 288
    _assert_table_exact(H)
    _assert_table_as_by_index_lookup(H)
    assert gp.group_from_generators(1, []).table.tolist() == [[0]]


def _reversed_s4():
    """S4 with its images listed identity first, then in reverse, so that
    its ids are not the ranks of its image tuples."""
    S4 = G_of("S4")
    images = np.concatenate([S4.images[:1], S4.images[:0:-1]])
    gens = tuple(sorted(S4.order - g for g in S4.generators))
    return gp.Group(4, images, gens, oracles.table_by_levels(images, gens))


def _regular_c1024_c2():
    return cs.build(cs.GroupSpec.from_json({
        "kind": "semidirect_product", "params": {
            "n": {"kind": "cyclic", "params": {"order": 1024}},
            "h": {"kind": "cyclic", "params": {"order": 2}},
            "action": {"gen_images": [[1023]]}}}))


def _swaps_of_degree_300():
    """Two transpositions on points of two bytes each: (0 255), (0 256)."""
    return gp.group_from_generators(
        300, [[{0: j, j: 0}.get(x, x) for x in range(300)] for j in (255, 256)])


ONE_WALK_INPUTS = {
    **{name: (lambda name=name: G_of(name)) for name in cs.catalog_names()},
    "C1024:C2": _regular_c1024_c2,
    "degree 300": _swaps_of_degree_300,
    "duplicate generators": lambda: gp.group_from_generators(
        4, [[1, 2, 3, 0], [1, 0, 2, 3], [1, 2, 3, 0], [1, 0, 2, 3]]),
    "identity among generators": lambda: gp.group_from_generators(
        5, [[0, 1, 2, 3, 4], [1, 2, 0, 3, 4], [0, 1, 2, 3, 4], [0, 1, 2, 4, 3]]),
    "perm, degree 1, no generators": lambda: cs.build(
        cs.GroupSpec("perm", {"degree": 1, "generators": []})),
    "perm, degree 3, no generators": lambda: cs.build(
        cs.GroupSpec("perm", {"degree": 3, "generators": []})),
}


@pytest.mark.parametrize("name", list(ONE_WALK_INPUTS))
def test_table_of_the_walk_matches_the_table_by_levels(name):
    """The table of one Cayley-graph walk against the level-by-level
    table it replaced, filled from the same images and generators."""
    G = ONE_WALK_INPUTS[name]()
    assert np.array_equal(G.table, oracles.table_by_levels(G.images,
                                                           G.generators))


def test_product_of_a_factor_whose_ids_are_not_image_ranks():
    """The closed-form product takes factor ids as they are: with the
    reversed-list S4 its ids are not the ranks of its image tuples, but
    it is still a group whose table is read off its images."""
    R = _reversed_s4()
    for factors in ([R, G_of("S3")], [cs.cyclic(3), R]):
        G = cs.direct_product(factors)
        assert G.order == factors[0].order * factors[1].order
        for i in range(G.order):  # row i is images[i] * images[j]
            assert oracles.ids_of(G.images, G.images[i][G.images]).tolist() \
                == G.table[i].tolist()
        _assert_table_as_by_index_lookup(G)
        assert (G.table[np.arange(G.order), G.inverse] == 0).all()


def test_ids_find_rows_in_any_order_and_refuse_other_rows():
    S4, A4 = G_of("S4"), G_of("A4")
    back = np.arange(S4.order)[:0:-1]  # every id but the identity's, reversed
    R = _reversed_s4()
    assert oracles.ids_of(R.images, S4.images[back]).tolist() == \
        (S4.order - back).tolist()
    shuffle = np.random.default_rng(0).permutation(S4.order)
    assert oracles.ids_of(S4.images, S4.images[shuffle]).tolist() == \
        shuffle.tolist()
    assert oracles.ids_of(A4.images, A4.images[5:6]).tolist() == [5]
    # at degree > 256 a point is two bytes, little-endian: the key of
    # image 256 sorts before the key of image 255
    H = _swaps_of_degree_300()
    assert [int(H.images[i, 0]) for i in range(6)] == [0, 0, 255, 255, 256, 256]
    assert oracles.ids_of(H.images, H.images[::-1]).tolist() == \
        [5, 4, 3, 2, 1, 0]
    with pytest.raises(KeyError):  # a transposition is odd
        oracles.ids_of(A4.images, [[0, 1, 2, 3], [1, 0, 2, 3]])


def test_products_build_no_element_tuples():
    """A group keeps its images and no list of element tuples."""
    for order, spec in [
            (432, {"kind": "direct_product", "params": {"factors": [
                {"kind": "named", "params": {"name": "C3C3:SL(2,3)"}},
                {"kind": "cyclic", "params": {"order": 2}}]}}),
            (2048, {"kind": "semidirect_product", "params": {
                "n": {"kind": "cyclic", "params": {"order": 1024}},
                "h": {"kind": "cyclic", "params": {"order": 2}},
                "action": {"gen_images": [[1023]]}}})]:
        G = cs.build(cs.GroupSpec.from_json(spec))
        assert G.order == order and not hasattr(G, "elements")


def test_images_keep_a_dtype_that_fits_the_degree():
    # a perm spec's degree may reach TABLE_ORDER_CAP, past what uint8 holds
    n = gp.TABLE_ORDER_CAP
    swap = list(range(1, n - 1)) + [n, n - 1]
    G = cs.build(cs.GroupSpec("perm", {"degree": n, "generators": [swap]}))
    assert G.images.dtype == np.uint16
    assert G.order == 2 and oracles.elements(G)[1][-2:] == (n - 1, n - 2)
    assert G.table.tolist() == [[0, 1], [1, 0]]
    _assert_table_as_by_index_lookup(G)


def test_table_matches_lookup_at_scale():
    """Every entry of an order-5184 table against one vectorized lookup
    per row: a product is found by its images of a few points that tell
    the elements of G apart, which suffices since it lies in G."""
    G = G_of("C3^4:(SD16oD8)")
    assert G.table.dtype == np.int16 and G.table.nbytes == 2 * G.order ** 2
    E = np.array(oracles.elements(G), dtype=np.int64)
    n, d = E.shape
    points, code = [], np.zeros(n, dtype=np.int64)
    for b in range(d):
        if len(np.unique(code * d + E[:, b])) > len(np.unique(code)):
            points, code = points + [b], code * d + E[:, b]
    assert len(np.unique(code)) == n and d ** len(points) < 2 ** 63
    radix, by_code = d ** np.arange(len(points))[::-1], np.argsort(code)
    for i in range(n):
        prods = E[i][E[:, points]] @ radix
        assert np.array_equal(
            G.table[i], by_code[np.searchsorted(code, prods, sorter=by_code)])


@pytest.mark.parametrize("name", ["S4", "SL(2,3)", "C3C3:C2", "D16xC2"])
def test_table_matches_lookup_on_regular_representations(name):
    G = G_of(name)
    R = gp.group_from_generators(G.order, G.table[list(G.generators)].tolist())
    assert R.degree == R.order == G.order
    assert oracles.elements(R) == \
        oracles.elements(oracles.group_from_table(G.table.tolist()))
    _assert_table_exact(R)
    _assert_table_as_by_index_lookup(R)


def _p_length_section(G, p):
    """<P, P^g> and O_p(G) for the least g outside N_G(P), as in
    p_length_bound_check; None when P is normal."""
    P = gp.sylow_subgroup(G, p)
    g = next((x for x in range(G.order)
              if any(G.conj(y, x) not in P.member_set
                     for y in P.generator_witness)), None)
    if g is None:
        return None
    Pg = gp.conjugate_subgroup(P, g)
    S = gp.subgroup_generated(G, set(P.generator_witness)
                              | set(Pg.generator_witness))
    return S, gp.o_p(G, p)


@pytest.mark.parametrize("name", SMALL)
def test_table_matches_lookup_on_p_length_quotients(name):
    """G/N for the inner terms N of each upper p-series, and the section
    <P, P^g>/O_p(G) of the p-length check: the elements the table path
    gives, and an exact table."""
    G = G_of(name)
    for p in _primes(G.order):
        section = _p_length_section(G, p)
        for S, N in [(G, N) for N in TorusComplex(G, p).p_series[1:-1]] \
                + ([section] if section else []):
            Q = gp.quotient_group(S, N)
            assert oracles.elements(Q) == \
                oracles.elements(oracles.quotient_by_table(S, N).group)
            _assert_table_exact(Q)


# -- Sylow, O_p, O_p' and the p-series against the engines they replaced --

PRODUCTS = [("S4", "A4"), ("S3", "S3", "S3"), ("C3C3:SL(2,3)", "C2"),
            ("S4", "S3"), ("C7:C3", "S4")]


def _group_of(names):
    return cs.direct_product([G_of(n) for n in names])


def _sylow_by_normalizer(G, p):
    """H -> H<g> for the least g of N_G(H) outside H that is a p-element
    with g^p in H, with N_G(H) built in full at each step."""
    H = G.trivial_subgroup()
    while G.order % (H.order * p) == 0:
        N = oracles.normalizer(G.full(), H)
        ext = next(g for g in N.members if g not in H.member_set
                   and gp._is_p_power(oracles.element_order(G, g), p)
                   and oracles.power(G, g, p) in H.member_set)
        H = gp.Subgroup(G, G.closure(set(H.members) | {ext}),
                        tuple(sorted(set(H.generator_witness) | {ext})))
    return H


def _o_p_by_sylow_intersection(G, p):
    syl = [S.member_set for S in oracles.all_sylow_subgroups(G, p)]
    return frozenset.intersection(*syl) if syl else frozenset([G.identity])


def _o_p_prime_by_cyclic_closures(G, p):
    """Generated by every p'-element whose normal closure is a p'-group,
    one normal closure per cyclic subgroup."""
    gens, seen = [], set()
    for x in range(1, G.order):
        c = G.closure([x])
        if oracles.element_order(G, x) % p == 0 or c in seen:
            continue
        seen.add(c)
        if gp.normal_closure(G, [x]).order % p:
            gens.append(x)
    return G.closure(gens)


def _p_series_by_quotients(G, p):
    """The upper p-series with each term the preimage of O_p' or O_p of
    the quotient group by the term before."""
    series, phase_p = [frozenset([G.identity])], False
    while len(series[-1]) < G.order:
        q = oracles.quotient_by_table(G, gp.Subgroup(G, series[-1]))
        oracle = _o_p_by_sylow_intersection if phase_p \
            else _o_p_prime_by_cyclic_closures
        nxt = q.preimage(gp.Subgroup(q.group, oracle(q.group, p))).member_set
        if len(nxt) > len(series[-1]):
            series.append(nxt)
        phase_p = not phase_p
    return series


def _normal_subgroups(G):
    """The terms of every upper p-series, built by the quotient oracle,
    and of the derived series, and the center."""
    found = {m: gp.Subgroup(G, m) for q in _primes(G.order)
             for m in _p_series_by_quotients(G, q)}
    S = G.full()
    while S.order > 1:
        S = gp.derived_subgroup(S)
        found.setdefault(S.member_set, S)
    found.setdefault(gp.center(G).member_set, gp.center(G))
    return [found[m] for m in sorted(found, key=sorted)]


@pytest.mark.parametrize("name", SMALL)
def test_o_p_and_o_p_prime_modulo_n_are_quotient_preimages(name):
    G = G_of(name)
    for N in _normal_subgroups(G):
        q = oracles.quotient_by_table(G, N)
        for p in _primes(G.order):
            assert gp.o_p(G, p, N) == q.preimage(gp.o_p(q.group, p))
            assert gp.o_p_prime(G, p, N) == \
                q.preimage(gp.o_p_prime(q.group, p))


def _assert_sylow_and_o_p_match(G, p):
    P, old = gp.sylow_subgroup(G, p), _sylow_by_normalizer(G, p)
    assert P.members == old.members
    assert P.generator_witness == old.generator_witness
    assert gp.o_p(G, p).member_set == _o_p_by_sylow_intersection(G, p)


@pytest.mark.parametrize("names", [(n,) for n in SMALL] + PRODUCTS,
                         ids="x".join)
def test_sylow_o_p_o_p_prime_and_p_series_match_old_engines(names):
    G = _group_of(names) if len(names) > 1 else G_of(names[0])
    for p in _primes(G.order):
        _assert_sylow_and_o_p_match(G, p)
        assert gp.o_p_prime(G, p).member_set == \
            _o_p_prime_by_cyclic_closures(G, p)
        assert [S.member_set for S in TorusComplex(G, p).p_series] == \
            _p_series_by_quotients(G, p)


def _manifest_pairs():
    with open(cli._default_manifest_path()) as fh:
        return [(i["name"], i["prime"]) for i in json.load(fh)["instances"]]


@pytest.mark.parametrize("name,p", _manifest_pairs(), ids=str)
def test_p_series_and_p_length_match_the_phase_loop(name, p):
    """`TorusComplex.p_series` and `.p_length`, whose first steps are the
    object's O_p' and O_p, against alternating phases from 1, on every
    (group, prime) of the suite manifest."""
    G = G_of(name)
    T = TorusComplex(G, p)
    series, ell = oracles.p_length_by_phases(G, p)
    assert [S.member_set for S in T.p_series] == \
        [S.member_set for S in series]
    assert T.p_length == ell


@pytest.mark.parametrize("name,p", _manifest_pairs(), ids=str)
def test_built_subgroups_read_the_greedy_witness_only_when_asked(name, p):
    """The subgroups that O_p, O_p', centralizers, normal closures and
    derived subgroups build hold no witness until it is read; the one
    read is `_small_witness`, and it generates the subgroup."""
    G = G_of(name)
    P = gp.sylow_subgroup(G, p)
    built = [gp.o_p(G, p), gp.o_p(G, p, P=P), gp.o_p_prime(G, p),
             gp.centralizer(G, P), gp.center(P),
             gp.normal_closure(G, P.generator_witness),
             gp.derived_subgroup(G), gp.derived_subgroup(P)]
    for S in built:
        assert S._witness is None or S.order == 1
        assert S.generator_witness == gp._small_witness(G, S.member_set)
        assert G.closure(S.generator_witness) == S.member_set


@pytest.mark.parametrize("name,p", _manifest_pairs(), ids=str)
def test_o_p_prime_matches_the_witness_closure_engine(name, p):
    """O_p' grown by product sets against the normal closure of a witness
    and one element, with no N and with N each term of the p-series."""
    G = G_of(name)
    for N in (None, *TorusComplex(G, p).p_series):
        assert gp.o_p_prime(G, p, N) == oracles.o_p_prime_by_witness(G, p, N)


@pytest.mark.parametrize("name", LARGE)
def test_sylow_o_p_and_o_p_prime_match_old_engines_on_large_witnesses(name):
    # one sweep of conjugations does not reach O_2 of these groups; the
    # quotient-built series and the O_3' oracle take minutes here
    G = G_of(name)
    for p in (2, 3):
        _assert_sylow_and_o_p_match(G, p)
    assert gp.o_p_prime(G, 2).member_set == \
        _o_p_prime_by_cyclic_closures(G, 2)
