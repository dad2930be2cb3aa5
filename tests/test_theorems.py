"""Theorem-checker tests: structure decompositions, upper-interval
predictions, the wedge formula, p-length bounds, and the main pipeline,
on small catalog instances."""

import json
import time

import pytest

from quillen import constructions as cs
from quillen import group as gp
from quillen import homology
from quillen import poset as ps
from quillen import theorems as th
from quillen.errors import (DecompositionNotFound, HypothesisViolated,
                            PreconditionFailed)
from quillen.homology import TorusComplex

import oracles
from test_structures import EXTRA_SPECS


def G_of(name):
    return cs.catalog_group(name)


# -- odd-p classification -----------------------------------------------

def test_classify_abelian():
    rep = th.classify_odd_p_group(G_of("C3xC3").full(), 3)
    assert rep.case == "abelian"
    assert rep.all_checks_pass()


def test_classify_extraspecial_27():
    rep = th.classify_odd_p_group(G_of("ES27+").full(), 3)
    assert rep.case == "odd_extraspecial_split"
    assert rep.derived_order == 3
    assert rep.abelian_part.order == 1
    assert rep.E.order == 27
    assert rep.all_checks_pass()


def test_classify_split_with_elementary_part():
    rep = th.classify_odd_p_group(G_of("ES27+xC3").full(), 3)
    assert rep.case == "odd_extraspecial_split"
    assert rep.abelian_part.order == 3
    assert rep.E.order == 27
    assert rep.all_checks_pass()
    G = rep.group.parent
    # the split is a genuine internal direct product
    assert len(rep.abelian_part.member_set & rep.E.member_set) == 1
    assert len(G.closure(rep.abelian_part.member_set
                         | rep.E.member_set)) == 81


def test_classify_rejects_bad_hypotheses():
    with pytest.raises(HypothesisViolated):
        th.classify_odd_p_group(G_of("D8").full(), 2)  # p must be odd
    with pytest.raises(HypothesisViolated):
        # Omega1 != P for the exponent-9 extraspecial group
        th.classify_odd_p_group(G_of("ES27-").full(), 3)


def test_classify_refuses_a_huge_prime_fast():
    """A prime above every group order is refused before any primality
    test: trial division up to its square root would take minutes."""
    t0 = time.perf_counter()
    with pytest.raises(HypothesisViolated, match="exceeds the largest"):
        th.classify_odd_p_group(G_of("S3").trivial_subgroup(), 2**61 - 1)
    assert time.perf_counter() - t0 < 1.0


# -- 2-group TD decomposition -------------------------------------------

def test_decompose_elementary_abelian():
    rep = th.decompose_2group(G_of("V4").full())
    assert rep.case == "abelian" and rep.T_type == "trivial"


def test_decompose_small_case_d8():
    rep = th.decompose_2group(G_of("D8").full())
    assert rep.case == "two_group_TD"
    assert rep.T_type == "trivial" and rep.D.order == 8
    assert rep.E.order == 8  # D8 is itself extraspecial
    assert rep.all_checks_pass()


def test_decompose_dihedral_t():
    G = G_of("D16xC2")
    rep = th.decompose_2group(G.full())
    assert rep.T_type == "dihedral"
    assert rep.T.order == 16
    assert rep.all_checks_pass()
    assert dict(rep.checks)["T·D = P"]


def test_decompose_semidihedral_t():
    G = G_of("SD16oC4")
    P = gp.omega1(G.full(), 2)
    rep = th.decompose_2group(P)
    assert rep.T_type == "semidihedral"
    assert rep.T.order == 16
    assert rep.all_checks_pass()
    assert len(rep.T.member_set & rep.D.member_set) <= 2


def test_decompose_omega1_of_sd16():
    O = gp.omega1(G_of("SD16").full(), 2)
    rep = th.decompose_2group(O)  # Omega1(SD16) = D8
    assert rep.all_checks_pass()


def _search_accepts(P, T, D, Zo):
    """Whether the exhaustive D search that decompose_2group used to run
    would accept D: its pre-filters, then the split and the checks."""
    inter = len(T.member_set & D.member_set)
    if not Zo <= D or inter > 2 or T.order * D.order // inter != P.order:
        return False
    if frozenset(gp._product_set(P.parent, T.members, D.members)) \
            != P.member_set:
        return False
    if not (gp.is_normal(T, P) and gp.is_normal(D, P)):
        return False
    E = th._split_D(D)
    return E is not None and all(
        ok for _, ok in th._td_checks(P, T, D, E, Zo))


@pytest.mark.parametrize("name", ["D16", "D16xC2", "SD16oC4", "C3:(D16xC2)"])
def test_decompose_d_is_the_centralizer(name):
    # the subgroup search is the oracle: for every candidate T it finds
    # C_P(T) alone or nothing
    G = G_of(name)
    P = gp.omega1(gp.sylow_subgroup(G, 2), 2)
    Zo = gp.omega1(gp.center(P), 2)
    cands = th._candidate_T(P, gp.derived_subgroup(P))
    assert cands
    for T, _ in cands:
        CT = gp.centralizer(P, T)
        accepted = [dm for dm in oracles.all_subgroups(CT)
                    if _search_accepts(P, T, gp.Subgroup(G, dm), Zo)]
        assert accepted in ([], [CT.member_set])
    rep = th.decompose_2group(P)
    assert rep.D == gp.centralizer(P, rep.T)


def test_decompose_rejects_bad_hypotheses():
    with pytest.raises(HypothesisViolated):
        th.decompose_2group(G_of("C3xC3").full())
    with pytest.raises(HypothesisViolated):
        th.decompose_2group(G_of("SD16").full())  # Omega1 != P


def test_structure_report_json():
    rep = th.decompose_2group(G_of("D8").full())
    data = rep.to_json()
    assert data["case"] == "two_group_TD"
    assert data["checks"] and all(ok for _, ok in data["checks"])


# -- upper intervals ----------------------------------------------------

def test_interval_conjunctive_contractible():
    # in D8, above a non-central C2 nothing contains the center: pick a
    # torus X not containing Omega1(Z); the interval above the center
    # itself is handled elsewhere.  Here: X = Z(D8) in D8 x C2 has the
    # full center as a conjunctive element above it.
    G = cs.build(cs.GroupSpec("direct_product", {
        "factors": [cs.GroupSpec("dihedral", {"order": 8}),
                    cs.GroupSpec("cyclic", {"order": 2})]}))
    P = G.full()
    X = gp.omega1(gp.center(gp.sylow_subgroup(G, 2)), 2)
    # X is the full rank-2 central torus; take a rank-1 piece instead
    z = next(x for x in gp.derived_subgroup(P).members if x != G.identity)
    X1 = gp.subgroup_generated(G, [z])
    v = th.upper_interval_check(P, 2, X1)
    assert v.claim == "interval-conjunctive"
    assert v.agrees is True
    assert v.profile.is_trivial()


def test_interval_extraspecial_es27():
    G = G_of("ES27+")
    Z = gp.center(G.full())
    v = th.upper_interval_check(G.full(), 3, Z)
    assert v.claim == "interval-extraspecial"
    assert v.agrees is True
    assert v.predicted.startswith("0-spherical")
    assert v.profile.betti_of(0) == 3  # p+1 maximal tori above Z


def test_interval_extraspecial_d8od8():
    G = G_of("D8oD8")
    Z = gp.center(G.full())
    v = th.upper_interval_check(G.full(), 2, Z)
    assert v.claim == "interval-extraspecial"
    assert v.agrees is True
    assert v.predicted.startswith("1-spherical")
    assert v.profile.nonzero_degrees() == (1,)
    assert v.profile.betti_of(1) == 4


def test_interval_extraspecial_minus_type():
    # elliptic form: 5 singular points, still (rk-2)-spherical
    G = G_of("D8oQ8")
    Z = gp.center(G.full())
    v = th.upper_interval_check(G.full(), 2, Z)
    assert v.claim == "interval-extraspecial"
    assert v.agrees is True
    assert v.predicted.startswith("0-spherical")
    assert v.profile.betti_of(0) == 4  # 5 points


def test_interval_above_nonmaximal_torus():
    G = G_of("D8oD8")
    # a rank-2 torus containing the center
    P = ps.quillen_poset(G, 2)
    Z = gp.center(G.full())
    X = next(S for S in P.nodes if S.order == 4 and Z <= S)
    v = th.upper_interval_check(G.full(), 2, X)
    assert v.agrees is True


def test_interval_cyclic_central_product():
    G = G_of("D8oC4")
    X = gp.omega1(gp.center(G.full()), 2)
    v = th.upper_interval_check(G.full(), 2, X)
    assert v.claim == "interval-cyclic-central-product"
    assert v.agrees is True


def _search_central_split(P, p):
    """The exhaustive search for D with P = Z(P)·D that the
    cyclic-central-product branch used to run, kept as its oracle."""
    G = P.parent
    Z = gp.center(P)
    X = gp.omega1(Z, p)
    for dm in oracles.all_subgroups(P):
        D = gp.Subgroup(G, dm)
        if (gp.is_extraspecial(D, p)
                and gp.center(D).member_set == X.member_set
                and frozenset(gp._product_set(G, Z.members, D.members))
                == P.member_set):
            return D
    raise DecompositionNotFound("no extraspecial D")


Q8_C4 = cs.GroupSpec("central_product",
                     {"a": cs.GroupSpec("quaternion", {"order": 8}),
                      "b": cs.GroupSpec("cyclic", {"order": 4}),
                      "order": 2})


@pytest.mark.parametrize("spec", [cs.catalog("D8oC4"), Q8_C4],
                         ids=["D8oC4", "Q8oC4"])
def test_interval_central_split_matches_search(spec, monkeypatch):
    G = cs.build(spec)
    X = gp.omega1(gp.center(G.full()), 2)
    fast = th.upper_interval_check(G.full(), 2, X).to_json()
    monkeypatch.setattr(th, "_central_split", _search_central_split)
    slow = th.upper_interval_check(G.full(), 2, X).to_json()
    assert fast["claim"] == "interval-cyclic-central-product"
    assert json.dumps(fast, sort_keys=True) == json.dumps(slow, sort_keys=True)


def _group(name):
    if name in EXTRA_SPECS:
        return cs.build(cs.GroupSpec.from_json(EXTRA_SPECS[name]))
    return G_of(name)


def _central_ds(name, p):
    """Every subgroup D of the p-group ``name`` with |D'| = p central."""
    G = _group(name)
    for D in gp.all_p_subgroups(G, p):
        Dp = gp.derived_subgroup(D)
        if Dp.order == p and Dp <= gp.center(D):
            yield D


def _checked_split(split, D, p):
    """``split(D, p)`` checked to be an extraspecial E with E·Z(D) = D
    and E ∩ Z(D) = D', or None if it refuses D."""
    try:
        E = split(D, p)
    except DecompositionNotFound:
        return None
    Z = gp.center(D)
    assert gp.is_extraspecial(E, p)
    assert E.order == D.order * p // Z.order
    assert E.member_set & Z.member_set == gp.derived_subgroup(D).member_set
    assert frozenset(gp._product_set(D.parent, E.members, Z.members)) \
        == D.member_set
    return E


SPLIT_GROUPS = [("D8oD8", 2), ("D8oQ8", 2), ("D8oC4", 2), ("ES27+xC3", 3),
                ("SD16oC4", 2), ("D8oD8oC4", 2), ("Q8oC4", 2), ("D8xD8", 2)]


@pytest.mark.parametrize("name,p", SPLIT_GROUPS
                         + [("ES(3,2,exp_p)xC3", 3)])
def test_central_split_matches_symplectic_lift(name, p):
    """The greedy complement over D' and the old symplectic lift both
    refuse D, or both split it; only ten order-16 subgroups of D8xD8
    have no split."""
    Ds = ([_group(name).full()] if name == "ES(3,2,exp_p)xC3"
          else list(_central_ds(name, p)))
    refused = []
    for D in Ds:
        E = _checked_split(th._central_split, D, p)
        old = _checked_split(oracles.central_split_by_symplectic_lift, D, p)
        assert (E is None) == (old is None)
        if E is None:
            refused.append(D.order)
    assert refused == ([16] * 10 if name == "D8xD8" else [])


def _greedy_calls(kind):
    """The (ambient, W, start) arguments of each kind of greedy call."""
    if kind == "A":  # Z(P) over P', from 1, in the odd splits
        for name in ("ES27+xC3", "ES27+xC3^2", "ES(3,2,exp_p)xC3"):
            P = _group(name).full()
            yield (gp.center(P), gp.derived_subgroup(P),
                   P.parent.trivial_subgroup())
    elif kind == "P2":  # C_P(X) over X, from Z(P), for extraspecial P
        for name, p in (("D8oD8", 2), ("ES(2,3,-)", 2), ("ES27+", 3)):
            P = _group(name).full()
            Z = gp.center(P)
            for X in ps.quillen_poset(P, p).nodes:
                if Z <= X:
                    yield gp.centralizer(P, X), X, Z
    else:  # D over Z(D), from D'
        for name, p in SPLIT_GROUPS:
            for D in _central_ds(name, p):
                yield D, gp.center(D), gp.derived_subgroup(D)


@pytest.mark.parametrize("kind", ["A", "P2", "E"])
def test_greedy_complement_matches_closure_steps(kind):
    """Growing by product sets gives the complement that growing by
    subgroup closure gives, refusals included."""
    def outcome(grow, args):
        try:
            return grow(*args).member_set
        except DecompositionNotFound:
            return None
    calls = list(_greedy_calls(kind))
    assert calls
    for args in calls:
        assert outcome(th._greedy_complement, args) == \
            outcome(oracles.greedy_complement_by_closure, args)


def test_central_split_of_order_729_is_fast():
    """Growing by closure takes about 19 s on ES(3,2,exp_p)xC3."""
    P = _group("ES(3,2,exp_p)xC3").full()
    t0 = time.perf_counter()
    E = th._central_split(P, 3)
    assert time.perf_counter() - t0 < 2
    assert E.order == 243


def test_interval_cyclic_central_product_rank_two():
    G = cs.build(cs.GroupSpec("central_product",
                              {"a": cs.catalog("D8oD8"),
                               "b": cs.GroupSpec("cyclic", {"order": 4}),
                               "order": 2}))
    X = gp.omega1(gp.center(G.full()), 2)
    v = th.upper_interval_check(G.full(), 2, X)
    assert v.claim == "interval-cyclic-central-product"
    assert v.agrees is True
    assert "|D| = 32" in v.predicted
    assert v.computed["reduction_nodes"] == 30
    assert v.profile.nonzero_degrees() == (1,)
    assert v.profile.betti_of(1) == 16


def test_interval_omega_center_route():
    G = G_of("ES27+xC3")
    X = gp.omega1(gp.center(G.full()), 3)
    v = th.upper_interval_check(G.full(), 3, X)
    assert v.claim in ("interval-omega-center", "interval-extraspecial")
    assert v.agrees is True


def test_interval_empty_when_maximal():
    G = G_of("C3xC3")
    v = th.upper_interval_check(G.full(), 3, G.full())
    assert v.claim == "interval-empty"
    assert v.agrees is True


def test_interval_semidihedral_no_prediction():
    G = G_of("SD16oC4")
    P = gp.omega1(G.full(), 2)
    X = gp.omega1(gp.center(P), 2)
    v = th.upper_interval_check(P, 2, X)
    assert v.claim == "interval-semidihedral"
    assert v.agrees is None
    assert v.structure.T_type == "semidihedral"


def test_interval_rejects_non_torus():
    G = G_of("D8")
    with pytest.raises(HypothesisViolated):
        th.upper_interval_check(G.full(), 2, G.trivial_subgroup())


# -- wedge formula ------------------------------------------------------

PW_ROWS = [("S3", 2), ("S4", 3), ("C7:C3", 3), ("C5:V4", 2),
           ("C3C3:C2", 2), ("C3:(D16xC2)", 2)]


@pytest.mark.parametrize("name,p", PW_ROWS)
def test_wedge_formula(name, p):
    G = G_of(name)
    assert gp.o_p_prime(G, p).order > 1
    v = th.verify_pulkus_welker(TorusComplex(G, p))
    assert v.agrees is True
    assert v.computed["lhs"] == v.computed["rhs"]


@pytest.mark.parametrize("names,p", [((n,), p) for n, p in PW_ROWS]
                         + [(("S3", "S3", "S3"), 2), (("S4", "S3"), 2),
                            (("C7:C3", "C7:C3"), 3), (("S4", "S4"), 3),
                            (("S4", "C5"), 2)],
                         ids=lambda x: "x".join(x) if isinstance(x, tuple)
                         else f"p{x}")
def test_wedge_formula_matches_quotient_group_right_hand_side(names, p):
    factors = [cs.cyclic(5) if n == "C5" else G_of(n) for n in names]
    G = cs.direct_product(factors) if len(names) > 1 else factors[0]
    v = th.verify_pulkus_welker(TorusComplex(G, p))
    assert v.to_json() == \
        oracles.verify_pulkus_welker_by_quotient(G, p).to_json()


def test_wedge_formula_walks_the_tori_once(monkeypatch):
    """The tori of each preimage NA are read off the torus poset of G,
    so the tori are enumerated once per call."""
    calls = []
    walk = gp.elementary_abelian_subgroups

    def counted(S, p):
        calls.append(S)
        return walk(S, p)

    monkeypatch.setattr(gp, "elementary_abelian_subgroups", counted)
    v = th.verify_pulkus_welker(TorusComplex(G_of("C3:(D16xC2)"), 2))
    assert v.agrees is True and v.computed["summands"] > 1
    assert len(calls) == 1


def test_wedge_formula_reduces_the_torus_complex_once(monkeypatch):
    """The piece over NA = G reads the torus complex's homology from T:
    on S3 at p = 2 (NA = G for every torus) no complex equal to the
    torus complex is reduced again."""
    T = TorusComplex(G_of("S3"), 2)
    assert T.profile.betti_of(0) == 2
    reduced, reduce = [], homology.reduced_homology

    def counted_reduce(C):
        reduced.append(C)
        return reduce(C)

    # theorems reduces complexes only through homology.poset_homology
    monkeypatch.setattr(homology, "reduced_homology", counted_reduce)
    v = th.verify_pulkus_welker(T)
    assert v.agrees is True and v.computed["summands"] == 1
    assert reduced and not any(C == T.complex for C in reduced)


def test_wedge_formula_s3_values():
    v = th.verify_pulkus_welker(TorusComplex(G_of("S3"), 2))
    assert v.profile.betti_of(0) == 2
    assert v.computed["N_order"] == 3


def test_wedge_formula_precondition():
    with pytest.raises(PreconditionFailed):
        th.verify_pulkus_welker(TorusComplex(G_of("S4"), 2))  # O_{2'}(S4) = 1


# -- p-length -----------------------------------------------------------

def test_plength_s4():
    v = th.p_length_bound_check(TorusComplex(G_of("S4"), 2))
    assert v.agrees is True
    assert v.computed["p_length"] == 2
    assert "fingerprint match: True" in " ".join(v.notes)
    assert "PH ∩ P^gH" in " ".join(v.notes)


def test_plength_sl23_section():
    v = th.p_length_bound_check(TorusComplex(G_of("C3C3:SL(2,3)"), 3))
    assert v.agrees is True
    assert v.computed["p_length"] == 2
    assert v.computed["section_order"] == 24


def test_plength_abelian_sylow():
    for name, p in (("SL(2,3)", 3), ("C7:C3", 3), ("C5:V4", 5)):
        v = th.p_length_bound_check(TorusComplex(G_of(name), p))
        assert v.agrees is True
        assert v.computed["p_length"] <= 1


def test_plength_p_not_dividing():
    v = th.p_length_bound_check(TorusComplex(G_of("S4"), 5))
    assert v.agrees is True and v.computed["p_length"] == 0


# -- main pipeline ------------------------------------------------------

@pytest.mark.parametrize("name,p", [
    ("S3", 2), ("S4", 2), ("S4", 3), ("SL(2,3)", 3),
    ("C7:C3", 3), ("C3C3:SL(2,3)", 3), ("C3:(D16xC2)", 2),
])
def test_main_theorem_cm_instances(name, p):
    v = th.main_theorem_check(TorusComplex(G_of(name), p))
    assert v.claim == "main-cm"
    assert v.agrees is True, (name, p, v.notes)
    assert v.cm.cohen_macaulay
    assert v.computed["dim"] == v.computed["rank"] - 1


def test_main_theorem_semidihedral_2group_not_applicable():
    # for the bare 2-group the complex is acyclic; no verdict is issued
    v = th.main_theorem_check(TorusComplex(G_of("SD16oC4"), 2))
    assert v.claim == "main-semidihedral"
    assert v.agrees is None
    assert v.profile.is_trivial()


def test_main_theorem_hypotheses():
    with pytest.raises(HypothesisViolated):
        th.main_theorem_check(TorusComplex(G_of("S4"), 5))
    A5 = gp.group_from_generators(5, [[1, 2, 3, 4, 0], [1, 0, 3, 2, 4]])
    with pytest.raises(HypothesisViolated):
        th.main_theorem_check(TorusComplex(A5, 2))


def test_verdict_json_round_trip():
    import json
    v = th.main_theorem_check(TorusComplex(G_of("S4"), 2))
    data = json.loads(json.dumps(v.to_json()))
    assert data["agrees"] is True
    assert data["structure"]["case"] == "two_group_TD"
    assert data["cm"]["cohen_macaulay"] is True
