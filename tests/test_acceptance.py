"""Acceptance criteria: end-to-end verification of the homology engine
and every structural claim on the pinned catalog, with per-criterion
time budgets.  Each criterion prints one pass/fail line."""

import itertools
import json
import os
import time
from contextlib import contextmanager

import pytest

from quillen import constructions as cs
from quillen import group as gp
from quillen import poset as ps
from quillen import theorems as th
from quillen.homology import TorusComplex, reduced_homology

import oracles


@contextmanager
def criterion(num, desc, limit_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    dt = time.perf_counter() - t0
    line = f"[{'PASS' if dt < limit_s else 'FAIL'}] criterion {num}: " \
           f"{desc} ({dt:.1f}s, limit {limit_s:.0f}s)"
    print(line)
    assert dt < limit_s, line


def G_of(name):
    return cs.catalog_group(name)


@pytest.fixture(scope="module", autouse=True)
def warm_catalog():
    """Pre-build the two large witnesses so criterion timers measure the
    verification computations, not shared group construction."""
    for name in ("C3^4:(SD16oC4)", "C3^4:(SD16oD8)"):
        cs.catalog_group(name)


def quillen_profile(G, p):
    return reduced_homology(ps.order_complex(ps.quillen_poset(G, p)))


def _manifest():
    path = os.path.join(os.path.dirname(cs.__file__), "suite_manifest.json")
    with open(path) as fh:
        return json.load(fh)


# 1 ----------------------------------------------------------------------

def test_criterion_1_homology_oracles():
    with criterion(1, "homology engine oracle fixtures", 1):
        for n in range(1, 6):
            C = ps.SimplicialComplex(
                itertools.combinations(range(n + 1), n), close=True)
            prof = reduced_homology(C)
            assert prof.nonzero_degrees() == (n - 1,)
            assert prof.betti_of(n - 1) == 1
        rp2 = ps.SimplicialComplex(
            [(0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 4, 5), (0, 3, 4),
             (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)],
            close=True)
        prof = reduced_homology(rp2)
        assert prof.betti_of(1) == 0 and prof.torsion_of(1) == (2,)
        assert prof.betti_of(2) == 0
        s0 = ps.SimplicialComplex([[0], [1]], close=True)
        circle = reduced_homology(oracles.join(s0, s0))
        assert circle.nonzero_degrees() == (1,)
        assert circle.betti_of(1) == 1 and circle.torsion_of(1) == ()


# 2 ----------------------------------------------------------------------

def test_criterion_2_a2_s3():
    with criterion(2, "A_2(S3): 3 nodes, b~0 = 2, CM at dimension 0", 1):
        G = G_of("S3")
        P = ps.quillen_poset(G, 2)
        assert len(P) == 3
        C = ps.order_complex(P)
        prof = reduced_homology(C)
        assert prof.betti_of(0) == 2 and prof.nonzero_degrees() == (0,)
        v = oracles.is_cohen_macaulay(C)
        assert v.cohen_macaulay and C.dim == 0


# 3 ----------------------------------------------------------------------

def test_criterion_3_brown_equals_quillen():
    with criterion(3, "Brown and Quillen complexes have equal homology "
                      "profiles on the pinned catalog", 300):
        instances = [(i["name"], i["prime"]) for i in
                     _manifest()["instances"] if "brown" in i["checks"]]
        assert len(instances) >= 12
        for name, p in instances:
            G = G_of(name)
            q = quillen_profile(G, p)
            b = reduced_homology(ps.order_complex(ps.brown_poset(G, p)))
            assert b == q, (name, p, q.describe(), b.describe())


# 4 ----------------------------------------------------------------------

def test_criterion_4_split_extensions_cohen_macaulay():
    with criterion(4, "N x| P with N a p'-group and P elementary abelian: "
                      "torus complex Cohen-Macaulay", 120):
        cases = [("S3", 2), ("C7:C3", 3), ("C5:V4", 2), ("C3C3:C2", 2)]
        assert len(cases) >= 4
        for name, p in cases:
            G = G_of(name)
            P = gp.sylow_subgroup(G, p)
            assert gp.is_elementary_abelian(P, p)
            assert gp.o_p_prime(G, p).order * P.order == G.order
            v = oracles.is_cohen_macaulay(
                ps.order_complex(ps.quillen_poset(G, p)))
            assert v.cohen_macaulay, (name, p, v.witness)


# 5 ----------------------------------------------------------------------

def test_criterion_5_main_theorem_odd_p():
    with criterion(5, "odd-p main result: Cohen-Macaulay with top degree "
                      "rk(P)-1 on >= 3 instances", 600):
        cases = [("C3C3:SL(2,3)", 3), ("SL(2,3)", 3), ("C7:C3", 3),
                 ("S4", 3)]
        assert len(cases) >= 3
        # the named instance with extraspecial Sylow 3 of order 27
        big = G_of("C3C3:SL(2,3)")
        P27 = gp.sylow_subgroup(big, 3)
        assert P27.order == 27 and gp.is_extraspecial(P27, 3)
        for name, p in cases:
            G = G_of(name)
            v = th.main_theorem_check(TorusComplex(G, p))
            assert v.claim == "main-cm"
            assert v.agrees is True, (name, p, v.notes)
            assert v.computed["dim"] == \
                gp.rank(gp.sylow_subgroup(G, p), p) - 1


# 6 ----------------------------------------------------------------------

def test_criterion_6_main_theorem_dihedral_branch():
    with criterion(6, "dihedral-branch main result: S4 and the "
                      "D16xC2-based extension are Cohen-Macaulay", 300):
        for name in ("S4", "C3:(D16xC2)"):
            G = G_of(name)
            v = th.main_theorem_check(TorusComplex(G, 2))
            assert v.agrees is True, (name, v.notes)
            assert v.cm.cohen_macaulay
        # the D16xC2 extension really exercises the dihedral T case
        rep = th.decompose_2group(
            gp.omega1(gp.sylow_subgroup(G_of("C3:(D16xC2)"), 2), 2))
        assert rep.T_type == "dihedral"


# 7 ----------------------------------------------------------------------

def test_criterion_7_main_theorem_semidihedral_branch():
    with criterion(7, "semidihedral-branch main result: >= 2 distinct "
                      "nonzero reduced homology degrees", 120):
        # the order-32 semidihedral central product: its Omega1 part
        # decomposes with T semidihedral (the structural half of the
        # claim)...
        P = gp.omega1(G_of("SD16oC4").full(), 2)
        rep = th.decompose_2group(P)
        assert rep.T_type == "semidihedral"
        assert rep.all_checks_pass()
        # ...and a solvable group with semidihedral-type Sylow and no
        # nontrivial normal 2-subgroup realizes the homology claim
        G = G_of("C3^4:(SD16oD8)")
        assert gp.o_p(G, 2).order == 1
        v = th.main_theorem_check(TorusComplex(G, 2))
        assert v.claim == "main-semidihedral"
        assert v.structure.T_type == "semidihedral"
        assert v.agrees is True, v.notes
        nz = v.profile.nonzero_degrees()
        assert len(nz) >= 2, nz


# 8 ----------------------------------------------------------------------

def test_criterion_8_wedge_formula():
    with criterion(8, "wedge-formula profiles match exactly on every "
                      "catalog instance with a nontrivial normal "
                      "p'-subgroup", 600):
        instances = [(i["name"], i["prime"]) for i in
                     _manifest()["instances"] if "pw" in i["checks"]]
        assert len(instances) >= 5
        for name, p in instances:
            G = G_of(name)
            assert gp.o_p_prime(G, p).order > 1
            v = th.verify_pulkus_welker(TorusComplex(G, p))
            assert v.agrees is True, (name, p)
            assert v.computed["lhs"] == v.computed["rhs"]


# 9 ----------------------------------------------------------------------

SMALL_CATALOG = ["S3", "S4", "A4", "V4", "C3xC3", "D8", "D16", "Q8",
                 "SD16", "SL(2,3)", "SD16oC4", "D16xC2", "D8oD8",
                 "D8oQ8", "D8oC4", "ES27+", "ES27-", "ES27+xC3",
                 "C3C3:SL(2,3)", "C7:C3", "C5:V4", "C3C3:C2",
                 "C3:(D16xC2)"]


def _primes_of(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_criterion_9_p_length_bounds():
    with criterion(9, "p-length bounds and section fingerprints", 300):
        v = th.p_length_bound_check(TorusComplex(G_of("S4"), 2))
        assert v.agrees is True and v.computed["p_length"] == 2
        assert v.computed["section_order"] == 6  # SL(2,2)
        v = th.p_length_bound_check(
            TorusComplex(G_of("C3C3:SL(2,3)"), 3))
        assert v.agrees is True and v.computed["p_length"] == 2
        assert v.computed["section_order"] == 24  # SL(2,3)
        for name in SMALL_CATALOG:
            G = G_of(name)
            for p in _primes_of(G.order):
                P = gp.sylow_subgroup(G, p)
                ell = TorusComplex(G, p).p_length
                if gp.is_abelian(P):
                    assert ell <= 1, (name, p)
                if p >= 5 and gp.is_cyclic(gp.derived_subgroup(P)):
                    assert ell == 1, (name, p)


# 10 ---------------------------------------------------------------------

def test_criterion_10_structure_decompositions():
    with criterion(10, "structure decompositions succeed with all "
                       "invariants on every qualifying catalog p-group",
                   120):
        two_groups = ["V4", "D8", "D16", "Q8", "SD16", "SD16oC4",
                      "D16xC2", "D8oD8", "D8oQ8", "D8oC4"]
        checked = 0
        for name in two_groups:
            G = G_of(name)
            O = gp.omega1(G.full(), 2)
            if not gp.is_cyclic(gp.derived_subgroup(O)):
                continue
            rep = th.decompose_2group(O)
            assert rep.all_checks_pass(), (name, rep.checks)
            checked += 1
            if rep.case == "two_group_TD" and rep.derived_order > 2:
                assert rep.T_type in ("dihedral", "semidihedral")
        assert checked >= 8
        odd = ["C3xC3", "ES27+", "ES27-", "ES27+xC3"]
        for name in odd:
            G = G_of(name)
            O = gp.omega1(G.full(), 3)
            rep = th.classify_odd_p_group(O, 3)
            assert rep.all_checks_pass(), name
        # big-witness Sylows qualify too
        for name in ("C3^4:(SD16oC4)", "C3^4:(SD16oD8)"):
            P = gp.sylow_subgroup(G_of(name), 2)
            rep = th.decompose_2group(gp.omega1(P, 2))
            assert rep.all_checks_pass(), name
            assert rep.T_type == "semidihedral"


# 11 ---------------------------------------------------------------------

def test_criterion_11_contractibility_certificates():
    with criterion(11, "conjunctive elements force zero homology; "
                       "O_p(G) != 1 iff the torus complex is acyclic",
                   300):
        conj_found = 0
        for name in SMALL_CATALOG:
            G = G_of(name)
            for p in _primes_of(G.order):
                P = ps.quillen_poset(G, p)
                prof = reduced_homology(ps.order_complex(P))
                c = ps.find_conjunctive_element(P)
                if c is not None:
                    conj_found += 1
                    assert prof.is_trivial(), (name, p)
                acyclic = prof.is_trivial()
                op_nontrivial = gp.o_p(G, p).order > 1
                assert acyclic == op_nontrivial, (name, p)
        assert conj_found >= 5  # the certificate path is actually exercised
