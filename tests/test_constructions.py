"""Builder and catalog tests: family constructors, product
constructions, spec serialization, and the named catalog."""

import hashlib
import json
import os

import numpy as np
import pytest

from quillen import constructions as cs
from quillen import group as gp
from quillen.errors import (
    ActionNotHomomorphism,
    InvalidPermutation,
    InvalidSpec,
    NotCentral,
    UnknownName,
)

import oracles


# -- elementary families ------------------------------------------------

def test_cyclic():
    for n in (1, 2, 5, 12):
        G = cs.cyclic(n)
        assert G.order == n and gp.is_cyclic(G)
    with pytest.raises(InvalidSpec):
        cs.cyclic(0)


def test_elementary_abelian():
    G = cs.elementary_abelian(3, 2)
    assert G.order == 9 and gp.is_elementary_abelian(G, 3)
    assert cs.elementary_abelian(2, 0).order == 1


def test_dihedral():
    for order in (8, 16, 32):
        G = cs.dihedral(order)
        assert G.order == order and gp.is_dihedral_2group(G)
    V4 = cs.dihedral(4)
    assert gp.is_elementary_abelian(V4, 2)
    assert V4.label == "D4=V4" and V4.provenance == "disjoint cycles action"
    assert cs.dihedral(12).order == 12
    with pytest.raises(InvalidSpec):
        cs.dihedral(7)


def test_semidihedral():
    for order in (16, 32):
        G = cs.semidihedral(order)
        assert G.order == order and gp.is_semidihedral_2group(G)
    with pytest.raises(InvalidSpec):
        cs.semidihedral(8)


def test_quaternion():
    Q8 = cs.quaternion(8)
    assert Q8.order == 8
    assert (Q8.orders == 2).sum() == 1
    Q16 = cs.quaternion(16)
    assert (Q16.orders == 2).sum() == 1


def test_extraspecial():
    for p, variant, expo in ((3, "exp_p", 3), (3, "exp_p2", 9)):
        G = cs.extraspecial(p, 1, variant)
        assert G.order == 27
        assert gp.is_extraspecial(G, p)
        assert gp.exponent(G) == expo
    plus = cs.extraspecial(2, 2, "+")
    minus = cs.extraspecial(2, 2, "-")
    assert plus.order == 32 and minus.order == 32
    assert gp.is_extraspecial(plus, 2) and gp.is_extraspecial(minus, 2)
    assert gp.rank(plus.full(), 2) == 3
    assert gp.rank(minus.full(), 2) == 2
    big = cs.extraspecial(3, 2, "exp_p")
    assert big.order == 3 ** 5 and gp.is_extraspecial(big, 3)


# -- products -----------------------------------------------------------

def test_direct_product():
    G = cs.direct_product([cs.cyclic(2), cs.cyclic(3)])
    assert G.order == 6 and gp.is_cyclic(G)
    H = cs.direct_product([cs.dihedral(16), cs.cyclic(2)])
    assert H.order == 32 and gp.center(H).order == 4


def _catalog_of_kind(kind):
    return [n for n in cs.catalog_names() if cs.catalog(n).kind == kind]


def _assert_as_by_walk(G, old):
    """G equals the group that the Cayley-graph walk builds from the
    same factors."""
    assert G.images.dtype == old.images.dtype
    assert np.array_equal(G.images, old.images)
    assert G.generators == old.generators
    assert G.table.dtype == old.table.dtype
    assert np.array_equal(G.table, old.table)
    assert np.array_equal(G.inverse, old.inverse)
    assert (G.degree, G.label, G.provenance) == \
        (old.degree, old.label, old.provenance)


def _spec_factors(spec):
    if spec.kind == "direct_product":
        return spec.params["factors"]
    return [spec.params["a"], spec.params["b"]]  # the A x B of A o B


def _frobenius(n, h, r):
    return cs.GroupSpec("semidirect_product", {
        "n": cs.GroupSpec("cyclic", {"order": n}),
        "h": cs.GroupSpec("cyclic", {"order": h}),
        "action": {"gen_images": [[r]]}})


def _named(*names):
    return [cs.GroupSpec("named", {"name": n}) for n in names]


def _dihedral(order):
    return cs.GroupSpec("dihedral", {"order": order})


# the factor lists of the cm-products and group-products benchmark
# workloads
WORKLOAD_FACTORS = {
    "S3xS3xS3": _named("S3", "S3", "S3"),
    "D10xD14": [_dihedral(10), _dihedral(14)],
    "S3xD14": [*_named("S3"), _dihedral(14)],
    "D14xD14": [_dihedral(14), _dihedral(14)],
    "S3xD10": [*_named("S3"), _dihedral(10)],
    "S3xS3": _named("S3", "S3"),
    "C7:C3xC7:C3": _named("C7:C3", "C7:C3"),
    "S4xA4": _named("S4", "A4"),
    "S4xC5:V4": _named("S4", "C5:V4"),
    "S4xC7:C3": _named("S4", "C7:C3"),
    "SL(2,3)xC7:C3": _named("SL(2,3)", "C7:C3"),
    "C3C3:SL(2,3)xC2": _named("C3C3:SL(2,3)", "C2"),
}
PRODUCT_FACTORS = {
    **{n: _spec_factors(cs.catalog(n))
       for n in ["D16xC2", "ES27+xC3", *_catalog_of_kind("central_product")]},
    **{f"{n}-{way}": fs[::step] for n, fs in WORKLOAD_FACTORS.items()
       for way, step in (("given", 1), ("reversed", -1))},
    "(C7:C3)x(C13:C3)xC3xC3": [_frobenius(7, 3, 2), _frobenius(13, 3, 3),
                               cs.GroupSpec("cyclic", {"order": 3}),
                               cs.GroupSpec("cyclic", {"order": 3})],
    # one-byte factor images whose block runs past point 255
    "C2xC100, degree 300": [
        cs.GroupSpec("perm", {"degree": 200,
                              "generators": [[2, 1, *range(3, 201)]]}),
        cs.GroupSpec("cyclic", {"order": 100})],
}


@pytest.mark.parametrize("name", list(PRODUCT_FACTORS))
def test_direct_product_matches_the_walk(name):
    factors = [cs.build(f) for f in PRODUCT_FACTORS[name]]
    cap = gp.TABLE_ORDER_CAP
    _assert_as_by_walk(cs.direct_product(factors, cap),
                       oracles.direct_product_by_walk(factors, cap))


def test_direct_product_of_none_and_of_one_factor():
    _assert_as_by_walk(cs.direct_product([]),
                       oracles.direct_product_by_walk([]))
    for name in ("S4", "C3C3:SL(2,3)"):
        F = cs.catalog_group(name)
        _assert_as_by_walk(cs.direct_product([F]),
                           oracles.direct_product_by_walk([F]))


def test_direct_product_matches_the_walk_at_the_cap():
    """S4^3, order 13824: compared by digests, so that only one table
    of 382 MB is held at a time."""
    def digest(G):
        parts = (G.images, G.table, G.inverse, np.array(G.generators))
        return ([a.dtype.str for a in parts[:3]],
                [hashlib.sha256(a.tobytes()).hexdigest() for a in parts],
                G.degree, G.label, G.provenance)
    S4, cap = cs.catalog_group("S4"), gp.TABLE_ORDER_CAP
    new = digest(cs.direct_product([S4] * 3, cap))
    assert new == digest(oracles.direct_product_by_walk([S4] * 3, cap))


def test_central_product_divides_out_the_anti_diagonal(monkeypatch):
    """In A x B the central product divides out the (a, b^-1), a^k
    paired with b^k: here for an order-3 pairing, so b^-1 is not b, with
    the ids found by the image rows of the pairs."""
    quotients = []
    monkeypatch.setattr(gp, "quotient_group", lambda P, K, label="":
                        quotients.append((P, K)))
    A = B = cs._heisenberg(3, gp.DEFAULT_ELEMENT_CAP)
    z = cs._canonical_central_of_order(A, 3)
    cs.central_product(A, B, [(z, z)])
    (P, K), = quotients
    rows = [A.images[x].tolist()
            + [A.degree + y for y in B.images[B.inv(x)].tolist()]
            for x in (0, z, A.mul(z, z))]
    assert K.member_set == set(oracles.ids_of(P.images, rows).tolist())


def test_central_product_d8_d8():
    G = cs.central_product_by_order(cs.dihedral(8), cs.dihedral(8), 2)
    assert G.order == 32
    assert gp.is_extraspecial(G, 2)


def test_central_product_bad_pairing():
    with pytest.raises(NotCentral):
        # the rotation of D8 is central only up to its square
        D8 = cs.dihedral(8)
        rot = oracles.elements_of_order(D8, 4)[0]
        cs.central_product(D8, cs.cyclic(4), [(rot, 1)])


def test_semidirect_product_rejects_bad_action():
    N, H = cs.cyclic(5), cs.cyclic(4)
    bad = {list(H.generators)[0]: tuple(range(5))}  # trivial, fine
    cs.semidirect_product(N, H, bad)  # sanity: C5 x C4
    with pytest.raises(ActionNotHomomorphism):
        # order-2 automorphism assigned to an order-4 generator is fine
        # (kernel C2), but a non-bijection must be rejected
        cs.semidirect_product(N, H, {list(H.generators)[0]: (0, 0, 1, 2, 3)})


def test_semidirect_product_refuses_bijective_non_homomorphism():
    # swapping 1 and 2 in C5: 2 = 1 + 1 would go to 1, not 2 + 2 = 4
    N, H = cs.cyclic(5), cs.cyclic(2)
    with pytest.raises(ActionNotHomomorphism, match="not a homomorphism"):
        cs.semidirect_product(N, H, {H.generators[0]: (0, 2, 1, 3, 4)})


def _squaring_on_c5_by_c2():
    # x -> x^2 is an automorphism of C5 of order 4, so it cannot be the
    # image of the generator of C2
    N, H = cs.cyclic(5), cs.cyclic(2)
    return N, H, {H.generators[0]: tuple(N.powers(2).tolist())}


def test_semidirect_product_refuses_inconsistent_action():
    with pytest.raises(ActionNotHomomorphism, match="inconsistent"):
        cs.semidirect_product(*_squaring_on_c5_by_c2())
    with pytest.raises(ActionNotHomomorphism, match="inconsistent"):
        oracles.semidirect_by_mul(*_squaring_on_c5_by_c2())


def test_builders_refuse_an_over_cap_order_before_writing_generators(
        monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("generators written for an over-cap order")
    monkeypatch.setattr(gp, "group_from_generators", unreachable)
    for build in (lambda: cs.cyclic(16385, cap=10 ** 9),
                  lambda: cs.elementary_abelian(2, 15, cap=10 ** 9),
                  lambda: cs.dihedral(16386, cap=10 ** 9),
                  lambda: cs.semidihedral(1 << 15, cap=10 ** 9),
                  lambda: cs._modular_p3(29, 10 ** 9),
                  lambda: cs.extraspecial(2, 7, "+", cap=10 ** 9),
                  lambda: cs.extraspecial(2, 7, "-", cap=10 ** 9),
                  lambda: cs.extraspecial(3, 5, "exp_p", cap=10 ** 9),
                  lambda: cs.extraspecial(3, 5, "exp_p2", cap=10 ** 9)):
        with pytest.raises(gp.GroupTooLarge,
                           match=r"^group order \d+ exceeds cap 16384$"):
            build()
    # a rank past the cap's bit length is refused without computing p^r
    with pytest.raises(gp.GroupTooLarge,
                       match=r"^group order 3\^1000000000 exceeds cap 16384$"):
        cs.elementary_abelian(3, 10 ** 9, cap=10 ** 9)


def test_a_degree_past_the_table_bound_is_refused():
    """A permutation degree past TABLE_ORDER_CAP is refused before any
    array is allocated, in a walk and in a direct product; the bound
    itself is admitted."""
    def perm(degree):
        return cs.GroupSpec("perm", {"degree": degree, "generators": []})
    G = cs.build(perm(gp.TABLE_ORDER_CAP))
    assert (G.order, G.degree) == (1, 16384)
    with pytest.raises(gp.GroupTooLarge, match=r"^degree 16385 exceeds "
                       r"the largest group order 16384$"):
        cs.build(perm(16385))
    with pytest.raises(gp.GroupTooLarge, match=r"^degree 32768 exceeds"):
        cs.direct_product([G, G])
    with pytest.raises(InvalidPermutation,
                       match=r"^degree must be non-negative, got -1$"):
        cs.build(perm(-1))


def test_semidirect_product_checks_the_order_before_the_action():
    with pytest.raises(gp.GroupTooLarge, match="group order 10 exceeds cap 9"):
        cs.semidirect_product(*_squaring_on_c5_by_c2(), cap=9)


def test_semidirect_product_refuses_an_action_missing_a_generator():
    N, H = cs.cyclic(5), cs.cyclic(4)
    with pytest.raises(ActionNotHomomorphism, match="no action given"):
        cs.semidirect_product(N, H, {})
    # the size check still comes first
    with pytest.raises(gp.GroupTooLarge):
        cs.semidirect_product(N, H, {}, cap=19)


def test_semidirect_product_with_unfaithful_action():
    # both generators of V4 invert C5: consistent, with kernel of order 2
    N, H = cs.cyclic(5), cs.elementary_abelian(2, 2)
    inversion = tuple(N.inv(x) for x in range(5))
    action = {h: inversion for h in H.generators}
    G = cs.semidirect_product(N, H, action)
    assert G.order == 20 and gp.center(G).order == 2
    old = oracles.semidirect_by_mul(N, H, action)
    assert (oracles.elements(G), G.generators) == \
        (oracles.elements(old), old.generators)


def test_semidirect_product_inversion():
    N = cs.cyclic(3)
    H = cs.cyclic(2)
    g = list(N.generators)[0]
    G = cs.semidirect_product(N, H, {list(H.generators)[0]:
                                     cs.automorphism_from_generator_images(
                                         N, {g: N.inv(g)})})
    assert G.order == 6 and not gp.is_abelian(G)


# -- builders against the table paths they replaced ---------------------

def _c49_c21():
    N, H = cs.cyclic(49), cs.cyclic(21)
    g = N.generators[0]  # x -> x^2 has order 21 mod 49
    aut = cs.automorphism_from_generator_images(N, {g: int(N.powers(2)[g])})
    return N, H, {H.generators[0]: aut}


def _catalog_semidirect(name):
    p = cs.catalog(name).params
    N, H = cs.build(p["n"]), cs.build(p["h"])
    return N, H, cs._resolve_action(N, H, p["action"])


# name -> (the builder, its multiplication-table reference)
ABSTRACT = {
    "Q8": (lambda: cs.quaternion(8), lambda: oracles.quaternion_by_mul(8)),
    "Q16": (lambda: cs.quaternion(16),
            lambda: oracles.quaternion_by_mul(16)),
    "Heis(3)": (lambda: cs._heisenberg(3, gp.DEFAULT_ELEMENT_CAP),
                lambda: oracles.heisenberg_by_mul(3)),
    "Heis(5)": (lambda: cs._heisenberg(5, gp.DEFAULT_ELEMENT_CAP),
                lambda: oracles.heisenberg_by_mul(5)),
    "C49:C21": (lambda: cs.semidirect_product(*_c49_c21()),
                lambda: oracles.semidirect_by_mul(*_c49_c21())),
    **{n: (lambda n=n: cs.build(cs.catalog(n)),
           lambda n=n: oracles.semidirect_by_mul(*_catalog_semidirect(n)))
       for n in _catalog_of_kind("semidirect_product")},
}


@pytest.mark.parametrize("name", list(ABSTRACT))
def test_regular_representation_matches_table_path(name):
    build, reference = ABSTRACT[name]
    G, old = build(), reference()
    assert G.provenance == "regular representation"
    assert (oracles.elements(G), G.generators, G.degree, G.provenance,
            G.label) == (oracles.elements(old), old.generators, old.degree,
                         old.provenance, old.label)
    table, inverse = oracles.table_by_index_lookup(G)
    assert (G.table.tolist(), G.inverse.tolist()) == \
        (table.tolist(), inverse.tolist())


@pytest.mark.parametrize("name", _catalog_of_kind("central_product"))
def test_central_product_matches_table_quotient(name, monkeypatch):
    G = cs.build(cs.catalog(name))
    monkeypatch.setattr(gp, "quotient_group", lambda P, K, label="":
                        oracles.quotient_by_table(P, K).group)
    old = cs.build(cs.catalog(name))
    assert oracles.elements(G) == oracles.elements(old)
    assert G.provenance == old.provenance == "coset action (regular)"


# -- spec serialization -------------------------------------------------

def test_spec_json_round_trip():
    for name in ("S4", "SD16oC4", "C3C3:SL(2,3)", "C3^4:(SD16oD8)"):
        spec = cs.catalog(name)
        data = json.loads(json.dumps(spec.to_json()))
        back = cs.GroupSpec.from_json(data)
        assert back == spec


def test_spec_rejects_garbage():
    with pytest.raises(InvalidSpec):
        cs.GroupSpec.from_json({"kind": "nope", "params": {}})
    with pytest.raises(InvalidSpec):
        cs.GroupSpec.from_json({"kind": "cyclic", "params": {}, "extra": 1})
    with pytest.raises(InvalidSpec):
        cs.build(cs.GroupSpec("cyclic", {}))  # missing order


# -- catalog ------------------------------------------------------------

EXPECTED_ORDERS = {
    "S3": 6, "S4": 24, "A4": 12, "V4": 4, "C3xC3": 9, "D8": 8,
    "D16": 16, "Q8": 8, "SD16": 16, "SL(2,3)": 24, "SD16oC4": 32,
    "D16xC2": 32, "D8oD8": 32, "D8oQ8": 32, "D8oC4": 16,
    "ES27+": 27, "ES27-": 27, "ES27+xC3": 81, "C3C3:SL(2,3)": 216,
    "C7:C3": 21, "C5:V4": 20, "C3C3:C2": 18, "C3:(D16xC2)": 96,
}


def test_catalog_orders():
    for name, order in EXPECTED_ORDERS.items():
        assert cs.catalog_group(name).order == order, name


def test_catalog_group_memoized():
    assert cs.catalog_group("S4") is cs.catalog_group("S4")


def test_catalog_unknown_name():
    with pytest.raises(UnknownName):
        cs.catalog("definitely-not-a-group")


def test_catalog_unicode_aliases():
    assert cs.catalog("SD16∘C4") == cs.catalog("SD16oC4")
    assert cs.catalog("C7⋊C3") == cs.catalog("C7:C3")


def test_catalog_structural_facts():
    SDC4 = cs.catalog_group("SD16oC4")
    assert gp.is_cyclic(gp.center(SDC4))
    assert gp.center(SDC4).order == 4
    assert gp.derived_subgroup(SDC4).order == 4
    SL23 = cs.catalog_group("SL(2,3)")
    assert gp.center(SL23).order == 2
    assert (SL23.orders == 2).sum() == 1
    big = cs.catalog_group("C3C3:SL(2,3)")
    P = gp.sylow_subgroup(big, 3)
    assert P.order == 27 and gp.is_extraspecial(P, 3)
    assert gp.exponent(P) == 3


def test_affine_witnesses():
    """The two order > 4096 instances: faithful affine constructions with
    the intended Sylow 2-subgroups and no nontrivial normal 2-subgroup."""
    G = cs.catalog_group("C3^4:(SD16oC4)")
    assert G.order == 2592
    P = gp.sylow_subgroup(G, 2)
    assert P.order == 32
    assert gp.is_cyclic(gp.center(P)) and gp.center(P).order == 4
    assert gp.o_p(G, 2).order == 1
    H = cs.catalog_group("C3^4:(SD16oD8)")
    assert H.order == 5184
    Q = gp.sylow_subgroup(H, 2)
    assert Q.order == 64
    assert gp.o_p(H, 2).order == 1
    assert gp.o_p_prime(H, 2).order == 81


GOLDEN_ELEMENTS = os.path.join(os.path.dirname(__file__), "golden",
                               "catalog_elements.json")


def catalog_elements(G) -> dict:
    """What pins a catalog group's element ids: its order, degree,
    generator ids and a sha256 of its sorted element list."""
    elements = json.dumps(oracles.elements(G)).encode()
    digest = hashlib.sha256(elements).hexdigest()
    return {"order": G.order, "degree": G.degree,
            "generators": list(G.generators), "elements_sha256": digest}


@pytest.mark.parametrize("name", cs.catalog_names())
def test_catalog_elements_match_pinned(name):
    G = cs.build(cs.catalog(name))
    with open(GOLDEN_ELEMENTS, encoding="utf-8") as fh:
        assert catalog_elements(G) == json.load(fh)[name]


def test_catalog_names_listed():
    names = cs.catalog_names()
    assert "S4" in names and "C3^4:(SD16oD8)" in names
    for n in names:
        assert isinstance(cs.catalog(n), cs.GroupSpec)


if __name__ == "__main__":
    pinned = {name: catalog_elements(cs.catalog_group(name))
              for name in cs.catalog_names()}
    with open(GOLDEN_ELEMENTS, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
