"""Deterministic builders for the group families used throughout:
cyclic, dihedral, semidihedral, quaternion, elementary abelian,
extraspecial, direct/central/semidirect products, and a named catalog.

A direct product is read off its factors, with no enumeration.  Every
other builder writes permutation generators and enumerates the group
they generate.  It prefers a small natural faithful action where one is
obvious; otherwise (quaternion, Heisenberg, semidirect product) it writes
the regular representation, the left translations x -> g*x of the
generators on the positions of the elements, in closed form (the Group
records which in its ``provenance`` field).  A semidirect action is
checked by the order of the group it generates, and an automorphism by
its values on generators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    ActionNotHomomorphism,
    InvalidSpec,
    NotCentral,
    PairingNotIsomorphism,
    UnknownName,
)
from . import group as gp
from .group import DEFAULT_ELEMENT_CAP, Group, Subgroup

SPEC_DEPTH_CAP = 64  # levels of specs inside a spec; the catalog uses 2

KINDS = ("named", "cyclic", "dihedral", "semidihedral", "quaternion",
         "elementary_abelian", "extraspecial", "direct_product",
         "central_product", "semidirect_product", "perm")


@dataclass(frozen=True)
class GroupSpec:
    """Serializable recipe for a group; see :func:`build`."""
    kind: str
    params: dict

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": _params_to_json(self.params)}

    @staticmethod
    def from_json(data: dict, depth: int = 0) -> "GroupSpec":
        """The spec of a JSON object ``depth`` specs deep in another."""
        if depth > SPEC_DEPTH_CAP:
            raise InvalidSpec(f"spec nests deeper than {SPEC_DEPTH_CAP}")
        if not isinstance(data, dict) or set(data) - {"kind", "params"}:
            raise InvalidSpec(f"bad spec object: {data!r}")
        kind = data.get("kind")
        if kind not in KINDS:
            raise InvalidSpec(f"unknown kind {kind!r}")
        return GroupSpec(kind, _params_from_json(data.get("params", {}),
                                                 depth + 1))


def _params_to_json(params):
    out = {}
    for k, v in params.items():
        if isinstance(v, GroupSpec):
            out[k] = v.to_json()
        elif isinstance(v, (list, tuple)) and v and isinstance(v[0], GroupSpec):
            out[k] = [s.to_json() for s in v]
        else:
            out[k] = v
    return out


def _params_from_json(params, depth: int):
    if not isinstance(params, dict):
        raise InvalidSpec("params must be an object")
    out = dict(params)
    for key in ("a", "b", "n", "h"):
        if key in out and isinstance(out[key], dict):
            out[key] = GroupSpec.from_json(out[key], depth)
    if "factors" in out:
        out["factors"] = [GroupSpec.from_json(s, depth)
                          if isinstance(s, dict) else s
                          for s in out["factors"]]
    return out


# -- elementary family builders -----------------------------------------

def cyclic(n: int, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    if n < 1:
        raise InvalidSpec("cyclic order must be >= 1")
    _check_order(n, cap)
    if n == 1:
        return gp.group_from_generators(1, [], label="C1",
                                        provenance="trivial action")
    g = tuple((i + 1) % n for i in range(n))
    return gp.group_from_generators(n, [g], cap=cap, label=f"C{n}",
                                    provenance="natural cycle action")


def _require_prime(p: int, kind: str) -> None:
    if not gp.is_prime_within_cap(p):
        raise InvalidSpec(f"{kind} needs a prime p at most "
                          f"{gp.TABLE_ORDER_CAP}, got {p}")


def elementary_abelian(p: int, r: int, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    _require_prime(p, "elementary_abelian")
    if r < 0:
        raise InvalidSpec("elementary_abelian needs rank >= 0")
    _check_order(p, cap, r)
    if r == 0:
        return cyclic(1)
    degree = p * r
    gens = []
    for k in range(r):
        img = list(range(degree))
        for i in range(p):
            img[k * p + i] = k * p + (i + 1) % p
        gens.append(tuple(img))
    return gp.group_from_generators(degree, gens, cap=cap,
                                    label=f"C{p}^{r}",
                                    provenance="disjoint cycles action")


def dihedral(order: int, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    if order < 4 or order % 2:
        raise InvalidSpec("dihedral order must be an even number >= 4")
    _check_order(order, cap)
    m = order // 2
    if m == 2:
        G = elementary_abelian(2, 2, cap)
        G.label = "D4=V4"
        return G
    rot = tuple((i + 1) % m for i in range(m))
    ref = tuple((-i) % m for i in range(m))
    return gp.group_from_generators(m, [rot, ref], cap=cap,
                                    label=f"D{order}",
                                    provenance="natural polygon action")


def semidihedral(order: int, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    n = order.bit_length() - 1
    if order != 2 ** n or n < 4:
        raise InvalidSpec("semidihedral order must be 2^n with n >= 4")
    _check_order(order, cap)
    m = order // 2
    t = m // 2 - 1  # x^z = x^(2^(n-2) - 1)
    rot = tuple((i + 1) % m for i in range(m))
    twist = tuple((t * i) % m for i in range(m))
    return gp.group_from_generators(m, [rot, twist], cap=cap,
                                    label=f"SD{order}",
                                    provenance="affine action on Z/2^(n-1)")


def quaternion(order: int, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    n = order.bit_length() - 1
    if order != 2 ** n or n < 3:
        raise InvalidSpec("quaternion order must be 2^n with n >= 3")
    regular = _regular_representation(order, cap, f"Q{order}")
    m = order // 2
    # presentation x^m = 1, z^2 = x^(m/2), x^z = x^-1; x^i z^e at e*m + i
    x = [e * m + (i + 1) % m for e in (0, 1) for i in range(m)]
    z = [m + (-i) % m for i in range(m)] + [(m // 2 - i) % m for i in range(m)]
    return regular([x, z])


def extraspecial(p: int, n: int, variant: str,
                 cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """Extraspecial group of order p^(2n+1).

    For odd p, ``variant`` is "exp_p" or "exp_p2"; for p = 2 it is "+"
    (central product of dihedrals) or "-" (one quaternion factor).
    """
    _require_prime(p, "extraspecial")
    if n < 1:
        raise InvalidSpec("extraspecial needs n >= 1")
    _check_order(p, cap, 2 * n + 1)
    if p == 2:
        if variant not in ("+", "-"):
            raise InvalidSpec("p=2 extraspecial variant must be '+' or '-'")
        parts = [dihedral(8, cap) for _ in range(n)]
        if variant == "-":
            parts[-1] = quaternion(8, cap)
        G = parts[0]
        for H in parts[1:]:
            G = central_product_by_order(G, H, 2, cap=cap)
        G.label = "ES(2,%d,%s)" % (n, variant)
        return G
    if variant == "exp_p":
        G = _heisenberg(p, cap)
    elif variant == "exp_p2":
        G = _modular_p3(p, cap)
    else:
        raise InvalidSpec("odd-p extraspecial variant must be exp_p/exp_p2")
    for _ in range(n - 1):
        G = central_product_by_order(G, _heisenberg(p, cap), p, cap=cap)
    G.label = "ES(%d,%d,%s)" % (p, n, variant)
    return G


def _heisenberg(p: int, cap: int) -> Group:
    # p^(1+2) of exponent p (p odd): triples (a,b,c) over F_p at
    # (a*p + b)*p + c, with (a,b,c)(d,e,f) = (a+d, b+e, c+f+a*e)
    regular = _regular_representation(p ** 3, cap, f"Heis({p})")
    F = range(p)
    x = [((a + 1) % p * p + b) * p + (c + b) % p
         for a in F for b in F for c in F]
    y = [(a * p + (b + 1) % p) * p + c for a in F for b in F for c in F]
    return regular([x, y])


def _modular_p3(p: int, cap: int) -> Group:
    # p^(1+2) of exponent p^2: <x of order p^2, y | x^y = x^(1+p)>
    _check_order(p, cap, 3)
    m = p * p
    rot = tuple((i + 1) % m for i in range(m))
    twist = tuple(((1 + p) * i) % m for i in range(m))
    return gp.group_from_generators(m, [rot, twist], cap=cap,
                                    label=f"M({p}^3)",
                                    provenance="affine action on Z/p^2")


def _check_order(base: int, cap: int, exp: int = 1) -> None:
    """Refuse the group order base^exp past min(cap, TABLE_ORDER_CAP),
    before any permutation is written.  The base of a power is a prime,
    so an exponent past the bound's bit length is refused without
    raising the base to it."""
    cap = min(cap, gp.TABLE_ORDER_CAP)
    if exp > max(1, cap.bit_length()):
        raise gp.GroupTooLarge(f"group order {base}^{exp} exceeds cap {cap}")
    if base ** exp > cap:
        raise gp.GroupTooLarge(f"group order {base ** exp} exceeds cap {cap}")


def _regular_representation(order: int, cap: int, label: str):
    """Check ``order`` against the cap, before any permutation is
    written, and return the enumerator of the regular representation: it
    takes the left translations x -> g*x of the generators, as
    permutations of the ``order`` element positions, and raises
    GroupTooLarge if they generate more than ``order`` elements."""
    _check_order(order, cap)
    return functools.partial(gp.group_from_generators, order, cap=order,
                             provenance="regular representation", label=label)


# -- product constructions ----------------------------------------------

def direct_product(factors: Sequence[Group],
                   cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """Direct product acting on the disjoint union of the factor domains,
    read off the factors with no walk.  The element (i_1, ..., i_k) of
    factor ids has id ((i_1*n_2 + i_2)*n_3 + ...), the mixed-radix
    number over the factor orders n_f, and its image is the factor images
    side by side, each block shifted past the blocks before it.  When
    every factor's ids are the ranks of its image tuples, as for every
    group built here, so are the product's.  The table entry of two ids
    is the mixed-radix number of the factor table entries.  The order is
    checked against the cap, and the order and the degree against
    TABLE_ORDER_CAP, before any array is allocated."""
    import numpy as np
    if not factors:
        return cyclic(1)
    cap = min(cap, gp.TABLE_ORDER_CAP)
    order = 1
    for F in factors:
        order *= F.order
        if order > cap:
            raise gp.GroupTooLarge(f"direct product order exceeds cap {cap}")
    degree = sum(F.degree for F in factors)
    gp._check_degree(degree)
    dtype = gp._image_dtype(degree)
    images = np.empty((order, degree), dtype=dtype)
    table = np.zeros((1, 1), dtype=np.int16)
    gens, off, before = [], 0, 1  # before: the order of the factors so far
    for F in factors:
        n = F.order
        after = order // (before * n)
        images.reshape(before, n, after, degree)[..., off:off + F.degree] = \
            (F.images.astype(dtype) + off)[None, :, None, :]
        # every entry is below order <= TABLE_ORDER_CAP, so int16 throughout
        table = (table[:, None, :, None] * np.int16(n)
                 + F.table[None, :, None, :]).reshape(before * n, before * n)
        gens += [g * after for g in F.generators if g]
        off, before = off + F.degree, before * n
    label = "x".join(F.label or "?" for F in factors)
    return Group(degree, images, tuple(sorted(gens)), table, label=label,
                 provenance="disjoint union of factor actions")


def central_product(A: Group, B: Group, pairs: Sequence[tuple],
                    cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """Quotient of A x B identifying central subgroups via the pairing.

    ``pairs`` lists (a_id, b_id) generator pairs; the map a_i -> b_i must
    extend to an isomorphism of the generated central subgroups.
    """
    for side, G, ids in (("A", A, [a for a, _ in pairs]),
                         ("B", B, [b for _, b in pairs])):
        Z = gp.center(G)
        for x in ids:
            if x not in Z:
                raise NotCentral(f"element {x} is not central in {side}")
    phi = _extend_on_generators(A, B, pairs, PairingNotIsomorphism,
                                "pairing does not extend to a homomorphism")
    if len(set(phi.values())) != len(phi):
        raise PairingNotIsomorphism("pairing not injective")
    # surjectivity onto the subgroup the b's generate
    if len(B.closure(b for _, b in pairs)) != len(phi):
        raise PairingNotIsomorphism("pairing not surjective onto target")
    P = direct_product([A, B], cap=cap)
    # (a, b^-1) has the mixed-radix id a*|B| + id(b^-1) in A x B
    K = Subgroup(P, P.closure(a * B.order + B.inv(b) for a, b in phi.items()))
    if K.order != len(phi):
        raise PairingNotIsomorphism("anti-diagonal has wrong order")
    return gp.quotient_group(P, K,
                             label=f"{A.label or '?'}o{B.label or '?'}")


def _extend_on_generators(A: Group, B: Group, pairs, error, message) -> dict:
    """Extend the map a -> b of the (a, b) ``pairs`` breadth first to
    the subgroup of A that the a's generate, by x*a -> phi(x)*b.  Raise
    ``error(message)`` if an element gets two images, that is, if the
    map does not extend to a homomorphism."""
    phi = {A.identity: B.identity}
    frontier = [A.identity]
    while frontier:
        new = []
        for x in frontier:
            for a, b in pairs:
                xa, xb = A.mul(x, a), B.mul(phi[x], b)
                if xa not in phi:
                    phi[xa] = xb
                    new.append(xa)
                elif phi[xa] != xb:
                    raise error(message)
        frontier = new
    return phi


def central_product_by_order(A: Group, B: Group, k: int,
                             cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """Central product identifying the canonical order-k cyclic subgroups
    of the (cyclic) centers of A and B."""
    a = _canonical_central_of_order(A, k)
    b = _canonical_central_of_order(B, k)
    return central_product(A, B, [(a, b)], cap=cap)


def _canonical_central_of_order(G: Group, k: int) -> int:
    Z = gp.center(G)
    cands = [z for z in Z.members if G.orders[z] == k]
    if not cands:
        raise NotCentral(f"no central element of order {k}")
    return cands[0]


def semidirect_product(N: Group, H: Group, action: dict,
                       cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """Semidirect product N x| H, the regular representation on the
    positions n*|H| + h of the pairs (n, h).

    ``action`` maps each generator id of H to an automorphism of N given
    as a full image tuple on N's element ids.  A generator g of N acts
    as (n, h) -> (g*n, h), and a generator g of H as
    (n, h) -> (action[g][n], g*h).  Each image is checked to be an
    automorphism, so these generate T_N x| K, with T_N the translations
    of N and K = <(action[g], g)> <= Aut(N) x H mapping onto H: that
    group has exactly |N||H| elements if and only if the generator
    images extend to a homomorphism H -> Aut(N).
    """
    k = H.order
    regular = _regular_representation(
        N.order * k, cap, f"{N.label or '?'}:{H.label or '?'}")
    for h, img in action.items():
        if h not in H.generators:
            raise ActionNotHomomorphism(f"{h} is not a generator id of H")
        _check_automorphism(N, tuple(img))
    for g in H.generators:
        if g not in action:
            raise ActionNotHomomorphism(
                f"no action given for generator id {g} of H")

    def translation(on_n, on_h):
        return [a * k + b for a in on_n for b in on_h]
    gens = [translation(N.table[g].tolist(), range(k)) for g in N.generators]
    gens += [translation(action[g], H.table[g].tolist()) for g in H.generators]
    try:
        return regular(gens)
    except gp.GroupTooLarge:
        raise ActionNotHomomorphism(
            "generator images are inconsistent on relations") from None


def _check_automorphism(N: Group, img: tuple):
    """A bijection f of N with f(g*x) = f(g)*f(x) for every generator g
    and every x is an automorphism: by induction on word length, and
    f(1) = 1 by cancelling f(g).  So |N| checks per generator do."""
    if sorted(img) != list(range(N.order)):
        raise ActionNotHomomorphism("action image is not a bijection of N")
    for g in N.generators:
        left, right = N.table[g].tolist(), N.table[img[g]].tolist()
        if any(img[left[x]] != right[img[x]] for x in range(N.order)):
            raise ActionNotHomomorphism("action image is not a homomorphism")


def automorphism_from_generator_images(N: Group, images: dict) -> tuple:
    """Extend a map on N's generators to the full automorphism image
    tuple, by closure.  ``images`` maps generator id -> element id."""
    amap = _extend_on_generators(
        N, N, list(images.items()), ActionNotHomomorphism,
        "generator images do not define a homomorphism")
    if len(amap) != N.order:
        raise ActionNotHomomorphism("generator images do not cover N")
    return tuple(amap[x] for x in range(N.order))


# -- build entry point --------------------------------------------------

def build(spec: GroupSpec, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """Deterministically build the group described by ``spec``.  A spec
    may carry a ``min_cap`` parameter raising the element cap for groups
    known to exceed the default (used by a few catalog entries)."""
    if not isinstance(spec, GroupSpec):
        raise InvalidSpec(f"bad spec object: {spec!r}")
    k, p = spec.kind, spec.params
    cap = max(cap, p.get("min_cap", 0))
    try:
        if k == "named":
            return build(catalog(p["name"]), cap)
        if k == "cyclic":
            return cyclic(p["order"], cap)
        if k == "dihedral":
            return dihedral(p["order"], cap)
        if k == "semidihedral":
            return semidihedral(p["order"], cap)
        if k == "quaternion":
            return quaternion(p["order"], cap)
        if k == "elementary_abelian":
            return elementary_abelian(p["prime"], p["rank"], cap)
        if k == "extraspecial":
            return extraspecial(p["prime"], p["n"], p["variant"], cap)
        if k == "direct_product":
            return direct_product([build(f, cap) for f in p["factors"]], cap)
        if k == "central_product":
            A, B = build(p["a"], cap), build(p["b"], cap)
            if "pairs" in p:
                return central_product(A, B, [tuple(x) for x in p["pairs"]], cap)
            return central_product_by_order(A, B, p["order"], cap)
        if k == "semidirect_product":
            N, H = build(p["n"], cap), build(p["h"], cap)
            action = _resolve_action(N, H, p["action"])
            return semidirect_product(N, H, action, cap)
        if k == "perm":
            gens = [tuple(x - 1 for x in g) for g in p["generators"]]
            return gp.group_from_generators(p["degree"], gens, cap=cap,
                                            label=p.get("label", ""))
    except KeyError as e:
        raise InvalidSpec(f"missing parameter {e} for kind {k!r}") from e
    except (TypeError, ValueError) as e:
        raise InvalidSpec(f"bad parameters for kind {k!r}: {e}") from e
    raise InvalidSpec(f"unknown kind {k!r}")


def _resolve_action(N: Group, H: Group, action) -> dict:
    """Action given either as full image tuples per H generator (list
    index = position of the generator in H.generators) or as generator
    images of N ({"gen_images": [[n_gen_img, ...], ...]})."""
    out = {}
    if isinstance(action, dict) and "gen_images" in action:
        rows = action["gen_images"]
        if len(rows) != len(H.generators):
            raise InvalidSpec("need one image row per H generator")
        ngens = list(N.generators)
        for h, row in zip(H.generators, rows):
            if len(row) != len(ngens):
                raise InvalidSpec("need one image per N generator")
            out[h] = automorphism_from_generator_images(
                N, dict(zip(ngens, row)))
        return out
    if isinstance(action, (list, tuple)):
        if len(action) != len(H.generators):
            raise InvalidSpec("need one automorphism per H generator")
        for h, img in zip(H.generators, action):
            out[h] = tuple(img)
        return out
    raise InvalidSpec("unrecognized action format")


# -- named catalog ------------------------------------------------------

def _sl23_spec() -> GroupSpec:
    # SL(2,3) acting on the 8 nonzero vectors of F_3^2.
    vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    idx = {v: i for i, v in enumerate(vecs)}

    def mat_perm(m):
        # column-vector convention: v -> M v
        return [idx[((m[0][0] * a + m[0][1] * b) % 3,
                     (m[1][0] * a + m[1][1] * b) % 3)] + 1
                for (a, b) in vecs]
    gens = [mat_perm([[1, 1], [0, 1]]), mat_perm([[0, 2], [1, 0]])]
    return GroupSpec("perm", {"degree": 8, "generators": gens,
                              "label": "SL(2,3)"})


def _c3c3_sl23_spec() -> GroupSpec:
    # (C3 x C3) x| SL(2,3) with the natural linear action.
    n = GroupSpec("elementary_abelian", {"prime": 3, "rank": 2})
    h = _sl23_spec()
    N = build(n)
    H = build(h)
    # N generators act as e1, e2; find them
    ngens = list(N.generators)
    # identify which generator is which basis vector via cycle support
    vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]

    def nv(v):  # the vector v written in N
        return N.mul(N.powers(v[0])[ngens[0]], N.powers(v[1])[ngens[1]])

    rows = []
    for hgen in H.generators:
        perm = H.images[hgen].tolist()
        # recover the matrix from the action on basis vectors of F_3^2;
        # the image of N-generator i is the image of e_i
        e1img = vecs[perm[vecs.index((1, 0))]]
        e2img = vecs[perm[vecs.index((0, 1))]]
        rows.append([nv(e1img), nv(e2img)])
    return GroupSpec("semidirect_product",
                     {"n": n, "h": h, "action": {"gen_images": rows}})


def _semidirect_with_inversion(n_spec: GroupSpec) -> GroupSpec:
    N = build(n_spec)
    inv_images = [N.inv(g) for g in N.generators]
    return GroupSpec("semidirect_product",
                     {"n": n_spec,
                      "h": GroupSpec("cyclic", {"order": 2}),
                      "action": {"gen_images": [inv_images]}})


def _c7_c3_spec() -> GroupSpec:
    # C7 x| C3 via the order-3 automorphism x -> x^2
    n = GroupSpec("cyclic", {"order": 7})
    N = build(n)
    g = list(N.generators)[0]
    return GroupSpec("semidirect_product",
                     {"n": n, "h": GroupSpec("cyclic", {"order": 3}),
                      "action": {"gen_images": [[int(N.powers(2)[g])]]}})


def _c5_v4_spec() -> GroupSpec:
    # C5 x| V4 with one factor inverting (the other acting trivially)
    n = GroupSpec("cyclic", {"order": 5})
    N = build(n)
    g = list(N.generators)[0]
    return GroupSpec("semidirect_product",
                     {"n": n,
                      "h": GroupSpec("elementary_abelian", {"prime": 2, "rank": 2}),
                      "action": {"gen_images": [[N.inv(g)], [g]]}})


def _c3_d16xc2_spec() -> GroupSpec:
    # C3 x| (D16 x C2): the reflection of D16 inverts C3, everything else
    # acts trivially. Sylow 2-subgroup is D16 x C2, with T = D16 dihedral.
    n = GroupSpec("cyclic", {"order": 3})
    N = build(n)
    h = GroupSpec("direct_product",
                  {"factors": [GroupSpec("dihedral", {"order": 16}),
                               GroupSpec("cyclic", {"order": 2})]})
    H = build(h)
    g = list(N.generators)[0]
    rows = []
    for hgen in H.generators:
        rows.append([N.inv(g)] if H.orders[hgen] == 2 else [g])
    return GroupSpec("semidirect_product",
                     {"n": n, "h": h, "action": {"gen_images": rows}})


def _gl23_pair(big_order: int, twist) -> tuple:
    """First (in lexicographic matrix order) pair (x, z) in GL(2,3) with
    |x| = big_order, |z| = 2, z outside <x>, and x^z = x^twist."""
    def mul(A, B):
        return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(2)) % 3
                           for j in range(2)) for i in range(2))
    ident = ((1, 0), (0, 1))

    def order(A):
        o, M = 1, A
        while M != ident:
            M = mul(M, A)
            o += 1
        return o
    mats = [((a, b), (c, d))
            for a in range(3) for b in range(3)
            for c in range(3) for d in range(3)
            if (a * d - b * c) % 3 != 0]
    x = next(M for M in mats if order(M) == big_order)
    powers = set()
    M = x
    target = ident
    for k in range(big_order):
        powers.add(M)
        if k + 1 == twist % big_order:
            target = M
        M = mul(M, x)
    z = next(M for M in mats if order(M) == 2 and M not in powers
             and mul(mul(M, x), M) == target)
    return x, z


def _affine_f3_4_spec(linear_gens: list, label: str,
                      min_cap: int) -> GroupSpec:
    """Permutation spec for (C3)^4 x| <linear_gens> acting affinely on
    the 81 vectors of F_3^4 (4x4 matrices over F_3)."""
    vecs = [(a, b, c, d) for a in range(3) for b in range(3)
            for c in range(3) for d in range(3)]
    idx = {v: i for i, v in enumerate(vecs)}

    def lin_perm(K):
        return [idx[tuple(sum(K[i][j] * v[j] for j in range(4)) % 3
                          for i in range(4))] + 1 for v in vecs]
    translate = [idx[((v[0] + 1) % 3,) + v[1:]] + 1 for v in vecs]
    gens = [translate] + [lin_perm(K) for K in linear_gens]
    return GroupSpec("perm", {"degree": 81, "generators": gens,
                              "label": label, "min_cap": min_cap})


def _kron(A, B) -> list:
    """Kronecker product of 2x2 matrices over F_3 (4x4 result)."""
    K = [[0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    K[2 * i + k][2 * j + l] = (A[i][j] * B[k][l]) % 3
    return K


def _c34_sd16c4_spec() -> GroupSpec:
    # (C3)^4 x| (SD16 o C4), order 2592: SD16 < GL(2,3) acting on
    # F_9^2 = F_3^4, centrally extended by the scalar of order 4
    # (multiplication by a square root of -1 in F_9).  The action is
    # faithful, so the group has no nontrivial normal 2-subgroup.
    x, z = _gl23_pair(8, 3)
    # F_9 = F_3[w], w^2 = -1; scalar w on F_9^2 in F_3^4 coordinates
    # (a + bw per F_9 entry): w * (a + bw) = -b + aw
    w = [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]
    # embed GL(2,3) F_9-linearly: blocks scaled by matrix entries
    def f9lin(M):
        K = [[0] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                K[2 * i][2 * j] = M[i][j] % 3
                K[2 * i + 1][2 * j + 1] = M[i][j] % 3
        return K
    return _affine_f3_4_spec([f9lin(x), f9lin(z), w],
                             "C3^4:(SD16oC4)", 4096)


def _c34_sd16d8_spec() -> GroupSpec:
    # (C3)^4 x| (SD16 o D8), order 5184: the tensor product of the
    # natural 2-dimensional representations of SD16 and D8 over F_3
    # identifies the two central involutions, realizing the central
    # product faithfully on F_3^4.
    x, z = _gl23_pair(8, 3)
    r, s = _gl23_pair(4, -1)
    i2 = ((1, 0), (0, 1))
    return _affine_f3_4_spec(
        [_kron(x, i2), _kron(z, i2), _kron(i2, r), _kron(i2, s)],
        "C3^4:(SD16oD8)", 8192)


def _sd16_c4_spec() -> GroupSpec:
    # SD16 o C4 identifying x^4 with c^2: the semidihedral main-theorem
    # witness of order 32.
    return GroupSpec("central_product",
                     {"a": GroupSpec("semidihedral", {"order": 16}),
                      "b": GroupSpec("cyclic", {"order": 4}),
                      "order": 2})


_CATALOG = None


def _build_catalog() -> dict:
    c3c3 = GroupSpec("elementary_abelian", {"prime": 3, "rank": 2})
    cat = {
        "S3": GroupSpec("perm", {"degree": 3,
                                 "generators": [[2, 3, 1], [2, 1, 3]],
                                 "label": "S3"}),
        "S4": GroupSpec("perm", {"degree": 4,
                                 "generators": [[2, 3, 4, 1], [2, 1, 3, 4]],
                                 "label": "S4"}),
        "A4": GroupSpec("perm", {"degree": 4,
                                 "generators": [[2, 3, 1, 4], [2, 1, 4, 3]],
                                 "label": "A4"}),
        "C2": GroupSpec("cyclic", {"order": 2}),
        "C4": GroupSpec("cyclic", {"order": 4}),
        "V4": GroupSpec("elementary_abelian", {"prime": 2, "rank": 2}),
        "C3xC3": c3c3,
        "D8": GroupSpec("dihedral", {"order": 8}),
        "D16": GroupSpec("dihedral", {"order": 16}),
        "Q8": GroupSpec("quaternion", {"order": 8}),
        "SD16": GroupSpec("semidihedral", {"order": 16}),
        "SL(2,3)": _sl23_spec(),
        "SD16oC4": _sd16_c4_spec(),
        "D16xC2": GroupSpec("direct_product",
                            {"factors": [GroupSpec("dihedral", {"order": 16}),
                                         GroupSpec("cyclic", {"order": 2})]}),
        "D8oD8": GroupSpec("central_product",
                           {"a": GroupSpec("dihedral", {"order": 8}),
                            "b": GroupSpec("dihedral", {"order": 8}),
                            "order": 2}),
        "D8oQ8": GroupSpec("central_product",
                           {"a": GroupSpec("dihedral", {"order": 8}),
                            "b": GroupSpec("quaternion", {"order": 8}),
                            "order": 2}),
        "D8oC4": GroupSpec("central_product",
                           {"a": GroupSpec("dihedral", {"order": 8}),
                            "b": GroupSpec("cyclic", {"order": 4}),
                            "order": 2}),
        "ES27+": GroupSpec("extraspecial", {"prime": 3, "n": 1,
                                            "variant": "exp_p"}),
        "ES27-": GroupSpec("extraspecial", {"prime": 3, "n": 1,
                                            "variant": "exp_p2"}),
        "ES27+xC3": GroupSpec("direct_product",
                              {"factors": [GroupSpec("extraspecial",
                                                     {"prime": 3, "n": 1,
                                                      "variant": "exp_p"}),
                                           GroupSpec("cyclic", {"order": 3})]}),
        "C3C3:SL(2,3)": _c3c3_sl23_spec(),
        "C7:C3": _c7_c3_spec(),
        "C5:V4": _c5_v4_spec(),
        "C3C3:C2": _semidirect_with_inversion(c3c3),
        "C3:(D16xC2)": _c3_d16xc2_spec(),
        "C3^4:(SD16oC4)": _c34_sd16c4_spec(),
        "C3^4:(SD16oD8)": _c34_sd16d8_spec(),
    }
    # unicode aliases used in the literature-facing names
    aliases = {
        "SD16∘C4": "SD16oC4",
        "D16×C2": "D16xC2",
        "D8∘D8": "D8oD8",
        "D8∘Q8": "D8oQ8",
        "D8∘C4": "D8oC4",
        "(C3×C3)⋊SL(2,3)": "C3C3:SL(2,3)",
        "C7⋊C3": "C7:C3",
        "(C3×C3)⋊C2": "C3C3:C2",
    }
    for k, v in aliases.items():
        cat[k] = cat[v]
    return cat


def _catalog() -> dict:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build_catalog()
    return _CATALOG


def catalog(name: str) -> GroupSpec:
    """Look up a named GroupSpec from the pinned catalog."""
    try:
        return _catalog()[name]
    except KeyError:
        raise UnknownName(f"unknown catalog name {name!r}") from None


_GROUP_CACHE: dict = {}


def catalog_group(name: str) -> Group:
    """Build (and memoize) a catalog group by name."""
    spec = catalog(name)
    key = str(spec.to_json())
    if key not in _GROUP_CACHE:
        _GROUP_CACHE[key] = build(spec)
    return _GROUP_CACHE[key]


def catalog_names() -> list:
    return sorted(k for k in _catalog() if k.isascii())
