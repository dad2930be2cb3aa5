"""Reference constructions that only the tests use: poset intervals, the
Hasse diagram, facets and the reduced Euler characteristic, each by the
direct definition; normalizers, the list of Sylow subgroups and the
rank read off every torus; and the
group builders that the permutation-generator path replaced: groups from
a full multiplication table (the quaternion, Heisenberg and semidirect
product multiplications among them), quotient groups with their
projection, and the wedge formula's right-hand side over a quotient
group."""

from typing import Optional, Sequence

from quillen import group as gp
from quillen import poset as ps
from quillen.errors import (
    ActionNotHomomorphism,
    GroupTooLarge,
    HypothesisViolated,
    InvalidPermutation,
    PreconditionFailed,
)
from quillen.group import DEFAULT_ELEMENT_CAP, Group, Subgroup
from quillen.homology import reduced_homology
from quillen.poset import SimplicialComplex, SubgroupPoset
from quillen.theorems import TheoremVerdict


def covers(P: SubgroupPoset) -> list:
    """Hasse diagram: (i, j) with node i covered by node j."""
    out = []
    for i in range(len(P.nodes)):
        for j in sorted(P.above[i]):
            if not (P.above[i] & P.below[j]):
                out.append((i, j))
    return out


def lower_interval(P: SubgroupPoset, x) -> SubgroupPoset:
    i = P.index_of(x)
    return P.induced(sorted(P.below[i]))


def open_interval(P: SubgroupPoset, r, s) -> SubgroupPoset:
    i, j = P.index_of(r), P.index_of(s)
    return P.induced(sorted(P.above[i] & P.below[j]))


def facets(C: SimplicialComplex) -> list:
    out = [s for s in C.simplices
           if s and not any(s < t for t in C.simplices)]
    return sorted(out, key=lambda s: tuple(sorted(s)))


def euler_characteristic_reduced(C: SimplicialComplex) -> int:
    return sum((-1) ** (len(s) - 1) for s in C.simplices)


# -- group primitives ---------------------------------------------------

def normalizer(S, X) -> Subgroup:
    S, X = gp._as_subgroup(S), gp._as_subgroup(X)
    G = S.parent
    gens = X.generator_witness or X.members
    members = [s for s in S.members
               if all(G.conj(x, s) in X.member_set for x in gens)]
    return Subgroup(G, members)


def rank_by_all_tori(P, p: int) -> int:
    """The rank of the p-group P, read off every torus of P."""
    tori = gp.elementary_abelian_subgroups(P, p)
    return max((gp._p_rank(len(T), p) for T in tori), default=0)


def all_sylow_subgroups(G: Group, p: int) -> list:
    """The conjugates of the Sylow p-subgroup by every element of G."""
    if G.order % p != 0:
        return []
    P = gp.sylow_subgroup(G, p)
    seen = {}
    for g in range(G.order):
        Q = gp.conjugate_subgroup(P, g)
        seen.setdefault(Q.members, Q)
    return [seen[m] for m in sorted(seen)]


# -- groups from multiplication tables ----------------------------------

def group_from_table(table: Sequence[Sequence[int]], *,
                     gen_indices: Optional[Sequence[int]] = None,
                     cap: int = DEFAULT_ELEMENT_CAP,
                     provenance: str = "regular representation",
                     label: str = "") -> Group:
    """A Group from an abstract multiplication table via the left regular
    action (the rows of the table are the permutations)."""
    n = len(table)
    cap = min(cap, gp.TABLE_ORDER_CAP)
    if n > cap:
        raise GroupTooLarge(f"group order {n} exceeds cap {cap}")
    perms = {tuple(row) for row in table}
    if len(perms) != n:
        raise InvalidPermutation("multiplication table rows not distinct")
    elements = sorted(perms)
    index = {p: i for i, p in enumerate(elements)}
    if gen_indices is None:
        gen_ids = tuple(i for i in range(len(elements)) if i != 0)
    else:
        gen_ids = tuple(sorted({index[tuple(table[i])] for i in gen_indices}))
    G = Group(n, elements, gen_ids, provenance=provenance, label=label)
    if gen_indices is None:  # shrink the witness generators
        G.generators = gp._small_witness(G, frozenset(range(n)))
    return G


def from_mul_by_table(elems, mul, gen_elems, cap, label=""):
    """An abstract group from all |G|^2 products of its ``elems`` under
    ``mul``, generated by ``gen_elems``."""
    cap = min(cap, gp.TABLE_ORDER_CAP)
    if len(elems) > cap:
        raise GroupTooLarge(f"group order {len(elems)} exceeds cap {cap}")
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[mul(a, b)] for b in elems] for a in elems]
    return group_from_table(table, gen_indices=[index[g] for g in gen_elems],
                            cap=cap, label=label)


def quaternion_by_mul(order: int, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """Q_order from x^m = 1, z^2 = x^(m/2), x^z = x^-1 on the pairs
    (i, e) standing for x^i z^e."""
    m = order // 2

    def mul(a, b):
        i, e = a
        j, f = b
        if e == 0:
            return ((i + j) % m, f)
        k = (i - j) % m
        if f == 0:
            return (k, 1)
        return ((k + m // 2) % m, 0)
    elems = [(i, e) for e in (0, 1) for i in range(m)]
    return from_mul_by_table(elems, mul, [(1, 0), (0, 1)], cap,
                             label=f"Q{order}")


def heisenberg_by_mul(p: int, cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """p^(1+2) of exponent p (p odd) on the triples (a, b, c) over F_p."""
    def mul(x, y):
        a, b, c = x
        d, e, f = y
        return ((a + d) % p, (b + e) % p, (c + f + a * e) % p)
    elems = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    return from_mul_by_table(elems, mul, [(1, 0, 0), (0, 1, 0)], cap,
                             label=f"Heis({p})")


def semidirect_by_mul(N: Group, H: Group, action: dict,
                      cap: int = DEFAULT_ELEMENT_CAP) -> Group:
    """N x| H on the pairs (n, h), with the automorphism of every h of H
    composed breadth first over H's Cayley graph from those of its
    generators; two compositions that differ are refused."""
    auts = {H.identity: tuple(range(N.order))}
    frontier = [H.identity]
    while frontier:
        new = []
        for h in frontier:
            for g in H.generators:
                hg = H.mul(h, g)
                composed = tuple(auts[h][x] for x in action[g])
                if hg not in auts:
                    auts[hg] = composed
                    new.append(hg)
                elif auts[hg] != composed:
                    raise ActionNotHomomorphism(
                        "generator images are inconsistent on relations")
        frontier = new

    def mul(x, y):
        n1, h1 = x
        n2, h2 = y
        return (N.mul(n1, auts[h1][n2]), H.mul(h1, h2))
    elems = [(n, h) for n in range(N.order) for h in range(H.order)]
    gen_elems = [(n, H.identity) for n in N.generators] + \
                [(N.identity, h) for h in H.generators]
    return from_mul_by_table(elems, mul, gen_elems, cap,
                             label=f"{N.label or '?'}:{H.label or '?'}")


class Quotient:
    """Quotient group S/N together with the projection on element ids."""

    def __init__(self, parent: Group, group: Group, hom: dict):
        self.parent = parent
        self.group = group
        self.hom = hom  # hom[s] = id in the quotient group, for s in S

    def preimage(self, K: Subgroup) -> Subgroup:
        """Preimage in S of a subgroup of the quotient."""
        ks = K.member_set
        return Subgroup(self.parent, [s for s, q in self.hom.items()
                                      if q in ks])

    def image(self, S: Subgroup) -> Subgroup:
        return Subgroup(self.group, {self.hom[g] for g in S.members})


def quotient_by_table(S, N: Subgroup) -> Quotient:
    """S/N for the Group or Subgroup S from its k x k coset multiplication
    table, a coset named by its least member, with the projection of
    every element of S."""
    S = gp._as_subgroup(S)
    G = S.parent
    if not (N <= S and gp.is_normal(N, S)):
        raise HypothesisViolated("normality", "quotient by non-normal subgroup")
    cmin = dict(zip(S.members, G.table[list(N.members)][:, list(S.members)]
                    .min(axis=0).tolist()))
    reps = sorted(set(cmin.values()))
    rep_index = {r: i for i, r in enumerate(reps)}
    qtable = [[rep_index[cmin[G.mul(a, b)]] for b in reps] for a in reps]
    Q = group_from_table(qtable, cap=max(DEFAULT_ELEMENT_CAP, len(reps)),
                         provenance="coset action (regular)")
    hom = {s: Q.index[tuple(qtable[rep_index[cmin[s]]])] for s in S.members}
    return Quotient(G, Q, hom)


def verify_pulkus_welker_by_quotient(G: Group, p: int) -> TheoremVerdict:
    """The wedge formula with its right-hand side built over the quotient
    group G/N, N = O_p'(G): the base is the torus complex of G/N, and the
    piece over a torus of G/N is joined from its preimage NA."""
    N = gp.o_p_prime(G, p)
    if N.order == 1:
        raise PreconditionFailed("O_{p'}(G) = 1")
    lhs = reduced_homology(ps.order_complex(ps.quillen_poset(G, p)))
    Q = quotient_by_table(G, N)
    PQ = ps.quillen_poset(Q.group, p)
    pieces = []
    for i, Abar in enumerate(PQ.nodes):
        NA = Q.preimage(Abar)
        c_na = ps.order_complex(ps.quillen_poset(NA, p))
        c_iv = ps.order_complex(ps.upper_interval(PQ, Abar))
        pieces.append((ps.join(c_na, c_iv), i))
    base = ps.order_complex(PQ)
    rhs = reduced_homology(ps.wedge(ps.WedgeAssembly(base, tuple(pieces))))
    computed = {"lhs": lhs.to_json(), "rhs": rhs.to_json(),
                "N_order": N.order, "summands": len(pieces)}
    return TheoremVerdict("wedge-formula", "profiles equal exactly",
                          computed, lhs == rhs, profile=lhs)
