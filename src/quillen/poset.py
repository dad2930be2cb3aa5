"""Subgroup posets (Quillen, Brown, abelian-subgroup, upper intervals)
and the conjugacy classes of their nodes, their order complexes, and
the links of their simplices.

A SimplicialComplex always contains the empty simplex; the vertex-free
complex {()} has dimension -1 and reduced homology Z in degree -1, which
makes the degree arithmetic of links and of the join formula uniform.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterable, Optional

from .errors import NodeNotInPoset, SimplexNotInComplex
from . import group as gp
from .group import Group, Subgroup


class SubgroupPoset:
    """An inclusion-ordered family of subgroups of a ground group, with
    canonical node order (by subgroup order, then member tuple)."""

    def __init__(self, ground_group: Group, nodes: Iterable[Subgroup]):
        seen = {}
        for S in nodes:
            seen.setdefault(S.members, S)
        self.ground_group = ground_group
        self.nodes = [seen[m] for m in
                      sorted(seen, key=lambda m: (len(m), m))]
        self._index = {S.members: i for i, S in enumerate(self.nodes)}
        n = len(self.nodes)
        # above[i] = indices of nodes strictly containing node i; only a
        # node of larger order can, and those come after the last node
        # of node i's order
        sets = [S.member_set for S in self.nodes]
        orders = [len(s) for s in sets]
        self.above = [frozenset(j for j in range(bisect.bisect_right(
                          orders, orders[i]), n) if sets[i] <= sets[j])
                      for i in range(n)]
        below = [[] for _ in range(n)]
        for i, up in enumerate(self.above):
            for j in up:
                below[j].append(i)
        self.below = [frozenset(b) for b in below]

    def __len__(self):
        return len(self.nodes)

    def index_of(self, S: Subgroup) -> int:
        try:
            return self._index[S.members]
        except KeyError:
            raise NodeNotInPoset(f"subgroup of order {S.order} not in poset") \
                from None

    def induced(self, indices: Iterable[int]) -> "SubgroupPoset":
        return SubgroupPoset(self.ground_group,
                             [self.nodes[i] for i in indices])

    def height(self) -> int:
        """The dimension of the order complex: the number of nodes in a
        longest chain, minus one (-1 when empty).  A node is below only
        later nodes, so one reverse pass finds each longest chain up."""
        up = [0] * len(self)
        for i in reversed(range(len(self))):
            up[i] = 1 + max((up[j] for j in self.above[i]), default=0)
        return max(up, default=0) - 1

    def core(self) -> list:
        """The node indices of a beat-point core, ascending.  A beat point
        is a node whose strict up-set among the nodes left has a least
        element, or whose strict down-set has a greatest one; they are
        removed until none is left.  A least element has the least order
        of the up-set, so it is the up-set's first node, and a greatest
        element its last."""
        above, below = self.above, self.below
        live = set(range(len(self)))
        removed = True
        while removed:
            removed = False
            for x in sorted(live):
                up, down = above[x] & live, below[x] & live
                if ((up and up - {min(up)} <= above[min(up)])
                        or (down and down - {max(down)} <= below[max(down)])):
                    live.remove(x)
                    removed = True
        return sorted(live)


# -- poset builders -----------------------------------------------------

def _poset(S, found: dict) -> SubgroupPoset:
    """The nodes of ``found``, each with the generators it was grown by."""
    G = gp._as_subgroup(S).parent
    return SubgroupPoset(G, [Subgroup(G, s, gens) for s, gens in found.items()])


def quillen_poset(S, p: int) -> SubgroupPoset:
    """A_p(S): all nontrivial elementary abelian p-subgroups of the Group
    or Subgroup S."""
    return _poset(S, gp.elementary_abelian_subgroups(S, p))


def brown_poset(S, p: int) -> SubgroupPoset:
    """S_p(S): all nontrivial p-subgroups of the Group or Subgroup S, S
    itself included when it is a p-group.  This is the poset whose order
    complex is homotopy equivalent to that of A_p(S) (Quillen 1978)."""
    return _poset(S, gp.all_p_subgroups(S, p))


def ab_poset(D) -> SubgroupPoset:
    """Ab(D): all abelian subgroups of D (including the trivial one)."""
    return _poset(D, gp.abelian_subgroups(D))


def upper_interval(P: SubgroupPoset, x: Subgroup) -> SubgroupPoset:
    i = P.index_of(x)
    return P.induced(sorted(P.above[i]))


def conjugacy_classes(P: SubgroupPoset) -> list:
    """The nodes of P in classes under conjugation by its ground group:
    lists of node indices, each sorted, ordered by least index.  P must
    be closed under conjugation.  A class is the orbit of its least node
    under conjugation by the group's generators, which generate every
    conjugation; each node is conjugated once per generator."""
    G = P.ground_group
    seen = [False] * len(P)
    classes = []
    for i in range(len(P)):
        if seen[i]:
            continue
        seen[i] = True
        orbit = [i]
        for j in orbit:
            for g in G.generators:
                k = P.index_of(gp.conjugate_subgroup(P.nodes[j], g))
                if not seen[k]:
                    seen[k] = True
                    orbit.append(k)
        classes.append(sorted(orbit))
    return classes


def find_conjunctive_element(P: SubgroupPoset) -> Optional[Subgroup]:
    """A node having a least upper bound with every node, or None.
    Existence certifies contractibility of the order complex."""
    n = len(P.nodes)
    geq = [P.above[i] | {i} for i in range(n)]
    for a in range(n):
        ok = True
        for x in range(n):
            ub = geq[a] & geq[x]
            if not ub:
                ok = False
                break
            if not any(all(u == v or u in P.below[v] for v in ub) for u in ub):
                ok = False
                break
        if ok:
            return P.nodes[a]
    return None


# -- simplicial complexes -----------------------------------------------

class SimplicialComplex:
    """Abstract simplicial complex on integer vertex ids, closed under
    faces and always containing the empty simplex."""

    def __init__(self, simplices: Iterable[frozenset], close: bool = False):
        simps = set(map(frozenset, _closure(simplices) if close
                        else simplices))
        simps.add(frozenset())
        self.simplices = frozenset(simps)
        self.vertices = sorted(set().union(*simps)) if simps else []
        self.dim = max((len(s) for s in simps), default=0) - 1
        self._by_dim = None  # dim -> sorted tuple, built on first query

    def n_simplices(self, k: int) -> int:
        return len(self.simplices_of_dim(k))

    def simplices_of_dim(self, k: int) -> tuple:
        if self._by_dim is None:
            buckets = {}
            for s in self.simplices:
                buckets.setdefault(len(s) - 1, []).append(s)
            self._by_dim = {
                d: tuple(sorted(b, key=lambda s: tuple(sorted(s))))
                for d, b in buckets.items()}
        return self._by_dim.get(k, ())

    def __contains__(self, sigma) -> bool:
        return frozenset(sigma) in self.simplices

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.simplices == other.simplices)

    def __hash__(self):
        return hash(self.simplices)

    def export_text(self) -> str:
        """One simplex per line, sorted vertex ids space-separated."""
        lines = [" ".join(map(str, sorted(s)))
                 for s in sorted(self.simplices,
                                 key=lambda s: (len(s), tuple(sorted(s))))
                 if s]
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def import_text(text: str) -> "SimplicialComplex":
        """Parse the export format; a bare facet list is also accepted
        (faces are closed over on import)."""
        simps = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            simps.append(frozenset(int(t) for t in line.split()))
        return SimplicialComplex(simps, close=True)


def _closure(simplices: Iterable) -> set:
    """Every face of the given simplices, as sorted vertex tuples, from
    the top down: each step adds the codimension-1 faces of the simplices
    that the step before added."""
    layer = {tuple(sorted(s)) for s in simplices}
    closed = set(layer)
    while layer:
        layer = set(itertools.chain.from_iterable(
            itertools.combinations(t, len(t) - 1) for t in layer if t))
        layer -= closed
        closed |= layer
    return closed


def order_complex(P: SubgroupPoset) -> SimplicialComplex:
    """Simplices are the chains of the poset; vertex i is node i."""
    n = len(P.nodes)
    chains = []

    def extend(chain, top):
        chains.append(frozenset(chain))
        for j in sorted(P.above[top]):
            chain.append(j)
            extend(chain, j)
            chain.pop()

    for i in range(n):
        extend([i], i)
    return SimplicialComplex(chains)


def link(C: SimplicialComplex, sigma) -> SimplicialComplex:
    sigma = frozenset(sigma)
    if sigma not in C.simplices:
        raise SimplexNotInComplex(f"{sorted(sigma)} not a simplex")
    out = [tau for tau in C.simplices
           if not (tau & sigma) and (tau | sigma) in C.simplices]
    return SimplicialComplex(out)
