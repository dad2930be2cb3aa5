"""Subgroup posets (Quillen, Brown, abelian-subgroup, upper intervals)
and the conjugacy classes of their nodes, and simplicial complexes:
their order complexes, and complexes read from a facet list.

A poset builder hands the Subgroups its search finds to SubgroupPoset,
whose sort is the one sort of the nodes.

A SimplicialComplex always contains the empty simplex; the vertex-free
complex {()} has dimension -1 and reduced homology Z in degree -1, which
makes the degree arithmetic of the join formula uniform.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from .errors import ComplexTooLarge, InvalidSpec, NodeNotInPoset
from . import group as gp
from .group import Group, Subgroup


class SubgroupPoset:
    """An inclusion-ordered family of subgroups of a ground group, each
    kept once, in canonical node order (by subgroup order, then member
    tuple), whatever the order given.

    The relation is held as Python-int bitsets, bit j standing for node j:
    ``containing[x]`` has the nodes that hold element id x, ``above[i]``
    the nodes strictly containing node i, and ``below[i]`` the nodes it
    strictly contains.  A node contains H exactly when it holds H's
    generators, so ``above[i]`` is the meet of ``containing[w]`` over
    node i's generator witness w, less node i and the nodes before it
    (none of larger order).  Every node's ``generator_witness`` must
    generate it."""

    def __init__(self, ground_group: Group, nodes: Iterable[Subgroup]):
        seen = {}
        for S in nodes:
            seen.setdefault(S.members, S)
        self.ground_group = ground_group
        self.nodes = [seen[m] for m in
                      sorted(seen, key=lambda m: (len(m), m))]
        self._index = {S.members: i for i, S in enumerate(self.nodes)}
        n = len(self.nodes)
        containing = [0] * ground_group.order
        for j, S in enumerate(self.nodes):
            bit = 1 << j
            for x in S.members:
                containing[x] |= bit
        everything = (1 << n) - 1
        above = [_meet(containing, S.generator_witness, everything)
                 >> (i + 1) << (i + 1) for i, S in enumerate(self.nodes)]
        below = [0] * n
        for i, up in enumerate(above):
            bit = 1 << i
            while up:  # bits(up), inline: this loop runs once per node
                low = up & -up
                below[low.bit_length() - 1] |= bit
                up ^= low
        self.containing, self.above, self.below = containing, above, below

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
        longest chain, minus one (-1 when empty).  The nodes that start a
        chain of k + 1 nodes are those whose up-set meets the nodes that
        start a chain of k."""
        above, h = self.above, -1
        starts, level = range(len(self)), (1 << len(self)) - 1
        while starts:
            starts = [i for i in starts if above[i] & level]
            level = sum(1 << i for i in starts)
            h += 1
        return h

    def core(self) -> list:
        """The node indices of a beat-point core, ascending.  A beat point
        is a node whose strict up-set among the nodes left has a least
        element, or whose strict down-set has a greatest one; they are
        removed until none is left.  A least element has the least order
        of the up-set, so it is the up-set's lowest bit, and it is least
        when the rest of the up-set lies above it; a greatest element is
        the highest bit, and greatest when the rest lies below it."""
        above, below = self.above, self.below
        live = (1 << len(self)) - 1
        removed = True
        while removed:
            removed = False
            for x in bits(live):
                up, down = above[x] & live, below[x] & live
                lo, hi = (up & -up).bit_length() - 1, down.bit_length() - 1
                if ((up and not (up ^ 1 << lo) & ~above[lo])
                        or (down and not (down ^ 1 << hi) & ~below[hi])):
                    live ^= 1 << x
                    removed = True
        return list(bits(live))


def bits(m: int):
    """The set bits of the bitset m, ascending."""
    base = 0
    while m:
        low = (m & -m).bit_length()
        yield base + low - 1
        m >>= low
        base += low


def _meet(containing: list, elements: Iterable[int], nodes: int) -> int:
    """The bitset of the ``nodes`` that hold every one of the element
    ids."""
    for x in elements:
        nodes &= containing[x]
    return nodes


# -- poset builders -----------------------------------------------------

def quillen_poset(S, p: int) -> SubgroupPoset:
    """A_p(S): all nontrivial elementary abelian p-subgroups of the Group
    or Subgroup S."""
    return SubgroupPoset(gp._as_subgroup(S).parent,
                         gp.elementary_abelian_subgroups(S, p))


def brown_poset(S, p: int) -> SubgroupPoset:
    """S_p(S): all nontrivial p-subgroups of the Group or Subgroup S, S
    itself included when it is a p-group.  This is the poset whose order
    complex is homotopy equivalent to that of A_p(S) (Quillen 1978)."""
    return SubgroupPoset(gp._as_subgroup(S).parent, gp.all_p_subgroups(S, p))


def ab_poset(D) -> SubgroupPoset:
    """Ab(D): all abelian subgroups of D (including the trivial one)."""
    return SubgroupPoset(gp._as_subgroup(D).parent, gp.abelian_subgroups(D))


def upper_interval(P: SubgroupPoset, x: Subgroup) -> SubgroupPoset:
    return P.induced(bits(P.above[P.index_of(x)]))


def conjugacy_classes(P: SubgroupPoset) -> list:
    """The nodes of P in classes under conjugation by its ground group:
    lists of node indices, each sorted, ordered by least index.  P must
    be closed under conjugation.  A class is the orbit of its least node
    under conjugation by the group's generators, which generate every
    conjugation.  The conjugate of a node by g is the least node holding
    its generators conjugated by g: every other node holding them has
    larger order."""
    G = P.ground_group
    t = G.table
    # x -> g^-1 x g for each generator g
    conj = [t[t[G.inverse[g]], g].tolist() for g in G.generators]
    everything = (1 << len(P)) - 1
    seen = [False] * len(P)
    classes = []
    for i in range(len(P)):
        if seen[i]:
            continue
        seen[i] = True
        orbit = [i]
        for j in orbit:
            S = P.nodes[j]
            for c in conj:
                m = _meet(P.containing, map(c.__getitem__,
                                            S.generator_witness), everything)
                k = (m & -m).bit_length() - 1
                if k < 0 or P.nodes[k].order != S.order:
                    raise NodeNotInPoset(
                        f"a conjugate of a subgroup of order {S.order} "
                        "is not in the poset")
                if not seen[k]:
                    seen[k] = True
                    orbit.append(k)
        classes.append(sorted(orbit))
    return classes


def find_conjunctive_element(P: SubgroupPoset) -> Optional[Subgroup]:
    """A node having a least upper bound with every node, or None.
    Existence certifies contractibility of the order complex.  The upper
    bounds of a and x have a least one exactly when they all lie at or
    above the lowest of them."""
    geq = [up | 1 << i for i, up in enumerate(P.above)]
    for a, ga in enumerate(geq):
        for gx in geq:
            ub = ga & gx
            if not ub or ub & ~geq[(ub & -ub).bit_length() - 1]:
                break
        else:
            return P.nodes[a]
    return None


# -- simplicial complexes -----------------------------------------------

# Closing simplices under faces is refused when a bound on the faces it
# makes passes this.  Only a face of an open simplex, one with a
# codimension-1 face that is not given, can be new, so the bound counts
# each given simplex once and each open one 2^(vertex count) times: one
# n-vertex simplex alone closes to 2^n faces, and a closed file weighs
# its face count.  B(GL4(F3)) * RP2 (20800 facets of 6 vertices) weighs
# 1331201.
FACE_BOUND = 1 << 21


class SimplicialComplex:
    """Abstract simplicial complex on integer vertex ids, closed under
    faces and always containing the empty simplex.  ``simplices`` holds
    each simplex once, as its sorted vertex tuple, in cell order: by
    size, then lexicographic, the empty simplex first.  Repeated
    vertices in an input simplex collapse."""

    def __init__(self, simplices: Iterable, close: bool = False):
        simps = {tuple(sorted(set(s))) for s in simplices}
        simps.add(())
        if close:
            simps = _closure(simps)
        self.simplices = tuple(sorted(simps, key=lambda s: (len(s), s)))
        self.dim = len(self.simplices[-1]) - 1

    def export_text(self) -> str:
        """One simplex per line, sorted vertex ids space-separated."""
        lines = [" ".join(map(str, s)) for s in self.simplices[1:]]
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def import_text(text: str) -> "SimplicialComplex":
        """Parse the export format; a bare facet list is also accepted
        (faces are closed over on import)."""
        simps = []
        for n, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                simps.append([int(t) for t in line.split()])
            except ValueError:
                raise InvalidSpec(f"complex line {n} is not a list of "
                                  f"integer vertex ids: {line!r}") from None
        return SimplicialComplex(simps, close=True)


def _closure(simplices: set) -> set:
    """Every face of the given sorted vertex tuples, the empty one among
    them, from the top down: the open simplices are closed over, each
    step adding the codimension-1 faces of those the step before added.
    A closed set costs one pass.  Raises ComplexTooLarge, before any face
    is made, when the bound on the faces passes FACE_BOUND."""
    open_ = [t for t in simplices if t and not simplices.issuperset(
        itertools.combinations(t, len(t) - 1))]
    bound = len(simplices) - len(open_) + sum(1 << len(t) for t in open_)
    if bound > FACE_BOUND:
        raise ComplexTooLarge(
            f"closing these simplices may make up to {bound} faces;"
            f" the bound is {FACE_BOUND}")
    layer, closed = set(open_), set(simplices)
    while layer:
        layer = set(itertools.chain.from_iterable(
            itertools.combinations(t, len(t) - 1) for t in layer if t))
        layer -= closed
        closed |= layer
    return closed


def order_complex(P: SubgroupPoset) -> SimplicialComplex:
    """Simplices are the chains of the poset; vertex i is node i."""
    ups = [list(bits(m)) for m in P.above]
    chains = []

    def extend(chain, top):
        chains.append(tuple(chain))
        for j in ups[top]:
            chain.append(j)
            extend(chain, j)
            chain.pop()

    for i in range(len(ups)):
        extend([i], i)
    return SimplicialComplex(chains)
