"""Exact integral reduced homology via Smith normal form, the
sphericity and Cohen-Macaulay checkers built on it, and `TorusComplex`,
the one object per ground group G and prime p.

All arithmetic is exact (Python integers).  Homology is computed from
the augmented chain complex, so degree -1 is handled uniformly: the
vertex-free complex has reduced homology Z concentrated in degree -1.

Before any Smith normal form, `reduced_homology` removes coreduction
pairs from that complex (Mrozek and Batko, "Coreduction homology
algorithm", Discrete Comput. Geom. 41, 2009; Kaczynski, Mrozek and
Slusarek, "Homology computation by reduction of chain complexes",
Comput. Math. Appl. 35, 1998).  A pair is (a, b) with a the only face
of b left, so that the boundary of b is +-a, a unit, and that of a is
+-(the boundary of the boundary of b) = 0.  The span of a and b is then
an acyclic subcomplex, and the quotient by it has the same homology.
The quotient's boundary is the old one with the rows and columns of a
and b dropped, every other entry unchanged.  So after any number of
pairs the complex left is the original one restricted to the surviving
cells, and no arithmetic is done before the Smith normal form of those
restrictions.  The first pair is (empty simplex, first vertex).  On the
Tits buildings of GL3(F_q) (q = 2, 3, 5) and GL4(F_q) (q = 2, 3) the
pairs leave as many cells as the Betti number and no boundary entry; on
their joins with RP2, the few entries that the torsion needs.

"Spherical" here is the homology-level proxy: acyclic, or free homology
concentrated in a single degree.  Acyclicity cannot be distinguished
from contractibility at this level; reports carry that caveat.

A complex of dimension d is Cohen-Macaulay when it is d-spherical and
the link of every k-simplex is (d-k-1)-spherical.  Building every link
is the direct check, which the tests keep as the oracle.  On the torus
complex Delta(A) of A = A_p(G) there is a shortcut (Quillen 1978,
section 8; Bjorner, "Topological methods", Handbook of Combinatorics,
1995, section 11).  The link of a chain
x0 < ... < xk is the join Delta(A<x0) * Delta(x0,x1) * ... * Delta(A>xk).
Every factor but the last is the poset of proper nontrivial subspaces
of some F_p^m, whose homology is free of rank p^(m choose 2) in the
single degree m-2 (Solomon-Tits).  By the join formula a join with such
a factor shifts homology up by m-1 and multiplies it, so the link is
spherical in its degree exactly when Delta(A>xk) is.  Hence Delta(A) is
Cohen-Macaulay iff it is d-spherical and, for every torus x of rank r
(|x| = p^r), Delta(A>x) is (d-r)-spherical; and that interval depends
only on the G-class of x.  `TorusComplex.cohen_macaulay` checks one
interval per class.  That needs A to be the full A_p(G) of its ground
group: every elementary abelian p-subgroup, so that each factor above
is a whole subspace poset and A is closed under conjugation.
`TorusComplex` builds A so, and it is the one place where the package
builds the torus complex of a ground group.

`TorusComplex(G, p)` also holds the p-local data of G at p that every
check and report reads (Sylow subgroup, O_p, O_p', the upper p-series),
each computed at most once per object.

Every profile of a poset (the torus complex, Brown's S_p(G), each
interval Delta(A>x) and each wedge piece) is read by `poset_homology`
from the poset's beat-point core.  A beat point is a node whose strict
up-set has a least element, or whose strict down-set has a greatest one.
Removing one is a strong deformation retraction of the order complex,
and the core left when none remains does not depend on the order of
removal, up to isomorphism (Stong, "Finite topological spaces", Trans.
AMS 123, 1966; Barmak, Algebraic Topology of Finite Topological Spaces
and Applications, LNM 2032, 2011, ch. 1).  A core of one point is
contractible and builds no complex; otherwise the core's order complex
is reduced.  The dimension of a profile is the height of the whole
poset, so that profiles read as those of the whole complex.  The full
Delta(A) is built only for export; the link witnessing a failed
Cohen-Macaulay check is read off the join formula.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb, gcd
from typing import Optional, Sequence

from . import group as gp
from .errors import DecompositionNotFound, NotSolvable
from .group import Group, Subgroup, _p_rank
from .poset import (
    SimplicialComplex,
    SubgroupPoset,
    bits,
    conjugacy_classes,
    order_complex,
    quillen_poset,
)

HOMOLOGY_PROXY_CAVEAT = (
    "Sphericity and Cohen-Macaulayness are verified at homology level only: "
    "'contractible' is proxied by 'acyclic' and 'wedge of r-spheres' by free "
    "homology concentrated in degree r. Acyclic-but-not-contractible cannot "
    "be detected by this tool."
)


# -- Smith normal form --------------------------------------------------

def smith_normal_form(matrix) -> tuple:
    """Invariant factors (d1 | d2 | ... | dr, all > 0) and rank of an
    integer matrix given as a dict {(i, j): value}; no dense row lists.

    +-1 pivots are eliminated first (`_unit_pivots`); only the residual
    they leave goes through Euclidean steps (`_eliminate`), and the
    diagonal is put in chain form by gcd and lcm (`_invariant_factors`).
    """
    rows = _to_sparse(matrix)
    units = _unit_pivots(rows)
    diag = [1] * units + _eliminate(rows)
    return _invariant_factors(diag), len(diag)


def _to_sparse(matrix: dict) -> dict:
    rows = {}
    for (i, j), v in matrix.items():
        if v:
            rows.setdefault(i, {})[j] = int(v)
    return rows


def _unit_pivots(rows: dict) -> int:
    """Eliminate +-1 pivots from a sparse row dict in place; return how
    many were taken, each an invariant factor 1.

    A unit pivot clears its column by unimodular row operations with
    exact integer coefficients (1/v = v for v = +-1); its row and column
    are then dropped, so `rows` is left holding the Schur complement.
    Columns are swept shortest first, and in each the +-1 entry of the
    shortest row is taken; sweeps repeat until one finds no +-1 entry
    (Dumas-Saunders-Villard, JSC 2001).
    """
    cols = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    units = 0
    swept = True
    while swept:
        swept = False
        for j in sorted(cols, key=lambda j: len(cols[j])):
            col = cols.get(j)
            if not col:
                continue
            pivot = min((i for i in col if rows[i][j] in (1, -1)),
                        key=lambda i: (len(rows[i]), i), default=None)
            if pivot is None:
                continue
            prow = rows.pop(pivot)
            pv = prow[j]
            for jj in prow:
                cols[jj].discard(pivot)
            for i in col:
                r = rows[i]
                c = r[j] * pv  # r[j] / pv, exactly
                for jj, v in prow.items():
                    nv = r.get(jj, 0) - c * v
                    if nv:
                        if jj not in r:
                            cols[jj].add(i)
                        r[jj] = nv
                    elif jj in r:
                        del r[jj]
                        if jj != j:  # col is being iterated; dropped below
                            cols[jj].discard(i)
                if not r:
                    del rows[i]
            del cols[j]
            units += 1
            swept = True
    return units


def _eliminate(rows: dict) -> list:
    """Diagonalize a sparse row dict in place by Euclidean steps; return
    the nonzero diagonal entries, not yet a divisibility chain.

    The pivot is an entry of least absolute value.  Row operations reduce
    the rest of its column modulo the pivot; a remainder left there
    becomes the pivot.  Once the column holds only the pivot, column
    operations reduce the rest of its row modulo the pivot, touching no
    other row; a remainder left there becomes the pivot.  Otherwise the
    pivot's row and column are dropped.  Each move is to a strictly
    smaller pivot, so the loop ends.  Columns are found by scanning the
    rows: the residual that `_unit_pivots` leaves is small.
    """
    diag = []
    while rows:
        pi, pj = min(((i, j) for i, r in rows.items() for j in r),
                     key=lambda ij: abs(rows[ij[0]][ij[1]]))
        while True:
            prow = rows[pi]
            pv = prow[pj]
            for i in [i for i, r in rows.items() if i != pi and pj in r]:
                r = rows[i]
                c = r[pj] // pv
                for j, v in prow.items():
                    nv = r.get(j, 0) - c * v
                    if nv:
                        r[j] = nv
                    else:
                        r.pop(j, None)
                if not r:
                    del rows[i]
            left = [i for i, r in rows.items() if i != pi and pj in r]
            if left:
                pi = min(left, key=lambda i: abs(rows[i][pj]))
                continue
            rem = {j: v % pv for j, v in prow.items() if j != pj and v % pv}
            if not rem:
                break
            rows[pi] = {pj: pv, **rem}
            pj = min(rem, key=lambda j: abs(rem[j]))
        diag.append(abs(pv))
        del rows[pi]
    return diag


def _invariant_factors(diag: Sequence[int]) -> tuple:
    """Normalize a multiset of positive integers, the orders of a sum of
    cyclic groups, to its divisibility chain d1 | d2 | ... | dr.  The 1s
    are counted.  Sorted, the other entries often form the chain already
    (one repeated torsion order does); else each pair of them is replaced
    by its gcd and lcm, in order, which leaves the group unchanged and
    makes each entry divide every later one."""
    rest = sorted(d for d in diag if d != 1)
    if any(b % a for a, b in zip(rest, rest[1:])):
        for i in range(len(rest)):
            for j in range(i + 1, len(rest)):
                g = gcd(rest[i], rest[j])
                rest[i], rest[j] = g, rest[i] // g * rest[j]
    return (1,) * (len(diag) - len(rest)) + tuple(rest)


# -- coreduction and reduced homology -----------------------------------

def _cells(C: SimplicialComplex) -> list:
    """The faces of every simplex of C by id: ids number C.simplices in
    their cell order, and faces[c] lists the ids of c's codimension-1
    faces, the one leaving out the i-th vertex at position i."""
    index = {t: c for c, t in enumerate(C.simplices)}.__getitem__
    # combinations() leaves out the last vertex first
    return [()] + [tuple(map(index, combinations(t, len(t) - 1)))[::-1]
                   for t in C.simplices[1:]]


def _coreduce(faces: list) -> bytearray:
    """Flags of the cells left once coreduction pairs are removed.

    A pair is (a, b) with a the only face of b left, so that the
    coefficient of a in the boundary of b is +-1.  A cell is queued when
    its count of faces left drops to 1, and paired with that face if it
    still has one face left when it is taken; the first vertex, whose
    one face is the empty simplex, is queued first."""
    n = len(faces)
    cofaces = [[] for _ in range(n)]
    for c, fs in enumerate(faces):
        for a in fs:
            cofaces[a].append(c)
    count = list(map(len, faces))
    alive = bytearray(b"\1") * n
    queue = deque([1] if n > 1 else [])
    while queue:
        b = queue.popleft()
        if not (alive[b] and count[b] == 1):
            continue
        for a in faces[b]:
            if alive[a]:
                break
        for c in (b, a):
            alive[c] = 0
            for e in cofaces[c]:
                if alive[e]:
                    count[e] -= 1
                    if count[e] == 1:
                        queue.append(e)
    return alive


def boundary_matrix(faces: list, rows: set, cols: Sequence[int]) -> dict:
    """The boundary operator from the cells ``cols`` of one degree to the
    cells ``rows`` of the degree below, restricted to them: {(i, j): +-1},
    the sign of face i of j being (-1)^(position of the vertex it leaves
    out)."""
    return {(i, j): -1 if pos & 1 else 1 for j in cols
            for pos, i in enumerate(faces[j]) if i in rows}


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced integral homology: per-degree Betti number and invariant
    factors > 1 (torsion coefficients), for degrees -1..dim."""
    dim: int
    betti: tuple       # betti[q + 1] = rank of H~_q
    torsion: tuple     # torsion[q + 1] = tuple of invariant factors > 1

    def betti_of(self, q: int) -> int:
        if -1 <= q <= self.dim:
            return self.betti[q + 1]
        return 0

    def torsion_of(self, q: int) -> tuple:
        if -1 <= q <= self.dim:
            return self.torsion[q + 1]
        return ()

    def nonzero_degrees(self) -> tuple:
        return tuple(q for q in range(-1, self.dim + 1)
                     if self.betti_of(q) or self.torsion_of(q))

    def is_trivial(self) -> bool:
        return not self.nonzero_degrees()

    def __eq__(self, other):
        if not isinstance(other, HomologyProfile):
            return NotImplemented
        hi = max(self.dim, other.dim)
        return all(self.betti_of(q) == other.betti_of(q)
                   and self.torsion_of(q) == other.torsion_of(q)
                   for q in range(-1, hi + 1))

    def __hash__(self):
        return hash((self.nonzero_degrees(),))

    def to_json(self) -> list:
        return [{"degree": q, "betti": self.betti_of(q),
                 "torsion": list(self.torsion_of(q))}
                for q in range(-1, self.dim + 1)]

    def describe(self) -> str:
        nz = [f"H~_{q}=Z^{self.betti_of(q)}"
              + ("".join(f"+Z/{t}" for t in self.torsion_of(q)))
              for q in self.nonzero_degrees()]
        return ", ".join(nz) if nz else "trivial"


def reduced_homology(C: SimplicialComplex) -> HomologyProfile:
    """Exact reduced integral homology of an abstract complex: the
    coreduction pairs are removed from its augmented chain complex, and
    the boundary matrices restricted to the cells left go through the
    Smith normal form (see the module docstring)."""
    d = C.dim
    faces = _cells(C)
    alive = _coreduce(faces)
    left = [[] for _ in range(d + 2)]  # left[q + 1]: the q-cells left
    for c, fs in enumerate(faces):
        if alive[c]:
            left[len(fs)].append(c)
    snf = [((), 0)] * (d + 3)  # snf[k + 1]: of the boundary from degree k
    for k in range(d + 1):
        B = boundary_matrix(faces, set(left[k]), left[k + 1])
        if B:
            snf[k + 1] = smith_normal_form(B)
    betti = tuple(len(left[q + 1]) - snf[q + 1][1] - snf[q + 2][1]
                  for q in range(-1, d + 1))
    torsion = tuple(tuple(f for f in snf[q + 2][0] if f > 1)
                    for q in range(-1, d + 1))
    return HomologyProfile(d, betti, torsion)


def poset_homology(P: SubgroupPoset) -> HomologyProfile:
    """Reduced homology of the order complex of P, from its beat-point
    core (see the module docstring), padded to the dimension of the
    whole complex, P's height."""
    d = P.height()
    core = P.core()
    betti, torsion = (), ()
    if len(core) != 1:
        Q = P if len(core) == len(P) else P.induced(core)
        h = reduced_homology(order_complex(Q))
        betti, torsion = h.betti, h.torsion
    pad = d + 2 - len(betti)
    return HomologyProfile(d, betti + (0,) * pad, torsion + ((),) * pad)


def join_homology(X: HomologyProfile, Y: HomologyProfile) -> HomologyProfile:
    """Reduced homology of the join X * Y from that of its factors
    (Milnor): H~_{n+1}(X * Y) is the sum of H~_i(X) (x) H~_j(Y) over
    i + j = n and of Tor(H~_i(X), H~_j(Y)) over i + j = n - 1.  Degrees
    start at -1, so a vertex-free factor (H~_-1 = Z) is the unit."""
    dim = X.dim + Y.dim + 1
    betti = [0] * (dim + 2)
    torsion = [[] for _ in range(dim + 2)]
    for i in range(-1, X.dim + 1):
        a, s = X.betti_of(i), X.torsion_of(i)
        for j in range(-1, Y.dim + 1):
            b, t = Y.betti_of(j), Y.torsion_of(j)
            q = i + j + 2  # index of degree i + j + 1
            # Z^a (x) Z/t = (Z/t)^a; Z/s (x) Z/t = Tor = Z/gcd(s, t)
            both = [gcd(u, v) for u in s for v in t]
            betti[q] += a * b
            torsion[q] += list(s) * b + list(t) * a + both
            if both:  # torsion sits below each top degree: q + 1 <= dim + 1
                torsion[q + 1] += both
    return HomologyProfile(dim, tuple(betti), tuple(map(_torsion, torsion)))


def wedge_homology(pieces: Sequence[tuple]) -> HomologyProfile:
    """Reduced homology of a one-point wedge of nonempty complexes, given
    as (profile, multiplicity) pairs: the direct sum of the pieces' reduced
    homology, each counted multiplicity times.  A single vertex-free piece
    is its own wedge."""
    dim = max(P.dim for P, _ in pieces)
    degrees = range(-1, dim + 1)
    betti = tuple(sum(m * P.betti_of(q) for P, m in pieces) for q in degrees)
    torsion = tuple(_torsion([f for P, m in pieces
                              for f in P.torsion_of(q) * m]) for q in degrees)
    return HomologyProfile(dim, betti, torsion)


def _torsion(factors: Sequence[int]) -> tuple:
    """The torsion coefficients of a sum of cyclic groups of the given
    orders, as `reduced_homology` lists them: invariant factors > 1."""
    return tuple(f for f in _invariant_factors(factors) if f > 1)


# -- sphericity and Cohen-Macaulay checks -------------------------------

@dataclass(frozen=True)
class SphericityVerdict:
    weakly_spherical_in: Optional[int]
    homology_spherical: bool
    cohen_macaulay: bool
    witness: Optional[str]
    profile: Optional[HomologyProfile] = None

    def to_json(self) -> dict:
        return {"weakly_spherical_in": self.weakly_spherical_in,
                "homology_spherical": self.homology_spherical,
                "cohen_macaulay": self.cohen_macaulay,
                "witness": self.witness,
                "profile": self.profile.to_json() if self.profile else None,
                "caveat": HOMOLOGY_PROXY_CAVEAT}


def sphericity(profile: HomologyProfile, r: int) -> SphericityVerdict:
    """Check (weak) r-sphericity of a complex from its reduced homology."""
    nz = profile.nonzero_degrees()
    if any(q != r for q in nz):
        witness = f"nonzero homology in degrees {list(nz)}"
        return SphericityVerdict(None, False, False, witness, profile)
    torsion = profile.torsion_of(r)
    witness = f"torsion {list(torsion)} in degree {r}" if torsion else None
    return SphericityVerdict(r, not torsion, False, witness, profile)


class TorusComplex:
    """The one object per ground group G and prime p: the p-local data
    that every check of G at p reads, and the torus complex.  It holds
    whether G is solvable; a Sylow p-subgroup P, its derived subgroup P'
    and its rank; O_p(G), O_p'(G) and the upper p-series; the poset
    A = A_p(G) of the nontrivial elementary abelian p-subgroups of G,
    the dimension of the order complex Delta(A), its reduced homology
    and its Cohen-Macaulay verdict.  Each is computed once, when first
    read; Delta(A) itself only for export.
    The object is freed with the command or suite row that built it."""

    def __init__(self, G: Group, p: int):
        self.group = G
        self.prime = p

    @cached_property
    def solvable(self) -> bool:
        return gp.is_solvable(self.group)

    @cached_property
    def sylow(self) -> Subgroup:
        return gp.sylow_subgroup(self.group, self.prime)

    @cached_property
    def sylow_derived(self) -> Subgroup:
        return gp.derived_subgroup(self.sylow)

    @cached_property
    def rank(self) -> int:
        return gp.rank(self.sylow, self.prime)

    @cached_property
    def o_p(self) -> Subgroup:
        return gp.o_p(self.group, self.prime, P=self.sylow)

    @cached_property
    def o_p_prime(self) -> Subgroup:
        return gp.o_p_prime(self.group, self.prime)

    @cached_property
    def p_series(self) -> tuple:
        """The upper p-series 1 < O_p' < O_p',p < ... < G of a solvable
        G: the terms over 1 are O_p' or O_p modulo the one before.
        DecompositionNotFound if the steps stall short of G, which they
        never do on a solvable G."""
        G, p = self.group, self.prime
        if not self.solvable:
            raise NotSolvable(f"group of order {G.order} is not solvable")
        series, phase_p = [G.trivial_subgroup()], False  # a p'-step first
        # a step that grows at least doubles the order, and for solvable G
        # no two steps in a row both stall: 2 log2|G| steps reach G
        for _ in range(2 * G.order.bit_length() + 2):
            if series[-1].order == G.order:
                return tuple(series)
            if len(series) == 1:
                nxt = self.o_p if phase_p else self.o_p_prime
            elif phase_p:
                nxt = gp.o_p(G, p, series[-1], P=self.sylow)
            else:
                nxt = gp.o_p_prime(G, p, series[-1])
            if nxt.order > series[-1].order:
                series.append(nxt)
            phase_p = not phase_p
        raise DecompositionNotFound(
            f"the upper {p}-series of a solvable group of order {G.order}"
            " stalls short of the group")

    @cached_property
    def p_length(self) -> int:
        """The number of steps of the p-series of index a power of p."""
        s = self.p_series
        return sum(gp._is_p_power(b.order // a.order, self.prime)
                   for a, b in zip(s, s[1:]))

    @cached_property
    def poset(self) -> SubgroupPoset:
        return quillen_poset(self.group, self.prime)

    @cached_property
    def dim(self) -> int:
        return self.poset.height()

    @cached_property
    def complex(self) -> SimplicialComplex:
        return order_complex(self.poset)

    @cached_property
    def profile(self) -> HomologyProfile:
        return poset_homology(self.poset)

    @cached_property
    def cohen_macaulay(self) -> SphericityVerdict:
        """Cohen-Macaulay at homology level: the top check, then one
        upper interval per conjugacy class of tori (see the module
        docstring).  The verdict, witness included, is the link sweep's:
        that sweep fails first at the least vertex of a failing class,
        since a chain whose link fails has a top vertex whose link fails.
        The link of a torus x of rank r is Delta(A<x) * Delta(A>x), so
        the witness reads its homology off the join formula."""
        A, d, p, profile = self.poset, self.dim, self.prime, self.profile
        top = sphericity(profile, d)
        if not top.homology_spherical:
            return SphericityVerdict(top.weakly_spherical_in, False, False,
                                     f"complex itself: {top.witness}",
                                     profile)
        for x, *_ in conjugacy_classes(A):
            above = poset_homology(A.induced(bits(A.above[x])))
            r = _p_rank(A.nodes[x].order, p)
            if not sphericity(above, d - r).homology_spherical:
                link = join_homology(_solomon_tits(r, p), above)
                v = sphericity(link, d - 1)
                witness = (f"link of [{x}] (dim 0): not {d - 1}-spherical "
                           f"({v.witness}); {link.describe()}")
                return SphericityVerdict(d, True, False, witness, profile)
        return SphericityVerdict(d, True, True, None, profile)


def _solomon_tits(r: int, p: int) -> HomologyProfile:
    """Reduced homology of the poset of proper nonzero subspaces of
    F_p^r: Z^(p^(r choose 2)) in degree r - 2 (Solomon-Tits); at r = 1
    the vertex-free complex."""
    return HomologyProfile(r - 2, (0,) * (r - 1) + (p ** comb(r, 2),),
                           ((),) * r)
