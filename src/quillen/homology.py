"""Exact integral reduced homology via Smith normal form, plus the
sphericity and Cohen-Macaulay checkers built on it.

All arithmetic is exact (Python integers).  Homology is computed from
the augmented chain complex, so degree -1 is handled uniformly: the
vertex-free complex has reduced homology Z concentrated in degree -1.

"Spherical" here is the homology-level proxy: acyclic, or free homology
concentrated in a single degree.  Acyclicity cannot be distinguished
from contractibility at this level; reports carry that caveat.

A complex of dimension d is Cohen-Macaulay when it is d-spherical and
the link of every k-simplex is (d-k-1)-spherical; `is_cohen_macaulay`
builds every link.  On the torus complex Delta(A) of A = A_p(G) there
is a shortcut (Quillen 1978, section 8; Bjorner, "Topological methods",
Handbook of Combinatorics, 1995, section 11).  The link of a chain
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
Delta(A) is built only for export and for the link witnessing a failed
Cohen-Macaulay check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterator, Optional, Sequence

from .group import Group, _p_rank
from .poset import (
    SimplicialComplex,
    SubgroupPoset,
    conjugacy_classes,
    link,
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
    integer matrix.  Accepts a dense row-list or a dict {(i, j): value}.

    +-1 pivots are eliminated first (`_unit_pivots`); only the residual
    they leave goes through Euclidean steps (`_eliminate`), and the
    diagonal is put in chain form by gcd and lcm (`_invariant_factors`).
    """
    rows = _to_sparse(matrix)
    units = _unit_pivots(rows)
    diag = [1] * units + _eliminate(rows)
    return _invariant_factors(diag), len(diag)


def _to_sparse(matrix) -> dict:
    rows = {}
    if isinstance(matrix, dict):
        for (i, j), v in matrix.items():
            if v:
                rows.setdefault(i, {})[j] = int(v)
        return rows
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
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
    are counted; each pair of the other entries is replaced by its gcd
    and lcm, in order, which leaves the group unchanged and makes each
    entry divide every later one."""
    rest = [d for d in diag if d != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] // g * rest[j]
    return (1,) * (len(diag) - len(rest)) + tuple(sorted(rest))


# -- boundary matrices and reduced homology -----------------------------

@dataclass(frozen=True)
class BoundaryMatrix:
    """Augmented simplicial boundary operator in degree k (columns are
    k-simplices, rows (k-1)-simplices; degree 0 maps onto the empty
    simplex)."""
    degree: int
    row_simplices: tuple
    col_simplices: tuple
    entries: dict  # (i, j) -> +-1

    @property
    def shape(self):
        return (len(self.row_simplices), len(self.col_simplices))


def boundary_matrix(C: SimplicialComplex, k: int) -> BoundaryMatrix:
    rows = C.simplices_of_dim(k - 1)
    cols = C.simplices_of_dim(k)
    rindex = {s: i for i, s in enumerate(rows)}
    entries = {}
    for j, s in enumerate(cols):
        vs = sorted(s)
        for pos in range(len(vs)):
            face = frozenset(vs[:pos] + vs[pos + 1:])
            entries[(rindex[face], j)] = (-1) ** pos
    return BoundaryMatrix(k, tuple(rows), tuple(cols), entries)


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
    """Exact reduced integral homology of an abstract complex, via SNF
    of the augmented boundary matrices."""
    d = C.dim
    nsimp = {q: C.n_simplices(q) for q in range(-1, d + 1)}
    snf = {}
    for k in range(0, d + 1):
        B = boundary_matrix(C, k)
        snf[k] = smith_normal_form(B.entries) if B.entries else ((), 0)
    betti = []
    torsion = []
    for q in range(-1, d + 1):
        rank_q = snf[q][1] if q in snf else 0
        rank_q1 = snf[q + 1][1] if (q + 1) in snf else 0
        betti.append(nsimp[q] - rank_q - rank_q1)
        tors = tuple(f for f in (snf[q + 1][0] if (q + 1) in snf else ())
                     if f > 1)
        torsion.append(tors)
    return HomologyProfile(d, tuple(betti), tuple(torsion))


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


def is_cohen_macaulay(C: SimplicialComplex) -> SphericityVerdict:
    """Cohen-Macaulay at homology level: the complex is d-spherical and
    the link of every r-simplex (r >= 0) is (d-r-1)-spherical, d = dim.
    The empty link is accepted exactly when d-r-1 = -1 (its homology is
    concentrated in degree -1)."""
    return _cm_verdict(reduced_homology(C), C.dim, filter(None, (
        _link_failure(C, s)
        for k in range(C.dim + 1) for s in C.simplices_of_dim(k))))


class TorusComplex:
    """The torus complex of a ground group G at a prime p: the poset
    A = A_p(G) of its nontrivial elementary abelian p-subgroups, the
    dimension of the order complex Delta(A), its reduced homology and
    its Cohen-Macaulay verdict.  Each is computed once, when first read;
    Delta(A) itself only for export and for a failure's witness."""

    def __init__(self, G: Group, p: int):
        self.group = G
        self.prime = p

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
        """`is_cohen_macaulay` of the complex: the top check, then one
        upper interval per conjugacy class of tori (see the module
        docstring).  The verdict, witness included, is the link sweep's:
        that sweep fails first at the least vertex of a failing class,
        since a chain whose link fails has a top vertex whose link fails,
        so only that one link is built, for the witness."""
        A, d = self.poset, self.dim

        def fails(x):  # Delta(A>x) is not (d - rank of x)-spherical
            above = poset_homology(A.induced(sorted(A.above[x])))
            r = _p_rank(A.nodes[x].order, self.prime)
            return not sphericity(above, d - r).homology_spherical

        return _cm_verdict(self.profile, d, (
            _link_failure(self.complex, {x})
            for x, *_ in conjugacy_classes(A) if fails(x)))


def _cm_verdict(profile: HomologyProfile, d: int,
                failures: Iterator[str]) -> SphericityVerdict:
    """The verdict on a complex of dimension d with reduced homology
    ``profile``: not d-spherical, else the first of the lazy ``failures``
    witnesses, else Cohen-Macaulay."""
    top = sphericity(profile, d)
    if not top.homology_spherical:
        return SphericityVerdict(top.weakly_spherical_in, False, False,
                                 f"complex itself: {top.witness}", profile)
    witness = next(failures, None)
    return SphericityVerdict(d, True, witness is None, witness, profile)


def _link_failure(C: SimplicialComplex, s) -> Optional[str]:
    """The witness string if the link of simplex s in C is not
    (dim C - dim s - 1)-spherical, else None."""
    k = len(s) - 1
    r = C.dim - k - 1
    v = sphericity(reduced_homology(link(C, s)), r)
    if v.homology_spherical:
        return None
    return (f"link of {sorted(s)} (dim {k}): not {r}-spherical "
            f"({v.witness}); {v.profile.describe()}")
