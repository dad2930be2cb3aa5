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
builds and reduces the torus complex of a ground group.
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
    they leave goes through the Euclidean engine (`_eliminate`).
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
    """Diagonalize by integer row/column operations; returns the nonzero
    diagonal entries (not yet normalized to a divisibility chain)."""
    # column index: col -> set of rows with a nonzero entry there
    cols = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    diag = []

    def addrow(src, dst, c):
        """row[dst] += c * row[src]"""
        rs = rows.get(src, {})
        rd = rows.setdefault(dst, {})
        for j, v in rs.items():
            nv = rd.get(j, 0) + c * v
            if nv:
                rd[j] = nv
                cols.setdefault(j, set()).add(dst)
            elif j in rd:
                del rd[j]
                cols[j].discard(dst)

    def addcol(src, dst, c):
        """col[dst] += c * col[src]"""
        for i in list(cols.get(src, ())):
            v = rows[i].get(src, 0)
            nv = rows[i].get(dst, 0) + c * v
            if nv:
                rows[i][dst] = nv
                cols.setdefault(dst, set()).add(i)
            elif dst in rows[i]:
                del rows[i][dst]
                cols[dst].discard(i)

    def remove(i, j):
        for jj in list(rows.get(i, ())):
            cols[jj].discard(i)
        rows.pop(i, None)
        for ii in list(cols.get(j, ())):
            rows[ii].pop(j, None)
        cols.pop(j, None)

    while True:
        # pick a pivot: prefer +-1 entries with minimal fill, else the
        # smallest absolute value
        best = None
        for i, r in rows.items():
            if not r:
                continue
            for j, v in r.items():
                av = abs(v)
                fill = (len(r) - 1) * (len(cols[j]) - 1)
                key = (av != 1, av, fill, i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
            if best and best[0][0] is False and best[0][2] == 0:
                break
        if best is None:
            break
        _, pi, pj = best
        # make the pivot divide its row and column (Euclidean steps)
        while True:
            pv = rows[pi][pj]
            moved = False
            for i in list(cols[pj]):
                if i == pi:
                    continue
                v = rows[i].get(pj, 0)
                if v == 0:
                    continue
                q = v // pv
                if q:
                    addrow(pi, i, -q)
                if rows.get(i, {}).get(pj, 0):
                    pi = i  # remainder is smaller; rotate pivot
                    moved = True
                    break
            if moved:
                continue
            for j in list(rows[pi]):
                if j == pj:
                    continue
                v = rows[pi][j]
                q = v // pv
                if q:
                    addcol(pj, j, -q)
                if rows[pi].get(j, 0):
                    pj = j
                    moved = True
                    break
            if not moved:
                break
        diag.append(abs(rows[pi][pj]))
        remove(pi, pj)
    return diag


def _invariant_factors(diag: Sequence[int]) -> tuple:
    """Normalize a diagonal multiset to the divisibility chain via prime
    decomposition (entries are small at desk scale)."""
    powers = {}  # prime -> sorted list of exponents, descending
    r = len(diag)
    for d in diag:
        for p, e in _factorize(d).items():
            powers.setdefault(p, []).append(e)
    for p in powers:
        powers[p].sort(reverse=True)
    factors = []
    for k in range(r):
        f = 1
        for p, es in powers.items():
            if k < len(es):
                f *= p ** es[k]
        factors.append(f)
    factors.reverse()  # ascending divisibility chain
    return tuple(factors)


def _factorize(n: int) -> dict:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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
    order complex Delta(A), its reduced homology and its Cohen-Macaulay
    verdict.  Each is computed once, when first read."""

    def __init__(self, G: Group, p: int):
        self.group = G
        self.prime = p

    @cached_property
    def poset(self) -> SubgroupPoset:
        return quillen_poset(self.group, self.prime)

    @cached_property
    def complex(self) -> SimplicialComplex:
        return order_complex(self.poset)

    @cached_property
    def profile(self) -> HomologyProfile:
        return reduced_homology(self.complex)

    @cached_property
    def cohen_macaulay(self) -> SphericityVerdict:
        """`is_cohen_macaulay` of the complex: the top check, then one
        upper interval per conjugacy class of tori (see the module
        docstring).  The verdict, witness included, is the link sweep's:
        that sweep fails first at the least vertex of a failing class,
        since a chain whose link fails has a top vertex whose link fails,
        so only that one link is built, for the witness."""
        A, C = self.poset, self.complex

        def fails(x):  # Delta(A>x) is not (d - rank of x)-spherical
            above = order_complex(A.induced(sorted(A.above[x])))
            r = _p_rank(A.nodes[x].order, self.prime)
            return not sphericity(reduced_homology(above),
                                  C.dim - r).homology_spherical

        return _cm_verdict(self.profile, C.dim, (
            _link_failure(C, {x}) for x, *_ in conjugacy_classes(A)
            if fails(x)))


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
