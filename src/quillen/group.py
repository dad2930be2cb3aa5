"""Finite permutation group engine.

Groups are fully enumerated permutation groups with canonical integer
element ids (elements sorted lexicographically by image tuple, so the
identity is always id 0).  A dense multiplication table makes all element
arithmetic O(1), which keeps the subgroup-theoretic primitives cheap at
desk scale.  A group keeps the numpy array of its images, ``images``,
and its table.  A direct product reads both off its factors in closed
form (``constructions.direct_product``).  Every other group gets both
from one breadth-first walk of its Cayley graph by left multiplication
(``group_from_generators``): the walk keeps the place of every product
g*w it forms, which gives each generator's row, and the parent pair
(g, w) of each new element x = g*w, from which every other row is
filled in walk order as row g read at row w.  Table ids are int16,
2*order^2 bytes, so no group beyond TABLE_ORDER_CAP elements is built,
whatever the caller's cap.  Element powers and orders are whole-id
arrays: ``powers(k)`` squares and multiplies table rows, and ``orders``
is read off it one prime at a time, so a p-element is an x with
x^(p-part of |G|) = 1.  numpy is imported by the functions that use
it, so that importing the package, and commands that build no group, do
not load it.  Subgroups are immutable member-id sets inside a parent
group.  A subgroup built with no generating set computes its
``generator_witness`` on first read, so one whose witness is never read
costs no ``closure`` calls.  A subgroup search (``_grow``) extends one
representative per conjugacy class, the representatives of one order at
a time, by numpy masks over (representative, candidate) pairs, and
conjugates each new class out whole; it hands back the Subgroups it
finds, each built once, in any order.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import (
    GroupTooLarge,
    HypothesisViolated,
    InvalidPermutation,
    NotAPGroup,
)

DEFAULT_ELEMENT_CAP = 4096
GROW_BUDGET = 1 << 21  # entries per chunk of _grow's membership matrix and Ks
DERIVED_SERIES_DEPTH_CAP = 32
TABLE_ORDER_CAP = 1 << 14  # bounds every cap: ids fit int16, a 512 MiB table

Perm = tuple  # tuple of images, 0-based


def validate_permutation(p: Sequence[int], degree: int) -> Perm:
    t = tuple(p)
    if len(t) != degree or sorted(t) != list(range(degree)):
        raise InvalidPermutation(f"not a permutation of 0..{degree - 1}: {p!r}")
    return t


class Group:
    """A fully enumerated finite permutation group.

    Immutable after construction; safe to share.  Ids are row positions:
    `images[i]` is the image row of the permutation with id ``i``, whose
    rows may come in any order with the identity first, and `table[i, j]`
    (int16) is the id of the product of ids ``i`` and ``j``.  The
    ``generator_ids`` generate the group.
    """

    def __init__(self, degree: int, images, generator_ids: tuple, table,
                 provenance: str = "given generators", label: str = ""):
        import numpy as np
        self.degree = degree
        self.images = np.asarray(images, dtype=_image_dtype(degree)).reshape(
            len(images), degree)
        self.generators = generator_ids
        self.provenance = provenance
        self.label = label
        self.order = len(self.images)
        self.identity = 0
        assert (self.images[0] == np.arange(degree)).all(), \
            "identity must sort first"
        assert table.shape == (self.order, self.order) \
            and table.dtype == np.int16, "the table must be int16, order^2"
        self.table = table
        self.inverse = self._build_inverses()

    # -- construction ---------------------------------------------------

    def _build_inverses(self) -> np.ndarray:
        # each row is a permutation of the ids and the identity is id 0,
        # so the inverse of i is where row i takes its minimum
        return self.table.argmin(axis=1).astype(self.table.dtype)

    # -- element arithmetic ---------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conj(self, a: int, g: int) -> int:
        """a conjugated by g: g^-1 a g."""
        return int(self.table[self.table[self.inverse[g], a], g])

    def commutator(self, a: int, b: int) -> int:
        """[a, b] = a^-1 b^-1 a b."""
        t = self.table
        return int(t[t[t[self.inverse[a], self.inverse[b]], a], b])

    def powers(self, k: int) -> np.ndarray:
        """x^k for every id x, k >= 0, by square-and-multiply on whole
        rows, from the leading bit of k down: ``powers(k)[x]`` is the id
        of x^k."""
        import numpy as np
        t = self.table
        x = np.arange(self.order, dtype=t.dtype)
        r = x if k else np.zeros_like(x)
        for bit in bin(k)[3:]:
            r = t[r, r]
            if bit == "1":
                r = t[r, x]
        return r

    @cached_property
    def orders(self) -> np.ndarray:
        """|x| for every id x.  With q^a the exact power of the prime q in
        |G| and m = |G|/q^a, the q-part of |x| is the least q^e with
        x^(m*q^e) = 1, and x^(m*q^(e+1)) is the q-th power of x^(m*q^e)."""
        import numpy as np
        orders, n, q = np.ones(self.order, dtype=np.int64), self.order, 1
        while n > 1:
            q += 1
            if n % q:
                continue
            x, qth = self.powers(_p_prime_part(self.order, q)), self.powers(q)
            while n % q == 0:
                orders[x != self.identity] *= q
                x, n = qth[x], n // q
        return orders

    # -- subgroup plumbing ----------------------------------------------

    def closure(self, seed: Iterable[int]) -> frozenset:
        """Smallest subgroup (as an id set) containing ``seed``."""
        gens = sorted(set(seed) - {self.identity})
        members = {self.identity}
        frontier = [self.identity]
        table = self.table
        while frontier:
            new = []
            for w in frontier:
                for g in gens:
                    x = int(table[w, g])
                    if x not in members:
                        members.add(x)
                        new.append(x)
            frontier = new
        return frozenset(members)

    def full(self) -> "Subgroup":
        return Subgroup(self, range(self.order), tuple(self.generators))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (self.identity,), ())

    def __repr__(self):
        lab = f" {self.label}" if self.label else ""
        return f"<Group{lab} order={self.order} degree={self.degree}>"


class Subgroup:
    """A subgroup of a parent :class:`Group`, stored as a sorted member-id
    tuple.  Equality and hashing are by member set (within one parent),
    never by the generator witness.  A witness given to the constructor
    is kept as given; with none, ``generator_witness`` is computed by
    ``_small_witness`` on first read and kept."""

    __slots__ = ("parent", "members", "member_set", "_witness")

    def __init__(self, parent: Group, members: Iterable[int],
                 witness: Optional[tuple] = None):
        self.parent = parent
        self.members = tuple(sorted(set(members)))
        self.member_set = frozenset(self.members)
        self._witness = None if witness is None else tuple(witness)

    @property
    def generator_witness(self) -> tuple:
        """A generating tuple of member ids."""
        if self._witness is None:
            self._witness = _small_witness(self.parent, self.member_set)
        return self._witness

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, elem: int) -> bool:
        return elem in self.member_set

    def __le__(self, other: "Subgroup") -> bool:
        return self.member_set <= other.member_set

    def __lt__(self, other: "Subgroup") -> bool:
        return self.member_set < other.member_set

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and self.parent is other.parent
                and self.members == other.members)

    def __hash__(self):
        return hash((id(self.parent), self.members))

    def __repr__(self):
        return f"<Subgroup order={self.order} of {self.parent!r}>"


def _small_witness(G: Group, members: frozenset) -> tuple:
    """Greedy small generating set for a known-closed member set."""
    if len(members) == 1:
        return ()
    gens, o = [], G.orders
    have = {G.identity}
    for x in sorted(members, key=lambda a: (-o[a], a)):
        if x not in have:
            gens.append(x)
            have = set(G.closure(gens))
            if len(have) == len(members):
                break
    return tuple(sorted(gens))


def _as_subgroup(S) -> Subgroup:
    if isinstance(S, Subgroup):
        return S
    if isinstance(S, Group):
        return S.full()
    raise TypeError(f"expected Group or Subgroup, got {type(S)!r}")


# -- constructors -------------------------------------------------------

def group_from_generators(degree: int, gens: Sequence[Sequence[int]], *,
                          cap: int = DEFAULT_ELEMENT_CAP,
                          provenance: str = "given generators",
                          label: str = "") -> Group:
    """Enumerate the group generated by permutations of {0..degree-1},
    breadth first by left multiplication: the children of a frontier F
    under a generator g are the rows of g[F], kept when their bytes are
    new.  The walk keeps the place of every child, so that g's row is
    read off in walk order, and the parent pair (g, w) of each new
    element x = g*w.  Ids are the ranks of the image tuples, by one
    lexsort; the rows of the other elements are then filled in walk
    order as row(x) = row(g)[row(w)], row(w) being filled already."""
    import numpy as np
    _check_degree(degree)
    perms = [validate_permutation(g, degree) for g in gens]
    cap = min(cap, TABLE_ORDER_CAP)
    dtype = _image_dtype(degree)
    width = degree * dtype.itemsize
    gmat = np.array(perms, dtype=dtype).reshape(len(perms), degree)
    frontier = [np.arange(degree, dtype=dtype).tobytes()]
    walk = {frontier[0]: 0}  # each element's bytes -> its place in the walk
    rows = [[] for _ in perms]  # rows[j][w]: the place of g_j * (place w)
    parents = [(0, 0)]  # parents[x] = (j, w): place x holds g_j * (place w)
    while frontier:
        F = np.frombuffer(b"".join(frontier), dtype=dtype)
        F = F.reshape(len(frontier), degree)
        frontier, start = [], len(walk) - len(F)  # F holds places start..
        for j, g in enumerate(gmat):
            kids, row = g[F].tobytes(), rows[j]
            for k in range(len(F)):
                x = kids[k * width:(k + 1) * width]
                at = walk.get(x)
                if at is None:
                    at = walk[x] = len(walk)
                    frontier.append(x)
                    parents.append((j, start + k))
                row.append(at)
            if len(walk) > cap:
                raise GroupTooLarge(f"group order exceeds cap {cap}")
    n = len(walk)
    E = np.frombuffer(b"".join(walk), dtype=dtype).reshape(n, degree)
    order = np.lexsort(E.T[::-1]) if degree else [0]  # id -> place in the walk
    rank = np.empty(n, dtype=np.int16)
    rank[order] = np.arange(n)  # place in the walk -> id
    table = np.empty((n, n), dtype=np.int16)
    table[0] = np.arange(n)
    for row in rows:  # row[0] is the place of the generator itself
        table[rank[row[0]], rank] = rank[row]
    ids = rank.tolist()
    gen_rows = [table[ids[row[0]]] for row in rows]
    for x, (j, w) in enumerate(parents):
        if w:  # w = 0 makes x the identity or a generator, whose row is set
            gen_rows[j].take(table[ids[w]], out=table[ids[x]])
    gen_ids = tuple(sorted({ids[row[0]] for row in rows} - {0}))
    return Group(degree, E[order], gen_ids, table, provenance=provenance,
                 label=label)


def _check_degree(degree: int) -> None:
    """Refuse a degree below 0 or past TABLE_ORDER_CAP, before any array
    is allocated: the images then take no more room than the table."""
    if degree < 0:
        raise InvalidPermutation(f"degree must be non-negative, got {degree}")
    if degree > TABLE_ORDER_CAP:
        raise GroupTooLarge(f"degree {degree} exceeds the largest group order "
                            f"{TABLE_ORDER_CAP}")


def _image_dtype(degree: int) -> np.dtype:
    """The narrowest unsigned dtype that holds the points 0..degree-1."""
    import numpy as np
    return np.min_scalar_type(max(degree - 1, 0))


# -- spec operations ----------------------------------------------------

def subgroup_generated(G: Group, seed: Iterable[int]) -> Subgroup:
    seed = tuple(sorted(set(seed)))
    for s in seed:
        if not 0 <= s < G.order:
            raise InvalidPermutation(f"element id {s} not in group")
    return Subgroup(G, G.closure(seed), seed)


def derived_subgroup(S) -> Subgroup:
    """S' as the normal closure in S of the commutators of its generators."""
    S = _as_subgroup(S)
    gens = S.generator_witness
    return normal_closure(S, {S.parent.commutator(a, b)
                              for a in gens for b in gens})


def centralizer(S, X) -> Subgroup:
    S, X = _as_subgroup(S), _as_subgroup(X)
    gens = X.generator_witness or X.members
    return Subgroup(S.parent, _commuting(S.parent, gens, S.members))


def center(S) -> Subgroup:
    S = _as_subgroup(S)
    return centralizer(S, S)


def conjugate_subgroup(S: Subgroup, g: int) -> Subgroup:
    G = S.parent
    return Subgroup(G, (G.conj(x, g) for x in S.members),
                    tuple(sorted(G.conj(x, g) for x in S.generator_witness)))


def normal_closure(S, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing ``seed`` that is normalized by the
    Group or Subgroup S; it is closed under conjugation by S's generators
    exactly when its own generators are."""
    S = _as_subgroup(S)
    G = S.parent
    gens = set(seed) - {G.identity}
    members = G.closure(gens)
    while True:
        extra = {G.conj(x, s) for x in gens
                 for s in S.generator_witness} - members
        if not extra:
            return Subgroup(G, members)
        gens |= extra
        members = G.closure(gens)


def is_normal(S: Subgroup, in_: Optional[Subgroup] = None) -> bool:
    """Whether the generators of ``in_`` (default: the parent group)
    conjugate the generators of S into S; then all of ``in_`` does."""
    G = S.parent
    amb = in_.generator_witness if in_ is not None else G.generators
    gens = S.generator_witness or S.members
    return len(_normalizing(G, S.member_set, gens, amb)) == len(amb)


def is_abelian(S) -> bool:
    S = _as_subgroup(S)
    gens = S.generator_witness or S.members
    return len(_commuting(S.parent, gens, gens)) == len(gens)


def _commuting(G: Group, gens: Sequence[int], cand) -> list:
    """The ids in ``cand`` that commute with every id in ``gens``, and so
    with the subgroup that the ``gens`` generate."""
    import numpy as np
    c, t = np.asarray(cand, dtype=np.intp), G.table
    for x in gens:
        c = c[t[c, x] == t[x, c]]
    return c.tolist()


def _normalizing(G: Group, H: Iterable[int], gens: Sequence[int], cand) -> list:
    """The ids in ``cand`` that conjugate every id in ``gens`` into the
    member ids H, and so normalize H when the ``gens`` generate it."""
    import numpy as np
    c, t = np.asarray(cand, dtype=np.intp), G.table
    inside = np.bincount(list(H), minlength=G.order) > 0  # the members of H
    for x in gens:
        c = c[inside[t[t[G.inverse[c], x], c]]]  # c^-1 x c in H
    return c.tolist()


def is_cyclic(S) -> bool:
    S = _as_subgroup(S)
    return S.order in S.parent.orders[list(S.members)]


def exponent(S) -> int:
    S = _as_subgroup(S)
    return math.lcm(*S.parent.orders[list(S.members)].tolist())


def is_p_group(S, p: int) -> bool:
    return _is_p_power(_as_subgroup(S).order, p)


def is_elementary_abelian(S, p: int) -> bool:
    S = _as_subgroup(S)
    return (is_p_group(S, p) and is_abelian(S)
            and (S.order == 1 or exponent(S) == p))


def omega1(P, p: int) -> Subgroup:
    P = _as_subgroup(P)
    if not is_p_group(P, p):
        raise NotAPGroup(f"omega1 requires a {p}-group, order {P.order}")
    G = P.parent
    return Subgroup(G, G.closure(_ambient(P, G.orders == p)))


def sylow_subgroup(G: Group, p: int) -> Subgroup:
    """Deterministic Sylow p-subgroup: from 1, step H -> H<g> with the
    least g outside H that normalizes H with g^p in H, masking only the
    ids whose p-th power ``G.powers(p)`` lies in H.  Such a g exists
    until H is Sylow, since p then divides |N_G(H) : H|."""
    import numpy as np
    n, gens, pth = _p_prime_part(G.order, p), (), G.powers(p)
    H = frozenset([G.identity])
    while len(H) * n < G.order:
        inside = np.bincount(list(H), minlength=G.order) > 0
        g = _normalizing(G, H, gens, np.flatnonzero(inside[pth] > inside))[0]
        H = frozenset(_product_set(G, H, _cyclic_ids(G, g)))
        gens = tuple(sorted(gens + (g,)))
    return Subgroup(G, H, gens)


def _p_prime_part(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n


def _is_p_power(n: int, p: int) -> bool:
    return _p_prime_part(n, p) == 1


def o_p(G: Group, p: int, N: Optional[Subgroup] = None,
        P: Optional[Subgroup] = None) -> Subgroup:
    """Largest normal subgroup that is a p-group modulo the normal
    subgroup N (default 1): the preimage of O_p(G/N).  With P a Sylow
    p-subgroup of G (default ``sylow_subgroup(G, p)``), the Sylow
    subgroups of G/N are the P^gN/N, so this is the core of PN, cut
    down by its conjugates under G's generators to a fixed point."""
    Nm = N.members if N is not None else (G.identity,)
    if P is None:
        P = sylow_subgroup(G, p)
    core = set(_product_set(G, P.members, Nm))
    t, inv, size = G.table, G.inverse, 0
    while size != len(core):
        size = len(core)
        for s in G.generators:
            core &= set(t[t[inv[s], list(core)], s].tolist())
    return Subgroup(G, core)


def o_p_prime(G: Group, p: int, N: Optional[Subgroup] = None) -> Subgroup:
    """Largest normal subgroup of index prime to p over the normal
    subgroup N (default 1): the preimage of O_p'(G/N).  Grown greedily
    from M = N: x joins when <M, x^G> has p'-index over N, which holds
    exactly when xN lies in O_p'(G/N), so each class of cosets x^G N is
    tried once.  M and the normal closure of x are both normal, so
    <M, x^G> is their product set.  Only the xN of p'-order are tried:
    those with x^(p'-part of |G|) in N."""
    import numpy as np
    M = N if N is not None else G.trivial_subgroup()
    n, Nm = M.order, M.members
    t, every = G.table, np.arange(G.order)
    inside = np.bincount(Nm, minlength=G.order) > 0  # the members of N
    done = inside.copy()  # a union of cosets of N
    for x in np.flatnonzero(inside[G.powers(_p_prime_part(G.order, p))]).tolist():
        if done[x]:
            continue
        xG = np.zeros(G.order, dtype=bool)
        xG[t[t[G.inverse, x], every]] = True  # x^G
        done[t[np.ix_(np.flatnonzero(xG & ~done), Nm)]] = True  # x^G N
        K = np.zeros(G.order, dtype=bool)  # M times the normal closure of x
        K[t[np.ix_(M.members, normal_closure(G, {x}).members)]] = True
        if (np.count_nonzero(K) // n) % p:
            M = Subgroup(G, np.flatnonzero(K).tolist())
            done |= K
    return M


def _product_set(G: Group, A: Iterable[int], B: Sequence[int]) -> list:
    """The ids of a*b for a in A, b in B, with repeats."""
    import numpy as np
    a = np.fromiter(A, dtype=np.int64)[:, None]
    return G.table[a, np.asarray(B, dtype=np.int64)].ravel().tolist()


def is_solvable(S) -> bool:
    S = _as_subgroup(S)
    cur = S
    for _ in range(DERIVED_SERIES_DEPTH_CAP):
        if cur.order == 1:
            return True
        nxt = derived_subgroup(cur)
        if nxt.order == cur.order:
            return False
        cur = nxt
    return False


# -- quotients ----------------------------------------------------------

def quotient_group(S, N: Subgroup, *, label: str = "") -> Group:
    """S/N for a normal subgroup N of the Group or Subgroup S, as the
    action of S's generators on the cosets of N in S.  A coset is named by
    its least member, and the cosets in that order are the points 0..k-1,
    so the group is the left regular action of S/N."""
    import numpy as np
    S = _as_subgroup(S)
    if not (N <= S and is_normal(N, S)):
        raise HypothesisViolated("normality",
                                 "quotient by non-normal subgroup")
    G = S.parent
    Sm = np.array(S.members, dtype=np.int64)
    Nm = np.array(N.members, dtype=np.int64)[:, None]
    cmin = G.table[Nm, Sm].min(axis=0)  # the least member of each Ns
    reps = sorted(set(cmin.tolist()))
    point = np.empty(G.order, dtype=np.int64)
    point[reps] = range(len(reps))
    point[Sm] = point[cmin]
    gens = [point[G.table[g, reps]].tolist() for g in S.generator_witness]
    return group_from_generators(len(reps), gens,
                                 cap=max(DEFAULT_ELEMENT_CAP, len(reps)),
                                 provenance="coset action (regular)",
                                 label=label)


# -- rank and p-group structure -----------------------------------------

def elementary_abelian_subgroups(S, p: int) -> list:
    """All nontrivial elementary abelian p-subgroups of the Group or
    Subgroup S, in any order, grown from 1 by steps H -> H<g> of index p
    for order-p elements g of S that centralize H, one representative
    per S-class extended.  Each torus is reached: any hyperplane of it is
    a torus of lower order."""
    S = _as_subgroup(S)
    G = S.parent
    return _grow(S, _ambient(S, G.orders == p), G.trivial_subgroup(), (p,),
                 False)[1:]


def _ambient(S: Subgroup, mask) -> list:
    """The members x of S with ``mask[x]`` true, ascending."""
    import numpy as np
    ids = np.array(S.members)
    return ids[mask[ids]].tolist()


def _grow(S: Subgroup, amb: list, start: Subgroup, primes: Sequence[int],
          normalizing: bool) -> list:
    """Every subgroup reached from ``start``, which S normalizes, by steps
    H -> K = H<g> of prime index q in ``primes``: g lies in the ascending
    ids ``amb`` and outside H, g^q lies in H, and g centralizes H (or,
    with ``normalizing``, normalizes it).  ``amb`` must be S-invariant
    and hold all of K outside H with g.  ``start`` comes first, then the
    others in any order, each built once, generated by its witness.

    Only one representative of each class under conjugation by S is
    extended.  Representatives are taken in buckets of one order, in
    ascending order, as arrays of sorted member rows and of witnesses.
    Every step test is a numpy mask over (representative, candidate)
    pairs, the cheap ones first, compacted after each witness column.
    Membership is read from a bool matrix of representatives by ids;
    it, and the Ks built at once, are chunked to GROW_BUDGET entries.
    One g per coset Hg is kept, the coset's least id, and K is the union
    of the cosets Hg^j, j < q.  A new K's class is conjugated out at
    once through x -> s^-1 x s for the generators s of S, witnesses
    alongside, so a later K conjugate to it is no longer new.  That
    finds every node: a node K above ``start`` has a subgroup H0 of
    prime index that contains ``start`` and is normal in K (for the
    centralizing tests, any such H0), H0 = H^x for a representative H
    of lower order, and K^(x^-1) = H<g^(x^-1)> where g^(x^-1) passes
    H's test, since the ambient ids and the tests are S-invariant."""
    import numpy as np
    G = S.parent
    t, inv, n = G.table, G.inverse, G.order
    cand = np.array(amb, dtype=np.intp)
    gens = np.array(S.generator_witness, dtype=np.intp)
    conj = t[t[inv[gens]], gens[:, None]]  # row k: x -> s_k^-1 x s_k
    powers = [(q, G.powers(q)[cand]) for q in primes]
    first = np.array(start.members, dtype=np.int16)
    found, seen = [start], {first.tobytes()}
    buckets = {start.order: ([first], [start.generator_witness])}
    while buckets:
        rows, wits = buckets.pop(min(buckets))
        R = np.array(rows, dtype=np.int16)
        W = np.array(wits, dtype=np.intp).reshape(len(rows), len(wits[0]))
        chunk = max(1, GROW_BUDGET // n)
        for lo in range(0, len(R), chunk):
            Rc, Wc = R[lo:lo + chunk], W[lo:lo + chunk]
            inside = np.zeros((len(Rc), n), dtype=bool)  # each H's members
            inside[np.arange(len(Rc))[:, None], Rc] = True
            out = ~inside[:, cand]  # g outside H
            for q, qth in powers:
                i, j = np.nonzero(inside[:, qth] & out)  # and g^q in H
                g = cand[j]
                for x in Wc.T:  # the step test, one witness column at a time
                    x = x[i]
                    keep = (inside[i, t[t[inv[g], x], g]] if normalizing
                            else t[g, x] == t[x, g])
                    i, g = i[keep], g[keep]
                step = max(1, GROW_BUDGET // (q * Rc.shape[1]))
                for a in range(0, len(i), step):
                    _extend(G, Rc, Wc, i[a:a + step], g[a:a + step], q, conj,
                            found, seen, buckets)
    return found


def _extend(G: Group, R, W, i, g, q: int, conj, found: list, seen: set,
            buckets: dict) -> None:
    """K = H<g> for the rows H = R[i] and their g, each new class of K
    conjugated out into ``found`` and ``seen``, and one K of it put in
    ``buckets`` as that class's representative."""
    import numpy as np
    t = G.table
    H = R[i]
    least = t[H, g[:, None]].min(axis=1) == g  # g is the least id of Hg
    H, i, g = H[least], i[least], g[least]
    cosets, gj = [H], g
    for _ in range(q - 1):
        cosets.append(t[H, gj[:, None]])
        gj = t[gj, g]
    K = np.sort(np.concatenate(cosets, axis=1), axis=1)
    KW = np.concatenate([W[i], g[:, None]], axis=1)
    keys, width = K.tobytes(), 2 * K.shape[1]
    for r in range(len(K)):
        if keys[r * width:(r + 1) * width] in seen:
            continue
        rows, wits = buckets.setdefault(K.shape[1], ([], []))
        rows.append(K[r])
        wits.append(KW[r])
        _conjugate_out(G, K[r:r + 1], KW[r:r + 1], conj, found, seen)


def _conjugate_out(G: Group, F, FW, conj, found: list, seen: set) -> None:
    """Put the class of the subgroup whose sorted member row is F[0], and
    the conjugates of its witness FW[0], into ``found`` and ``seen``, one
    frontier at a time, through every row of ``conj`` at once."""
    import numpy as np
    seen.add(F.tobytes())
    found.append(Subgroup(G, F[0].tolist(), FW[0].tolist()))
    width = 2 * F.shape[1]
    while True:
        X = np.sort(conj[:, F].reshape(-1, F.shape[1]), axis=1)
        keys, keep = X.tobytes(), []
        for r in range(len(X)):
            key = keys[r * width:(r + 1) * width]
            if key not in seen:
                seen.add(key)
                keep.append(r)
        if not keep:
            return
        F, FW = X[keep], conj[:, FW].reshape(-1, FW.shape[1])[keep]
        found.extend(Subgroup(G, m, w) for m, w in
                     zip(F.tolist(), FW.tolist()))


def _cyclic_ids(G: Group, g: int) -> tuple:
    ids = [G.identity]
    x = g
    while x != G.identity:
        ids.append(x)
        x = G.mul(x, g)
    return tuple(ids)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def is_prime_within_cap(p: int) -> bool:
    """Whether p is a prime at most TABLE_ORDER_CAP.  The cap is tested
    first: a larger prime divides no group built, and is refused before
    its slow primality test."""
    return p <= TABLE_ORDER_CAP and _is_prime(p)


def _p_rank(order: int, p: int) -> int:
    """r with order = p^r."""
    r = 0
    while order > 1:
        order //= p
        r += 1
    return r


def rank(P, p: int) -> int:
    """The largest r with a torus of order p^r in the p-group P.  Only
    the tori above Omega1(Z(P)) are grown, by index-p steps by
    centralizing order-p elements, one representative per P-class
    extended: T·Omega1(Z(P)) is a torus for every torus T, so each
    maximal torus contains Omega1(Z(P)), and a torus above it has a
    hyperplane that contains it."""
    P = _as_subgroup(P)
    if not is_p_group(P, p):
        raise NotAPGroup("rank requires a p-group")
    if P.order == 1:
        return 0
    G, Z = P.parent, omega1(center(P), p)
    tori = _grow(P, _ambient(P, G.orders == p), Z, (p,), False)
    return _p_rank(max(T.order for T in tori), p)


def frattini_subgroup(P, p: int) -> Subgroup:
    """Frattini subgroup of a p-group: P' * P^p."""
    P = _as_subgroup(P)
    if not is_p_group(P, p):
        raise NotAPGroup("frattini_subgroup requires a p-group")
    G = P.parent
    gens = set(derived_subgroup(P).members)
    gens.update(G.powers(p)[list(P.members)].tolist())
    return Subgroup(G, G.closure(gens))


def is_extraspecial(S, p: int) -> bool:
    S = _as_subgroup(S)
    if not is_p_group(S, p) or S.order <= p:
        return False
    Z = center(S)
    if Z.order != p:
        return False
    return (derived_subgroup(S).member_set == Z.member_set
            and frattini_subgroup(S, p).member_set == Z.member_set)


def is_dihedral_2group(S) -> bool:
    """Dihedral group of order 2^n >= 8 (cyclic index-2 subgroup inverted
    by an outside involution)."""
    return _dihedral_like(S, lambda m: m - 1)


def is_semidihedral_2group(S) -> bool:
    """Semidihedral group of order 2^n >= 16: x^z = x^(2^(n-2) - 1)."""
    return _dihedral_like(S, lambda m: m // 2 - 1)


def _dihedral_like(S, twist) -> bool:
    import numpy as np
    S = _as_subgroup(S)
    G = S.parent
    if S.order < 8 or not is_p_group(S, 2):
        return False
    ids = np.array(S.members)
    big = ids[G.orders[ids] == S.order // 2].tolist()
    if not big:
        return False
    x = big[0]  # all cyclic index-2 subgroups are conjugate-equivalent
    X, target = G.closure([x]), G.powers(twist(S.order // 2))[x]
    return any(G.conj(x, z) == target and z not in X
               for z in _ambient(S, G.orders == 2))


# -- p-subgroup enumeration (for the Brown poset and Sylow counting) ----

def all_p_subgroups(S, p: int) -> list:
    """All nontrivial p-subgroups of the Group or Subgroup S, in any
    order, grown from 1 by steps H -> H<g> of index p for p-elements g
    of S that normalize H with g^p in H, one representative per S-class
    extended.  Every K is reached: it has a normal H of index p, and
    K = H<g> for every g of K outside H."""
    S = _as_subgroup(S)
    G = S.parent
    p_elements = G.powers(G.order // _p_prime_part(G.order, p)) == G.identity
    return _grow(S, _ambient(S, p_elements), G.trivial_subgroup(), (p,),
                 True)[1:]


def abelian_subgroups(S) -> list:
    """All abelian subgroups of the Group or Subgroup S, the trivial one
    first and the others in any order, grown by steps H -> H<g> of prime
    index q for the g of S that centralize H with g^q in H, one
    representative per S-class extended.  Every abelian K > 1 is
    reached: it has a subgroup of prime index, which is abelian."""
    S = _as_subgroup(S)
    G = S.parent
    primes = [q for q in range(2, S.order + 1)
              if S.order % q == 0 and _is_prime(q)]
    return _grow(S, S.members, G.trivial_subgroup(), primes, False)
