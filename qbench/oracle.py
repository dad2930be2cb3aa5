"""Answers computed apart from quillen, for the benchmark's output checks.

Nothing here imports quillen.  Groups enter only as a multiplication table
``t[x][y]`` on element ids with identity 0; complexes as collections of
vertex tuples; homology groups as ``(rank, [cyclic orders])``.  The subgroup
enumeration, chain complex and rank routine below share no code with the
program's poset and homology layers.
"""

from __future__ import annotations

from math import comb, gcd

# -- integers and finitely generated abelian groups ----------------------


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def is_p_power(n: int, p: int) -> bool:
    return p_part(n, p) == n


def _prime_powers(n: int) -> list:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            q = 1
            while n % d == 0:
                n //= d
                q *= d
            out.append(q)
        d += 1
    if n > 1:
        out.append(n)
    return out


def elementary_divisors(orders) -> list:
    """Sorted prime powers of a direct sum of finite cyclic groups."""
    return sorted(q for m in orders for q in _prime_powers(m))


def tensor(a: tuple, b: tuple) -> tuple:
    (ra, ta), (rb, tb) = a, b
    tors = ta * rb + tb * ra + [gcd(m, n) for m in ta for n in tb]
    return ra * rb, [m for m in tors if m > 1]


def tor(a: tuple, b: tuple) -> tuple:
    return 0, [g for g in (gcd(m, n) for m in a[1] for n in b[1]) if g > 1]


def direct_sum(*groups) -> tuple:
    return (sum(g[0] for g in groups),
            [m for g in groups for m in g[1]])


def normalize(profile: dict) -> dict:
    """Drop zero groups; torsion as elementary divisors."""
    return {q: (r, elementary_divisors(t)) for q, (r, t) in profile.items()
            if r or elementary_divisors(t)}


# -- closed forms for reduced homology -------------------------------------


def building_homology(n: int, q: int) -> dict:
    """Solomon-Tits: the building of GL_n(F_q) is a wedge of q^C(n,2)
    spheres of dimension n - 2."""
    return {n - 2: (q ** comb(n, 2), [])}


def join_homology(a: dict, b: dict) -> dict:
    """Milnor: H~_{m+1}(A*B) = sum_{i+j=m} H~_i(A) (x) H~_j(B)
    + sum_{i+j=m-1} Tor(H~_i(A), H~_j(B))."""
    out = {}
    for i, ga in a.items():
        for j, gb in b.items():
            out[i + j + 1] = direct_sum(out.get(i + j + 1, (0, [])),
                                        tensor(ga, gb))
            out[i + j + 2] = direct_sum(out.get(i + j + 2, (0, [])),
                                        tor(ga, gb))
    return normalize(out)


def wedge_homology(parts: list) -> dict:
    """A wedge of connected complexes has the direct sum of their reduced
    homology."""
    out = {}
    for h in parts:
        for q, g in h.items():
            out[q] = direct_sum(out.get(q, (0, [])), g)
    return normalize(out)


def expected_complex(desc: dict) -> tuple:
    """(dimension, reduced homology) of a described complex."""
    kind = desc["kind"]
    if kind == "building":
        return desc["n"] - 2, normalize(building_homology(desc["n"],
                                                          desc["q"]))
    if kind == "rp2":
        return 2, {1: (0, [2])}
    parts = [expected_complex(d) for d in desc["parts"]]
    if kind == "join":
        (da, ha), (db, hb) = parts
        return da + db + 1, join_homology(ha, hb)
    if kind == "wedge":
        return max(d for d, _ in parts), wedge_homology([h for _, h in parts])
    raise ValueError(kind)


def profile_from_rows(rows: list) -> dict:
    """The program's JSON profile rows as a normalized homology dict."""
    return normalize({r["degree"]: (r["betti"], list(r["torsion"]))
                      for r in rows})


def betti_mod_from_integral(profile: dict, ell: int, top: int) -> dict:
    """Universal coefficients: dim H~_q(F_ell) = b_q + t_q + t_{q-1},
    t_q = number of cyclic summands of H~_q of order divisible by ell."""
    def t(q):
        return sum(1 for m in profile.get(q, (0, []))[1] if m % ell == 0)
    return {q: profile.get(q, (0, []))[0] + t(q) + t(q - 1)
            for q in range(-1, top + 1)}


# -- linear algebra over F_ell ----------------------------------------------


def rank_mod(columns, ell: int) -> int:
    """Rank over F_ell of a sparse matrix given as columns {row: value},
    by column reduction on the largest row index."""
    pivots = {}
    for col in columns:
        c = {r: v % ell for r, v in col.items() if v % ell}
        while c:
            r = max(c)
            piv = pivots.get(r)
            if piv is None:
                inv = pow(c[r], -1, ell)
                pivots[r] = {i: v * inv % ell for i, v in c.items()}
                break
            f = c[r]
            for i, v in piv.items():
                w = (c.get(i, 0) - f * v) % ell
                if w:
                    c[i] = w
                else:
                    c.pop(i, None)
    return len(pivots)


def betti_mod(simplices, ell: int) -> dict:
    """Reduced Betti numbers over F_ell of the complex whose nonempty
    simplices are the given sorted vertex tuples (closed under faces):
    b_q = n_q - rank d_q - rank d_{q+1}, with augmentation d_0."""
    by_dim = {-1: [()]}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(tuple(s))
    top = max(by_dim)
    index = {q: {s: i for i, s in enumerate(sorted(v))}
             for q, v in by_dim.items()}
    ranks = {}
    for q in range(0, top + 1):
        faces = index[q - 1]
        cols = ({faces[s[:i] + s[i + 1:]]: (-1) ** i for i in range(len(s))}
                for s in index[q])
        ranks[q] = rank_mod(cols, ell)
    return {q: len(index[q]) - ranks.get(q, 0) - ranks.get(q + 1, 0)
            for q in range(-1, top + 1)}


# -- finite groups from a multiplication table -----------------------------


class TableGroup:
    """A finite group given by its multiplication table (identity 0)."""

    def __init__(self, table):
        self.t = [list(map(int, row)) for row in table]
        self.n = len(self.t)
        self.inv = [row.index(0) for row in self.t]
        self.orders = [self._order(x) for x in range(self.n)]

    def _order(self, x: int) -> int:
        k, y = 1, x
        while y != 0:
            y = self.t[y][x]
            k += 1
        return k

    def closure(self, gens, start=frozenset([0])) -> frozenset:
        """The subgroup generated by ``start`` (a subgroup) and ``gens``."""
        gens = [g for g in set(gens) if g != 0]
        seen, frontier = set(start), list(start)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.t[x][g]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)

    def conjugacy_class(self, x: int) -> set:
        t, inv = self.t, self.inv
        return {t[t[inv[h]][x]][h] for h in range(self.n)}

    def radical(self, below: frozenset, ok) -> frozenset:
        """Preimage of O_pi(G/K) for a normal subgroup K = ``below``,
        where ``ok(m)`` says whether the order m is a pi-number: the join
        of all normal subgroups N >= K with ok(|N/K|)."""
        R = below
        grown = True
        while grown:
            grown = False
            for x in range(self.n):
                if x in R:
                    continue
                # R is normal, so <R, x^G> = R<x^G> is the normal closure
                N = self.closure(self.conjugacy_class(x), start=R)
                if ok(len(N) // len(below)):
                    R, grown = N, True
        return R

    def o_p(self, p: int) -> frozenset:
        return self.radical(frozenset([0]), lambda m: is_p_power(m, p))

    def o_p_prime(self, p: int) -> frozenset:
        return self.radical(frozenset([0]), lambda m: m % p != 0)

    def p_length(self, p: int) -> int:
        """Number of p-factors in the upper p-series
        1 <= O_p' <= O_p',p <= O_p',p,p' <= ... = G (G solvable)."""
        K, ell, phase_p = frozenset([0]), 0, False
        while len(K) < self.n:
            ok = (lambda m: is_p_power(m, p)) if phase_p \
                else (lambda m: m % p != 0)
            N = self.radical(K, ok)
            if len(N) > len(K):
                ell += phase_p
                K = N
            elif phase_p:
                raise ValueError("upper p-series stalled: not p-solvable")
            phase_p = not phase_p
        return ell

    def elementary_abelian_subgroups(self, p: int) -> list:
        """All nontrivial elementary abelian p-subgroups, as frozensets,
        grown one commuting order-p element at a time."""
        t = self.t
        gens = [x for x in range(self.n) if self.orders[x] == p]
        level = {self.closure([x]) for x in gens}
        found = set(level)
        while level:
            nxt = set()
            for E in level:
                for g in gens:
                    if g in E or any(t[g][x] != t[x][g] for x in E):
                        continue
                    nxt.add(frozenset(t[e][c] for e in E
                                      for c in self.closure([g])))
            level = nxt - found
            found |= level
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def sylow_rank(self, p: int) -> int:
        """Largest r with an elementary abelian subgroup of order p^r."""
        big = max(map(len, self.elementary_abelian_subgroups(p)), default=1)
        r = 0
        while p ** r < big:
            r += 1
        return r

    def sylow_count_order_p(self, p: int) -> int:
        """Number of Sylow p-subgroups when they have order p."""
        return sum(1 for o in self.orders if o == p) // (p - 1)


def chains(nodes: list) -> list:
    """All nonempty chains of proper inclusion among ``nodes``
    (frozensets), as sorted tuples of node indices."""
    n = len(nodes)
    up = [[j for j in range(n) if nodes[i] < nodes[j]] for i in range(n)]
    out = []

    def grow(chain):
        out.append(tuple(chain))
        for j in up[chain[-1]]:
            grow(chain + [j])

    for i in range(n):
        grow([i])
    return out


def torus_complex(G: TableGroup, p: int) -> tuple:
    """(node count, simplices) of the order complex of the nontrivial
    elementary abelian p-subgroups of G."""
    nodes = G.elementary_abelian_subgroups(p)
    return len(nodes), chains(nodes)
