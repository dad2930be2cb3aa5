"""Reference constructions that only the tests use: poset intervals, the
Hasse diagram, facets and the reduced Euler characteristic, each by the
direct definition."""

from quillen.poset import SimplicialComplex, SubgroupPoset


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
