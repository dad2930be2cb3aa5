"""Seeded inputs for the four benchmark workloads.

``python3 qbench/inputs.py --workload W --seed N --out DIR`` is the set-up
step that ``run.py`` times: a fresh interpreter imports quillen, generates
the workload's inputs from the seed, writes them under DIR and lists the
operations of one pass in ``DIR/ops.json``.  The same seed always gives the
same files.

Every operation is one ``quillen`` command line.  Each ``expect`` block holds
what the output checks need to know about the input (factor specs, the
closed-form structure of a complex); the checks compute the expected
answers from it themselves.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

WORKLOADS = ("catalog-suite", "cm-products", "group-products",
             "complex-homology")

MANIFEST = os.path.join("src", "quillen", "suite_manifest.json")

# -- group specs ---------------------------------------------------------


def named(name: str) -> dict:
    return {"kind": "named", "params": {"name": name}}


def direct_product(factors: list) -> dict:
    return {"kind": "direct_product", "params": {"factors": factors}}


def _frobenius(q: int, unit: int) -> dict:
    """C_q : C_3 with the generator of C_3 acting as x -> x^unit."""
    return {"kind": "semidirect_product",
            "params": {"n": {"kind": "cyclic", "params": {"order": q}},
                       "h": {"kind": "cyclic", "params": {"order": 3}},
                       "action": {"gen_images": [[unit]]}}}


def _dihedral_perm(m: int, rng: random.Random) -> dict:
    """D_2m as rotations and a seeded reflection of the m-gon (1-based)."""
    rot = [i % m + 1 for i in range(1, m + 1)]
    s = rng.randrange(m)
    ref = [(s - i) % m + 1 for i in range(m)]
    return {"kind": "perm", "params": {"degree": m,
                                       "generators": [rot, ref]}}


def cm_factor(name: str, rng: random.Random) -> dict:
    """A seeded presentation of one cm-products factor.  Every choice
    gives an isomorphic group of the same permutation degree."""
    if name == "S3":
        return rng.choice([named("S3"),
                           {"kind": "dihedral", "params": {"order": 6}},
                           _dihedral_perm(3, rng)])
    if name in ("D10", "D14"):
        m = int(name[1:]) // 2
        return rng.choice([{"kind": "dihedral", "params": {"order": 2 * m}},
                           _dihedral_perm(m, rng)])
    if name == "C7:C3":
        return _frobenius(7, rng.choice([2, 4]))
    raise ValueError(name)


# Each factor has a Sylow p-subgroup of order p and O_p = 1, so the torus
# complex of a product of k of them is a wedge of spheres of dimension k-1.
# The composition of a pass is fixed and short (about 3.5 s), so that a run
# repeats every operation several times; the seed picks factor order and
# presentation, which leave the amount of work nearly unchanged.
CM_PRODUCTS = (
    (("S3", "S3", "S3"), 2),
    (("D10", "D14"), 2),
    (("S3", "D14"), 2),
    (("D14", "D14"), 2),
    (("S3", "D10"), 2),
    (("S3", "S3"), 2),
    (("C7:C3", "C7:C3"), 3),
)

# Products of catalog groups of order 288-504 with at most one factor whose
# Sylow p-subgroup is non-abelian, so P' stays cyclic; a pass takes about
# 4.5 s.
GROUP_PRODUCTS = (
    ("plength", ("S4", "A4"), 2),
    ("decompose", ("S4", "A4"), 2),
    ("plength", ("S4", "C5:V4"), 2),
    ("decompose", ("S4", "C7:C3"), 3),
    ("plength", ("SL(2,3)", "C7:C3"), 3),
    ("decompose", ("C3C3:SL(2,3)", "C2"), 3),
)

# -- simplicial complexes -------------------------------------------------

RP2_FACETS = ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
              (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3))


def building(n: int, q: int) -> tuple:
    """Tits building of GL_n(F_q): the flag complex of proper nonzero
    subspaces of F_q^n.  Returns (vertex count, facets = complete flags)."""
    N = q ** n
    digits = [[(v // q ** i) % q for i in range(n)] for v in range(N)]

    def enc(ds):
        return sum(d * q ** i for i, d in enumerate(ds))

    add = [[enc([(a + b) % q for a, b in zip(digits[u], digits[v])])
            for v in range(N)] for u in range(N)]
    scale = [[enc([c * a % q for a in digits[v]]) for v in range(N)]
             for c in range(q)]
    by_dim = {0: [frozenset([0])]}
    for k in range(1, n):
        seen = {}
        for S in by_dim[k - 1]:
            for v in range(1, N):
                if v in S:
                    continue
                T = frozenset(add[s][scale[c][v]] for s in S for c in range(q))
                seen.setdefault(T, None)
        by_dim[k] = sorted(seen, key=sorted)
    verts = [S for k in range(1, n) for S in by_dim[k]]
    index = {S: i for i, S in enumerate(verts)}
    facets = []

    def extend(chain, k):
        if k == n:
            facets.append(tuple(index[S] for S in chain))
            return
        for T in by_dim[k]:
            if chain[-1] < T:
                extend(chain + [T], k + 1)

    for V in by_dim[1]:
        extend([V], 2)
    return len(verts), facets


def join(a: tuple, b: tuple) -> tuple:
    na, fa = a
    nb, fb = b
    return na + nb, [x + tuple(na + v for v in y) for x in fa for y in fb]


def wedge(pieces: list) -> tuple:
    """Glue vertex 0 of every piece to one common vertex."""
    facets, nxt = [], 1
    for n, fs in pieces:
        ren = {0: 0, **{v: nxt + v - 1 for v in range(1, n)}}
        facets.extend(tuple(ren[v] for v in f) for f in fs)
        nxt += n - 1
    return nxt, facets


def realize(desc: dict) -> tuple:
    kind = desc["kind"]
    if kind == "building":
        return building(desc["n"], desc["q"])
    if kind == "rp2":
        return 6, list(RP2_FACETS)
    parts = [realize(d) for d in desc["parts"]]
    if kind == "join":
        return join(*parts)
    if kind == "wedge":
        return wedge(parts)
    raise ValueError(kind)


def B(n: int, q: int) -> dict:
    return {"kind": "building", "n": n, "q": q}


RP2 = {"kind": "rp2"}

# The Tor term of the join formula shows on RP2 * RP2; buildings give
# large free groups, joins with RP2 give (Z/2)^m.  A pass takes about 3.5 s.
COMPLEXES = (
    {"kind": "join", "parts": [B(3, 3), RP2]},
    {"kind": "join", "parts": [RP2, RP2]},
    {"kind": "join", "parts": [B(3, 2), RP2]},
    {"kind": "join", "parts": [B(3, 2), B(3, 2)]},
    B(4, 2),
    B(3, 5),
    {"kind": "wedge", "parts": [B(3, 3), RP2, B(3, 2),
                                {"kind": "join", "parts": [RP2, RP2]}]},
)


def _shuffled_desc(desc: dict, rng: random.Random) -> dict:
    """Reorder join factors and wedge pieces: the same complex up to
    relabelling."""
    if desc["kind"] not in ("join", "wedge"):
        return desc
    parts = [_shuffled_desc(d, rng) for d in desc["parts"]]
    rng.shuffle(parts)
    return {"kind": desc["kind"], "parts": parts}


def complex_text(desc: dict, rng: random.Random) -> str:
    """Facet list with seeded vertex ids, facet order and vertex order."""
    n, facets = realize(desc)
    perm = list(range(n))
    rng.shuffle(perm)
    lines = []
    for f in facets:
        vs = [perm[v] for v in f]
        rng.shuffle(vs)
        lines.append(" ".join(map(str, vs)))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


# -- workload generators ---------------------------------------------------


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)


def catalog_suite_ops(out: str, rng: random.Random, rows=None) -> list:
    """One operation per manifest row, without the two C3^4 witnesses;
    ``rows`` restricts to these (name, prime) pairs."""
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    ops = []
    rows = [r for r in manifest["instances"]
            if not r["name"].startswith("C3^4")
            and (rows is None or (r["name"], r["prime"]) in rows)]
    for i, row in enumerate(rows):
        path = os.path.join(out, f"row{i:02d}.json")
        _write_json(path, {"version": manifest["version"],
                           "instances": [row]})
        ops.append({"name": f"suite {row['name']} p={row['prime']}",
                    "argv": ["suite", "--manifest", path, "--format", "json"],
                    "expect": {"name": row["name"], "prime": row["prime"],
                               "checks": row["checks"]}})
    return ops


def cm_products_ops(out: str, rng: random.Random,
                    products=CM_PRODUCTS) -> list:
    ops = []
    for i, (names, p) in enumerate(products):
        names = list(names)
        rng.shuffle(names)
        factors = [cm_factor(n, rng) for n in names]
        path = os.path.join(out, f"cm{i}.json")
        _write_json(path, direct_product(factors))
        ops.append({"name": f"main-check {'x'.join(names)} p={p}",
                    "argv": ["main-check", path, "--prime", str(p),
                             "--format", "json"],
                    "expect": {"factors": factors, "prime": p}})
    return ops


def group_products_ops(out: str, rng: random.Random,
                       products=GROUP_PRODUCTS) -> list:
    ops = []
    for i, (cmd, names, p) in enumerate(products):
        names = list(names)
        rng.shuffle(names)
        factors = [named(n) for n in names]
        path = os.path.join(out, f"gp{i}.json")
        _write_json(path, direct_product(factors))
        ops.append({"name": f"{cmd} {'x'.join(names)} p={p}",
                    "argv": [cmd, path, "--prime", str(p),
                             "--format", "json"],
                    "expect": {"command": cmd, "factors": factors,
                               "prime": p}})
    return ops


def complex_homology_ops(out: str, rng: random.Random,
                         complexes=COMPLEXES) -> list:
    ops = []
    for i, desc in enumerate(complexes):
        desc = _shuffled_desc(desc, rng)
        path = os.path.join(out, f"cx{i}.txt")
        with open(path, "w") as fh:
            fh.write(complex_text(desc, rng))
        ops.append({"name": f"homology {describe(desc)}",
                    "argv": ["homology", path, "--format", "json"],
                    "expect": {"complex": desc}})
    return ops


def describe(desc: dict) -> str:
    kind = desc["kind"]
    if kind == "building":
        return f"B(GL{desc['n']}(F{desc['q']}))"
    if kind == "rp2":
        return "RP2"
    sep = " * " if kind == "join" else " v "
    return "(" + sep.join(describe(d) for d in desc["parts"]) + ")"


GENERATORS = {
    "catalog-suite": catalog_suite_ops,
    "cm-products": cm_products_ops,
    "group-products": group_products_ops,
    "complex-homology": complex_homology_ops,
}


def make_inputs(workload: str, seed: int, out: str) -> list:
    """Write the inputs of one pass under ``out``; return its operations
    in the seeded order in which every pass runs them."""
    os.makedirs(out, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    ops = GENERATORS[workload](out, rng)
    if workload != "catalog-suite":
        rng.shuffle(ops)
    _write_json(os.path.join(out, "ops.json"), ops)
    return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    import quillen  # noqa: F401  (set-up time includes the import)
    make_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
