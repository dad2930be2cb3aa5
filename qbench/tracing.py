"""Per-layer tracing of quillen from outside the package.

``Tracer.install`` replaces every binding of the traced functions in every
quillen module (``cli`` and ``theorems`` import names directly, e.g.
``from .homology import reduced_homology``), wraps three class entry points
(``Group.__init__``, ``SubgroupPoset.__init__`` and
``SimplicialComplex.import_text``) and records one span per call: name,
start, end and parent span.  Spans stay in memory until ``write_spans``.

A span's self time is its duration minus the time covered by its child
spans.  Size counters are computed in the wrappers from arguments and
results.  ``Tracer.uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

# Called once per element while a group is enumerated: a span each would
# cost more than the work it measures.
UNTRACED = {"group.compose", "group.invert", "group.validate_permutation"}

MODULES = ("group", "constructions", "poset", "homology", "theorems",
           "report", "cli")

GROUP_CONSTRUCTION = {"group.Group", "group.group_from_generators",
                      "group.group_from_table"}
GROUP_ENUMERATION = {"group.elementary_abelian_subgroups",
                     "group.all_p_subgroups", "group.all_subgroups",
                     "group.abelian_subgroups"}
SNF = {"homology.boundary_matrix", "homology.smith_normal_form",
       "homology.reduced_homology", "homology.sphericity"}
CM = {"homology.is_cohen_macaulay", "poset.link"}


def layer_of(name: str) -> str:
    """The layer a traced function belongs to (see the README's map)."""
    if name in GROUP_CONSTRUCTION:
        return "group.construction"
    if name in GROUP_ENUMERATION:
        return "group.enumeration"
    if name in SNF:
        return "homology.snf"
    if name in CM:
        return "homology.cm"
    module = name.split(".")[0]
    return "group.primitives" if module == "group" else module


def _count_group(c, args, kwargs, result):
    G = args[0]
    c["group.table_bytes"] += 4 * G.order * G.order


def _count_poset(c, args, kwargs, result):
    c["poset.nodes"] += len(args[0].nodes)


def _count_complex(c, args, kwargs, result):
    c["poset.simplices"] += len(result.simplices)


def _count_snf(c, args, kwargs, result):
    factors, rank = result
    m = args[0]  # a dict {(i, j): value} or a dense row list
    entries = m.values() if isinstance(m, dict) else (v for r in m for v in r)
    c["homology.snf_nonzeros"] += sum(1 for v in entries if v)
    c["homology.snf_rank"] += rank
    c["homology.snf_torsion_factors"] += sum(1 for f in factors if f > 1)


COUNTERS = {
    "group.Group": _count_group,
    "poset.SubgroupPoset": _count_poset,
    "poset.order_complex": _count_complex,
    "poset.SimplicialComplex.import_text": _count_complex,
    "homology.smith_normal_form": _count_snf,
}


class Tracer:
    def __init__(self):
        self.spans = []           # (name, start, end, parent index or -1)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()
        self._stack = []          # [span index, time covered by children]
        self._undo = []

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack = self.spans, self._stack
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
                self_s[name] += (t1 - t0) - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += t1 - t0
            if count is not None:
                # an __init__ wrapper sees the constructed object as args[0]
                count(self.counters, args, kwargs, result)
            return result
        return traced

    def install(self, package) -> None:
        """Wrap the public functions of each quillen module and rebind
        every module attribute that refers to one of them."""
        mods = {m: importlib.import_module(f"{package.__name__}.{m}")
                for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[obj] = self._wrap(name, obj)
        for mod in [package, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        group, poset = mods["group"], mods["poset"]
        for cls, attr, name in (
                (group.Group, "__init__", "group.Group"),
                (poset.SubgroupPoset, "__init__", "poset.SubgroupPoset"),
                (poset.SimplicialComplex, "import_text",
                 "poset.SimplicialComplex.import_text")):
            raw = cls.__dict__[attr]
            self._undo.append((cls, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name,
                                                           raw.__func__)))
            else:
                setattr(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def layer_self_s(self) -> dict:
        out = defaultdict(float)
        for name, s in self.self_s.items():
            out[layer_of(name)] += s
        return dict(out)

    def write_spans(self, path: str, origin: float) -> None:
        """Spans as [name index, start, end, parent] with times in seconds
        from ``origin``, one JSON document."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[index[n], round(a - origin, 7),
                                  round(b - origin, 7), p]
                                 for n, a, b, p in self.spans]}, fh)
