"""Analysis report assembly: deterministic JSON documents combining
group statistics, homology profiles, verdicts, and timings.  The
homology-proxy caveat is embedded in every report."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import group as gp
from .homology import HOMOLOGY_PROXY_CAVEAT, TorusComplex

VERSION = "1.0"


@dataclass
class AnalysisReport:
    command: str
    spec: dict                  # input GroupSpec echo
    group_stats: dict
    analyses: dict              # name -> json-able payload
    timings: dict = field(default_factory=dict)  # stage -> seconds

    def to_json(self) -> dict:
        return {"version": VERSION,
                "command": self.command,
                "spec": self.spec,
                "group": self.group_stats,
                "analyses": self.analyses,
                "caveat": HOMOLOGY_PROXY_CAVEAT,
                "timings": {k: round(v, 3) for k, v in self.timings.items()}}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True,
                          indent=2, ensure_ascii=False) + "\n"

    def render_text(self) -> str:
        lines = [f"== {self.command} ==",
                 f"group: {self.group_stats.get('label') or '(unnamed)'} "
                 f"order {self.group_stats['order']}"]
        for k in sorted(self.group_stats):
            if k in ("label", "order"):
                continue
            lines.append(f"  {k}: {self.group_stats[k]}")
        for name in sorted(self.analyses):
            lines.append(f"-- {name} --")
            lines.append(_render_value(self.analyses[name], indent="  "))
        lines.append(f"note: {HOMOLOGY_PROXY_CAVEAT}")
        return "\n".join(lines) + "\n"


def _render_value(v, indent="") -> str:
    if isinstance(v, dict):
        return "\n".join(f"{indent}{k}: {_render_inline(v[k])}"
                         for k in sorted(v))
    return f"{indent}{_render_inline(v)}"


def _render_inline(v) -> str:
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True, ensure_ascii=False)
    return str(v)


def group_stats(T: TorusComplex) -> dict:
    """G's statistics, and those of its p-local data when p | |G|."""
    G = T.group
    stats = {"label": G.label, "order": G.order, "solvable": T.solvable}
    if G.order % T.prime == 0:
        P, Pp = T.sylow, T.sylow_derived
        stats["sylow_order"] = P.order
        stats["sylow_abelian"] = gp.is_abelian(P)
        stats["sylow_derived_order"] = Pp.order
        stats["sylow_derived_cyclic"] = gp.is_cyclic(Pp)
        stats["sylow_rank"] = T.rank
        stats["o_p_order"] = T.o_p.order
        stats["o_p_prime_order"] = T.o_p_prime.order
    return stats
