"""Finite solvable groups, p-subgroup complexes, exact integral
homology, and mechanical verification of structural predictions."""

from .errors import QuillenError
from .group import (
    DEFAULT_ELEMENT_CAP,
    Group,
    Subgroup,
    group_from_generators,
)
from .constructions import GroupSpec, build, catalog, catalog_group, catalog_names
from .poset import (
    SimplicialComplex,
    SubgroupPoset,
    ab_poset,
    brown_poset,
    find_conjunctive_element,
    order_complex,
    quillen_poset,
    upper_interval,
)
from .homology import (
    HomologyProfile,
    SphericityVerdict,
    TorusComplex,
    reduced_homology,
    smith_normal_form,
    sphericity,
)
from .theorems import (
    StructureReport,
    TheoremVerdict,
    classify_odd_p_group,
    decompose_2group,
    main_theorem_check,
    p_length_bound_check,
    upper_interval_check,
    verify_pulkus_welker,
)
from .report import AnalysisReport, group_stats

__version__ = "1.0.0"

__all__ = [
    "AnalysisReport",
    "DEFAULT_ELEMENT_CAP",
    "Group",
    "GroupSpec",
    "HomologyProfile",
    "QuillenError",
    "SimplicialComplex",
    "SphericityVerdict",
    "StructureReport",
    "Subgroup",
    "SubgroupPoset",
    "TheoremVerdict",
    "TorusComplex",
    "ab_poset",
    "brown_poset",
    "build",
    "catalog",
    "catalog_group",
    "catalog_names",
    "classify_odd_p_group",
    "decompose_2group",
    "find_conjunctive_element",
    "group_from_generators",
    "group_stats",
    "main_theorem_check",
    "order_complex",
    "p_length_bound_check",
    "quillen_poset",
    "reduced_homology",
    "smith_normal_form",
    "sphericity",
    "upper_interval",
    "upper_interval_check",
    "verify_pulkus_welker",
]
