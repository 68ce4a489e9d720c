"""Automorphism groups of cyclic covers of the sphere.

Classifies the full automorphism group of curves y^n = f(x) branched over
three points, with independent verification through coset enumeration,
abelianization, monodromy genus counts, and exact map checks over prime fields.
"""

from .classifier import (
    ClassificationReport,
    GroupDescriptor,
    classify_belyi,
    classify_cover,
    classify_fermat,
    classify_lefschetz,
    lefschetz_isomorphic,
)
from .curve import CyclicCover, belyi_cover, fermat_cover, genus, lefschetz_cover, parse_curve
from .grouptheory import (
    BudgetExceeded,
    abelianization,
    coset_enumerate,
    parse_permutations,
    parse_presentation,
    perm_order,
)
from .numtheory import DomainError
from .verify import cross_check, enumerate_classes, run_scenario, sample_curve

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "ClassificationReport",
    "CyclicCover",
    "DomainError",
    "GroupDescriptor",
    "abelianization",
    "belyi_cover",
    "classify_belyi",
    "classify_cover",
    "classify_fermat",
    "classify_lefschetz",
    "coset_enumerate",
    "cross_check",
    "enumerate_classes",
    "fermat_cover",
    "genus",
    "lefschetz_cover",
    "lefschetz_isomorphic",
    "parse_curve",
    "parse_permutations",
    "parse_presentation",
    "perm_order",
    "run_scenario",
    "sample_curve",
    "__version__",
]
