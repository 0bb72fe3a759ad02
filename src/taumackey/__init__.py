"""Exact representation-theoretic checks on small finite groups equipped
with an involutory anti-automorphism: twisted Frobenius-Schur indicators,
simple-reducibility criteria cross-validated three ways, Gelfand-pair
criteria, and spherical-function identities."""

__version__ = "0.1.0"

import os

# One BLAS thread unless the user sets another count.  The tables are at
# most 200 x 200, too small to gain from a second thread, and OpenBLAS's
# idle worker spins on a core after each call, slowing a process started
# beside it.  This must run before the first import of numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .characters import (
    CharacterTable,
    compute_character_table,
    fs_indicators,
    twisted_fs_indicators,
)
from .conjugacy import conjugacy_classes, count_twisted_squares, power_sum_report
from .criteria import SRVerdict, simply_reducible_verdict
from .gelfand import build_coset_space, condition_star, gelfand_criteria_report
from .groups import (
    GroupTable,
    construct_family,
    construct_semidirect_with_involution,
    direct_product,
    enumerate_from_generators,
    subgroup_closure,
)
from .morphisms import (
    GroupMap,
    tau_clifford,
    tau_from_generator_images,
    tau_identity,
    tau_inner,
    tau_inverse,
    validate,
)

__all__ = [
    "CharacterTable",
    "GroupMap",
    "GroupTable",
    "SRVerdict",
    "build_coset_space",
    "compute_character_table",
    "condition_star",
    "conjugacy_classes",
    "construct_family",
    "construct_semidirect_with_involution",
    "count_twisted_squares",
    "direct_product",
    "enumerate_from_generators",
    "fs_indicators",
    "gelfand_criteria_report",
    "power_sum_report",
    "simply_reducible_verdict",
    "subgroup_closure",
    "tau_clifford",
    "tau_from_generator_images",
    "tau_identity",
    "tau_inner",
    "tau_inverse",
    "twisted_fs_indicators",
    "validate",
    "__version__",
]
