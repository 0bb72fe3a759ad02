"""Exact representation-theoretic checks on small finite groups equipped
with an involutory anti-automorphism: twisted Frobenius-Schur indicators,
simple-reducibility criteria cross-validated three ways, Gelfand-pair
criteria, and spherical-function identities.

The public names load their module, and so numpy, on first access
(PEP 562), so that a run that computes nothing never imports numpy."""

__version__ = "0.1.0"

import importlib
import os

# One BLAS thread unless the user sets another count.  The tables are at
# most 200 x 200, too small to gain from a second thread, and OpenBLAS's
# idle worker spins on a core after each call, slowing a process started
# beside it.  This must run before the first import of numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Budgets and the default seed, here so that the CLI reads them without
# loading the math modules; those modules bind them from here.
ORDER_CAP = 20000
PAIR_BUDGET = 4_000_000
CLASS_CAP = 200
DEFAULT_SEED = 1729

_EXPORTS = {
    "characters": ("CharacterTable", "compute_character_table", "fs_indicators",
                   "twisted_fs_indicators"),
    "conjugacy": ("conjugacy_classes", "count_twisted_squares", "power_sum_report"),
    "criteria": ("SRVerdict", "simply_reducible_verdict"),
    "gelfand": ("build_coset_space", "condition_star", "gelfand_criteria_report"),
    "groups": ("GroupTable", "construct_family", "construct_semidirect_with_involution",
               "direct_product", "enumerate_from_generators", "subgroup_closure"),
    "morphisms": ("GroupMap", "tau_clifford", "tau_from_generator_images", "tau_identity",
                  "tau_inner", "tau_inverse", "validate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))


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
