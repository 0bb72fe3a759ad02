"""Exact representation-theoretic checks on small finite groups equipped
with an involutory anti-automorphism: twisted Frobenius-Schur indicators,
simple-reducibility criteria cross-validated three ways, Gelfand-pair
criteria, and spherical-function identities.

Each name is imported from its own module, for example
``from taumackey.characters import compute_character_table``.  The package
itself defines only the version, the budgets, the default seed and the BLAS
thread default, so importing it never imports numpy."""

__version__ = "0.1.0"

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
