"""The hot orbit-labeling kernel.

Every orbit scan in the package (conjugacy classes, simultaneous
conjugation on pairs, coset-space products) reduces to one primitive:
given permutations ``moves[j]`` of ``{0..n-1}``, label each state with the
minimum state index in its orbit under the group the moves generate.
"""

from __future__ import annotations

import numpy as np


def orbit_labels(moves: np.ndarray) -> np.ndarray:
    """Label each state with the minimum index reachable under the moves.

    ``moves`` has shape ``(n_moves, n_states)``; each row is a permutation.
    Returns an int64 array where equal labels mean same orbit and each
    label is the orbit's minimum state index.  Min-label propagation along
    the moves and their inverses, with pointer doubling.
    """
    moves = np.asarray(moves, dtype=np.int64)
    if moves.ndim != 2:
        raise ValueError("moves must be a (n_moves, n_states) array")
    n = moves.shape[1]
    both = list(moves)
    for m in moves:
        inv = np.empty(n, dtype=np.int64)
        inv[m] = np.arange(n, dtype=np.int64)
        both.append(inv)
    labels = np.arange(n, dtype=np.int64)
    while True:
        prev = labels
        for m in both:
            labels = np.minimum(labels, labels[m])
        labels = np.minimum(labels, labels[labels])
        if np.array_equal(labels, prev):
            return labels


def orbit_representatives(labels: np.ndarray) -> np.ndarray:
    """Sorted orbit representatives of ``orbit_labels`` output: each orbit's
    minimum state is exactly a state labelled with itself."""
    return np.flatnonzero(labels == np.arange(len(labels)))
