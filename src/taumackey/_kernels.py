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
    label is the orbit's minimum state index.

    Each round is the hook-and-shortcut step of Shiloach and Vishkin's
    connectivity algorithm (J. Algorithms 3, 1982):

    - propagate: for every move m, each state i takes the smaller of its
      label and that of m(i), then m(i) takes the smaller of its label and
      that of i (a scatter, exact because m is a permutation);
    - hook: each label held at the start of the round takes the minimum of
      the labels now held by the states that pointed to it;
    - compress: jump ``labels[labels]`` until it stops changing.

    It is exact because every step keeps two invariants: ``labels[i]`` is a
    member of the orbit of i, and ``labels[i] <= i``.  Labels never rise,
    and every round that does not return and every jump that does not end
    the compress lowers one, so the kernel terminates.  It returns after a
    sweep in which ``labels[m] == labels`` for every move, which changed
    nothing: the labels are then constant along every move and its inverse,
    hence on every orbit, and a constant that is a member of the orbit and
    at most each of its members is the orbit minimum.
    """
    moves = np.asarray(moves, dtype=np.int64)
    n = moves.shape[1]
    labels = np.arange(n, dtype=np.int64)
    prev = np.empty(n, dtype=np.int64)
    tmp = np.empty(n, dtype=np.int64)
    first = True
    while True:
        settled = True
        for m in moves:
            # mode="clip" gathers straight into ``out``; the default mode
            # gathers into a bounds-checked copy first.
            labels.take(m, out=tmp, mode="clip")
            if (tmp == labels).all():
                continue
            settled = False
            np.minimum(labels, tmp, out=labels)
            labels.take(m, out=tmp, mode="clip")
            np.minimum(tmp, labels, out=tmp)
            labels[m] = tmp
        if settled:
            return labels
        # In the first round every state pointed to itself: nothing to hook.
        # The values are a copy in ``tmp``: given ``labels`` itself, ufunc.at
        # would allocate a copy of its own.
        if not first:
            np.copyto(tmp, labels)
            np.minimum.at(labels, prev, tmp)
        first = False
        while True:
            labels.take(labels, out=tmp, mode="clip")
            if (tmp == labels).all():
                break
            labels, tmp = tmp, labels
        np.copyto(prev, labels)


def orbit_representatives(labels: np.ndarray) -> np.ndarray:
    """Sorted orbit representatives of ``orbit_labels`` output: each orbit's
    minimum state is exactly a state labelled with itself."""
    return np.flatnonzero(labels == np.arange(len(labels)))
