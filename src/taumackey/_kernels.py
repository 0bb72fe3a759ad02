"""The hot orbit-labeling kernel.

Every orbit scan in the package (conjugacy classes, subgroups and their
spans, the class blocks of the simultaneous-conjugation scan, coset
spaces) reduces to one primitive: label each state of a grid
{0..n-1}^d (d = 1 or 2, state ids row-major) with the minimum state id
in its orbit under the group generated by some moves, each move one
permutation of {0..n-1} per coordinate.  Only the coset-space pair scan,
`gelfand.orbit_analysis`, passes d = 2.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded


def _gather(src: np.ndarray, move: np.ndarray, out: np.ndarray, buf: np.ndarray) -> None:
    """out[s] = src[move(s)] on the grid, one take per axis: axis 0 copies
    whole rows, axis 1 gathers inside each row, so no index array of the
    state count is ever formed.  mode="clip" gathers straight into ``out``;
    the default mode gathers into a bounds-checked copy first."""
    if len(move) == 1:
        src.take(move[0], out=out, mode="clip")
    else:
        src.reshape(buf.shape).take(move[0], axis=0, out=buf, mode="clip")
        buf.take(move[1], axis=1, out=out.reshape(buf.shape), mode="clip")


def orbit_labels(moves: np.ndarray) -> np.ndarray:
    """Label each state with the minimum state id reachable under the moves.

    ``moves`` has shape ``(n_moves, d, n)``: move j sends state (x_0, ..,
    x_{d-1}) to (moves[j, 0, x_0], .., moves[j, d-1, x_{d-1}]), and each row
    is a permutation.  A 2-D ``(n_moves, n)`` array is the case d = 1.
    Returns an int32 array of the n^d state ids in row-major order, where
    equal labels mean same orbit and each label is the orbit's minimum
    state id.  A grid of 2^31 states or more is refused, as its ids do not
    fit int32; the default budgets never reach it, as ORDER_CAP^2 < 2^31.

    Each round is the hook-and-shortcut step of Shiloach and Vishkin's
    connectivity algorithm (J. Algorithms 3, 1982):

    - propagate: for every move m, each state i takes the smaller of its
      label and that of m(i), then the smaller of its label and that of
      m^-1(i) (a gather by the inverse coordinate permutations, which
      gives what scattering i's label to m(i) would give, as m is a
      permutation);
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
    moves = np.asarray(moves, dtype=np.intp)
    if moves.ndim == 2:
        moves = moves[:, None, :]
    k, d, n = moves.shape
    if n**d > np.iinfo(np.int32).max:
        raise BudgetExceeded(f"{n}^{d} states exceed the int32 state ids")
    # One 1-D scatter per row: on these shapes it beats a single scatter of
    # every row at once, whose index needs an offset added to each entry.
    inverses = np.empty_like(moves)
    ids = np.arange(n)
    for row, inverse in zip(moves.reshape(k * d, n), inverses.reshape(k * d, n)):
        inverse[row] = ids
    labels = np.arange(n**d, dtype=np.int32)
    # the labels as of the last compress, kept as intp: the hook and every
    # compress jump index by it, and an int32 index would be copied to intp
    prev = np.empty(n**d, dtype=np.intp)
    tmp = np.empty_like(labels)
    buf = np.empty((n, n) if d > 1 else 0, dtype=np.int32)
    first = True
    while True:
        settled = True
        for m, inv in zip(moves, inverses):
            _gather(labels, m, tmp, buf)
            if (tmp == labels).all():
                continue
            settled = False
            np.minimum(labels, tmp, out=labels)
            _gather(labels, inv, tmp, buf)
            np.minimum(labels, tmp, out=labels)
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
            np.copyto(prev, labels)
            labels.take(prev, out=tmp, mode="clip")
            if (tmp == labels).all():
                break
            labels, tmp = tmp, labels


def orbit_representatives(labels: np.ndarray) -> np.ndarray:
    """Sorted orbit representatives of ``orbit_labels`` output: each orbit's
    minimum state is exactly a state labelled with itself."""
    return np.flatnonzero(labels == np.arange(len(labels), dtype=labels.dtype))
