import numpy as np
import pytest

from taumackey import _kernels


def _reference_labels(moves):
    """Plain BFS reference."""
    n = moves.shape[1]
    labels = -np.ones(n, dtype=np.int64)
    for start in range(n):
        if labels[start] >= 0:
            continue
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for m in moves:
                for y in (int(m[x]), int(np.flatnonzero(m == x)[0])):
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
        lab = min(comp)
        for x in comp:
            labels[x] = lab
    return labels


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n,m", [(1, 1), (7, 2), (40, 3), (101, 4)])
def test_numpy_path_matches_reference(seed, n, m):
    rng = np.random.default_rng(seed * 1000 + n)
    moves = np.stack([rng.permutation(n) for _ in range(m)])
    got = _kernels.orbit_labels(moves)
    assert np.array_equal(got, _reference_labels(moves))


def test_labels_are_orbit_minima():
    rng = np.random.default_rng(7)
    moves = np.stack([rng.permutation(64) for _ in range(2)])
    labels = _kernels.orbit_labels(moves)
    for rep in np.unique(labels):
        members = np.flatnonzero(labels == rep)
        assert members.min() == rep
        # orbit closed under the moves
        for m in moves:
            assert set(labels[m[members]]) == {rep}


def test_no_moves_gives_singletons():
    out = _kernels.orbit_labels(np.empty((0, 5), dtype=np.int64))
    assert np.array_equal(out, np.arange(5))

