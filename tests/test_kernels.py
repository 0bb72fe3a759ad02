import numpy as np
import pytest

from taumackey import _kernels, groups


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



def _pair_moves(G):
    """Simultaneous conjugation on G x G, as the pair scan builds it."""
    n = G.order
    return np.stack([(c[:, None] * n + c[None, :]).reshape(-1)
                     for c in G.generator_conj_maps()])


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n,m", [(1, 1), (7, 2), (40, 3), (101, 4), (5000, 2)])
def test_representatives_are_unique_labels_on_random_moves(seed, n, m):
    rng = np.random.default_rng(seed * 1000 + n)
    moves = np.stack([rng.permutation(n) for _ in range(m)])
    labels = _kernels.orbit_labels(moves)
    assert np.array_equal(_kernels.orbit_representatives(labels), np.unique(labels))


@pytest.mark.parametrize("build", [lambda: groups.symmetric(6), lambda: groups.dihedral(50)],
                         ids=["S6", "D50"])
def test_representatives_are_unique_labels_on_pair_moves(build):
    labels = _kernels.orbit_labels(_pair_moves(build()))
    reps = _kernels.orbit_representatives(labels)
    assert np.array_equal(reps, np.unique(labels))
    assert reps.dtype == np.unique(labels).dtype


def test_representatives_of_no_moves_are_all_states():
    labels = _kernels.orbit_labels(np.empty((0, 5), dtype=np.int64))
    assert np.array_equal(_kernels.orbit_representatives(labels), np.arange(5))
