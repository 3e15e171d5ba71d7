import random

import pytest

from thompsonv import permutations as perms


def test_check_perm():
    assert perms.check_perm([2, 1]) == (2, 1)
    for bad in ([], [0, 1], [1, 1], [1, 3]):
        with pytest.raises(ValueError):
            perms.check_perm(bad)


def test_compose_and_invert():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 9)
        p = list(range(1, n + 1))
        rng.shuffle(p)
        p = tuple(p)
        inv = perms.invert_perm(p)
        assert all(inv[p[i] - 1] == i + 1 for i in range(n))
        assert all(p[inv[i] - 1] == i + 1 for i in range(n))


def test_cyclic_shift():
    assert perms.cyclic_shift((1, 2, 3)) == 0
    assert perms.cyclic_shift((2, 3, 1)) == 1
    assert perms.cyclic_shift((3, 1, 2)) == 2
    assert perms.cyclic_shift((2, 1, 3)) is None
    assert perms.cyclic_shift((1,)) == 0


def test_cluster_runs_examples():
    assert perms.cluster_runs((1, 2, 3)).runs == ((1, 3),)
    assert perms.cluster_runs((2, 3, 1)).runs == ((1, 2), (3, 3))
    assert perms.cluster_runs((1, 3, 2, 4)).runs == ((1, 1), (2, 2), (3, 3), (4, 4))
    assert perms.cluster_runs((1, 3, 2, 4)).sizes() == [1, 1, 1, 1]


def test_cluster_runs_cover_and_are_maximal():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 12)
        p = list(range(1, n + 1))
        rng.shuffle(p)
        p = tuple(p)
        partition = perms.cluster_runs(p)
        # cover 1..n in order without overlap
        pos = 1
        for first, last in partition.runs:
            assert first == pos and last >= first
            pos = last + 1
        assert pos == n + 1
        # images consecutive inside runs, maximality at boundaries
        for first, last in partition.runs:
            for j in range(first, last):
                assert p[j] == p[j - 1] + 1
        for (_, last), (nxt, _) in zip(partition.runs, partition.runs[1:]):
            assert p[nxt - 1] != p[last - 1] + 1

