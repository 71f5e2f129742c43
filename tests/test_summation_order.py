"""numpy's pairwise summation order, which ``infotheory.pearson_rs`` walks.

``pearson_rs`` adds its sums of products a leaf at a time, splitting as
``np.sum`` splits a contiguous float64 array, so it gives the bytes of the
whole-array sums without making whole-array products. These tests pin that
premise on the installed numpy: a numpy that sums in another order fails
them by name.
"""

import itertools

import numpy as np
import pytest

from thermalqkd import infotheory
from thermalqkd.infotheory import pearson_rs

LEAVES = [128, 4096, infotheory.SUM_LEAF]


def _lengths(leaf):
    return [*range(1, 301), leaf - 1, leaf, leaf + 1, 2 * leaf + 1, 993_569, 3_000_000]


def _tree_sum(x):
    return infotheory._pairwise_sums(0, x.size, lambda lo, hi: [np.sum(x[lo:hi])])[0]


@pytest.fixture(scope="module")
def terms():
    # Terms of mixed sign and of magnitudes 1e-3 to 1e3, so a sum taken in
    # another order differs in its last bits.
    rng = np.random.default_rng(2024)
    return rng.normal(size=3_000_000) * 10.0 ** rng.integers(-3, 4, 3_000_000)


@pytest.mark.parametrize("leaf", LEAVES)
def test_tree_sums_are_numpys_sums(monkeypatch, terms, leaf):
    monkeypatch.setattr(infotheory, "SUM_LEAF", leaf)
    for n in _lengths(leaf):
        x = terms[:n]
        assert _tree_sum(x).tobytes() == np.sum(x).tobytes(), n


def test_a_split_off_numpys_grid_is_caught(monkeypatch, terms):
    # Splitting at n // 2, not at a multiple of 8, gives other bytes: the
    # lengths above tell the two orders apart.
    monkeypatch.setattr(infotheory, "SUM_LEAF", 128)

    def halves(x):
        n = x.size
        if n <= 128:
            return np.sum(x)
        return halves(x[:n // 2]) + halves(x[n // 2:])

    assert any(halves(terms[:n]).tobytes() != np.sum(terms[:n]).tobytes()
               for n in _lengths(128))


def _whole_array_pearson_rs(*samples, moments=None):
    """``pearson_rs`` as it was written over whole arrays: centred copies
    and whole-array products, each summed by one ``np.sum``."""
    arrs = [np.asarray(s, dtype=float) for s in samples]
    if moments is None:
        moments = [None] * len(arrs)
    centred = []
    for k, x in enumerate(arrs):
        if moments[k] is None:
            mean = np.sum(x) / x.size
            dx = x - mean
            moments[k] = mean, np.sum(dx * dx)
        else:
            dx = x - moments[k][0]
        centred.append((dx, moments[k][1]))
    out = {}
    for i, j in itertools.combinations(range(len(arrs)), 2):
        (dx, vx), (dy, vy) = centred[i], centred[j]
        r = np.sum(dx * dy) / np.sqrt(vx * vy)
        out[i, j] = float(min(1.0, max(-1.0, r)))
    return out


def _hex(values):
    return [float(v).hex() for v in values]


def _samples(rng, n, step=1):
    """Three correlated samples of ``n``, every ``step``-th of a longer run."""
    z = [rng.normal(3.0, 1.0, n * step)[::step] for _ in range(3)]
    z[1] = z[1] + 0.7 * z[0]
    z[2] = z[2] - 0.2 * z[1]
    return z


@pytest.mark.parametrize("leaf", [128, infotheory.SUM_LEAF])
@pytest.mark.parametrize("step", [1, 3])
def test_pearson_rs_gives_the_whole_array_bytes(monkeypatch, leaf, step):
    # Contiguous and strided samples, at lengths inside one leaf, around
    # its edges and over many leaves; the moments come back the same too.
    monkeypatch.setattr(infotheory, "SUM_LEAF", leaf)
    rng = np.random.default_rng(leaf + step)
    for n in (2, 7, 8, 9, 129, leaf - 1, leaf + 1, 2 * leaf + 1, 300_007):
        z = _samples(rng, n, step)
        got, want = [None] * 3, [None] * 3
        r = pearson_rs(*z, moments=got)
        assert _hex(r.values()) == _hex(_whole_array_pearson_rs(*z, moments=want).values()), n
        assert list(r) == [(0, 1), (0, 2), (1, 2)]
        assert [_hex(m) for m in got] == [_hex(m) for m in want], n
        for pair in itertools.combinations(range(3), 2):
            two = [z[k] for k in pair]
            assert _hex(pearson_rs(*two).values()) == _hex(
                _whole_array_pearson_rs(*two).values()), (n, pair)


def test_pearson_rs_reads_given_moments_as_the_whole_array_form_does(monkeypatch):
    # A sample whose moments an earlier call filled is centred on that
    # mean and its sum of squares is read, not taken again; a shifted mean
    # gives the whole-array form's bytes for that mean.
    monkeypatch.setattr(infotheory, "SUM_LEAF", 128)
    z = _samples(np.random.default_rng(5), 70_001, 2)
    filled = [None] * 3
    pearson_rs(*z, moments=filled)
    for given in ([filled[0], None, filled[2]], [(m + 0.25, ss) for m, ss in filled],
                  [None, (filled[1][0] - 1.0, filled[1][1]), None]):
        got, want = list(given), list(given)
        assert _hex(pearson_rs(*z, moments=got).values()) == _hex(
            _whole_array_pearson_rs(*z, moments=want).values())
        assert [_hex(m) for m in got] == [_hex(m) for m in want]
