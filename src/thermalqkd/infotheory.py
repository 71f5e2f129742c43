"""Statistical estimators: correlation, entropies, mutual information, g2.

Entropies are plug-in (maximum-likelihood) estimates in bits over integer
count tables; mutual information values are clamped at zero from below to
absorb negative fluctuations of the plug-in estimator. Reductions use
numpy's pairwise summation rather than BLAS so results do not depend on
thread settings. ``pearson_rs`` takes its sums of products by walking that
pairwise tree itself, down to leaves of ``SUM_LEAF`` elements that
``np.sum`` adds, so it reads the samples a leaf at a time and gives the
bytes of ``np.sum`` over whole-array products.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .distill import PartyRecord, bit_error_rate


def joint_counts(*bit_arrays) -> np.ndarray:
    """Count table over {0,1}^k for k aligned bit arrays (k in 1..3)."""
    k = len(bit_arrays)
    if not 1 <= k <= 3:
        raise ValueError(f"joint_counts takes 1 to 3 arrays, got {k}")
    arrs = [np.asarray(a) for a in bit_arrays]
    n = arrs[0].size
    if any(a.size != n for a in arrs) or n == 0:
        raise ValueError("bit arrays must share one nonzero length")
    if any(a.min() < 0 or a.max() > 1 for a in arrs):
        raise ValueError("bit arrays must hold only 0 and 1")
    # One byte per code, so the table reads an eighth of what int64 codes would.
    code = arrs[0].astype(np.uint8)
    for a in arrs[1:]:
        code = code * np.uint8(2) + a.astype(np.uint8, copy=False)
    return np.bincount(code, minlength=2 ** k).reshape((2,) * k)


def entropy(counts) -> float:
    """Plug-in Shannon entropy in bits, with 0*log(0) = 0."""
    c = np.asarray(counts, dtype=float)
    total = c.sum()
    if total < 1:
        raise ValueError("count table is empty")
    if c.min() < 0:
        raise ValueError("counts must be non-negative")
    p = c.ravel() / total
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def mutual_information(counts) -> float:
    """I(X;Y) = H(X) + H(Y) - H(X,Y) from a 2-D count table, clamped at 0."""
    c = np.asarray(counts, dtype=float)
    if c.ndim != 2:
        raise ValueError(f"expected a 2-D table, got shape {c.shape}")
    mi = entropy(c.sum(axis=1)) + entropy(c.sum(axis=0)) - entropy(c)
    return max(mi, 0.0)


def conditional_mutual_information(counts) -> float:
    """I(A;B|E) = H(A,E) + H(B,E) - H(E) - H(A,B,E) from a 3-D table."""
    c = np.asarray(counts, dtype=float)
    if c.ndim != 3:
        raise ValueError(f"expected a 3-D (A, B, E) table, got shape {c.shape}")
    cmi = (entropy(c.sum(axis=1)) + entropy(c.sum(axis=0))
           - entropy(c.sum(axis=(0, 1))) - entropy(c))
    return max(cmi, 0.0)


# Elements per leaf of the pairwise sums in ``pearson_rs``. numpy sums a
# contiguous float64 array by splitting any run of more than 128 elements at
# m // 2 - (m // 2) % 8 and adding the two halves' sums; a leaf of at least
# 128 elements is a node of that tree, so its ``np.sum`` is that node's sum.
SUM_LEAF = 32_768


def _leaf_sums(lo, hi, samples, means, squares, pairs, centred, product):
    """Each of ``squares``' sums of squared deviations, then each of
    ``pairs``' sums of products of deviations, over ``[lo, hi)``: the
    deviations from ``means`` go into ``centred``, each product into
    ``product``."""
    m = hi - lo
    dev = [np.subtract(x[lo:hi], mean, out=buf[:m])
           for x, mean, buf in zip(samples, means, centred)]
    prod = product[:m]
    return ([np.sum(np.multiply(dev[k], dev[k], out=prod)) for k in squares]
            + [np.sum(np.multiply(dev[i], dev[j], out=prod)) for i, j in pairs])


def _pairwise_sums(lo, hi, leaf_sums, *args):
    """The sums that ``leaf_sums(lo, hi, *args)`` lists over ``[lo, hi)``,
    each added up as ``np.sum`` adds up a whole contiguous array: split as
    numpy's pairwise summation splits, down to leaves of at most
    ``SUM_LEAF``. Defined at module level, since a nested function that
    calls itself is a reference cycle that would keep the samples alive
    until the garbage collector runs."""
    n = hi - lo
    if n <= SUM_LEAF:
        return leaf_sums(lo, hi, *args)
    half = n // 2
    half -= half % 8
    left = _pairwise_sums(lo, lo + half, leaf_sums, *args)
    right = _pairwise_sums(lo + half, hi, leaf_sums, *args)
    return [a + b for a, b in zip(left, right)]


def pearson_rs(*samples, moments=None) -> dict[tuple[int, int], float]:
    """Sample Pearson correlation coefficient of every pair of ``samples``,
    keyed ``(i, j)`` with ``i < j``.

    A pair's r is the same floating-point sum as for those two samples
    alone, with each sample centred on ``np.sum(x) / x.size``. The sums of
    squared deviations and of their cross products are taken a leaf at a
    time, in ``np.sum``'s pairwise order (``_pairwise_sums``), so no
    centred copy or product of a whole sample is made. ``moments``, if
    given, holds an entry per sample that carries its mean and its sum of
    squared deviations from one call to the next: a None entry is replaced
    by the sample's ``(mean, sum of squares)``, and a sample whose entry an
    earlier call filled is centred on that mean, which gives the same
    bytes, without taking its sums again.
    """
    arrs = [np.asarray(s, dtype=float) for s in samples]
    if len(arrs) < 2 or any(a.ndim != 1 or a.shape != arrs[0].shape for a in arrs) \
            or arrs[0].size < 2:
        raise ValueError("inputs must be two or more equal-length 1-D sequences of length >= 2")
    if moments is None:
        moments = [None] * len(arrs)
    if len(moments) != len(arrs):
        raise ValueError(f"got {len(moments)} moments for {len(arrs)} samples")
    n = arrs[0].size
    squares = [k for k, m in enumerate(moments) if m is None]
    means = [np.sum(x) / n if m is None else m[0] for x, m in zip(arrs, moments)]
    pairs = list(itertools.combinations(range(len(arrs)), 2))
    leaf = min(n, SUM_LEAF)
    sums = _pairwise_sums(0, n, _leaf_sums, arrs, means, squares, pairs,
                          [np.empty(leaf) for _ in arrs], np.empty(leaf))
    for k, ss in zip(squares, sums):
        moments[k] = means[k], ss
    out = {}
    for (i, j), cross in zip(pairs, sums[len(squares):]):
        vx, vy = moments[i][1], moments[j][1]
        if vx == 0 or vy == 0:
            raise ValueError("correlation undefined: an input has zero variance")
        r = cross / np.sqrt(vx * vy)
        if not np.isfinite(r):
            raise ValueError(f"correlation is not finite: {r}")
        out[i, j] = float(min(1.0, max(-1.0, r)))
    return out


def g2(intensities, lag: int = 0) -> float:
    """Normalized intensity correlation <I(t) I(t+lag)> / (<I(t)><I(t+lag)>).

    Both means run over the overlapping range. Thermal light gives
    g2(0) = 2, coherent light 1.
    """
    if int(lag) != lag or lag < 0:
        raise ValueError(f"lag must be an integer >= 0, got {lag}")
    intens = np.asarray(intensities, dtype=float)
    if intens.ndim != 1 or intens.size <= lag:
        raise ValueError(f"need more than lag={lag} samples, got {intens.size}")
    a = intens[:intens.size - lag]
    b = intens[lag:]
    mean_a = np.sum(a) / a.size
    mean_b = np.sum(b) / b.size
    if mean_a <= 0 or mean_b <= 0:
        raise ValueError("mean intensity must be positive")
    return float(np.sum(a * b) / a.size / (mean_a * mean_b))


@dataclass(frozen=True)
class MetricsReport:
    """Secrecy statistics for one scenario run."""

    r_ab: float
    r_be: float
    r_ae: float
    i_ab: float
    i_ae: float
    i_be: float
    i_ab_given_e: float
    delta_dr: float
    delta_rr: float
    ber_ab: float
    n_bits: int

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} is not finite: {getattr(self, f.name)}")
        for name in ("r_ab", "r_be", "r_ae"):
            if abs(getattr(self, name)) > 1 + 1e-12:
                raise ValueError(f"{name} outside [-1, 1]")
        for name in ("i_ab", "i_ae", "i_be", "i_ab_given_e"):
            val = getattr(self, name)
            if not -1e-12 <= val <= 1 + 1e-9:
                raise ValueError(f"{name} outside [0, 1] bit: {val}")
        if not 0 <= self.ber_ab <= 1:
            raise ValueError(f"ber_ab outside [0, 1]: {self.ber_ab}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def build_report(alice: PartyRecord, bob: PartyRecord, eve: PartyRecord,
                 moments=None) -> MetricsReport:
    """Assemble the full metric set from three aligned party records.

    The correlations are ``pearson_rs`` of the three ``z``, which reads and
    fills ``moments`` (one entry per party, in argument order) as its own.
    """
    n = len(alice)
    if not (len(bob) == len(eve) == n) or n == 0:
        raise ValueError("party records must be aligned to one nonzero length")
    table3 = joint_counts(alice.bits, bob.bits, eve.bits)
    i_ab = mutual_information(table3.sum(axis=2))
    i_ae = mutual_information(table3.sum(axis=1))
    i_be = mutual_information(table3.sum(axis=0))
    r = pearson_rs(alice.z, bob.z, eve.z, moments=moments)
    return MetricsReport(
        r_ab=r[0, 1],
        r_be=r[1, 2],
        r_ae=r[0, 2],
        i_ab=i_ab,
        i_ae=i_ae,
        i_be=i_be,
        i_ab_given_e=conditional_mutual_information(table3),
        delta_dr=i_ab - i_ae,
        delta_rr=i_ab - i_be,
        ber_ab=bit_error_rate(alice.bits, bob.bits),
        n_bits=n,
    )
