"""Statistical estimators: correlation, entropies, mutual information, g2.

Entropies are plug-in (maximum-likelihood) estimates in bits over integer
count tables; mutual information values are clamped at zero from below to
absorb negative fluctuations of the plug-in estimator. Reductions use
numpy's pairwise summation rather than BLAS so results do not depend on
thread settings.
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


def pearson_rs(*samples, moments=None) -> dict[tuple[int, int], float]:
    """Sample Pearson correlation coefficient of every pair of ``samples``,
    keyed ``(i, j)`` with ``i < j``.

    Each sample is centred once for all its pairs; a pair's r is the same
    floating-point sum as for those two samples alone. ``moments``, if
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
        if vx == 0 or vy == 0:
            raise ValueError("correlation undefined: an input has zero variance")
        r = np.sum(dx * dy) / np.sqrt(vx * vy)
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
