import json
import math

import numpy as np
import pytest

from thermalqkd.distill import PartyRecord
from thermalqkd.infotheory import (MetricsReport, build_report,
                                   conditional_mutual_information, entropy, g2,
                                   joint_counts, mutual_information, pearson_rs)


def pearson_r(xs, ys):
    return pearson_rs(xs, ys)[0, 1]


def test_joint_counts_small_cases():
    a = np.array([0, 0, 1, 1, 1])
    b = np.array([0, 1, 0, 1, 1])
    counts = joint_counts(a, b)
    assert counts.tolist() == [[1, 1], [1, 2]]
    c3 = joint_counts(a, b, np.array([1, 1, 0, 0, 1]))
    assert c3.sum() == 5 and c3[1, 1, 1] == 1 and c3[0, 1, 1] == 1
    for arrays in ([], [a] * 4):
        with pytest.raises(ValueError, match="1 to 3 arrays"):
            joint_counts(*arrays)
    with pytest.raises(ValueError, match="one nonzero length"):
        joint_counts(a, b[:4])


def test_joint_counts_match_int64_codes_and_reject_non_bits():
    rng = np.random.default_rng(3)
    arrays = [rng.integers(0, 2, 5000).astype(dtype) for dtype in (np.uint8, bool, np.int64)]
    for k in (1, 2, 3):
        code = np.zeros(5000, dtype=np.int64)
        for a in arrays[:k]:
            code = code * 2 + a
        want = np.bincount(code, minlength=2 ** k).reshape((2,) * k)
        assert np.array_equal(joint_counts(*arrays[:k]), want)
    for bad in (np.array([0, 1, 2]), np.array([0, -1, 1])):
        with pytest.raises(ValueError, match="only 0 and 1"):
            joint_counts(bad, np.array([0, 1, 1]))


def test_entropy_values():
    assert entropy([1, 1]) == pytest.approx(1.0, abs=1e-15)
    assert entropy([5, 0]) == 0.0
    # -(0.25 log2 0.25 + 0.75 log2 0.75), evaluated directly
    expect = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert entropy([1, 3]) == pytest.approx(expect, abs=1e-15)
    assert expect == pytest.approx(0.81127812445913283, abs=1e-14)
    with pytest.raises(ValueError):
        entropy([0, 0])
    with pytest.raises(ValueError, match="non-negative"):
        entropy([3, -1])


def test_mutual_information_limits():
    assert mutual_information([[1, 0], [0, 1]]) == pytest.approx(1.0, abs=1e-12)
    assert mutual_information([[5, 5], [5, 5]]) == 0.0
    with pytest.raises(ValueError, match="2-D table"):
        mutual_information(np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="3-D"):
        conditional_mutual_information(np.ones((2, 2)))


def test_mutual_information_bsc_analytic():
    # exact table for a BSC with crossover 0.113 under uniform input
    eps = 0.113
    counts = np.array([[887, 113], [113, 887]]) * 500
    expect = 1.0 + eps * math.log2(eps) + (1 - eps) * math.log2(1 - eps)
    assert expect == pytest.approx(0.49110092913587334, abs=1e-12)
    assert mutual_information(counts) == pytest.approx(expect, abs=1e-9)


def test_mutual_information_independent_samples():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2, 10 ** 6)
    b = rng.integers(0, 2, 10 ** 6)
    assert mutual_information(joint_counts(a, b)) == pytest.approx(0.0, abs=0.001)


def test_mi_bounded_by_marginal_entropies():
    rng = np.random.default_rng(1)
    for _ in range(50):
        counts = rng.integers(0, 50, (2, 2)) + 1
        mi = mutual_information(counts)
        assert 0.0 <= mi <= min(entropy(counts.sum(axis=0)), entropy(counts.sum(axis=1))) + 1e-12


def _cmi_bruteforce(counts):
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    out = 0.0
    for e in range(counts.shape[2]):
        slab = counts[:, :, e]
        w = slab.sum() / total
        if slab.sum() > 0:
            out += w * mutual_information(slab)
    return out


def test_cmi_expectation_form_agreement():
    rng = np.random.default_rng(2)
    for _ in range(100):
        counts = rng.integers(1, 1000, (2, 2, 2))
        expect = _cmi_bruteforce(counts)
        got = conditional_mutual_information(counts)
        assert got == pytest.approx(expect, abs=1e-12)


def test_cmi_degenerate_cases():
    rng = np.random.default_rng(3)
    ab = rng.integers(1, 50, (2, 2))
    # E independent of (A, B): I(A;B|E) equals I(A;B)
    counts = np.stack([ab * 3, ab * 5], axis=2)
    assert conditional_mutual_information(counts) == pytest.approx(
        mutual_information(ab), abs=1e-12)
    # E = B: conditioning removes everything
    counts = np.zeros((2, 2, 2))
    counts[:, 0, 0] = ab[:, 0]
    counts[:, 1, 1] = ab[:, 1]
    assert conditional_mutual_information(counts) == 0.0


def test_pearson_values():
    xs = np.arange(10.0)
    assert pearson_r(xs, xs) == 1.0
    assert pearson_r(xs, -xs) == -1.0
    # hand evaluation of the standard formula on the worked example
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    ys = np.array([1.0, 2.0, 3.0, 5.0])
    expect = 6.5 / math.sqrt(5.0 * 8.75)
    assert expect == pytest.approx(0.98270762982399085, abs=1e-14)
    assert pearson_r(xs, ys) == pytest.approx(expect, abs=1e-12)
    with pytest.raises(ValueError):
        pearson_r(np.ones(5), np.arange(5.0))
    with pytest.raises(ValueError, match="equal-length"):
        pearson_r(np.arange(5.0), np.arange(4.0))
    with pytest.raises(ValueError, match="two or more"):
        pearson_rs(np.arange(5.0))


def test_g2_constant_and_validation():
    assert g2(np.full(100, 3.7), 0) == pytest.approx(1.0, abs=1e-12)
    assert g2(np.full(100, 3.7), 17) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        g2(np.zeros(10), 0)
    with pytest.raises(ValueError):
        g2(np.ones(10), 10)
    with pytest.raises(ValueError):
        g2(np.ones(10), -1)


def test_g2_exponential_law():
    # thermal heterodyne intensities follow an exponential law: E[I^2]/E[I]^2 = 2
    rng = np.random.default_rng(4)
    intensities = rng.exponential(3.0, 10 ** 6)
    assert g2(intensities, 0) == pytest.approx(2.0, abs=0.05)
    assert g2(intensities, 1000) == pytest.approx(1.0, abs=0.05)


def test_g2_coherent_limit():
    # strong displacement: d0 >> sqrt(nbar) drives g2(0) to 1
    rng = np.random.default_rng(5)
    nbar, d0 = 1.0, 30.0
    field = (d0 + rng.normal(0, math.sqrt(nbar), 10 ** 6)
             + 1j * rng.normal(0, math.sqrt(nbar), 10 ** 6))
    assert g2(np.abs(field) ** 2, 0) == pytest.approx(1.0, abs=0.02)


def test_deterministic_postprocessing_preserves_mi():
    rng = np.random.default_rng(6)
    a = rng.integers(0, 2, 100_000)
    b = a ^ (rng.random(100_000) < 0.1)
    assert mutual_information(joint_counts(a, b)) == \
        mutual_information(joint_counts(a, 1 - b))


def test_random_corruption_strictly_decreases_mi():
    rng = np.random.default_rng(7)
    n = 10 ** 6
    a = rng.integers(0, 2, n)
    b = a ^ (rng.random(n) < 0.1)
    b_bad = b ^ (rng.random(n) < 0.1)
    mi = mutual_information(joint_counts(a, b))
    mi_bad = mutual_information(joint_counts(a, b_bad))
    # delta-method standard error of the plug-in estimate
    p = joint_counts(a, b) / n
    pa = p.sum(axis=1, keepdims=True)
    pb = p.sum(axis=0, keepdims=True)
    pointwise = np.log2(p / (pa * pb))
    se = math.sqrt(float((p * pointwise ** 2).sum() - mi ** 2) / n)
    assert mi - mi_bad > 5 * se


def _record(bits, z):
    bits = np.asarray(bits, dtype=np.uint8)
    return PartyRecord(x=z.copy(), p=np.zeros_like(z), z=z, bits=bits)


def test_build_report_identical_parties():
    rng = np.random.default_rng(8)
    z = rng.normal(10, 1, 4000)
    bits = (z > np.median(z)).astype(np.uint8)
    report = build_report(_record(bits, z), _record(bits, z), _record(bits, z))
    assert report.i_ab == pytest.approx(1.0, abs=1e-9)
    assert report.i_ab_given_e == pytest.approx(0.0, abs=1e-12)
    assert report.delta_rr == pytest.approx(0.0, abs=1e-9)
    assert report.ber_ab == 0.0
    assert report.n_bits == 4000
    with pytest.raises(ValueError, match="aligned"):
        build_report(_record(bits, z), _record(bits, z), _record(bits[1:], z[1:]))


def test_build_report_correlations_equal_pearson_r_exactly():
    # pearson_rs centres each party's z once for its two correlations.
    rng = np.random.default_rng(11)
    z = [rng.normal(3, 1, 6001) for _ in range(3)]
    z[1] += 0.7 * z[0]
    z[2] += 0.2 * z[1]
    recs = [_record((zi > np.median(zi)).astype(np.uint8), zi) for zi in z]
    report = build_report(*recs)

    def reference(x, y):
        # the two-sample correlation as written before the centring was shared
        dx = x - np.sum(x) / x.size
        dy = y - np.sum(y) / y.size
        return float(np.sum(dx * dy) / np.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))

    want = (reference(z[0], z[1]), reference(z[1], z[2]), reference(z[0], z[2]))
    assert (report.r_ab, report.r_be, report.r_ae) == want
    assert (pearson_r(z[0], z[1]), pearson_r(z[1], z[2]), pearson_r(z[0], z[2])) == want
    assert pearson_rs(*z) == {(0, 1): want[0], (1, 2): want[1], (0, 2): want[2]}
    # Moments that a report filled in give the same bytes when read back,
    # and a pair of samples takes its entries from a call over three.
    moments = [None] * 3
    assert build_report(*recs, moments) == report
    assert moments == [(np.sum(zi) / zi.size, np.sum((zi - np.sum(zi) / zi.size) ** 2))
                       for zi in z]
    assert build_report(*recs, list(moments)) == report
    assert pearson_rs(z[0], z[2], moments=[moments[0], moments[2]]) == {(0, 1): want[2]}
    shifted = [(mean + 1.0, ss) for mean, ss in moments]
    assert pearson_rs(*z, moments=shifted) != pearson_rs(*z)
    with pytest.raises(ValueError, match="2 moments for 3 samples"):
        pearson_rs(*z, moments=moments[:2])


def test_build_report_uninformative_eve():
    rng = np.random.default_rng(9)
    z_a = rng.normal(10, 1, 4000)
    z_b = z_a + rng.normal(0, 0.5, 4000)
    bits_a = (z_a > np.median(z_a)).astype(np.uint8)
    bits_b = (z_b > np.median(z_b)).astype(np.uint8)
    eve = PartyRecord(x=rng.normal(size=4000), p=rng.normal(size=4000),
                      z=rng.normal(10, 1, 4000), bits=np.zeros(4000, dtype=np.uint8))
    report = build_report(_record(bits_a, z_a), _record(bits_b, z_b), eve)
    assert report.i_ab_given_e == pytest.approx(report.i_ab, abs=1e-12)
    assert report.delta_dr == pytest.approx(report.i_ab, abs=1e-12)


def test_report_json_key_order():
    report = MetricsReport(r_ab=0.9, r_be=0.8, r_ae=0.7, i_ab=0.5, i_ae=0.4,
                           i_be=0.3, i_ab_given_e=0.1, delta_dr=0.1,
                           delta_rr=0.2, ber_ab=0.11, n_bits=100)
    keys = list(json.loads(report.to_json()).keys())
    assert keys == ["r_ab", "r_be", "r_ae", "i_ab", "i_ae", "i_be",
                    "i_ab_given_e", "delta_dr", "delta_rr", "ber_ab", "n_bits"]
    assert report.to_json() == report.to_json()


def test_report_validates_ranges():
    with pytest.raises(ValueError):
        MetricsReport(r_ab=1.5, r_be=0.0, r_ae=0.0, i_ab=0.5, i_ae=0.4,
                      i_be=0.3, i_ab_given_e=0.1, delta_dr=0.1, delta_rr=0.2,
                      ber_ab=0.1, n_bits=10)
    with pytest.raises(ValueError):
        MetricsReport(r_ab=0.5, r_be=0.0, r_ae=0.0, i_ab=1.5, i_ae=0.4,
                      i_be=0.3, i_ab_given_e=0.1, delta_dr=0.1, delta_rr=0.2,
                      ber_ab=0.1, n_bits=10)
    with pytest.raises(ValueError, match="ber_ab outside"):
        MetricsReport(r_ab=0.5, r_be=0.0, r_ae=0.0, i_ab=0.5, i_ae=0.4,
                      i_be=0.3, i_ab_given_e=0.1, delta_dr=0.1, delta_rr=0.2,
                      ber_ab=1.5, n_bits=10)


def test_pearson_rejects_non_finite_result():
    # float64 overflow in the sums makes the correlation NaN; clamping would
    # turn it into -1.0
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="not finite"):
            pearson_r([1e200, 2e200, 3e200], [1e200, 3e200, 2e200])
        with pytest.raises(ValueError, match="not finite"):
            pearson_r([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])


def test_report_rejects_non_finite_fields():
    good = dict(r_ab=0.9, r_be=0.8, r_ae=0.7, i_ab=0.5, i_ae=0.4, i_be=0.3,
                i_ab_given_e=0.1, delta_dr=0.1, delta_rr=0.2, ber_ab=0.11, n_bits=100)
    MetricsReport(**good)
    for name in good.keys() - {"n_bits"}:
        for bad in (math.nan, math.inf, -math.inf, np.float64("nan")):
            with pytest.raises(ValueError, match=name):
                MetricsReport(**{**good, name: bad})
