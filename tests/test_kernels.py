"""The numpy kernels against scalar per-element and whole-array references."""

import numpy as np
import pytest

from thermalqkd import kernels
from thermalqkd.optics import apply_beamsplitter


def _channel_case(rng, n, n_taps, delay, max_tap=8, chain=()):
    theta = rng.normal(size=n)
    taps = rng.integers(1, max_tap + 1, n_taps).astype(np.int64)
    return dict(src_re=rng.normal(size=n), src_im=rng.normal(size=n), chain=chain, amp=0.7,
                delay=delay,
                cos_t=np.cos(theta), sin_t=np.sin(theta),
                tap_delays=taps, tap_cr=rng.normal(size=n_taps) * 0.1,
                tap_ci=rng.normal(size=n_taps) * 0.1,
                noise=rng.normal(size=(n, 2)), noise_sd=np.sqrt(0.6))


def _port(src_re, src_im, chain):
    """The field ``src`` times each amplitude of ``chain`` in turn, whole."""
    for gain in chain:
        src_re, src_im = src_re * gain, src_im * gain
    return src_re, src_im


def _channel_reference(src_re, src_im, amp, delay, cos_t, sin_t, tap_delays, tap_cr, tap_ci,
                       noise, noise_sd, chain=()):
    """Scalar per-element reference, independent of the vectorised kernel,
    from the whole port; returns the complex result."""
    src_re, src_im = _port(src_re, src_im, chain)
    n = src_re.size
    out = np.zeros(n, dtype=complex)
    for t in range(n):
        j = t - delay
        acc = 0.0 + 0.0j
        if j >= 0:
            rot = complex(cos_t[t], sin_t[t])
            acc += amp * rot * complex(src_re[j], src_im[j])
        for k in range(tap_delays.size):
            j2 = j - tap_delays[k]
            if j2 >= 0:
                acc += complex(tap_cr[k], tap_ci[k]) * complex(src_re[j2], src_im[j2])
        out[t] = acc + complex(noise[t, 0], noise[t, 1]) * noise_sd
    return out


def _copied(case):
    """``case`` with every array copied: the combine overwrites ``cos_t`` and
    ``sin_t``, and the fold ``x`` and ``p``."""
    return {key: value.copy() if isinstance(value, np.ndarray) else value
            for key, value in case.items()}


def test_channel_combine_matches_reference():
    rng = np.random.default_rng(0)
    for delay, n_taps, chain in ((0, 0, ()), (3, 1, (0.5,)), (5, 3, (0.7, 0.6)), (40, 2, ()),
                                 (250, 1, (0.3,))):
        case = _channel_case(rng, 200, n_taps, delay, chain=chain)
        given = _copied(case)
        re, im = kernels.channel_combine(**given)
        assert re is given["cos_t"] and im is given["sin_t"]
        np.testing.assert_allclose(re + 1j * im, _channel_reference(**case), atol=1e-12)


def _channel_combine_strided(src_re, src_im, amp, delay, cos_t, sin_t, tap_delays, tap_cr,
                             tap_ci, noise, noise_sd, chain=()):
    """The kernel as whole-array expressions, one per sum, into zeroed
    results, the scaled noise added part by part through strided views,
    from the whole port."""
    src_re, src_im = _port(src_re, src_im, chain)
    n = src_re.shape[0]
    out_re, out_im = np.zeros(n), np.zeros(n)
    if delay < n:
        m = n - delay
        out_re[delay:] = amp * (cos_t[delay:] * src_re[:m] - sin_t[delay:] * src_im[:m])
        out_im[delay:] = amp * (sin_t[delay:] * src_re[:m] + cos_t[delay:] * src_im[:m])
    for k in range(tap_delays.shape[0]):
        off = delay + int(tap_delays[k])
        if off < n:
            m = n - off
            out_re[off:] += tap_cr[k] * src_re[:m] - tap_ci[k] * src_im[:m]
            out_im[off:] += tap_cr[k] * src_im[:m] + tap_ci[k] * src_re[:m]
    out_re += noise[:, 0] * noise_sd
    out_im += noise[:, 1] * noise_sd
    return out_re, out_im


def _assert_combine_matches_strided(case):
    got = kernels.channel_combine(**_copied(case))
    want = _channel_combine_strided(**case)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_channel_combine_matches_strided_form_byte_for_byte():
    # Sums built in the cosine and sine buffers, the scaled noise added
    # there, give the bytes of the one-expression form, signed zeros
    # included (a zero-amplitude input and zero noise), at delays inside
    # and past the stream.
    rng = np.random.default_rng(6)
    for delay, n_taps in ((0, 0), (3, 1), (5, 3), (198, 2), (250, 1)):
        case = _channel_case(rng, 200, n_taps, delay)
        for scale in (1.0, 0.0, -0.0):
            case["noise"] = rng.normal(size=(200, 2)) * scale
            for src in ((case["src_re"], case["src_im"]), (np.zeros(200) * -1.0,) * 2):
                case["src_re"], case["src_im"] = src
                _assert_combine_matches_strided(case)


# (n, delay, deepest tap) over blocks of 16: runs one below and one above a
# multiple of the block, a delay and echoes that cross block edges, a
# delay of the run's length or more, and a delay past the first block
# whose echoes reach past the run.
BLOCK_EDGE_CASES = [(47, 0, 3), (49, 0, 3), (49, 14, 5), (64, 15, 17), (49, 49, 2),
                    (49, 60, 2), (40, 30, 12), (1, 0, 1)]


@pytest.mark.parametrize("n, delay, max_tap", BLOCK_EDGE_CASES)
def test_blocked_combine_matches_whole_array_forms_at_block_edges(monkeypatch, n, delay,
                                                                  max_tap):
    # Each block makes its part of the port, history included, from the
    # field and the chain: no chain, one splitter and two.
    monkeypatch.setattr(kernels, "BLOCK", 16)
    rng = np.random.default_rng(n + 100 * delay + max_tap)
    for n_taps in (0, 1, 3):
        for chain in ((), (np.sqrt(0.5),), (np.sqrt(0.5), np.sqrt(0.63))):
            case = _channel_case(rng, n, n_taps, delay, max_tap, chain)
            _assert_combine_matches_strided(case)
            re, im = kernels.channel_combine(**_copied(case))
            np.testing.assert_allclose(re + 1j * im, _channel_reference(**case), atol=1e-12)


@pytest.mark.parametrize("n", [2 * kernels.BLOCK - 1, 2 * kernels.BLOCK + 1])
def test_combine_matches_strided_form_around_two_blocks(n):
    # The real block size, with the delay and two echoes crossing its edge.
    rng = np.random.default_rng(n)
    case = _channel_case(rng, n, 2, kernels.BLOCK - 3)
    case["tap_delays"] = np.array([2, 7], dtype=np.int64)
    _assert_combine_matches_strided(case)


@pytest.mark.parametrize("n", [kernels.BLOCK - 1, kernels.BLOCK + 1, 2 * kernels.BLOCK + 1])
@pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
def test_combine_of_chain_matches_combine_of_built_port(n, t):
    # The combine of (source, the ports' amplitudes) gives the bytes of the
    # combine of each port that apply_beamsplitter builds, at the real block
    # size, with a delay and echoes whose 25-symbol reach crosses its edge.
    rng = np.random.default_rng(n + int(100 * t))
    case = _channel_case(rng, n, 2, 5)
    case["tap_delays"] = np.array([3, 20], dtype=np.int64)
    src = case["src_re"], case["src_im"]
    alice, broadcast = apply_beamsplitter(src, 0.5)
    bob, eve = apply_beamsplitter(broadcast, t)
    half, rest = np.sqrt(0.5), np.sqrt(1.0 - 0.5)
    for port, chain in ((alice, (half,)), (bob, (rest, np.sqrt(t))),
                        (eve, (rest, np.sqrt(1.0 - t)))):
        got = kernels.channel_combine(**dict(_copied(case), chain=chain))
        built = dict(_copied(case), src_re=port[0], src_im=port[1])
        want = kernels.channel_combine(**built)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], chain


def _fold_case(rng, n, seg_len, pilot_len):
    segments = -(-n // seg_len)
    psi = rng.uniform(-np.pi, np.pi, (segments, 1)) + np.pi / 4 + np.pi / 2 * np.arange(4)
    return dict(x=rng.normal(size=n), p=rng.normal(size=n),
                syms=rng.integers(0, 4, n).astype(np.uint8), seg_len=seg_len,
                pilot_len=pilot_len, cos_cells=np.cos(psi).ravel(),
                sin_cells=np.sin(psi).ravel())


def _fold_reference(x, p, syms, lag, first, count, seg_len, pilot_len, cos_cells, sin_cells):
    """The fold as whole-array expressions over the listed data symbols,
    one angle per symbol."""
    tx = np.flatnonzero(np.arange(syms.size) % seg_len >= pilot_len)[first:first + count]
    assert tx.size == count
    cells = 4 * (tx // seg_len) + syms[tx]
    xs, ps = x[tx + lag], p[tx + lag]
    cos_a, sin_a = cos_cells[cells], sin_cells[cells]
    xr = xs * cos_a + ps * sin_a
    pr = ps * cos_a - xs * sin_a
    return xr, pr, np.sqrt(xr * xr + pr * pr)


def _data_range(n, seg_len, pilot_len, lag):
    """``(first, count)`` of the data symbols ``tx`` with ``tx + lag`` in ``[0, n)``."""
    data = np.flatnonzero(np.arange(n) % seg_len >= pilot_len)
    inside = (data + lag >= 0) & (data + lag < n)
    return int(np.argmax(inside)), int(inside.sum())


@pytest.mark.parametrize("n, seg_len, pilot_len, lag", [
    (200, 12, 4, 0),       # segments shorter than the block
    (200, 12, 4, -5),      # a negative lag
    (200, 40, 16, 17),     # segments longer than the block
    (200, 40, 16, -23),
    (193, 30, 16, 5),      # ends inside a segment's pilots
    (200, 1000, 16, 9),    # one segment, longer than the run
])
def test_blocked_fold_matches_per_symbol_form(monkeypatch, n, seg_len, pilot_len, lag):
    monkeypatch.setattr(kernels, "BLOCK", 16)
    case = _fold_case(np.random.default_rng(n + seg_len + lag), n, seg_len, pilot_len)
    first, count = _data_range(n, seg_len, pilot_len, lag)
    for part in ((first, count), (first + 1, count - 2), (first, 1)):
        given = _copied(case)
        got = kernels.demod_fold(lag=lag, first=part[0], count=part[1], **given)
        want = _fold_reference(lag=lag, first=part[0], count=part[1], **case)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], part
        # x' and p' are written over the head of x and p.
        assert got[0].base is given["x"] and got[1].base is given["p"], part


@pytest.mark.parametrize("seg_len", [10_000, 100_000])
@pytest.mark.parametrize("count_off", [-1, 1])
def test_fold_matches_per_symbol_form_around_two_blocks(count_off, seg_len):
    # The real block size: the fold's length one below and one above twice
    # the block, segments shorter and longer than the block, a negative lag.
    pilot_len = 64
    count = 2 * kernels.BLOCK + count_off
    n = count + 2 * seg_len
    case = _fold_case(np.random.default_rng(count), n, seg_len, pilot_len)
    got = kernels.demod_fold(lag=-31, first=100, count=count, **_copied(case))
    want = _fold_reference(lag=-31, first=100, count=count, **case)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_demod_fold_matches_rotation():
    rng = np.random.default_rng(2)
    case = _fold_case(rng, 300, 100, 16)
    xr, pr, z = kernels.demod_fold(lag=0, first=0, count=252, **_copied(case))
    tx = np.flatnonzero(np.arange(300) % 100 >= 16)
    angle = np.angle(case["cos_cells"] + 1j * case["sin_cells"])[
        4 * (tx // 100) + case["syms"][tx]]
    expect = (case["x"][tx] + 1j * case["p"][tx]) * np.exp(-1j * angle)
    np.testing.assert_allclose(xr + 1j * pr, expect, atol=1e-12)
    np.testing.assert_allclose(z, np.abs(expect), atol=1e-12)


def _distill_reference(a, b, r, block):
    a_kept, b_kept = [], []
    for j in range(r.size):
        blk_a = a[j * block:(j + 1) * block]
        blk_b = b[j * block:(j + 1) * block]
        pub = blk_a ^ r[j]
        c = blk_b ^ pub
        if np.all(c == c[0]):
            a_kept.append(r[j])
            b_kept.append(c[0])
    return (np.array(a_kept, dtype=np.uint8), np.array(b_kept, dtype=np.uint8),
            len(a_kept))


def test_distill_scan_matches_reference():
    rng = np.random.default_rng(4)
    for block in (2, 3, 5):
        n = 40 * block
        a = rng.integers(0, 2, n, dtype=np.uint8)
        b = rng.integers(0, 2, n, dtype=np.uint8)
        r = rng.integers(0, 2, n // block, dtype=np.uint8)
        got = kernels.distill_scan(a, b, r, block)
        expect = _distill_reference(a, b, r, block)
        assert np.array_equal(got[0], expect[0])
        assert np.array_equal(got[1], expect[1])
        assert got[2] == expect[2]
