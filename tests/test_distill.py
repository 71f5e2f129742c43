import numpy as np
import pytest

from thermalqkd.distill import (PartyRecord, advantage_distill, bit_error_rate,
                                median_slice, read_bits_packed, write_bits_packed,
                                write_bits_text)


def test_median_slice_examples():
    assert median_slice([1, 2, 3, 4]).tolist() == [0, 0, 1, 1]
    assert median_slice([5, 5, 5, 5]).tolist() == [0, 0, 0, 0]
    # the element equal to the median maps to 0
    assert median_slice([0.1, 9.0, 3.0]).tolist() == [0, 1, 0]
    with pytest.raises(ValueError):
        median_slice([1.0])


def test_median_slice_is_balanced_on_distinct_values():
    rng = np.random.default_rng(1)
    for n in (2, 3, 10, 11, 1001, 1002):
        z = rng.permutation(np.arange(n, dtype=float))
        ones = int(median_slice(z).sum())
        assert ones in (n // 2, (n + 1) // 2) and ones in ((n - 1) // 2, n // 2)


def test_bit_error_rate():
    a = np.array([0, 1, 1, 0], dtype=np.uint8)
    assert bit_error_rate(a, a) == 0.0
    assert bit_error_rate(a, 1 - a) == 1.0
    assert bit_error_rate(a, np.array([0, 1, 0, 0], dtype=np.uint8)) == 0.25
    assert bit_error_rate(a, np.array([0, 1, 0, 0], dtype=np.uint8)) == \
        bit_error_rate(np.array([0, 1, 0, 0], dtype=np.uint8), a)
    with pytest.raises(ValueError):
        bit_error_rate(a, a[:3])


def test_distill_error_free_inputs():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 2, 1000, dtype=np.uint8)
    a_kept, b_kept, kept = advantage_distill(a, a.copy(), 2, rng)
    assert kept == 1.0
    assert np.array_equal(a_kept, b_kept)
    assert a_kept.size == 500


def test_distill_independent_inputs_stay_random():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, 2_000_000, dtype=np.uint8)
    b = rng.integers(0, 2, 2_000_000, dtype=np.uint8)
    a_kept, b_kept, kept = advantage_distill(a, b, 2, rng)
    assert bit_error_rate(a_kept, b_kept) == pytest.approx(0.5, abs=0.01)
    assert kept == pytest.approx(0.5, abs=0.01)


def _bsc_pair(eps, n, rng):
    a = rng.integers(0, 2, n, dtype=np.uint8)
    b = a ^ (rng.random(n) < eps).astype(np.uint8)
    return a, b


def test_distill_bsc_matches_two_bit_analysis():
    # block = 2: accept iff both positions agree or both differ, so
    # kept_fraction = eps^2 + (1-eps)^2 and kept error = eps^2 / that.
    eps = 0.113
    rng = np.random.default_rng(4)
    a, b = _bsc_pair(eps, 2_000_000, rng)
    a_kept, b_kept, kept = advantage_distill(a, b, 2, rng)
    expect_kept = eps ** 2 + (1 - eps) ** 2
    assert kept == pytest.approx(expect_kept, abs=0.01)
    assert bit_error_rate(a_kept, b_kept) == pytest.approx(
        eps ** 2 / expect_kept, abs=0.002)


def test_distill_block_three_matches_analysis():
    eps = 0.2
    rng = np.random.default_rng(5)
    a, b = _bsc_pair(eps, 900_000, rng)
    a_kept, b_kept, kept = advantage_distill(a, b, 3, rng)
    expect_kept = eps ** 3 + (1 - eps) ** 3
    assert kept == pytest.approx(expect_kept, abs=0.005)
    assert bit_error_rate(a_kept, b_kept) == pytest.approx(
        eps ** 3 / expect_kept, abs=0.002)


def test_distill_strictly_reduces_error():
    rng = np.random.default_rng(6)
    for eps in (0.05, 0.1, 0.2, 0.3):
        a, b = _bsc_pair(eps, 1_000_000, rng)
        a_kept, b_kept, _ = advantage_distill(a, b, 2, rng)
        assert bit_error_rate(a_kept, b_kept) < eps


def test_distill_validation_and_determinism():
    a = np.zeros(10, dtype=np.uint8)
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        advantage_distill(a, np.zeros(9, dtype=np.uint8), 2, rng)
    with pytest.raises(ValueError):
        advantage_distill(a, a, block=1, rng=rng)
    with pytest.raises(ValueError):
        advantage_distill(a[:1], a[:1], block=2, rng=rng)
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    b = np.ones(10, dtype=np.uint8)
    b[::3] = 0
    first = advantage_distill(a, b, 2, rng1)
    second = advantage_distill(a, b, 2, rng2)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_party_record_checks_lengths():
    with pytest.raises(ValueError):
        PartyRecord(x=np.zeros(3), p=np.zeros(3), z=np.zeros(3), bits=np.zeros(2))
    rec = PartyRecord(x=np.zeros(3), p=np.zeros(3), z=np.zeros(3),
                      bits=np.zeros(3, dtype=np.uint8))
    assert len(rec) == 3


def test_bit_export_round_trips(tmp_path):
    rng = np.random.default_rng(8)
    for n in (0, 1, 7, 8, 9, 1001):
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        txt = tmp_path / f"k{n}.txt"
        bin_ = tmp_path / f"k{n}.bin"
        write_bits_text(bits, txt)
        write_bits_packed(bits, bin_)
        assert txt.read_bytes() == "".join(f"{bit}\n" for bit in bits.tolist()).encode("ascii")
        assert np.array_equal(read_bits_packed(bin_), bits)
        # the np.char formatter the text writer replaced, byte for byte
        expected = "\n".join(np.char.mod("%d", bits)) + ("\n" if n else "")
        assert txt.read_bytes() == expected.encode("ascii")
    bits = np.array([1, 0, 1], dtype=np.uint8)
    write_bits_text(bits, tmp_path / "k.txt")
    assert (tmp_path / "k.txt").read_text() == "1\n0\n1\n"
    write_bits_text([True, False], tmp_path / "k.txt")
    assert (tmp_path / "k.txt").read_text() == "1\n0\n"
    # both key files must hold the same bits, so neither takes a non-bit
    for bad in ([0, 1, 2, 1], [-1], np.array([0, 10], dtype=np.int64), [0.5], [np.nan]):
        for write in (write_bits_text, write_bits_packed):
            with pytest.raises(ValueError, match="0 or 1"):
                write(bad, tmp_path / "bad")


def test_read_bits_packed_rejects_malformed_files(tmp_path):
    path = tmp_path / "k.bin"
    for raw, why in ((b"", "empty"), (bytes([9, 0xFF]), "pad count 9"),
                     (bytes([8, 0xFF]), "pad count 8"), (bytes([3]), "no payload"),
                     (bytes([7, 0xFF]), "padding bits"), (bytes([1, 0x01]), "padding bits")):
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=why):
            read_bits_packed(path)
    # a pad of 0 to 7 zero bits over at least one byte, or an empty key, reads back
    path.write_bytes(bytes([7, 0x80]))
    assert read_bits_packed(path).tolist() == [1]
    path.write_bytes(bytes([0]))
    assert read_bits_packed(path).size == 0
