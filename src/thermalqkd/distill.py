"""Amplitude slicing and repetition-based advantage distillation.

Keys come from the measurement amplitudes z = sqrt(x^2 + p^2), which are
invariant under the cluster rotations the parties reveal publicly. Slicing
thresholds at the per-detector median over the whole run; values exactly
equal to the median map to 0, and the even-length median is the lower-middle
order statistic, so golden outputs are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels


@dataclass
class PartyRecord:
    """Aligned measurement record for one party. ``x`` and ``p`` are both
    None in a record that carries no quadratures: a grid point's, whose
    report reads only ``z`` and ``bits``."""

    x: np.ndarray | None
    p: np.ndarray | None
    z: np.ndarray
    bits: np.ndarray

    def __post_init__(self):
        if (self.x is None) != (self.p is None):
            raise ValueError("x and p must both be arrays or both be None")
        lengths = {len(a) for a in (self.x, self.p, self.z, self.bits) if a is not None}
        if len(lengths) != 1:
            raise ValueError(f"record field lengths differ: {sorted(lengths)}")

    def __len__(self) -> int:
        return len(self.z)


def median_slice(zs) -> np.ndarray:
    """Threshold at the run median: bit = 1 iff z > median(zs)."""
    z = np.asarray(zs, dtype=float)
    if z.ndim != 1 or z.size < 2:
        raise ValueError(f"need at least 2 samples to slice, got shape {z.shape}")
    k = (z.size - 1) // 2
    med = np.partition(z, k)[k]
    return (z > med).astype(np.uint8)


def bit_error_rate(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.size == 0:
        raise ValueError(f"bit strings must have equal nonzero length, got {a.shape} and {b.shape}")
    return float(np.count_nonzero(a != b) / a.size)


def advantage_distill(a, b, block: int, rng: np.random.Generator):
    """Repetition-protocol distillation over blocks of size ``block``.

    Alice publishes each block XORed with a fresh random bit from ``rng``
    repeated blockwise; Bob accepts when his block XOR the published string is
    constant and decodes that constant. Returns (alice_kept, bob_kept,
    kept_fraction). A trailing partial block is dropped.
    """
    a_bits = np.ascontiguousarray(a, dtype=np.uint8)
    b_bits = np.ascontiguousarray(b, dtype=np.uint8)
    if a_bits.shape != b_bits.shape:
        raise ValueError(f"length mismatch: {a_bits.shape} vs {b_bits.shape}")
    if block < 2:
        raise ValueError(f"block must be >= 2, got {block}")
    n_blocks = a_bits.size // block
    if n_blocks == 0:
        raise ValueError(f"need at least one block of {block} bits, got {a_bits.size}")
    r = rng.integers(0, 2, n_blocks, dtype=np.uint8)
    a_kept, b_kept, kept = kernels.distill_scan(a_bits, b_bits, r, block)
    return a_kept, b_kept, kept / n_blocks


def _key_bits(bits) -> np.ndarray:
    """``bits`` as uint8; raises ValueError unless every value is 0 or 1."""
    b = np.asarray(bits)
    if np.any((b != 0) & (b != 1)):
        raise ValueError("key bits must be 0 or 1")
    return b.astype(np.uint8)


def write_bits_text(bits, path) -> None:
    """One '0' or '1' character per line."""
    b = _key_bits(bits)
    text = np.full((b.size, 2), ord("\n"), dtype=np.uint8)
    text[:, 0] = b + ord("0")
    with open(path, "wb") as fh:
        fh.write(text.tobytes())


def write_bits_packed(bits, path) -> None:
    """8 bits per byte, big-endian within the byte; a one-byte header keeps
    the count of padding bits in the final byte."""
    b = _key_bits(bits)
    pad = (-b.size) % 8
    with open(path, "wb") as fh:
        fh.write(bytes([pad]))
        fh.write(np.packbits(b).tobytes())


def read_bits_packed(path) -> np.ndarray:
    """Bits of a file written by ``write_bits_packed``.

    Raises ValueError for an empty file, a pad count above 7, a nonzero pad
    count with no payload byte to take it from, or a padding bit that is
    set (the writer's ``np.packbits`` pads with zeros).
    """
    raw = Path(path).read_bytes()
    if not raw:
        raise ValueError(f"{path}: empty packed key file (no pad header)")
    pad = raw[0]
    if pad > 7:
        raise ValueError(f"{path}: pad count {pad} is not in 0..7")
    if pad and len(raw) == 1:
        raise ValueError(f"{path}: pad count {pad} with no payload byte")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8, offset=1))
    if bits[bits.size - pad:].any():
        raise ValueError(f"{path}: padding bits are not all zero")
    return bits[:bits.size - pad]
