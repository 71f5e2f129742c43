"""End-to-end scenario orchestration.

One run executes the central-broadcast pipeline: random bits -> QPSK symbols
-> displaced-thermal source fields -> 50:50 split (Alice | broadcast) ->
eavesdropper tap on the broadcast -> per-link impairments, whose noise
holds the heterodyne's vacuum unit -> delay alignment of the complex field against the public symbols ->
pilot-based phase recovery per coherence segment, at the pilots the lag
locates -> cluster folding and amplitudes over the party's own data range ->
the common window -> median slicing -> secrecy metrics, with optional
advantage distillation afterwards.

Everything is deterministic given the config seed: each random stream is
made from ``(seed, name)`` by ``_stream``, and the metric path avoids BLAS
reductions so results do not depend on thread settings. Each stage draws
only its own streams and each party's steps read only the source field and
that party's link, so receiving a party again from the same transmission
draws what the run drew, and the bytes do not depend on how threads are
scheduled. No splitter output is built: a party's input is the source field
times its chain of port amplitudes, applied block by block in its combine.

The module, in order:

- ``RunArtifacts`` and its measurement CSV writer (``_fork_measurement_csv``,
  ``_write_measurement_csv``, ``_format_rows`` and its tables);
- the stages of a run: ``_transmit`` (each party's input named by its
  ``_port_chain``), ``_draw_link``, ``_receive_party`` (pilot phases by
  ``_segment_corrections``, its data range counted by ``_data_before``; the
  fold it returns is a ``_Receive``) and ``_finish`` (the common window's
  data symbols listed by ``_data_indices``);
- ``_GroupCache``, the transmission, receives, draws and common index that
  the points of one group share, and ``run_scenario``, one point;
- ``_grid_reports``, which groups and schedules the points of ``sweep`` and
  ``calibrate_preset``;
- the presets, the calibration and the sweeps.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
import os
import traceback
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .channels import ChannelParams, PhaseDriftParams, TapSpec, apply_channel, draw_channel
from .config import PARTIES, ConfigError, ScenarioConfig, format_config, set_config_value
from .distill import (PartyRecord, advantage_distill, bit_error_rate, median_slice,
                      write_bits_packed, write_bits_text)
from .infotheory import MetricsReport, build_report
from .modem import (MIN_PILOTS, SYMBOL_PHASES, AlignmentResult, ReferenceSpectra,
                    bits_to_symbols, estimate_delay_and_rotation, estimate_global_phase)
from .optics import SourceParams, sample_source_field, splitter_amplitudes

# One vacuum unit of detection noise per quadrature at every receiver. The
# heterodyne adds it right after the link noise, with nothing between, so a
# receive draws the two as one: its link noise is scaled to this plus the
# link's ``rx_noise_var``.
DETECTION_NOISE_VAR = 1.0

# Delay search covers at least this many symbols either side of zero.
MIN_ALIGNMENT_LAG = 1024

# Received fields are correlated over a window this size (or the whole run).
ALIGNMENT_WINDOW = 65_536

# Largest sweep grid; every point is a whole run.
MAX_SWEEP_POINTS = 10_000

# Threads that receive and fold the three parties of one run.
PARTY_THREADS = 2

# Measurement CSV rows formatted per write: a chunk's word matrix (768 KiB) and
# float temporaries (64 KiB each) stay in L2, and the temporaries are small
# enough to be reused from the heap rather than mapped as fresh zeroed pages.
CSV_CHUNK_ROWS = 8_192
_CSV_ROW = "%d,%.9g,%.9g,%.9g,%d\n"

# A formatted row is 24 four-byte words of characters; blank slots are dropped.
# Words 0-3: 12 index digits, 4 blanks. Words 4-9, 10-15, 16-21: x, p, z, each
# a comma, a sign, 9 integer digits, a point and 12 fraction digits. Word 22:
# comma, bit, newline; word 23 blank.
_CSV_BLANK_ROW = b" " * 88 + b",0\n" + b" " * 5
_CSV_FIELD_WORDS = (4, 10, 16)
_CSV_BIT_BYTE = 89

# A stream's index here is its spawn key, so this order is part of every output.
_STREAM_NAMES = ("bits", "source", "chan_alice", "chan_bob", "chan_eve", "distill")


@dataclass
class RunArtifacts:
    """In-memory result of one scenario run."""

    config: ScenarioConfig
    report: MetricsReport
    parties: dict[str, PartyRecord]
    index: np.ndarray
    alignment: dict[str, AlignmentResult]
    distilled: dict | None = None

    def write(self, out_dir) -> dict[str, Path]:
        """Write per-party CSVs, the JSON report, the config echo and any
        distilled keys, as text and packed; returns every file's path.

        Each party's CSV is formatted (``_write_measurement_csv``) in its own
        forked child process while this process writes the rest, so the
        three formatters share the cores; threads were measured slower. Call
        it from a process running no other threads (``run_scenario`` joins its
        party threads before it returns): a fork could copy a lock that one of
        them holds. The digit tables are built here, before the forks, so the
        children share one copy. Every CSV is created here first, so a bad
        path raises in the caller before any fork; a child that fails raises
        RuntimeError naming its file.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        rows = {len(rec) for rec in self.parties.values()} | {len(self.index)}
        if rows != {self.report.n_bits}:
            raise ValueError(f"row counts {rows} disagree with report n_bits {self.report.n_bits}")
        paths = {name: out / f"{name}.csv" for name in PARTIES}
        for path in paths.values():
            open(path, "w").close()
        _csv_tables()
        children = {}
        try:
            for name in PARTIES:
                children[name] = _fork_measurement_csv(paths[name], self.index,
                                                       self.parties[name])
            report_path = out / "report.json"
            report_path.write_text(self.report.to_json(), encoding="utf-8")
            paths["report"] = report_path
            config_path = out / "config.cfg"
            config_path.write_text(format_config(self.config), encoding="utf-8")
            paths["config"] = config_path
            if self.distilled is not None:
                for party in ("alice", "bob"):
                    bits = self.distilled[f"{party}_key"]
                    paths[f"key_{party}"] = out / f"key_{party}.txt"
                    paths[f"key_{party}_bin"] = out / f"key_{party}.bin"
                    write_bits_text(bits, paths[f"key_{party}"])
                    write_bits_packed(bits, paths[f"key_{party}_bin"])
        finally:
            codes = {name: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                     for name, pid in children.items()}
        failed = [f"{paths[name]} (exit status {code})"
                  for name, code in codes.items() if code != 0]
        if failed:
            raise RuntimeError("measurement CSV writer process failed: " + ", ".join(failed))
        return paths


def _write_measurement_csv(path: Path, index: np.ndarray, rec: PartyRecord) -> None:
    # One row per kept symbol, the bytes of ``_CSV_ROW % row``: ``_format_rows``
    # writes the rows it can, and ``%`` the rest in their place.
    columns = (index, rec.x, rec.p, rec.z, rec.bits)
    words = np.empty((min(len(index), CSV_CHUNK_ROWS), 24), np.uint32)
    words.view(np.uint8)[:] = np.frombuffer(_CSV_BLANK_ROW, np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"index,x,p,z,bit\n")
        for lo in range(0, len(index), CSV_CHUNK_ROWS):
            chunk = [col[lo:lo + CSV_CHUNK_ROWS] for col in columns]
            rows = words[:len(chunk[0])]
            slow = np.flatnonzero(~_format_rows(chunk, rows))
            start = 0
            for at, row in zip(slow.tolist(), zip(*(col[slow].tolist() for col in chunk))):
                fh.write(rows[start:at].tobytes().translate(None, b" "))
                fh.write((_CSV_ROW % row).encode("ascii"))
                start = at + 1
            fh.write(rows[start:].tobytes().translate(None, b" "))


def _format_rows(chunk, words: np.ndarray) -> np.ndarray:
    """Write each row of ``chunk`` into ``words`` as ``_CSV_ROW`` formats it,
    with blank slots to drop; returns which rows are written.

    A row is written when its index is in ``[0, 10**10)``, its bit is 0 or 1
    and each float ``v`` has ``1e-4 <= |v| < 1e9``, where ``%.9g`` uses fixed
    point. Then ``E = floor(log10|v|)`` is exact: it is 5 less than the count
    of ``pow10`` (``1e-4 ... 1e9``) at or below ``|v|``, and the double
    nearest each ``10**k`` lies on or above it, so comparing with the double
    is comparing with ``10**k``. ``q = |v| * 10**(8 - E)`` lies in ``[1e8,
    1e9)`` and takes one rounding, of at most ``2**-24``, since each
    ``10**k`` with ``k <= 22`` is an exact double. So unless ``frac(q)`` is
    within ``1e-6`` of one half, ``rint(q)`` holds the nine digits that
    ``%.9g`` rounds ``|v|`` to. The near-half test must come before anything
    reads ``rint(q)``: ``9.999999995`` is the double ``9.99999999499...``,
    whose ``q`` rounds to ``999999999.5``, and ``%.9g`` prints
    ``9.99999999`` where a carry taken from ``rint`` would print ``10``. A
    carry (``rint(q) == 10**9``) needs no case of its own: splitting
    ``rint(q)`` at ``10**(8 - E)`` into whole and fraction digits is right
    either way, unless the whole part reaches ``10**9``, where ``%.9g``
    turns to an exponent. Leading zeros of the whole part, trailing zeros of
    the fraction, a point with no fraction and a plus sign are blank. Any
    other row is left to ``_CSV_ROW %``: one with a float that is zero,
    non-finite, out of range or near a half, an index out of range, or a
    bit that is not 0 or 1.
    """
    group, frac_digits, head, tail, pow10, exact10 = _csv_tables()
    index = chunk[0].astype(np.int64)
    ok = (index >= 0) & (index < 10 ** 10)
    top, mid, low = _digit_groups(np.where(ok, index, 0).astype(np.float64), 1e8, 1e4)
    words[:, 0] = group[(top + 1e4).astype(np.intp)]
    words[:, 1] = group[(mid + 1e4 * (top == 0)).astype(np.intp)]
    words[:, 2] = group[(low + 2e4 * ((top == 0) & (mid == 0))).astype(np.intp)]
    for at, v in zip(_CSV_FIELD_WORDS, chunk[1:4]):
        v = np.asarray(v, np.float64)
        a = np.abs(v)
        ok &= a >= 1e-4
        ok &= a < 1e9
        a = np.where(ok, a, 1.0)
        e = np.searchsorted(pow10, a, side="right")  # E + 5
        unit = exact10[13 - e]
        q = a * unit
        ok &= np.abs(q - np.floor(q) - 0.5) >= 1e-6
        whole, frac = _digit_groups(np.rint(q), unit)
        ok &= whole < 1e9
        whole = np.minimum(whole, 999_999_999)
        frac *= exact10[e - 1]                        # 12 fraction digits
        w2, w4, w3 = _digit_groups(whole, 1e7, 1e3)
        f0, f4, f8 = _digit_groups(frac, 1e8, 1e4)
        words[:, at] = head[(w2 + 100 * (v < 0)).astype(np.intp)]
        words[:, at + 1] = group[(w4 + 1e4 * (w2 == 0)).astype(np.intp)]
        words[:, at + 2] = tail[(w3 + 1e3 * (whole < 1e3) + 2e3 * (frac > 0)).astype(np.intp)]
        words[:, at + 3] = frac_digits[(f0 + 1e4 * ((f4 == 0) & (f8 == 0))).astype(np.intp)]
        words[:, at + 4] = frac_digits[(f4 + 1e4 * (f8 == 0)).astype(np.intp)]
        words[:, at + 5] = frac_digits[(f8 + 1e4).astype(np.intp)]
    bits = chunk[4]
    ok &= (bits == 0) | (bits == 1)
    words.view(np.uint8)[:, _CSV_BIT_BYTE] = np.where(bits == 1, 49, 48)
    return ok


def _digit_groups(v: np.ndarray, *units: float) -> list[np.ndarray]:
    """Split integers below ``10**12``, held as doubles, at each of ``units``
    in turn: ``v // units[0]``, the remainder ``// units[1]``, ..., and the
    last remainder. Each ``floor(v / unit)`` is exact: ``v / unit`` is an
    integer or at least ``1 / unit`` below the next one, a relative gap of
    at least ``1 / v``, far above the ``2**-53`` of one rounding."""
    out = []
    for unit in units:
        hi = np.floor(v / unit)
        out.append(hi)
        v = v - hi * unit
    return out + [v]


def _digit_table(n: int, width: int, blank=None) -> np.ndarray:
    """``(n, width)`` ASCII digits of ``0..n-1``, zero-padded, with the slots
    where ``blank(g, place)`` holds made blank."""
    g = np.arange(n)[:, None]
    place = 10 ** np.arange(width - 1, -1, -1)
    digits = ord("0") + g // place % 10
    if blank is not None:
        digits = np.where(blank(g, place), ord(" "), digits)
    return digits.astype(np.uint8)


@functools.cache
def _csv_tables():
    """Tables for ``_format_rows``, built on first use (a few ms), so that
    importing the package builds none of them. Four-character words:

    - ``group[g + 10**4 * mode]``: the 4 digits of ``g``; mode 1 blanks
      leading zeros, mode 2 all leading zeros but the last digit;
    - ``frac_digits[g + 10**4 * strip]``: the same, with trailing zeros
      blank when ``strip``;
    - ``head[g + 100 * neg]``: comma, sign, the 2 digits of ``g`` with
      leading zeros blank;
    - ``tail[g + 1000 * (lead + 2 * point)]``: the 3 digits of ``g``, with
      leading zeros but the last digit blank when ``lead``, then the point
      when ``point``.

    And powers of ten: ``pow10``, the doubles nearest ``1e-4 ... 1e9``, and
    ``exact10``, ``10**0 ... 10**13``, each an exact double.
    """
    def lead(g, place):
        return g < place

    def lead_but_last(g, place):
        return (g < place) & (place > 1)

    def trail(g, place):
        return g % (10 * place) == 0

    def words(*columns):
        return np.concatenate(columns, axis=1).view(np.uint32).ravel()

    def stack(n, width, *blanks):
        return np.concatenate([_digit_table(n, width, blank) for blank in blanks])

    group = words(stack(10_000, 4, None, lead, lead_but_last))
    frac_digits = words(stack(10_000, 4, None, trail))
    sign = np.array([[ord(","), ord(" ")], [ord(","), ord("-")]], np.uint8)
    head = words(np.repeat(sign, 100, axis=0), np.tile(_digit_table(100, 2, lead), (2, 1)))
    point = np.repeat(np.array([[ord(" ")], [ord(".")]], np.uint8), 2000, axis=0)
    tail = words(np.tile(stack(1000, 3, None, lead_but_last), (2, 1)), point)
    pow10 = np.array([float(f"1e{k}") for k in range(-4, 10)])
    exact10 = np.array([float(10 ** k) for k in range(14)])
    tables = group, frac_digits, head, tail, pow10, exact10
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _fork_measurement_csv(path: Path, index: np.ndarray, rec: PartyRecord) -> int:
    """Write one measurement CSV in a forked child; returns its pid.

    The child leaves only through ``os._exit``, so it runs no atexit hook
    and flushes none of the stdio buffers it shares with the parent. A
    failure prints its traceback straight to file descriptor 2 and exits 1.
    """
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        _write_measurement_csv(path, index, rec)
        code = 0
    except BaseException:
        os.write(2, traceback.format_exc().encode("utf-8", "replace"))
    finally:
        os._exit(code)


def _stream(seed: int, name: str) -> np.random.Generator:
    """Stream ``name`` of ``seed``: child ``_STREAM_NAMES.index(name)`` of
    ``SeedSequence(seed)``, made afresh on every call."""
    key = (_STREAM_NAMES.index(name),)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _segment_corrections(x, p, syms, lag, config):
    """Per-segment correction angle: the whole phase of the segment's pilots.

    A segment's pilots whose received index ``tx + lag`` lies in ``[0, n)``
    are one contiguous run. A segment with fewer than ``MIN_PILOTS`` of them
    keeps the previous segment's phase. A folded data symbol ``tx`` has
    ``tx + lag <= n - 1`` and comes after every pilot of its segment, so at
    ``lag >= 0`` (every link delays) its segment has all its pilots in
    range: the fallback fills only segments the fold never reads, or follows
    a negative lag, which only a wrong alignment gives.

    Only the first and the last segment with pilots in range can have just
    some of them in range, so the runs come in at most three lengths. The
    segments of each length are estimated together, one row each,
    ``kernels.BLOCK`` pilots at a time.
    """
    n = config.n_symbols
    tx0 = np.arange(0, n, config.coherence_len)
    lo = np.maximum(tx0, -lag)
    count = np.minimum(tx0 + config.pilot_len, n - max(0, lag)) - lo
    valid = count >= MIN_PILOTS
    theta = np.zeros(lo.size)
    for size in set(count[valid].tolist()):  # not np.unique: it imports numpy.ma
        rows = np.flatnonzero(count == size)
        for block in np.split(rows, np.arange(0, rows.size, max(1, kernels.BLOCK // size))[1:]):
            tx = lo[block, None] + np.arange(size)
            theta[block] = estimate_global_phase(x[tx + lag], p[tx + lag], syms[tx])
    # Not psi = theta: the angle folded into [-pi/4, pi/4) plus whole quarter
    # turns in 0..3 rounds differently, and this sum is what the golden
    # digests in tests/test_harness.py pin for every preset run.
    turns, rem = np.divmod(theta + np.pi / 4, np.pi / 2)
    psi = (rem - np.pi / 4) + (turns % 4) * (np.pi / 2)
    # Each segment takes the phase of the last valid one at or before it, 0 before any.
    last = np.maximum.accumulate(np.where(valid, np.arange(psi.size), -1))
    return np.where(last >= 0, psi[last], 0.0)


def _transmit(config):
    """Bits, QPSK symbols and the source field. Returns ``(syms, field)``,
    the field ``(re, im)`` at 16 B per symbol. No splitter output is built:
    every party's input is this field times its ``_port_chain``, which the
    party's channel combine applies block by block."""
    bits = _stream(config.seed, "bits").integers(0, 2, 2 * config.n_symbols, dtype=np.uint8)
    syms = bits_to_symbols(bits)
    return syms, sample_source_field(config.source, SYMBOL_PHASES, syms,
                                     _stream(config.seed, "source"))


def _port_chain(name, config):
    """The amplitudes that take the source field to ``name``'s input, in the
    order the splitters apply them: the 50:50 split passes its through port
    to Alice and its reflected port to the broadcast, whose tap passes
    ``eve_transmittance`` to Bob and the rest to Eve."""
    alice, broadcast = splitter_amplitudes(0.5)
    bob, eve = splitter_amplitudes(config.eve_transmittance)
    return {"alice": (alice,), "bob": (broadcast, bob), "eve": (broadcast, eve)}[name]


def _data_indices(lo, hi, config):
    """Data symbols (not pilots) at transmitted indices in ``[lo, hi)``, listed
    segment by segment. No offset at or past ``hi`` is made, so a segment far
    longer than the run costs only the run."""
    seg_len = config.coherence_len
    index = (np.arange(lo // seg_len, (hi - 1) // seg_len + 1)[:, None] * seg_len
             + np.arange(config.pilot_len, min(seg_len, hi))).ravel()
    return index[np.searchsorted(index, lo):np.searchsorted(index, hi)]


def _data_before(tx, config):
    """Data symbols (not pilots) at transmitted indices below ``tx``."""
    segments, rem = divmod(tx, config.coherence_len)
    return segments * (config.coherence_len - config.pilot_len) + max(0, rem - config.pilot_len)


def _draw_link(name, config):
    """A party's link draws, ``chan_<name>``: the phase walk's cosines and
    sines and the unit-variance noise of its receiver and detector, 32 B
    per symbol. They read no field, so they can be made while the source is
    transmitted, and of the link only its drift."""
    return draw_channel(getattr(config, f"{name}_link").drift, config.n_symbols,
                        _stream(config.seed, f"chan_{name}"))


@dataclass
class _Receive:
    """A party's fold: its ``alignment``, the data symbols before its folded
    range (``start``) and the folded ``x``, ``p`` and ``z``, 24 B per folded
    symbol. ``x`` and ``p`` are views of the received quadratures, which the
    fold overwrote, so they live in the link's cosines and sines (or the
    copies a grid gave the receive).

    It also holds what a finish took from it over the last common window
    it read, keyed by the ``window``'s offset into the fold and its size:
    the ``record`` over the window, with bits from ``median_slice``, and
    the ``moments`` of its ``z`` (see ``infotheory.pearson_rs``), None
    until a report has taken them.
    """

    alignment: AlignmentResult
    start: int
    x: np.ndarray
    p: np.ndarray
    z: np.ndarray
    window: tuple[int, int] | None = None
    record: PartyRecord | None = None
    moments: tuple[float, float] | None = None

    def record_at(self, first, size):
        """The record of the ``size`` data symbols from the ``first``-th: the
        one held if it covers that window, else a new one, held in its
        place with no moments yet."""
        window = (first - self.start, size)
        if window != self.window:
            part = slice(window[0], window[0] + size)
            z = self.z[part]
            self.window, self.moments = window, None
            self.record = PartyRecord(x=self.x[part], p=self.p[part], z=z, bits=median_slice(z))
        return self.record


def _receive_party(name, inputs, config, syms, drawn, spectra):
    """Channel with heterodyne, alignment, pilot phases and fold of one party.

    Reads no other party's link, its delay search included, so a receive
    depends only on the transmission and ``_receive_key(name, config)``;
    a grid run makes each distinct receive once. Pops the source field
    from ``inputs[name]`` and its ``_draw_link`` draws from ``drawn``, and
    drops each once combined. The combine applies the party's
    ``_port_chain`` to the field block by block, so the party's input is
    never built. The heterodyne's vacuum unit and the link's receiver
    noise are one circular Gaussian, so the combine adds the link's unit
    noise scaled to ``sqrt(DETECTION_NOISE_VAR + rx_noise_var)`` and its
    output is the quadratures ``x`` and ``p``. It builds them in the link's
    cosines and sines, so a receive makes no other array of the run's
    length before its fold; it only reads the field and the noise.
    ``spectra`` holds the transmission's reference transforms for the
    delay search.

    The fold covers the party's own data range on the transmitted clock:
    every data symbol ``tx`` whose received index ``tx + lag`` lies in
    ``[0, n)``. Its angle is ``psi[segment] + SYMBOL_PHASES[symbol]``, so
    the cosines and sines are taken once per (segment, symbol) cell, and
    ``kernels.demod_fold`` gathers them and the quadratures block by block;
    each cell's angle is the same double sum as the per-symbol one, so the
    bytes are too. The fold writes ``x'`` and ``p'`` over the quadratures
    and makes only ``z``, 8 B per folded symbol. Returns the fold as a
    ``_Receive``.
    """
    n = config.n_symbols
    link = getattr(config, f"{name}_link")
    max_lag = min(max(MIN_ALIGNMENT_LAG, 2 * link.max_history), n // 4)
    window = min(n, max(8 * max_lag, ALIGNMENT_WINDOW))
    x, p = apply_channel(inputs.pop(name), link, drawn.pop(name), DETECTION_NOISE_VAR,
                         _port_chain(name, config))
    found = estimate_delay_and_rotation(syms[:window], x[:window] + 1j * p[:window], max_lag,
                                        spectra)
    psi = _segment_corrections(x, p, syms, found.lag, config)
    first = _data_before(max(0, -found.lag), config)
    count = _data_before(n - max(0, found.lag), config) - first
    angle = (psi[:, None] + SYMBOL_PHASES).ravel()
    xf, pf, z = kernels.demod_fold(x, p, syms, found.lag, first, count, config.coherence_len,
                                   config.pilot_len, np.cos(angle), np.sin(angle))
    return _Receive(found, first, xf, pf, z)


def _finish(config, received, common_index=_data_indices) -> RunArtifacts:
    """Post-processing over the public channel: common index, slice, report
    and distillation.

    Each party's record is the common window's part of its folded receive,
    with bits from ``median_slice``. A receive that a grid's earlier point
    read over the same window gives that point's record, and the moments of
    its ``z`` that the report took, again (``_Receive.record_at``), so the
    finish computes only what depends on the three parties together: the
    joint bit table, the cross sums of the correlations, the BER and the
    distillation. The bytes are those of a lone run. ``common_index``
    lists the window's data symbols: a grid's points take it from their
    group, which makes it once per window (``_GroupCache.common_index``).
    """
    n = config.n_symbols
    alignment = {name: received[name].alignment for name in PARTIES}
    # Common aligned range on the transmitted clock, data symbols only. Every
    # |lag| <= max_lag <= n // 4, so it holds at least n/2 - 1 symbols.
    u_lo = max(0, *(-alignment[name].lag for name in PARTIES))
    u_hi = min(n - 1 - max(0, alignment[name].lag) for name in PARTIES)
    index = common_index(u_lo, u_hi + 1, config)
    # Slicing needs two symbols and distillation one whole block.
    for field, need in (("pilot_len", 2), ("ad_block", config.ad_block or 0)):
        if index.size < need:
            raise ConfigError([
                f"{field}: {config.pilot_len} pilots per segment and the alignment edges "
                f"leave {index.size} data symbols of {n}; need at least {need}"])

    first = _data_before(u_lo, config)
    records = {name: received[name].record_at(first, index.size) for name in PARTIES}
    moments = [received[name].moments for name in PARTIES]
    report = build_report(records["alice"], records["bob"], records["eve"], moments)
    for name, taken in zip(PARTIES, moments):
        received[name].moments = taken

    distilled = None
    if config.ad_block is not None:
        a_kept, b_kept, kept_fraction = advantage_distill(
            records["alice"].bits, records["bob"].bits, config.ad_block,
            _stream(config.seed, "distill"))
        distilled = {
            "block": config.ad_block,
            "kept_fraction": kept_fraction,
            "n_kept": int(a_kept.size),
            "ber_kept": bit_error_rate(a_kept, b_kept) if a_kept.size else 0.0,
            "alice_key": a_kept,
            "bob_key": b_kept,
        }

    return RunArtifacts(config=config, report=report, parties=records,
                        index=index, alignment=alignment, distilled=distilled)


def _transmission_key(config):
    """All that ``_transmit`` reads."""
    return config.seed, config.n_symbols, config.source, config.eve_transmittance


def _receive_key(name, config):
    """All that ``_receive_party`` reads besides the transmission."""
    return name, getattr(config, f"{name}_link"), config.coherence_len, config.pilot_len


def _link_draw_key(name, config):
    """All that ``_draw_link`` reads besides the seed and the run length."""
    return name, getattr(config, f"{name}_link").drift


class _GroupCache:
    """The transmission of a group of points, the folded receives they
    share and the draws that those receives share.

    ``uses`` counts from the group's configs before any point runs: the
    points that read each receive, and each party's distinct receives per
    drift of its link. A receive is dropped after the last point that reads
    it. The group holds the source field until the point that makes its
    last new receives, and those receives hold it until they have combined.
    A party's link draws for one drift go to the last distinct receive that
    reads them. Until then the group holds them, 32 B per symbol per party;
    each earlier receive reads the noise, and takes copies of the link's
    cosines and sines (16 B per symbol), which its combine writes into. A
    held receive is a ``_Receive``, the party's folded ``x``, ``p`` and
    ``z``, which each point slices to its own common window. The receive
    keeps the last window's record and the moments of its ``z``, so the
    points that read it over one window slice, threshold and centre it
    once, and it drops them with itself. The group likewise keeps the last
    common index it made (``common_index``). A ``threaded`` group receives
    a point's new parties on party threads when there are two or more of
    them.
    """

    def __init__(self, configs, threaded=True):
        self.threaded = threaded
        self.uses = Counter(_receive_key(name, cfg) for cfg in configs for name in PARTIES)
        self.unmade = len(self.uses)   # distinct receives not yet made
        # Keyed by _link_draw_key: the distinct receives that read each link draw.
        self.uses.update((name, link.drift) for name, link, *_ in list(self.uses))
        self.held = {}
        self.draws = {}
        self.transmission = None
        self.field = None
        self.index = None, None

    def received(self, config):
        """Each party's receive for one point; transmits on the first.

        In a threaded group, a point with two or more new receives starts
        ``PARTY_THREADS`` party threads. Each draws one party's link, unless
        the group holds that draw, while this thread transmits, then
        receives that party; this thread then receives any other party,
        drawing its link itself if need be. Any other point transmits and
        receives on this thread and starts no pool. Whether a receive's
        draws are shared, and whether the group lets the source field go,
        is settled here, before any receive starts: each receive gets the
        field in a dict entry of its own, which it pops.
        """
        keys = {name: _receive_key(name, config) for name in PARTIES}
        new = [name for name in PARTIES if keys[name] not in self.held]
        shared = {}
        for name in new:
            key = _link_draw_key(name, config)
            self.uses[key] -= 1
            shared[key] = self.uses[key] > 0
        self.unmade -= len(new)
        workers = min(PARTY_THREADS, len(new)) if self.threaded and len(new) >= 2 else 0
        with ThreadPoolExecutor(workers) if workers else contextlib.nullcontext() as pool:
            early = {name: pool.submit(_draw_link, name, config) for name in new[:workers]
                     if _link_draw_key(name, config) not in self.draws}
            if self.transmission is None:
                syms, self.field = _transmit(config)
                self.transmission = syms, ReferenceSpectra()
            inputs = dict.fromkeys(new, self.field)
            if not self.unmade:
                self.field = None
            # Submitted after every early draw, so a receive waits only on a
            # draw that a worker has started or finished.
            pooled = [pool.submit(self._receive, name, config, inputs, shared, early)
                      for name in new[:workers]]
            made = [self._receive(name, config, inputs, shared, early)
                    for name in new[workers:]]
            made = [f.result() for f in pooled] + made
        self.held.update(zip((keys[name] for name in new), made))
        received = {name: self.held[keys[name]] for name in PARTIES}
        for key in keys.values():
            self.uses[key] -= 1
            if not self.uses[key]:
                del self.held[key]
        return received

    def _receive(self, name, config, inputs, shared, early):
        """One new receive of ``name``, which pops the source field from
        ``inputs``. Its link draws come from its future in ``early``, the
        group or a draw on this thread (see ``_take``). The draw dict is
        built in the call, and the future is popped, so no name here keeps
        an input alive once ``_receive_party`` has used it."""
        syms, spectra = self.transmission
        link = _link_draw_key(name, config)
        return _receive_party(
            name, inputs, config, syms,
            {name: self._take(link, shared[link], early.pop(name).result if name in early
                              else lambda: _draw_link(name, config))},
            spectra)

    def _take(self, key, shared, make):
        """Link draws ``key`` for one receive: the arrays the group holds,
        or ``make()``'s. While ``shared`` (a later receive needs them) the
        group holds them too, and the receive gets copies of the cosines and
        sines, which its combine writes into, and the noise itself, which it
        only reads; otherwise the receive takes the arrays themselves."""
        drawn = self.draws.pop(key, None)
        if drawn is None:
            drawn = make()
        if not shared:
            return drawn
        self.draws[key] = drawn
        cos_t, sin_t, noise = drawn
        return cos_t.copy(), sin_t.copy(), noise

    def common_index(self, lo, hi, config):
        """``_data_indices(lo, hi, config)``, made again only when the window
        or the segment layout differs from the last call's."""
        key = lo, hi, config.coherence_len, config.pilot_len
        if self.index[0] != key:
            self.index = key, _data_indices(lo, hi, config)
        return self.index[1]


def run_scenario(config: ScenarioConfig, _group=None) -> RunArtifacts:
    """Execute one scenario; fully deterministic given ``config.seed``.

    On its own it transmits while ``PARTY_THREADS`` threads draw the
    parties' links, receives the parties on those threads and its own and
    frees each party's input field once that party is received. As a point
    of a grid run, ``_group`` is its group's ``_GroupCache``: the point
    takes the transmission and the receives it shares with earlier points
    from it, so its bytes are the same.
    """
    group = _group or _GroupCache([config])
    return _finish(config, group.received(config), group.common_index)


def _grid_reports(configs, jobs: int) -> list[MetricsReport]:
    """The report of each of ``configs``, in order.

    Points with the same ``_transmission_key`` form a group, and the groups
    run on ``min(jobs, os.cpu_count(), groups)`` threads. On one thread
    they run on the caller, each group threaded, so its points receive
    their parties on party threads; on a pool, each group receives in place
    on its worker. A group's points run one after another, each a
    ``run_scenario`` call given the group's ``_GroupCache``, so no two of
    its ``_finish`` calls overlap.
    """
    if jobs < 1:
        raise ConfigError([f"jobs: must be >= 1, got {jobs}"])
    groups = {}
    for i, cfg in enumerate(configs):
        groups.setdefault(_transmission_key(cfg), []).append(i)
    # pool.map submits every group at once, and the pool starts a thread per
    # submit up to max_workers, so ``jobs`` alone could start a thread per group.
    workers = min(jobs, os.cpu_count() or 1, len(groups))

    def run_group(indices):
        group = _GroupCache([configs[i] for i in indices], threaded=workers <= 1)
        return [(i, run_scenario(configs[i], group).report) for i in indices]

    if workers <= 1:
        done = list(map(run_group, groups.values()))
    else:
        with ThreadPoolExecutor(workers) as pool:
            done = list(pool.map(run_group, groups.values()))
    reports = dict(itertools.chain.from_iterable(done))
    return [reports[i] for i in range(len(configs))]


# ---------------------------------------------------------------------------
# scenario presets (calibrated defaults; see calibrate_preset)

# Phase drift of a low-loss guided link (tiny walk, rare hops) and of a
# lossy free-space link.
GUIDED_DRIFT = PhaseDriftParams(walk_sigma=2e-4, hop_prob=1e-5, hop_scale=0.2)
FREE_SPACE_DRIFT = PhaseDriftParams(walk_sigma=8e-4, hop_prob=5e-5, hop_scale=0.35)


def waveguide_scenario(seed: int = 0, n_symbols: int = 3_000_000,
                       ad_block: int | None = 2) -> ScenarioConfig:
    """Guided-channel scenario: every party on a low-loss waveguide link.

    Link noises were fixed by calibrate_preset("waveguide") so that the
    Alice-Bob amplitude correlation lands on its target while both secrecy
    conditions stay positive.
    """
    return ScenarioConfig(
        seed=seed,
        n_symbols=n_symbols,
        source=SourceParams(nbar=60.0, d0=40.0),
        alice_link=ChannelParams(transmittance=0.6, delay=0, drift=GUIDED_DRIFT,
                                 taps=(TapSpec(12, 0.02, 0.6),), rx_noise_var=0.1),
        bob_link=ChannelParams(transmittance=0.9, delay=7, drift=GUIDED_DRIFT,
                               taps=(TapSpec(9, 0.02, -0.8),), rx_noise_var=0.1),
        eve_link=ChannelParams(transmittance=0.9, delay=9, drift=GUIDED_DRIFT,
                               taps=(TapSpec(9, 0.02, 2.1),), rx_noise_var=1.72),
        eve_transmittance=0.5,
        coherence_len=10_000,
        pilot_len=64,
        ad_block=ad_block,
    )


def freespace_scenario(seed: int = 0, n_symbols: int = 3_000_000,
                       ad_block: int | None = 2) -> ScenarioConfig:
    """Broadcast scenario: Alice keeps a guided link, Bob and Eve are in free
    space behind a 50:50 tap with symmetric lossy multipath links."""
    return ScenarioConfig(
        seed=seed,
        n_symbols=n_symbols,
        source=SourceParams(nbar=295.0, d0=40.0),
        alice_link=ChannelParams(transmittance=0.9, delay=0, drift=GUIDED_DRIFT,
                                 taps=(TapSpec(12, 0.02, 0.6),), rx_noise_var=1.2),
        bob_link=ChannelParams(transmittance=0.25, delay=23, drift=FREE_SPACE_DRIFT,
                               taps=(TapSpec(3, 0.05, 1.9), TapSpec(7, 0.035, -2.4),
                                     TapSpec(19, 0.02, 0.7)), rx_noise_var=0.6),
        eve_link=ChannelParams(transmittance=0.25, delay=31, drift=FREE_SPACE_DRIFT,
                               taps=(TapSpec(4, 0.05, -1.2), TapSpec(9, 0.035, 2.9),
                                     TapSpec(23, 0.02, -0.3)), rx_noise_var=0.6),
        eve_transmittance=0.5,
        coherence_len=10_000,
        pilot_len=64,
        ad_block=ad_block,
    )


SCENARIO_PRESETS = {"waveguide": waveguide_scenario, "freespace": freespace_scenario}


# ---------------------------------------------------------------------------
# calibration

class CalibrationError(RuntimeError):
    """No grid point reached the targets; ``best`` holds the closest result."""

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


# Named statistic targets the calibration search aims for, each as
# (target value, acceptance half-width on the achieved statistic).
CALIBRATION_TARGETS = {
    "waveguide": {"r_ab": (0.9264, 0.02)},
    "freespace": {"r_be": (0.89, 0.02), "ber_ab": (0.113, 0.015)},
}

# Default parameter grids. Each key is a tuple of dotted fields set together
# (Bob and Eve stay symmetric in the free-space search).
CALIBRATION_RANGES = {
    "waveguide": {
        ("alice_link.rx_noise_var",): np.linspace(0.05, 0.6, 12),
    },
    "freespace": {
        ("bob_link.rx_noise_var", "eve_link.rx_noise_var"): np.linspace(0.3, 1.5, 9),
        ("alice_link.rx_noise_var",): np.linspace(0.3, 1.9, 9),
    },
}


@dataclass
class CalibrationResult:
    config: ScenarioConfig
    achieved: dict[str, float]
    targets: dict[str, float]
    table: list


def calibrate_preset(target, n_symbols: int = 200_000, seed: int = 1_234_567,
                     jobs: int = 1) -> CalibrationResult:
    """Grid-search channel noises so simulated statistics hit named targets.

    ``target`` names a preset ("waveguide" or "freespace"); its statistic
    targets and parameter grid are CALIBRATION_TARGETS[target] and
    CALIBRATION_RANGES[target]. Every point's config is built before any
    point runs, and every point runs at ``seed``. ``table`` holds
    ``(point, achieved, objective)`` per point, where the objective is the
    summed squared deviation of the achieved statistics. Raises
    CalibrationError when the best point misses any target by more than
    its tolerance. Every point shares one transmission, so the grid is one
    group and runs on the calling thread whatever ``jobs`` is.
    """
    if target not in SCENARIO_PRESETS:
        raise ValueError(f"unknown preset {target!r}; expected one of {sorted(SCENARIO_PRESETS)}")
    goals = CALIBRATION_TARGETS[target]
    targets = {k: value for k, (value, _) in goals.items()}
    search = CALIBRATION_RANGES[target]
    base = SCENARIO_PRESETS[target](seed=seed, n_symbols=n_symbols, ad_block=None)

    points = list(itertools.product(*search.values()))
    configs = []
    for point in points:
        cfg = base
        for key, value in zip(search, point):
            for dotted in key:
                cfg = set_config_value(cfg, dotted, value)
        configs.append(cfg)
    reports = _grid_reports(configs, jobs)

    table = []
    for point, report in zip(points, reports):
        achieved = {k: float(getattr(report, k)) for k in targets}
        table.append((point, achieved, sum((achieved[k] - targets[k]) ** 2 for k in targets)))
    best = min(range(len(table)), key=lambda i: table[i][2])
    achieved = table[best][1]
    result = CalibrationResult(config=configs[best], achieved=achieved, targets=targets,
                               table=table)
    misses = [
        f"{k}: achieved {achieved[k]:.4f} vs target {value:.4f}"
        for k, (value, tolerance) in goals.items()
        if abs(achieved[k] - value) > tolerance
    ]
    if misses:
        raise CalibrationError("calibration missed targets: " + "; ".join(misses), result)
    return result


def write_preset_file(result: CalibrationResult, path) -> None:
    """Persist a calibrated preset with its achieved statistics as comments."""
    lines = ["# calibrated scenario preset"]
    for k, v in sorted(result.targets.items()):
        lines.append(f"# target {k} = {v}  achieved = {result.achieved[k]:.5f}")
    text = "\n".join(lines) + "\n" + format_config(result.config)
    Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# sweeps

def sweep(base: ScenarioConfig, param: str, values, jobs: int = 1):
    """Run the scenario across values of one dotted config key.

    Every point's config is built before any point runs, so a value the key
    rejects raises ConfigError before the first run; every point runs at
    ``base.seed``, so sweeping ``seed`` runs one point per seed. Returns a
    list of (value, MetricsReport) in input order regardless of ``jobs``, so
    output files are byte-stable under any parallelism.
    """
    values = list(values)
    configs = [set_config_value(base, param, v) for v in values]
    reports = _grid_reports(configs, jobs)
    return list(zip(values, reports))


def sweep_csv(rows, param: str) -> str:
    """Render sweep output as a CSV with one row per parameter value.

    An integral value is written with ``%d``, so labels stay distinct past
    the nine digits of ``%.9g``.
    """
    names = [f.name for f in dataclasses.fields(MetricsReport)]
    lines = [param + "," + ",".join(names)]
    for value, report in rows:
        d = report.to_dict()
        label = "%d" % value if float(value).is_integer() else "%.9g" % value
        lines.append(label + "," + ",".join(
            "%.9g" % d[name] if name != "n_bits" else "%d" % d[name] for name in names))
    return "\n".join(lines) + "\n"


def sweep_values(start: float, stop: float, step: float) -> list[float]:
    """Inclusive arithmetic grid: start, start+step, ..., up to stop.

    A ``stop`` within a billionth of a step of a grid point counts as that
    point, and no value exceeds ``stop``: the last point is clipped to it.
    Raises ConfigError naming the field when a bound or the step is not
    finite, the step is not positive, ``stop < start`` (an empty grid), or
    the step gives more than MAX_SWEEP_POINTS points.
    """
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise ConfigError([f"{name}: must be finite, got {value}"])
    if step <= 0:
        raise ConfigError([f"step: must be > 0, got {step}"])
    if stop < start:
        raise ConfigError([f"stop: must be >= start, got {stop} < {start}"])
    span = (stop - start) / step
    if not span < MAX_SWEEP_POINTS:   # also an infinite span
        raise ConfigError([f"step: {step} gives {span + 1:.6g} points from {start} to "
                           f"{stop}; at most {MAX_SWEEP_POINTS} are allowed"])
    count = math.floor(span + 1e-9) + 1
    return [min(start + i * step, stop) for i in range(count)]
