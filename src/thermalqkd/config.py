"""Scenario configuration and its flat key-value file format.

Grammar: one ``key = value`` pair per line; ``#`` starts a comment; blank
lines are ignored. Keys use dotted section names (``bob_link.rx_noise_var``).
Tap lists are comma-separated ``delay:amplitude:phase`` triples, or empty.
Example::

    seed = 7
    n_symbols = 3000000
    source.nbar = 60.0
    source.d0 = 40.0
    eve_transmittance = 0.5
    coherence_len = 10000
    pilot_len = 64
    ad_block = 2
    bob_link.transmittance = 0.9
    bob_link.delay = 7
    bob_link.rx_noise_var = 0.1
    bob_link.drift.walk_sigma = 2e-4
    bob_link.drift.hop_prob = 1e-5
    bob_link.drift.hop_scale = 0.2
    bob_link.taps = 12:0.02:0.6
    ...

``ad_block`` may be omitted or set to ``none`` to skip distillation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from numbers import Integral

from .channels import ChannelParams, PhaseDriftParams, TapSpec
from .optics import SourceParams

_LINKS = ("alice_link", "bob_link", "eve_link")


class ConfigError(ValueError):
    """Invalid configuration; ``problems`` lists per-field messages."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    n_symbols: int
    source: SourceParams
    alice_link: ChannelParams
    bob_link: ChannelParams
    eve_link: ChannelParams
    eve_transmittance: float = 0.5
    coherence_len: int = 10_000
    pilot_len: int = 64
    ad_block: int | None = None

    def __post_init__(self):
        problems = []
        if not 0 <= self.seed < 2 ** 64:
            problems.append(f"seed: must be a 64-bit unsigned integer, got {self.seed}")
        if self.n_symbols < 1000:
            problems.append(f"n_symbols: must be >= 1000, got {self.n_symbols}")
        if not 0.0 <= self.eve_transmittance <= 1.0:
            problems.append(f"eve_transmittance: must be in [0, 1], got {self.eve_transmittance}")
        if self.pilot_len < 16:
            problems.append(f"pilot_len: must be >= 16, got {self.pilot_len}")
        if self.coherence_len <= self.pilot_len:
            problems.append(
                f"coherence_len: must be > pilot_len, got {self.coherence_len} <= {self.pilot_len}")
        if self.ad_block is not None and self.ad_block < 2:
            problems.append(f"ad_block: must be >= 2 or absent, got {self.ad_block}")
        for name in _LINKS:
            link = getattr(self, name)
            if link.max_history > self.n_symbols // 8:
                problems.append(
                    f"{name}: delay plus tap depth {link.max_history} exceeds "
                    f"n_symbols/8 = {self.n_symbols // 8}; alignment window cannot cover it")
        if problems:
            raise ConfigError(problems)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parsing it back reproduces ``cfg`` exactly."""
    lines = [
        f"seed = {cfg.seed}",
        f"n_symbols = {cfg.n_symbols}",
        f"eve_transmittance = {_fmt(cfg.eve_transmittance)}",
        f"coherence_len = {cfg.coherence_len}",
        f"pilot_len = {cfg.pilot_len}",
        f"ad_block = {'none' if cfg.ad_block is None else cfg.ad_block}",
        f"source.nbar = {_fmt(cfg.source.nbar)}",
        f"source.d0 = {_fmt(cfg.source.d0)}",
    ]
    for name in _LINKS:
        link: ChannelParams = getattr(cfg, name)
        taps = ", ".join(f"{t.delay}:{_fmt(t.amplitude)}:{_fmt(t.phase)}" for t in link.taps)
        lines += [
            f"{name}.transmittance = {_fmt(link.transmittance)}",
            f"{name}.delay = {link.delay}",
            f"{name}.rx_noise_var = {_fmt(link.rx_noise_var)}",
            f"{name}.drift.walk_sigma = {_fmt(link.drift.walk_sigma)}",
            f"{name}.drift.hop_prob = {_fmt(link.drift.hop_prob)}",
            f"{name}.drift.hop_scale = {_fmt(link.drift.hop_scale)}",
            f"{name}.taps = {taps}",
        ]
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ScenarioConfig:
    """Parse the key-value grammar into a validated ScenarioConfig."""
    raw: dict[str, str] = {}
    problems = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = value
    if problems:
        raise ConfigError(problems)
    return config_from_dict(raw)


def _parse_taps(value: str):
    taps = []
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ValueError(f"tap must be delay:amplitude:phase, got {part!r}")
        taps.append(TapSpec(delay=int(pieces[0]), amplitude=float(pieces[1]),
                            phase=float(pieces[2])))
    return tuple(taps)


def config_from_dict(raw: dict[str, str]) -> ScenarioConfig:
    """Build a ScenarioConfig from string values, collecting field errors."""
    problems = []
    consumed = set()

    def take(key, conv, default=dataclasses.MISSING):
        if key in raw:
            consumed.add(key)
            try:
                return conv(raw[key])
            except (ValueError, TypeError) as exc:
                problems.append(f"{key}: {exc}")
                return None
        if default is dataclasses.MISSING:
            problems.append(f"{key}: missing required key")
            return None
        return default

    def to_int(s):
        return int(s, 0)

    def to_ad(s):
        return None if s.strip().lower() in ("none", "") else int(s, 0)

    kwargs = dict(
        seed=take("seed", to_int),
        n_symbols=take("n_symbols", to_int),
        eve_transmittance=take("eve_transmittance", float, 0.5),
        coherence_len=take("coherence_len", to_int, 10_000),
        pilot_len=take("pilot_len", to_int, 64),
        ad_block=take("ad_block", to_ad, None),
    )
    nbar = take("source.nbar", float)
    d0 = take("source.d0", float)
    if nbar is not None and d0 is not None:
        try:
            kwargs["source"] = SourceParams(nbar=nbar, d0=d0)
        except ValueError as exc:
            problems.append(f"source: {exc}")
    for name in _LINKS:
        fields = dict(
            transmittance=take(f"{name}.transmittance", float, 1.0),
            delay=take(f"{name}.delay", to_int, 0),
            rx_noise_var=take(f"{name}.rx_noise_var", float, 0.0),
            taps=take(f"{name}.taps", _parse_taps, ()),
        )
        drift_fields = dict(
            walk_sigma=take(f"{name}.drift.walk_sigma", float, 0.0),
            hop_prob=take(f"{name}.drift.hop_prob", float, 0.0),
            hop_scale=take(f"{name}.drift.hop_scale", float, 0.0),
        )
        if any(v is None for v in fields.values()) or any(v is None for v in drift_fields.values()):
            continue
        try:
            kwargs[name] = ChannelParams(drift=PhaseDriftParams(**drift_fields), **fields)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
    unknown = sorted(set(raw) - consumed)
    problems += [f"{key}: unknown key" for key in unknown]
    if problems:
        raise ConfigError(problems)
    try:
        return ScenarioConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError([str(exc)]) from exc


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def save_config(cfg: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_config(cfg))


def _value_text(value) -> str:
    """File-format text of a value: integral floats are written as ints, so
    integer fields accept the floats a numeric sweep produces."""
    if isinstance(value, str):
        return value
    if isinstance(value, Integral):
        return str(int(value))
    v = float(value)
    return str(int(v)) if v.is_integer() else repr(v)


def set_config_value(cfg: ScenarioConfig, dotted_key: str, value) -> ScenarioConfig:
    """Return a copy of ``cfg`` with one dotted field replaced.

    Accepts the same dotted keys and values as the file format, e.g.
    ``eve_transmittance``, ``source.nbar`` or ``bob_link.drift.walk_sigma``.
    The value goes through the parser, so unknown keys and bad values raise
    ConfigError.
    """
    raw = dict(line.split(" = ", 1) for line in format_config(cfg).splitlines())
    raw[dotted_key] = _value_text(value)
    return config_from_dict(raw)
