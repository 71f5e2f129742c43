"""Scenario configuration and its flat key-value file format.

Grammar: one ``key = value`` pair per line; ``#`` starts a comment; blank
lines are ignored. Keys use dotted section names (``bob_link.rx_noise_var``).
Tap lists are comma-separated ``delay:amplitude:phase`` triples, or empty.
Example, in the order ``format_config`` writes the keys::

    seed = 7
    n_symbols = 3000000
    eve_transmittance = 0.5
    coherence_len = 10000
    pilot_len = 64
    ad_block = 2
    source.nbar = 60.0
    source.d0 = 40.0
    ...
    bob_link.transmittance = 0.9
    bob_link.delay = 7
    bob_link.rx_noise_var = 0.1
    bob_link.drift.walk_sigma = 0.0002
    bob_link.drift.hop_prob = 1e-05
    bob_link.drift.hop_scale = 0.2
    bob_link.taps = 9:0.02:-0.8
    ...

``seed``, ``n_symbols``, ``source.nbar`` and ``source.d0`` are required; an
omitted key takes its dataclass default (``ad_block = none``: no distillation).
``eve_transmittance`` is the power transmittance ``t`` of the tap's
through-port, which goes to Bob; Eve takes ``1 - t``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import typing
from dataclasses import dataclass
from numbers import Integral
from operator import attrgetter

from .channels import ChannelParams, TapSpec
from .modem import MIN_PILOTS
from .optics import SourceParams

# The receiving parties, in the order every per-party output lists them.
PARTIES = ("alice", "bob", "eve")
_LINKS = tuple(f"{name}_link" for name in PARTIES)


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
        # A run holds about 105 B per symbol at its peak, so 1e9 symbols is about 105 GB.
        if not 1000 <= self.n_symbols <= 10 ** 9:
            problems.append(f"n_symbols: must be in [1000, 1e9], got {self.n_symbols}")
        if not 0.0 <= self.eve_transmittance <= 1.0:
            problems.append(f"eve_transmittance: must be in [0, 1], got {self.eve_transmittance}")
        if self.pilot_len < MIN_PILOTS:
            problems.append(f"pilot_len: must be >= {MIN_PILOTS}, got {self.pilot_len}")
        if self.coherence_len <= self.pilot_len:
            problems.append(
                f"coherence_len: must be > pilot_len, got {self.coherence_len} <= {self.pilot_len}")
        elif self.coherence_len > 10 ** 9:
            problems.append(f"coherence_len: must be <= 1e9, got {self.coherence_len}")
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


_int = functools.partial(int, base=0)


def _ad_block(text: str) -> int | None:
    return None if text.strip().lower() in ("none", "") else _int(text)


def _parse_taps(text: str) -> tuple[TapSpec, ...]:
    taps = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ValueError(f"tap must be delay:amplitude:phase, got {part!r}")
        taps.append(TapSpec(delay=_int(pieces[0]), amplitude=float(pieces[1]),
                            phase=float(pieces[2])))
    return tuple(taps)


# Every file key and its parser, in the order format_config writes them. A
# key is the dotted path of a field below ScenarioConfig: an absent key keeps
# that field's dataclass default, and a field with no default is required.
_KEYS = {
    "seed": _int,
    "n_symbols": _int,
    "eve_transmittance": float,
    "coherence_len": _int,
    "pilot_len": _int,
    "ad_block": _ad_block,
    "source.nbar": float,
    "source.d0": float,
    **{f"{link}.{leaf}": parse for link in _LINKS for leaf, parse in (
        ("transmittance", float), ("delay", _int), ("rx_noise_var", float),
        ("drift.walk_sigma", float), ("drift.hop_prob", float), ("drift.hop_scale", float),
        ("taps", _parse_taps))},
}


def _sections(cls, prefix: str = "") -> dict:
    """Each dataclass below ``cls`` by dotted prefix ("" is ``cls``), with its
    fields as (name, dotted key, is a dataclass, has no default)."""
    hints = typing.get_type_hints(cls)
    fields = tuple((f.name, prefix + f.name, dataclasses.is_dataclass(hints[f.name]),
                    f.default is f.default_factory is dataclasses.MISSING)
                   for f in dataclasses.fields(cls))
    sections = {prefix: (cls, fields)}
    for name, key, nested, _ in fields:
        if nested:
            sections.update(_sections(hints[name], key + "."))
    return sections


_SECTIONS = _sections(ScenarioConfig)
_REQUIRED = {key for _, fields in _SECTIONS.values()
             for _, key, nested, required in fields if required and not nested}
# The keys of each top-level field of ScenarioConfig, in table order.
_GROUPS = {name: tuple(keys) for name, keys in
           itertools.groupby(_KEYS, lambda key: key.split(".")[0])}
_GETTERS = {key: attrgetter(key) for key in _KEYS}


def _fmt(value) -> str:
    """File text of a field value; numpy scalars are written as Python numbers."""
    if isinstance(value, tuple):
        return ", ".join(f"{t.delay}:{_fmt(t.amplitude)}:{_fmt(t.phase)}" for t in value)
    if value is None:
        return "none"
    return str(int(value)) if isinstance(value, Integral) else repr(float(value))


def format_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parsing it back reproduces ``cfg`` exactly."""
    return "".join(f"{key} = {_fmt(get(cfg))}\n" for key, get in _GETTERS.items())


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


def parse_value(key: str, text: str):
    """The value of ``key`` that ``text`` gives in the file grammar; raises
    ConfigError naming the key if it gives none."""
    try:
        return _KEYS[key](text)
    except (ValueError, TypeError) as exc:
        raise ConfigError([f"{key}: {exc}"]) from None


def _build(prefix: str, values: dict):
    """The section at ``prefix`` from parsed values; absent keys keep defaults."""
    cls, fields = _SECTIONS[prefix]
    kwargs = {}
    for name, key, nested, _ in fields:
        if nested:
            kwargs[name] = _build(key + ".", values)
        elif key in values:
            kwargs[name] = values[key]
    return cls(**kwargs)


def config_from_dict(raw: dict[str, str]) -> ScenarioConfig:
    """Build a ScenarioConfig from string values, collecting field errors.

    A section (``source`` or a link) is built only when all its keys parse;
    a value its dataclass rejects is reported under the section's name.
    """
    problems = []
    kwargs = {}
    for name, keys in _GROUPS.items():
        before = len(problems)
        values = {}
        for key in keys:
            if key in raw:
                try:
                    values[key] = parse_value(key, raw[key])
                except ConfigError as exc:
                    problems += exc.problems
            elif key in _REQUIRED:
                problems.append(f"{key}: missing required key")
        if len(problems) > before:
            continue
        if name + "." not in _SECTIONS:
            kwargs.update(values)
            continue
        try:
            kwargs[name] = _build(name + ".", values)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
    problems += [f"{key}: unknown key" for key in sorted(raw.keys() - _KEYS.keys())]
    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(**kwargs)


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
    The value goes through ``parse_value`` and only the dataclasses on the
    key's path are rebuilt, so the result and any ConfigError are those
    ``config_from_dict`` gives for ``cfg``'s text with the key replaced: an
    unknown key or a bad value names the key, and a value its section
    rejects names the section.
    """
    text = _value_text(value)
    if dotted_key not in _KEYS:
        raise ConfigError([f"{dotted_key}: unknown key"])
    top, *path = dotted_key.split(".")
    new = parse_value(dotted_key, text)
    if path:
        try:
            new = _replaced(getattr(cfg, top), path, new)
        except ValueError as exc:
            raise ConfigError([f"{top}: {exc}"]) from None
    return dataclasses.replace(cfg, **{top: new})


def _replaced(section, path, value):
    """``section`` with the field at ``path`` (a list of names) set to ``value``."""
    name, *rest = path
    if rest:
        value = _replaced(getattr(section, name), rest, value)
    return dataclasses.replace(section, **{name: value})
