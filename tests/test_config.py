import contextlib
import dataclasses
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermalqkd.channels import ChannelParams, PhaseDriftParams, TapSpec
from thermalqkd.cli import main
from thermalqkd.config import (_KEYS, ConfigError, ScenarioConfig, config_from_dict,
                               format_config, parse_config, set_config_value)
from thermalqkd.harness import freespace_scenario, waveguide_scenario
from thermalqkd.optics import SourceParams


def test_round_trip_preserves_config():
    for factory in (waveguide_scenario, freespace_scenario):
        cfg = factory(seed=5, n_symbols=50_000)
        text = format_config(cfg)
        parsed = parse_config(text)
        assert parsed == cfg
        assert format_config(parsed) == text


_unit = st.floats(0.0, 1.0)
_finite = st.floats(allow_nan=False, allow_infinity=False)


def _nonneg(high):
    return st.floats(0.0, high)


# Link depth (delay + deepest tap) stays within n_symbols / 8 at n_symbols >= 1000.
_links = st.builds(
    ChannelParams,
    transmittance=_unit,
    delay=st.integers(0, 100),
    drift=st.builds(PhaseDriftParams, walk_sigma=_nonneg(1.0), hop_prob=_unit,
                    hop_scale=_nonneg(10.0)),
    taps=st.lists(st.builds(TapSpec, delay=st.integers(1, 25),
                            amplitude=st.floats(0.0, 1.0, exclude_max=True), phase=_finite),
                  max_size=3).map(tuple),
    rx_noise_var=_nonneg(1e3),
)


@st.composite
def _configs(draw):
    pilot_len = draw(st.integers(16, 10_000))
    return ScenarioConfig(
        seed=draw(st.integers(0, 2 ** 64 - 1)),
        n_symbols=draw(st.integers(1000, 10 ** 9)),
        source=draw(st.builds(SourceParams, nbar=_nonneg(1e6), d0=_nonneg(1e6))),
        alice_link=draw(_links),
        bob_link=draw(_links),
        eve_link=draw(_links),
        eve_transmittance=draw(_unit),
        coherence_len=pilot_len + draw(st.integers(1, 10 ** 6)),
        pilot_len=pilot_len,
        ad_block=draw(st.none() | st.integers(2, 64)),
    )


@settings(derandomize=True, database=None, deadline=None)
@given(_configs())
def test_round_trip_holds_for_generated_configs(cfg):
    text = format_config(cfg)
    assert parse_config(text) == cfg
    assert format_config(parse_config(text)) == text


# Closed range of every bounded float field; the links share theirs.
_FIELD_RANGES = {"source.nbar": (0.0, 1e12), "source.d0": (0.0, 1e6),
                 "eve_transmittance": (0.0, 1.0)}
_FIELD_RANGES.update({f"{link}.{leaf}": bounds for link in ("alice_link", "bob_link", "eve_link")
                      for leaf, bounds in (("transmittance", (0.0, 1.0)),
                                           ("rx_noise_var", (0.0, 1e12)),
                                           ("drift.walk_sigma", (0.0, 1e6)),
                                           ("drift.hop_prob", (0.0, 1.0)),
                                           ("drift.hop_scale", (0.0, 1e6)))})


@st.composite
def _out_of_range(draw):
    key = draw(st.sampled_from(sorted(_FIELD_RANGES)))
    low, high = _FIELD_RANGES[key]
    value = draw(st.floats(max_value=low, exclude_max=True)
                 | st.floats(min_value=high, exclude_min=True)
                 | st.sampled_from([math.nan, math.inf, -math.inf]))
    return key, value


@settings(derandomize=True, database=None, deadline=None)
@given(_out_of_range())
def test_out_of_range_fields_are_rejected_by_name(tmp_path_factory, bad):
    # The parser and the CLI both reject the value, naming section and leaf.
    key, value = bad
    raw = dict(line.split(" = ", 1)
               for line in format_config(waveguide_scenario(seed=1, n_symbols=10_000))
               .splitlines())
    raw[key] = repr(value)
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    section, leaf = key.split(".")[0], key.split(".")[-1]
    [problem] = err.value.problems
    assert problem.startswith(f"{section}:") and leaf in problem
    path = tmp_path_factory.mktemp("cfg") / "bad.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        assert main(["run", str(path), "--out", str(path.parent / "out")]) == 1
    assert leaf in stderr.getvalue() and "runtime failure" not in stderr.getvalue()


def test_round_trip_holds_for_numpy_scalars():
    # A config built through the API may hold numpy scalars; they are saved
    # as plain numbers, which parse back to an equal config.
    cfg = dataclasses.replace(
        freespace_scenario(seed=np.uint64(7), n_symbols=np.int64(20_000)),
        eve_transmittance=np.float64(0.3), coherence_len=np.int32(5_000),
        pilot_len=np.int64(32), ad_block=np.int64(3),
        source=SourceParams(nbar=np.float64(295.0), d0=np.float32(40.5)),
        bob_link=dataclasses.replace(freespace_scenario().bob_link,
                                     transmittance=np.float64(0.1), delay=np.int64(5),
                                     taps=(TapSpec(np.int64(3), np.float64(0.05),
                                                   np.float64(-1.1)),)))
    text = format_config(cfg)
    assert "np." not in text
    assert parse_config(text) == cfg


def test_comments_and_blank_lines_are_ignored():
    cfg = waveguide_scenario(seed=1, n_symbols=10_000)
    text = "# header comment\n\n" + format_config(cfg).replace(
        "seed = 1", "seed = 1   # inline comment")
    assert parse_config(text) == cfg


_REQUIRED_KEYS = ("seed", "n_symbols", "source.nbar", "source.d0")


@pytest.mark.parametrize("key", _REQUIRED_KEYS)
def test_missing_required_key_is_reported(key):
    text = format_config(waveguide_scenario(seed=1, n_symbols=10_000))
    text = "\n".join(line for line in text.splitlines()
                     if not line.startswith(f"{key} = "))
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.problems == [f"{key}: missing required key"]


def test_required_keys_alone_give_the_dataclass_defaults():
    text = "seed = 3\nn_symbols = 5000\nsource.nbar = 2.0\nsource.d0 = 1.5\n"
    assert parse_config(text) == ScenarioConfig(3, 5000, SourceParams(2.0, 1.5), ChannelParams(),
                                                ChannelParams(), ChannelParams())


@settings(derandomize=True, database=None, deadline=None)
@given(_configs())
def test_setting_a_key_to_its_own_text_is_the_identity(cfg):
    for line in format_config(cfg).splitlines():
        key, text = line.split(" = ", 1)
        assert set_config_value(cfg, key, text) == cfg, key


def _raw(cfg):
    return dict(line.split(" = ", 1) for line in format_config(cfg).splitlines())


# Texts that parse for some keys and not others, or that a section rejects.
_TEXTS = (st.sampled_from(["", " ", "none", "0", "-1", "09", "0x10", "1.5", "2.0", "1e400",
                           "nan", "-inf", "3:0.1:0.2", "3:0.1", "0:0.5:1", "4:1.0:0, 2:0.3:1",
                           "bogus"])
          | st.integers(-10 ** 12, 10 ** 20).map(str)
          | st.floats().map(repr)
          | st.text(max_size=12))


@settings(derandomize=True, database=None, deadline=None)
@given(_configs(), st.sampled_from(sorted(_KEYS) + ["bob_link", "bob_link.nonsense", "a.b.c.d"]),
       st.data())
def test_setting_one_key_is_parsing_the_whole_text_with_it(cfg, key, data):
    # set_config_value rebuilds only the key's path, and must give the
    # config, or the ConfigError problems, that parsing cfg's whole text
    # with the key replaced gives. Valid texts come from another config.
    other = _raw(data.draw(_configs())).get(key, "1")
    text = data.draw(st.just(other) | _TEXTS)
    try:
        want = config_from_dict({**_raw(cfg), key: text})
    except ConfigError as exc:
        with pytest.raises(ConfigError) as err:
            set_config_value(cfg, key, text)
        assert err.value.problems == exc.problems
    else:
        assert set_config_value(cfg, key, text) == want


def test_readme_config_block_is_format_config_output():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config format", 1)[1]
    block = section.split("```\n", 2)[1].splitlines()
    shown = block[:block.index("...")]
    expect = format_config(waveguide_scenario(seed=7, n_symbols=3_000_000, ad_block=2))
    assert shown == expect.splitlines()[:len(shown)]
    assert len(shown) > 8   # past the scalar keys, into the links


def test_bad_values_collected_per_field():
    text = format_config(waveguide_scenario(seed=1, n_symbols=10_000))
    bad = text.replace("n_symbols = 10000", "n_symbols = lots")
    bad = bad.replace("eve_transmittance = 0.5", "eve_transmittance = maybe")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    msg = str(err.value)
    assert "n_symbols" in msg and "eve_transmittance" in msg


def test_range_violations_collected_per_field():
    text = format_config(waveguide_scenario(seed=1, n_symbols=10_000))
    bad = text.replace("n_symbols = 10000", "n_symbols = 500")
    bad = bad.replace("eve_transmittance = 0.5", "eve_transmittance = 1.7")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    msg = str(err.value)
    assert "n_symbols" in msg and "eve_transmittance" in msg


def test_unknown_and_duplicate_keys_rejected():
    base = format_config(waveguide_scenario(seed=1, n_symbols=10_000))
    with pytest.raises(ConfigError) as err:
        parse_config(base + "bogus.key = 3\n")
    assert "bogus.key" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config(base + "seed = 2\n")
    assert "duplicate" in str(err.value)
    with pytest.raises(ConfigError, match="line 3: expected 'key = value', got 'seed 2'"):
        parse_config("# header\n\nseed 2\n")


def test_malformed_taps_rejected():
    base = format_config(waveguide_scenario(seed=1, n_symbols=10_000))
    bad = base.replace("bob_link.taps = 9:0.02:-0.8", "bob_link.taps = 9:0.02")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "bob_link.taps" in str(err.value)


# A tap delay is read as bob_link.delay is: with a base prefix, and a
# leading zero without one is rejected naming the key.
_TAPS = "bob_link.taps = 9:0.02:-0.8"


@pytest.mark.parametrize("text", ["9", "0x9", "0o11", "0b1001"])
def test_tap_delay_reads_integer_prefixes(text):
    base = format_config(waveguide_scenario(seed=1, n_symbols=10_000))
    cfg = parse_config(base.replace(_TAPS, f"bob_link.taps = {text}:0.02:0.6"))
    assert cfg.bob_link.taps[0].delay == 9
    assert parse_config(base.replace("bob_link.delay = 7", f"bob_link.delay = {text}")
                        ).bob_link.delay == 9


@pytest.mark.parametrize("old, new", [(_TAPS, "bob_link.taps = 09:0.02:0.6"),
                                      ("bob_link.delay = 7", "bob_link.delay = 09")],
                         ids=["taps", "delay"])
def test_leading_zero_delay_is_rejected(old, new):
    base = format_config(waveguide_scenario(seed=1, n_symbols=10_000))
    with pytest.raises(ConfigError, match=new.split(" = ")[0]):
        parse_config(base.replace(old, new))


def test_scenario_invariants():
    cfg = waveguide_scenario(seed=1, n_symbols=10_000)
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, n_symbols=500)
    assert dataclasses.replace(cfg, n_symbols=10 ** 9).n_symbols == 10 ** 9
    with pytest.raises(ConfigError, match=r"n_symbols: must be in \[1000, 1e9\]"):
        dataclasses.replace(cfg, n_symbols=10 ** 9 + 1)   # about 230 GB of run state
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, pilot_len=8)
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, coherence_len=32)
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, coherence_len=64)  # every symbol a pilot
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, ad_block=1)
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, eve_transmittance=-0.2)
    with pytest.raises(ConfigError):
        set_config_value(cfg, "bob_link.delay", 5000)  # beyond alignment reach


def test_set_config_value_paths():
    cfg = waveguide_scenario(seed=1, n_symbols=10_000)
    assert set_config_value(cfg, "eve_transmittance", 0.25).eve_transmittance == 0.25
    assert set_config_value(cfg, "source.nbar", 12.5).source.nbar == 12.5
    assert set_config_value(cfg, "bob_link.rx_noise_var", 0.7).bob_link.rx_noise_var == 0.7
    got = set_config_value(cfg, "eve_link.drift.walk_sigma", 3e-3)
    assert got.eve_link.drift.walk_sigma == 3e-3
    got = set_config_value(cfg, "alice_link.taps", "4:0.1:0.2")
    assert got.alice_link.taps[0].delay == 4
    assert set_config_value(cfg, "source.nbar", np.float64(0.45)).source.nbar == 0.45
    # integer fields keep int type, and accept the integral floats a sweep passes
    no_ad = waveguide_scenario(seed=1, n_symbols=10_000, ad_block=None)
    for value in (3, 3.0):
        got = set_config_value(no_ad, "ad_block", value)
        assert got.ad_block == 3 and type(got.ad_block) is int
        assert parse_config(format_config(got)) == got
    assert set_config_value(cfg, "bob_link.delay", 2.0).bob_link.delay == 2
    with pytest.raises(ConfigError, match="bob_link.delay"):
        set_config_value(cfg, "bob_link.delay", 2.7)
    with pytest.raises(ConfigError):
        set_config_value(cfg, "bob_link.nonsense", 1)
    with pytest.raises(ConfigError):
        set_config_value(cfg, "a.b.c.d", 1)


def test_ad_block_optional():
    cfg = waveguide_scenario(seed=1, n_symbols=10_000, ad_block=None)
    text = format_config(cfg)
    assert "ad_block = none" in text
    assert parse_config(text).ad_block is None
