"""Config checks at load: every bad value is a ConfigError (exit 1 from the
CLI with one line), and every config that loads runs."""

import copy
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from combpolar.cli import main as cli_main
from combpolar.config import (
    MAX_LIST_SYMBOLS,
    MAX_PSD_SAMPLES,
    MAX_THREADS,
    ConfigError,
    load_config,
)

PLAIN = {"code": {"r": None}, "decoder": {"mode": "plain"}}


@pytest.mark.parametrize("command, cfg, message", [
    ("fer", {"stop": {"max_frames": 0}}, "stop.max_frames"),
    ("fer", {"stop": {"min_frame_errors": 0}}, "stop.min_frame_errors"),
    ("fer", {"decoder": {"list_size": 0}}, "decoder.list_size"),
    ("fer", {"decoder": {"list_size": None}}, "decoder.list_size must be an integer"),
    # a config written for the removed estimator choice fails loudly
    ("construct", {"construction": {"method": "gaussian-approximation"}},
     "config error: unknown config key 'construction'.'method'"),
    ("construct", {"code": {"K": 0}}, "code.K"),
    ("construct", {"code": {"N": 100}}, "power of two"),
    ("mcsc", {"construction": {"trials": 0}}, "construction.trials"),
    ("fer", {"snr_sweep_db": 5}, "snr_sweep_db must be a list"),
    ("fer", {"snr_sweep_db": []}, "at least one SNR"),
    ("fer", {"master_seed": -1}, "master_seed"),
    # the Welch window and overlap are constants: a config that sets one fails loudly
    ("psd", {"welch": {"overlap": 0.5}}, "config error: unknown config key 'welch'.'overlap'"),
    ("psd", {"welch": {"frames": 1}}, "longer than the 2176-sample PSD signal"),
    ("mcsc", PLAIN, "capacity table needs a shaped code"),
    ("mcsc", {"code": {"N": 2, "K": 1, "r": 0}, "welch": {"segment": 16},
              "channel": {"fundamental_hz": 800.0, "tone_offset_hz": 400.0}},
     "leaves no information bit at N = 2"),
    ("psd", {"psd_tier": "exact"}, "config error: unknown config key 'psd_tier'"),
    # sizes that load without these ceilings but whose buffers do not fit
    ("fer", {"code": {"N": 64, "K": 16, "r": 1}, "decoder": {"list_size": 1000000}},
     "decoder.list_size 1000000 x code.N 64 exceeds"),
    ("fer", {**PLAIN, "code": {"N": 1024, "K": 384, "r": None},
             "channel": {"tone_model": "sinusoid", "fundamental_hz": 6400 / 8320,
                         "tone_bandwidth_hz": 0.5, "tone_offset_hz": 0.0},
             "comb_filter": {"notch_bandwidth_hz": 0.5}},
     "sinusoid tone model's 8321 tones x 8320 frame samples exceed"),
    ("psd", {"welch": {"frames": 100000}}, "welch.frames 100000 make a"),
    # a pulse whose band reaches Nyquist, and a Welch grid short of the tones
    ("psd", {"modem": {"sps": 1}}, "modem.sps 1 puts the Nyquist frequency at 400 Hz"),
    ("psd", {"modem": {"sps": 2, "rolloff": 0.99}, "welch": {"segment": 16}},
     "a 16-point welch.segment spans [-800, 700] Hz"),
    # a tone grid that another order covers names that order; one that no
    # order covers (a tone at DC) names none
    ("fer", {"channel": {"tone_offset_hz": 12.5}}, "these parameters need r = 2"),
    ("fer", {"code": {"r": 2}, "channel": {"tone_offset_hz": 0.0}},
     "no shaping order covers it"),
    ("psd", {"welch": {"window": "hann"}}, "config error: unknown config key 'welch'.'window'"),
    # a lone tone at DC passes the grid check at any segment
    ("psd", {**PLAIN, "criterion": "symmetric", "welch": {"segment": 1},
             "channel": {"fundamental_hz": 1000.0, "tone_offset_hz": 0.0}},
     "welch.segment must be >= 2"),
    # a repeated key is an error rather than its last copy winning; the
    # text is the file itself, as a dict cannot repeat a key
    pytest.param("fer", '{"decoder": {"list_size": 4}, "decoder": {"mode": "ccd"}}',
                 "config error: duplicate config key 'decoder'\n", id="fer-repeated-object"),
    pytest.param("construct", '{"code": {"N": 256, "K": 64, "r": 3}, "code": {"K": 96}}',
                 "config error: duplicate config key 'code'\n", id="construct-repeated-object"),
    pytest.param("construct", '{"code": {"K": 64, "K": 96}}',
                 "config error: duplicate config key 'code'.'K'\n", id="construct-repeated-key"),
    # nesting past the recursion limit, in json's reader (the first two)
    # or, 700 deep, in the repeated-key check, whose frames are deeper
    pytest.param("construct", "[" * 100000 + "]" * 100000,
                 "config error: config file nests deeper", id="construct-deep-array"),
    pytest.param("construct", '{"code": ' * 50000 + "1" + "}" * 50000,
                 "config error: config file nests deeper", id="construct-deep-object"),
    pytest.param("construct", "[" * 700 + "]" * 700,
                 "config error: config file nests deeper", id="construct-deep-key-check"),
])
def test_bad_value_exits_one_with_one_line(tmp_path, capsys, command, cfg, message):
    path = tmp_path / "bad.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err


def test_order_hint_is_right():
    # the order a rejection names loads, and a grid no order covers names none
    assert load_config(None, {"code": {"r": 2}, "channel": {"tone_offset_hz": 12.5}}).r == 2
    with pytest.raises(ConfigError) as exc:
        load_config(None, {"code": {"r": 2}, "channel": {"tone_offset_hz": 0.0}})
    assert "r = " not in str(exc.value)


def test_threads_bounds():
    for good in (1, 2, MAX_THREADS):
        assert load_config(None, {"threads": good}).threads == good
    for bad in (-3, 0, MAX_THREADS + 1, 10000, 1.5, "2", True):
        with pytest.raises(ConfigError, match="threads"):
            load_config(None, {"threads": bad})


def test_size_ceilings_are_inclusive():
    cfg = load_config(None, {"decoder": {"list_size": MAX_LIST_SYMBOLS // 256}})
    assert cfg.list_size * cfg.N == MAX_LIST_SYMBOLS
    with pytest.raises(ConfigError, match="decoder.list_size"):
        load_config(None, {"decoder": {"list_size": MAX_LIST_SYMBOLS // 256 + 1}})
    # (frames * 256 + 16) * 8 samples: 4095 frames fit under 2^23, 4096 do not
    assert load_config(None, {"welch": {"frames": 4095}}).psd_frames == 4095
    assert (4096 * 256 + 16) * 8 > MAX_PSD_SAMPLES >= (4095 * 256 + 16) * 8
    with pytest.raises(ConfigError, match="welch.frames"):
        load_config(None, {"welch": {"frames": 4096}})


# Coherent small configs that load (N <= 64), and per-key replacement values,
# valid and not, that the property test mixes into them.
BASES = (
    {"code": {"N": 64, "K": 16, "r": 1}, "decoder": {"mode": "ccd", "list_size": 4}},
    {"code": {"N": 32, "K": 8, "r": 0}, "criterion": "symmetric",
     "decoder": {"mode": "plain", "list_size": 1}},
    {"code": {"N": 16, "K": 6, "r": None}, "criterion": "symmetric",
     "decoder": {"mode": "plain", "list_size": 2}},
)
JUNK = [None, "x", True, [1], {}]
FIELDS = {
    "code.N": [2, 4, 8, 32, 64, 100, 3, 0, -4, 1, 64.5, 2.0],
    "code.K": [1, 2, 8, 16, 33, 0, -1, 65],
    "code.r": [None, 0, 1, 2, 5, 6, -1],
    "criterion": ["cis-constrained", "symmetric", "other"],
    "decoder.mode": ["ccd", "plain", "list"],
    "decoder.list_size": [1, 2, 8, 0, -2],
    "modem.rolloff": [0.0, 0.5, 1.0, 1.5, -0.1, math.inf],
    "modem.span_symbols": [1, 4, 16, 0, -1],
    "modem.sps": [1, 2, 4, 0, -8],
    "modem.symbol_rate_hz": [400.0, 1600.0, 0.0, -800.0, math.inf, 1e300],
    "channel.sir_db": [None, math.inf, 0.0, 30.0, -301.0, -math.inf, 1e6],
    "channel.fundamental_hz": [25.0, 100.0, 1e-6, 0.0, -50.0, math.inf, 1e300],
    "channel.tone_bandwidth_hz": [1.0, 5.0, 49.0, 0.0, 60.0, 1e-9, -1.0],
    "channel.tone_offset_hz": [0.0, 12.5, 75.0, -25.0, 1e300],
    "channel.tone_model": ["noise", "sinusoid", "square"],
    "comb_filter.enabled": [True, False, 1, "no"],
    "comb_filter.notch_bandwidth_hz": [1.0, 10.0, 49.0, 0.0, -5.0, 1e300],
    "construction.design_snr_db": [-5.0, 20.0, 300.0, 301.0, -1e4, math.inf],
    "construction.trials": [1, 50, 0, -3, 2.5],
    "snr_sweep_db": [[0.0], [math.inf], [-3.0, 3.0], [], [math.nan], [-math.inf], [1e4],
                     5, "0", [None]],
    "stop.min_frame_errors": [1, 100, 0, -1],
    "stop.max_frames": [0, -1, 1.5, "1"],
    "master_seed": [0, 7, 2**64 - 1, 2**64, -1, 10**400],
    "welch.segment": [16, 1024, 0, 10**9],
    "welch.frames": [1, 20, 0],
    "threads": [1, 2, 0, -3, MAX_THREADS + 1, 10000],
}


@st.composite
def config_objects(draw):
    """A JSON object: a loadable base with up to two fields replaced and,
    now and then, an arbitrary extra key."""
    obj = copy.deepcopy(draw(st.sampled_from(BASES)))
    obj.update({"snr_sweep_db": [0.0], "stop": {"max_frames": 1},
                "construction": {"trials": 50}, "threads": draw(st.sampled_from([1, 2]))})
    for key in draw(st.lists(st.sampled_from(sorted(FIELDS)), max_size=2, unique=True)):
        value = draw(st.sampled_from(FIELDS[key] + JUNK))
        *section, name = key.split(".")
        target = obj.setdefault(section[0], {}) if section else obj
        target[name] = value
    if draw(st.integers(0, 9)) == 0:
        obj[draw(st.text(max_size=12))] = draw(st.integers() | st.sampled_from(JUNK))
    return obj


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(obj=config_objects())
def test_any_object_is_rejected_or_runs(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        try:
            cfg = load_config(path)
        except ConfigError:
            return
        # the strategy keeps every loadable config small and short
        assert cfg.N <= 64 and cfg.max_frames == 1 and cfg.threads in (1, 2)
        assert cli_main(["construct", "--config", path, "--out", tmp]) == 0
        assert cli_main(["fer", "--config", path, "--out", tmp]) == 0
        assert cli_main(["psd", "--config", path, "--out", tmp]) == 0
