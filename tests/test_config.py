import dataclasses
import json

import pytest

from streamcache import ConfigError, SimConfig, config_from_dict, load_config, validate_config


def test_defaults_validate(cfg):
    assert cfg.N_S == 64 and cfg.N_L == 5 and cfg.fps == 4.0
    assert validate_config(cfg) is cfg


@pytest.mark.parametrize("field,value,needle", [
    ("N_S", 0, "N_S"),
    ("tau", -1, "tau"),
    ("fps", 0.0, "fps"),
    ("N_L", -1, "N_L"),
    ("tokens_per_frame", 0, "tokens_per_frame"),
    ("mean_step_s", 0.0, "mean_step_s"),
    ("vocab_size", 1, "vocab_size"),
    ("lambda_1", -0.5, "lambda_1"),
    ("seed", -1, "seed"),
    ("d", 1028, "^d must"),
    ("vocab_size", 2 ** 19, "vocab_size"),
    ("vocab_size", 10000000000000000000, "vocab_size"),
])
def test_invalid_field_named_in_error(cfg, field, value, needle):
    bad = dataclasses.replace(cfg, **{field: value})
    with pytest.raises(ConfigError, match=needle):
        validate_config(bad)


def test_json_round_trip(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    assert load_config(str(path)) == cfg


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"N_S": 64, "banana": 1})


def test_partial_document_uses_defaults():
    loaded = config_from_dict({"N_S": 32, "tau": 4})
    assert loaded.N_S == 32 and loaded.tau == 4
    assert loaded.N_L == SimConfig().N_L


def test_type_errors_rejected(tmp_path):
    with pytest.raises(ConfigError, match="N_S"):
        config_from_dict({"N_S": 3.5})
    with pytest.raises(ConfigError, match="fps"):
        config_from_dict({"fps": "fast"})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


# every int field of SimConfig, listed here so that the set the loader
# derives from the annotations is pinned
@pytest.mark.parametrize("field", ["tokens_per_frame", "d", "N_S", "N_L", "tau",
                                   "vocab_size", "seed"])
@pytest.mark.parametrize("value", [1.5, True, "3"], ids=["1.5", "true", "str"])
def test_int_field_type_errors_rejected(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        config_from_dict({field: value})


def test_config_not_utf8_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"seed": 3, "note": "\xff"}')
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(path))


@pytest.mark.parametrize("field", ["fps", "mean_step_s", "step_s_jitter", "lambda_1"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_floats_rejected(cfg, field, value):
    import dataclasses
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        validate_config(dataclasses.replace(cfg, **{field: value}))


def test_non_finite_json_rejected(tmp_path):
    # json.load parses the NaN and Infinity literals, so the loader must catch them
    for text, field in (('{"fps": NaN}', "fps"), ('{"mean_step_s": Infinity}', "mean_step_s"),
                        ('{"lambda_1": -Infinity}', "lambda_1")):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=field):
            load_config(str(path))
