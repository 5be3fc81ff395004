"""A `Config` is frozen and checked when it is made; config files and flags agree."""

import dataclasses

import pytest

from relmap.cli import _config_from_args, build_parser, main
from relmap.config import MODES, TRANSFORMS, Config, load_config_file
from relmap.errors import ConfigError

BAD_VALUES = [
    ("k", 0, "k must be >= 1, got 0"),
    ("t", -1, "t must be >= 1, got -1"),
    ("pmi_window", 0, "pmi_window must be >= 1, got 0"),
    ("m_max", 0, "m_max must be >= 1, got 0"),
    ("max_phrases_per_pair", 0, "max_phrases_per_pair must be >= 1 or none, got 0"),
    ("mode", "bogus", f"unknown mode 'bogus'; expected one of {MODES}"),
    ("transform", "bogus", f"unknown transform 'bogus'; expected one of {TRANSFORMS}"),
    ("provider", "bogus", "unknown provider 'bogus'; expected pos, pmi-ir or "
                          "external:PATH, joined by +"),
]


@pytest.mark.parametrize("name, value, message", BAD_VALUES)
def test_a_bad_value_is_refused_when_the_config_is_made(name, value, message):
    with pytest.raises(ConfigError) as made:
        Config(**{name: value})
    assert str(made.value) == message
    with pytest.raises(ConfigError) as replaced:
        dataclasses.replace(Config(), **{name: value})
    assert str(replaced.value) == message


def test_a_config_cannot_be_changed():
    cfg = Config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.k = 5
    assert cfg == Config()


def test_a_bad_file_is_refused_even_where_a_flag_would_override_it(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("t = 0\n", encoding="utf-8")
    assert main(["eval", "--builtin", "--mode", "attributional", "--config", str(path),
                 "--t", "5", "--report", str(tmp_path / "r.tsv")]) == 2
    assert capsys.readouterr().err == "error: t must be >= 1, got 0\n"
    assert not (tmp_path / "r.tsv").exists()


# Each field's config-file line, and the flags that set the same value (None
# where no flag sets the field). Every value differs from the default.
SETTINGS = {
    "corpus_dir": ("corpus_dir = texts", ["--corpus", "texts"]),
    "cache_dir": ("cache-dir = index", ["--cache", "index"]),
    "k": ("k = 20", ["--k", "20"]),
    "t": ("t = 10", ["--t", "10"]),
    "transform": ("transform = logentropy", ["--transform", "logentropy"]),
    "svd": ("svd = off", ["--no-svd"]),
    "mode": ("mode = hybrid-mul", ["--mode", "hybrid-mul"]),
    "provider": ("provider = pmi-ir+pos", ["--provider", "pmi-ir+pos"]),
    "seed": ("seed = 3", ["--seed", "3"]),
    "pmi_window": ("pmi_window = 5", ["--pmi-window", "5"]),
    "m_max": ("m-max = 9", ["--m-max", "9"]),
    "max_phrases_per_pair": ("max_phrases_per_pair = 4", None),
}


def _flag_config(*argv):
    return _config_from_args(build_parser().parse_args(["eval", "--builtin", *argv]))


def test_every_field_has_a_config_line():
    assert list(SETTINGS) == [f.name for f in dataclasses.fields(Config)]


@pytest.mark.parametrize("name", list(SETTINGS))
def test_a_config_line_and_its_flag_give_the_same_config(name, tmp_path):
    line, flags = SETTINGS[name]
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    from_file = load_config_file(path)
    assert getattr(from_file, name) != getattr(Config(), name)
    assert dataclasses.replace(from_file, **{name: getattr(Config(), name)}) == Config()
    assert _flag_config("--config", str(path)) == from_file
    if flags is None:  # every flag's dest is in the parsed args, set or not
        assert name not in vars(build_parser().parse_args(["eval", "--builtin"]))
    else:
        assert _flag_config(*flags) == from_file
