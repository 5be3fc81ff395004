"""Run configuration: defaults, key=value config files, and flag overrides."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, get_args, get_type_hints

from .errors import ConfigError
from .solver import DEFAULT_M_MAX

MODES = ("relational", "attributional", "hybrid-add", "hybrid-mul")
TRANSFORMS = ("ppmic", "logentropy")
PROVIDERS = ("pos", "pmi-ir", "external")  # external names its table: external:PATH


def provider_parts(spec: str) -> list[tuple[str, str]]:
    """The (name, path) of each `+`-separated part of a provider spec.

    Only an external part has a path, after its colon.
    """
    parts = []
    for part in spec.split("+"):
        name, colon, path = part.strip().partition(":")
        if name not in PROVIDERS or bool(colon) != (name == "external"):
            raise ConfigError(f"unknown provider {part.strip()!r}; expected "
                              f"pos, pmi-ir or external:PATH, joined by +")
        parts.append((name, path))
    return parts


@dataclass(frozen=True)
class Config:
    """Pipeline settings, frozen and checked when made; the defaults are the baseline."""

    corpus_dir: Optional[str] = None
    cache_dir: Optional[str] = None
    k: int = 300
    t: int = 20
    transform: str = "ppmic"
    svd: bool = True
    mode: str = "relational"
    provider: str = "pos"
    seed: int = 0
    pmi_window: int = 10
    m_max: int = DEFAULT_M_MAX
    max_phrases_per_pair: Optional[int] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.transform not in TRANSFORMS:
            raise ConfigError(f"unknown transform {self.transform!r}; "
                              f"expected one of {TRANSFORMS}")
        provider_parts(self.provider)
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.t < 1:
            raise ConfigError(f"t must be >= 1, got {self.t}")
        if self.pmi_window < 1:
            raise ConfigError(f"pmi_window must be >= 1, got {self.pmi_window}")
        if self.m_max < 1:
            raise ConfigError(f"m_max must be >= 1, got {self.m_max}")
        if self.max_phrases_per_pair is not None and self.max_phrases_per_pair < 1:
            raise ConfigError(f"max_phrases_per_pair must be >= 1 or none, "
                              f"got {self.max_phrases_per_pair}")

    def needs_corpus(self) -> bool:
        return (self.mode != "attributional"
                or any(name == "pmi-ir" for name, _ in provider_parts(self.provider)))

    def summary(self) -> dict:
        """Config echo for report sidecars (strings and numbers only).

        `cache_dir` and `corpus_dir` are left out: a cache hit serves the
        index a miss would build, and the sidecar names the corpus by its
        digest, so equal runs echo the same wherever the files lie.
        """
        out = {}
        for f in fields(self):
            if f.name in ("cache_dir", "corpus_dir"):
                continue
            value = getattr(self, f.name)
            out[f.name] = value if value is None or isinstance(
                value, (str, int, float, bool)) else str(value)
        return out


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(name: str, value: str, target_type, nullable: bool):
    value = value.strip()
    if target_type is bool:
        low = value.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigError(f"config key {name}: expected a boolean, got {value!r}")
    if value.lower() == "none":
        if not nullable:
            raise ConfigError(f"config key {name}: none is not allowed")
        return None
    if target_type is int:
        try:
            return int(value)
        except ValueError as exc:
            raise ConfigError(f"config key {name}: expected an integer, "
                              f"got {value!r}") from exc
    return value


def load_config_file(path: str | Path) -> Config:
    """The defaults with a file's `key = value` lines (# comments).

    A key takes its field's type, and `none` only if the field is Optional.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    hints = get_type_hints(Config)
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in hints:
            raise ConfigError(f"{p}:{lineno}: unknown config key {key!r}")
        # Optional[X] is Union[X, None]; any other hint has no args
        types = [t for t in get_args(hints[key]) if t is not type(None)]
        values[key] = _coerce(key, value, types[0] if types else hints[key],
                              nullable=bool(types))
    return Config(**values)
