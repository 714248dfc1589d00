"""Named, frozen configuration presets and validated builder helpers.

Every entry point of the façade accepts either a :class:`DBPIMConfig`
instance or the *name* of a registered preset, so experiment scripts, the
sweep runner and the ``repro`` CLI can all refer to hardware configurations
by a short stable string.  Presets are frozen dataclasses: they cannot be
mutated in place, only replaced (``dataclasses.replace``) or rebuilt via the
builder helpers below.

The registry also provides :func:`config_digest`, the canonical content hash
used by the sweep runner's on-disk result cache: two configurations with the
same digest are guaranteed to produce identical experiment results (given
the same seed and parameters).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple, Union

from ..arch.config import BufferConfig, ClockConfig, DBPIMConfig, MacroConfig
from ..core.fta import FTAConfig

__all__ = [
    "DEFAULT_CONFIG",
    "ConfigLike",
    "register_config",
    "get_config",
    "list_configs",
    "config_name",
    "config_to_dict",
    "config_digest",
    "build_dbpim_config",
    "build_fta_config",
]

#: Name of the preset used when no configuration is given.
DEFAULT_CONFIG = "paper-28nm"

#: Anything the façade accepts where a configuration is expected.
ConfigLike = Union[str, DBPIMConfig, None]

_REGISTRY: Dict[str, DBPIMConfig] = {}


def register_config(name: str, config: DBPIMConfig, overwrite: bool = False) -> DBPIMConfig:
    """Register a named preset.

    Args:
        name: registry key (e.g. ``"paper-28nm"``).
        config: the frozen configuration to register.
        overwrite: allow replacing an existing preset of the same name.

    Returns:
        The registered configuration (for chaining).
    """
    if not isinstance(config, DBPIMConfig):
        raise TypeError(f"expected DBPIMConfig, got {type(config).__name__}")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"config preset {name!r} already registered")
    _REGISTRY[name] = config
    return config


def get_config(config: ConfigLike = None) -> DBPIMConfig:
    """Resolve a preset name / instance / ``None`` to a :class:`DBPIMConfig`.

    ``None`` resolves to the :data:`DEFAULT_CONFIG` preset; an instance is
    passed through unchanged; a string is looked up in the registry.
    """
    if config is None:
        return _REGISTRY[DEFAULT_CONFIG]
    if isinstance(config, DBPIMConfig):
        return config
    if isinstance(config, str):
        try:
            return _REGISTRY[config]
        except KeyError:
            raise KeyError(
                f"unknown config preset {config!r}; available: {list_configs()}"
            ) from None
    raise TypeError(
        f"config must be a preset name, DBPIMConfig or None, got {type(config).__name__}"
    )


def list_configs() -> List[str]:
    """Names of all registered presets, in registration order."""
    return list(_REGISTRY)


def config_name(config: ConfigLike = None) -> str:
    """The preset name of a configuration, or ``custom-<digest>``.

    Used to label results: if the resolved configuration is identical to a
    registered preset the preset name is returned, otherwise a stable
    content-derived name.
    """
    resolved = get_config(config)
    for name, preset in _REGISTRY.items():
        if preset == resolved:
            return name
    return f"custom-{config_digest(resolved)[:12]}"


def config_to_dict(config: ConfigLike = None) -> Dict[str, Any]:
    """Nested plain-dict form of a configuration (JSON-safe)."""
    return dataclasses.asdict(get_config(config))


#: Digests already computed, keyed by the identities of the resolved
#: (configuration, FTA configuration) objects.  Each entry holds both
#: objects, so their ids cannot be reused while it lives.  A preset
#: re-registered with new contents is a new object, so it never meets a
#: stale digest; equality would not do as a key, since ``500 == 500.0`` yet
#: the two serialise (and so digest) differently.
_DIGESTS: Dict[Tuple[int, int], Tuple[DBPIMConfig, Optional[FTAConfig], str]] = {}
_DIGESTS_MAX = 1024


def config_digest(config: ConfigLike = None, fta_config: Optional[FTAConfig] = None) -> str:
    """Stable SHA-256 content hash of a configuration (hex digest).

    The digest covers every field of the hardware configuration and, when
    given, the FTA configuration -- it is the cache key component that makes
    the sweep runner's on-disk cache safe across configuration changes.
    Digests are memoised per configuration object.
    """
    resolved = get_config(config)
    memo_key = (id(resolved), id(fta_config))
    entry = _DIGESTS.get(memo_key)
    if entry is not None:
        return entry[2]
    payload: Dict[str, Any] = {"dbpim": dataclasses.asdict(resolved)}
    if fta_config is not None:
        payload["fta"] = dataclasses.asdict(fta_config)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    if len(_DIGESTS) >= _DIGESTS_MAX:
        _DIGESTS.clear()
    _DIGESTS[memo_key] = (resolved, fta_config, digest)
    return digest


def build_dbpim_config(
    *,
    num_macros: int = 4,
    weight_sparsity: bool = True,
    input_sparsity: bool = True,
    technology_nm: int = 28,
    frequency_mhz: float = 500.0,
    compartments: int = 16,
    rows: int = 64,
    columns: int = 16,
    weight_bits: int = 8,
    input_bits: int = 8,
    input_group: int = 16,
    buffers: Optional[BufferConfig] = None,
) -> DBPIMConfig:
    """Build a validated :class:`DBPIMConfig` from flat keyword arguments.

    This is the ergonomic front door for design-space exploration: every
    geometry/operating-point knob is a keyword, and validation (positive
    geometry, column/weight-bit divisibility, positive clocks) runs through
    the underlying frozen dataclasses' ``__post_init__`` checks.
    """
    macro = MacroConfig(
        compartments=compartments,
        rows=rows,
        columns=columns,
        weight_bits=weight_bits,
        input_bits=input_bits,
        input_group=input_group,
    )
    clock = ClockConfig(frequency_mhz=frequency_mhz)
    return DBPIMConfig(
        macro=macro,
        buffers=buffers or BufferConfig(),
        clock=clock,
        num_macros=num_macros,
        weight_sparsity=weight_sparsity,
        input_sparsity=input_sparsity,
        technology_nm=technology_nm,
    )


def build_fta_config(
    *,
    width: Optional[int] = None,
    max_threshold: int = 2,
    value_low: int = -128,
    value_high: int = 127,
    table_mode: Optional[str] = None,
) -> FTAConfig:
    """Build a validated :class:`FTAConfig` from flat keyword arguments."""
    kwargs: Dict[str, Any] = {
        "max_threshold": max_threshold,
        "value_low": value_low,
        "value_high": value_high,
    }
    if width is not None:
        kwargs["width"] = width
    if table_mode is not None:
        kwargs["table_mode"] = table_mode
    return FTAConfig(**kwargs)


# ---------------------------------------------------------------------------
# Built-in presets
# ---------------------------------------------------------------------------
#: The paper's evaluated configuration (Section 4.1): 28 nm, 500 MHz, four
#: 16 Kb macros, hybrid sparsity.
register_config(DEFAULT_CONFIG, DBPIMConfig())
#: Identical hardware with all sparsity support disabled (the Fig. 7 "base").
register_config("dense-baseline", DBPIMConfig().dense_baseline())
#: Dyadic-block weight sparsity only (Fig. 7 "weight").
register_config("weight-sparsity-only", DBPIMConfig().weight_sparsity_only())
#: IPU input-bit skipping only (Fig. 7 "input").
register_config("input-sparsity-only", DBPIMConfig().input_sparsity_only())
#: A scaled-up design point used by the design-space examples.
register_config("paper-28nm-8macro", build_dbpim_config(num_macros=8))
