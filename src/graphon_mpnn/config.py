"""Run configuration: flat key-value files with section headers.

One file drives one subcommand. The [sbm] section either points at a model
file (``spec = path``) or inlines the model (r, block_mass, S, B). Arrays
are comma lists. Seeds are always explicit; nothing defaults to the clock.
"""

from __future__ import annotations

import configparser
import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .linkpred import METHODS, SCENARIOS, RunTableConfig
from .sbm import SbmSpec, read_spec_file


def _read_config_text(path) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        return fh.read()


def _parser(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return parser


def _ints(value: str) -> list:
    try:
        return [int(v) for v in value.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"expected integer list, got {value!r}") from exc


def _floats(value: str) -> list:
    try:
        return [float(v) for v in value.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"expected float list, got {value!r}") from exc


def load_sbm_section(parser: configparser.ConfigParser, base_dir: str) -> SbmSpec:
    if not parser.has_section("sbm"):
        raise ConfigError("config needs an [sbm] section")
    section = parser["sbm"]
    if "spec" in section:
        path = section["spec"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        if not os.path.exists(path):
            raise ConfigError(f"sbm spec file not found: {path}")
        return read_spec_file(path)
    try:
        r = section.getint("r")
        block_mass = np.array(_floats(section["block_mass"]))
        S = np.array(_floats(section["S"])).reshape(r, r)
        B = np.array(_floats(section["B"])).reshape(r, -1)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"incomplete inline [sbm] section: {exc}") from exc
    return SbmSpec(block_mass=block_mass, S=S, B=B)


def _names(section, key, known) -> tuple:
    """A comma list of names from ``known``, which is also the default."""
    names = tuple(v.strip() for v in section.get(key, ",".join(known)).split(","))
    unknown = [v for v in names if v not in known]
    if unknown:
        raise ConfigError(f"unknown {key} {', '.join(map(repr, unknown))}; "
                          f"expected some of {', '.join(known)}")
    return names


def _require(section, key, subcommand):
    if key not in section:
        raise ConfigError(f"[{subcommand}] section needs '{key}'")
    return section[key]


def _at_least(low, key, values):
    """``values`` (an int or a tuple of ints), each checked to be >= ``low``."""
    for v in values if isinstance(values, tuple) else (values,):
        if v < low:
            raise ConfigError(f"{key} must be >= {low}, got {v}")
    return values


@dataclass(frozen=True)
class SampleConfig:
    spec: SbmSpec
    n: int
    seed: int
    out_dir: str


@dataclass(frozen=True)
class ConvergeConfig:
    spec: SbmSpec
    mode: str
    n_list: tuple
    seeds: tuple
    out_dir: str
    layers: int = 2
    feature_dim: int = 8
    update_hidden: int = 10
    net_seed: int = 0
    p: float | None = None
    jobs: int = 1


@dataclass(frozen=True)
class StabilityConfig:
    spec: SbmSpec
    n_list: tuple
    seeds: tuple
    out_dir: str
    layers: int = 2
    feature_dim: int = 8
    update_hidden: int = 10
    net_seed: int = 0
    sample_budget: int = 2000
    jobs: int = 1


def parse_sample_config(path) -> tuple:
    text = _read_config_text(path)
    parser = _parser(text)
    base = os.path.dirname(os.path.abspath(path))
    spec = load_sbm_section(parser, base)
    sec = parser["sample"] if parser.has_section("sample") else {}
    cfg = SampleConfig(
        spec=spec,
        n=int(_require(sec, "n", "sample")),
        seed=_at_least(0, "[sample] seed", int(_require(sec, "seed", "sample"))),
        out_dir=_resolve_out(parser, base),
    )
    return cfg, text


def parse_converge_config(path) -> tuple:
    text = _read_config_text(path)
    parser = _parser(text)
    base = os.path.dirname(os.path.abspath(path))
    spec = load_sbm_section(parser, base)
    if not parser.has_section("converge"):
        raise ConfigError("config needs a [converge] section")
    sec = parser["converge"]
    mode = _require(sec, "mode", "converge")
    cfg = ConvergeConfig(
        spec=spec,
        mode=mode,
        n_list=tuple(_ints(_require(sec, "n_list", "converge"))),
        seeds=_at_least(0, "[converge] seeds",
                        tuple(_ints(_require(sec, "seeds", "converge")))),
        layers=sec.getint("layers", 2),
        feature_dim=sec.getint("feature_dim", 8),
        update_hidden=sec.getint("update_hidden", 10),
        net_seed=sec.getint("net_seed", 0),
        p=sec.getfloat("p") if "p" in sec else None,
        jobs=sec.getint("jobs", 1),
        out_dir=_resolve_out(parser, base),
    )
    return cfg, text


def parse_stability_config(path) -> tuple:
    text = _read_config_text(path)
    parser = _parser(text)
    base = os.path.dirname(os.path.abspath(path))
    spec = load_sbm_section(parser, base)
    if not parser.has_section("stability"):
        raise ConfigError("config needs a [stability] section")
    sec = parser["stability"]
    cfg = StabilityConfig(
        spec=spec,
        n_list=tuple(_ints(_require(sec, "n_list", "stability"))),
        seeds=_at_least(0, "[stability] seeds",
                        tuple(_ints(_require(sec, "seeds", "stability")))),
        layers=sec.getint("layers", 2),
        feature_dim=sec.getint("feature_dim", 8),
        update_hidden=sec.getint("update_hidden", 10),
        net_seed=sec.getint("net_seed", 0),
        sample_budget=_at_least(1, "[stability] sample_budget",
                                sec.getint("sample_budget", 2000)),
        jobs=sec.getint("jobs", 1),
        out_dir=_resolve_out(parser, base),
    )
    return cfg, text


def parse_table_config(path) -> tuple:
    """(run config, output directory, config text) of a table config."""
    text = _read_config_text(path)
    parser = _parser(text)
    base = os.path.dirname(os.path.abspath(path))
    spec = load_sbm_section(parser, base)
    if not parser.has_section("table"):
        raise ConfigError("config needs a [table] section")
    sec = parser["table"]
    cfg = RunTableConfig(
        spec=spec,
        n_train=int(_require(sec, "n_train", "table")),
        n_test_ood=int(_require(sec, "n_test_ood", "table")),
        runs=_at_least(1, "[table] runs", int(_require(sec, "runs", "table"))),
        seed=int(_require(sec, "seed", "table")),
        methods=_names(sec, "methods", METHODS),
        scenarios=_names(sec, "scenarios", SCENARIOS),
        epochs_head=sec.getint("epochs_head", 200),
        epochs_end_to_end=sec.getint("epochs_end_to_end", 200),
        lr=sec.getfloat("lr", 1e-3),
        pair_layers=sec.getint("pair_layers", 2),
        k_list=_at_least(1, "[table] k_list",
                         tuple(_ints(sec.get("k_list", "10, 50, 100")))),
        jobs=sec.getint("jobs", 1),
    )
    return cfg, _resolve_out(parser, base), text


def _resolve_out(parser, base) -> str:
    # model paths resolve against the config file; output dirs against the
    # working directory
    if not parser.has_section("output") or "dir" not in parser["output"]:
        raise ConfigError("config needs an [output] section with 'dir'")
    return os.path.abspath(parser["output"]["dir"])


def write_manifest(out_dir: str, config_text: str, extra: dict | None = None) -> str:
    """Write a manifest that reproduces the run: versions + the full config.

    The manifest doubles as a config file (the header lines are comments),
    so re-running the subcommand on it regenerates identical outputs.
    """
    os.makedirs(out_dir, exist_ok=True)
    digest = hashlib.sha256(config_text.encode("utf-8")).hexdigest()
    header = [
        "# graphon-mpnn run manifest",
        f"# numpy {np.__version__}",
        f"# config sha256 {digest}",
    ]
    for key, val in (extra or {}).items():
        header.append(f"# {key} {val}")
    path = os.path.join(out_dir, "manifest.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n" + config_text)
    return path
