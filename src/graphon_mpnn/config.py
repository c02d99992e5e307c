"""Run configuration: flat key-value files with section headers.

One file drives one subcommand. The [sbm] section either points at a model
file (``spec = path``) or inlines the model's keys (r, block_mass, S, B),
read as a model file's are. Seeds are always explicit; nothing defaults to
the clock.
Each key is read once, with its range checked; a key no reader uses and a
section other than [sbm], the subcommand's own and [output] are config
errors. The sweep configs carry the network their keys describe.
"""

from __future__ import annotations

import configparser
import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .analysis import SWEEP_MODES
from .errors import ConfigError
from .linkpred import METHODS, SCENARIOS, RunTableConfig
from .mpnn import Mpnn, graphsage_mpnn
from .pair_mpnn import fixed_psi_mpnn, learnable_psi_mpnn
from .sbm import SbmSpec, _model_text, _read_model, read_spec_file

_REQUIRED = object()


class _Section:
    """One config section, read key by key: ``get`` parses a key, checks its
    range and marks it read; ``close`` rejects every key left unread, so a
    misspelt key is an error rather than a default silently kept.
    ``configparser`` stores keys in lower case, and so does the reader."""

    def __init__(self, parser, name):
        self.name = name
        self._values = dict(parser[name]) if parser.has_section(name) else {}
        self._read = set()

    def get(self, key, parse=int, default=_REQUIRED, low=None):
        """``key`` parsed by ``parse``; each value (or each entry of a tuple)
        must be >= ``low``. A missing key returns ``default``, or is an
        error when there is none."""
        text = self._values.get(key.lower())
        self._read.add(key.lower())
        if text is None:
            if default is _REQUIRED:
                raise ConfigError(f"[{self.name}] section needs '{key}'")
            return default
        try:
            value = parse(text)
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {key}: {exc}") from exc
        for v in value if isinstance(value, tuple) else (value,):
            if low is not None and v < low:
                raise ConfigError(f"[{self.name}] {key} must be >= {low}, got {v}")
        return value

    def close(self) -> None:
        unread = sorted(set(self._values) - self._read)
        if unread:
            raise ConfigError(f"[{self.name}] has unused keys: {', '.join(unread)}")


def _ints(text: str) -> tuple:
    values = tuple(int(v) for v in text.replace(",", " ").split())
    if not values:
        raise ValueError("needs at least one integer")
    return values


def _probability(text: str) -> float:
    p = float(text)
    if not 0 < p < 1:
        raise ValueError(f"must be in (0, 1), got {p}")
    return p


def _positive(text: str) -> float:
    x = float(text)
    if not 0 < x < float("inf"):
        raise ValueError(f"must be finite and > 0, got {x}")
    return x


def _one_of(known):
    """Parser of one name from ``known``."""
    def parse(text):
        if text not in known:
            raise ValueError(f"unknown {text!r}; expected one of {', '.join(known)}")
        return text
    return parse


def _names(known):
    """Parser of a comma list of names from ``known``."""
    one = _one_of(known)
    return lambda text: tuple(one(v.strip()) for v in text.split(","))


def load_sbm_section(parser: configparser.ConfigParser, base_dir: str) -> SbmSpec:
    """The model of the [sbm] section: the model file that ``spec`` names,
    or else the section's own keys, read as a model file's are."""
    if not parser.has_section("sbm"):
        raise ConfigError("config needs an [sbm] section")
    sec = _Section(parser, "sbm")
    path = sec.get("spec", str, None)
    if path is None:
        return _read_model(parser.items("sbm"), "[sbm]")
    sec.close()
    path = os.path.join(base_dir, path)
    if not os.path.exists(path):
        raise ConfigError(f"sbm spec file not found: {path}")
    return read_spec_file(path)


def _parse(text: str) -> configparser.ConfigParser:
    # values are literal: a '%' in a path is not an interpolation
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return parser


def _open(path, command: str) -> tuple:
    """(the [command] section, the model, the output directory, the config
    text) of the config file at ``path``."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        text = fh.read()
    parser = _parse(text)
    for name in parser.sections():
        if name not in ("sbm", command, "output"):
            raise ConfigError(f"unknown section [{name}]; a {command} config "
                              f"has [sbm], [{command}] and [output]")
    # model paths resolve against the config file; output dirs against the
    # working directory
    spec = load_sbm_section(parser, os.path.dirname(os.path.abspath(path)))
    if not parser.has_section(command):
        raise ConfigError(f"config needs a [{command}] section")
    output = _Section(parser, "output")
    out_dir = os.path.abspath(output.get("dir", str))
    output.close()
    return _Section(parser, command), spec, out_dir, text


def _sweep_net(sec: _Section, mode: str = "node_mean") -> Mpnn:
    """The network of a sweep, built from the keys ``mode`` uses: the
    closed-form pair net reads only ``layers``, the learnable one has no
    ``feature_dim``."""
    layers = sec.get("layers", int, 2, low=1)
    if mode == "pair_fixed":
        return fixed_psi_mpnn(layers)
    hidden = sec.get("update_hidden", int, 10, low=1)
    seed = sec.get("net_seed", int, 0, low=0)
    if mode == "pair_net":
        return learnable_psi_mpnn(layers, hidden=hidden, seed=seed)
    dims = [1] + [sec.get("feature_dim", int, 8, low=1)] * layers
    return graphsage_mpnn(dims, update_hidden=hidden, seed=seed)


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
    mpnn: Mpnn
    p: float | None
    jobs: int


@dataclass(frozen=True)
class StabilityConfig:
    spec: SbmSpec
    n_list: tuple
    seeds: tuple
    out_dir: str
    mpnn: Mpnn
    sample_budget: int
    jobs: int


def parse_sample_config(path) -> tuple:
    sec, spec, out_dir, text = _open(path, "sample")
    cfg = SampleConfig(spec=spec, n=sec.get("n", low=2), seed=sec.get("seed", low=0),
                       out_dir=out_dir)
    sec.close()
    return cfg, text


def parse_converge_config(path) -> tuple:
    sec, spec, out_dir, text = _open(path, "converge")
    mode = sec.get("mode", _one_of(SWEEP_MODES))
    cfg = ConvergeConfig(
        spec=spec,
        mode=mode,
        n_list=sec.get("n_list", _ints, low=2),
        seeds=sec.get("seeds", _ints, low=0),
        out_dir=out_dir,
        mpnn=_sweep_net(sec, mode),
        # the closed-form pair net has no bound, so no failure probability
        p=None if mode == "pair_fixed" else sec.get("p", _probability, None),
        jobs=sec.get("jobs", int, 1, low=1),
    )
    sec.close()
    return cfg, text


def parse_stability_config(path) -> tuple:
    sec, spec, out_dir, text = _open(path, "stability")
    cfg = StabilityConfig(
        spec=spec,
        n_list=sec.get("n_list", _ints, low=2),
        seeds=sec.get("seeds", _ints, low=0),
        out_dir=out_dir,
        mpnn=_sweep_net(sec),
        sample_budget=sec.get("sample_budget", int, 2000, low=1),
        jobs=sec.get("jobs", int, 1, low=1),
    )
    sec.close()
    return cfg, text


def parse_table_config(path) -> tuple:
    """(run config, output directory, config text) of a table config."""
    sec, spec, out_dir, text = _open(path, "table")
    cfg = RunTableConfig(
        spec=spec,
        n_train=sec.get("n_train", low=2),
        n_test_ood=sec.get("n_test_ood", low=2),
        runs=sec.get("runs", low=1),
        seed=sec.get("seed", low=0),
        methods=sec.get("methods", _names(METHODS), METHODS),
        scenarios=sec.get("scenarios", _names(SCENARIOS), SCENARIOS),
        epochs_head=sec.get("epochs_head", int, 200, low=0),
        epochs_end_to_end=sec.get("epochs_end_to_end", int, 200, low=0),
        lr=sec.get("lr", _positive, 1e-3),
        pair_layers=sec.get("pair_layers", int, 2, low=1),
        k_list=sec.get("k_list", _ints, (10, 50, 100), low=1),
        jobs=sec.get("jobs", int, 1, low=1),
    )
    sec.close()
    return cfg, out_dir, text


def write_manifest(out_dir: str, config_text: str, spec: SbmSpec,
                   extra: dict | None = None) -> str:
    """Write a manifest that reproduces the run: versions, the hash of the
    config as given, and the config with its model ``spec`` inline.

    The manifest doubles as a config file (the header lines are comments),
    so re-running the subcommand on it regenerates identical outputs. Its
    [sbm] section holds the model's keys as a model file writes them, since
    a ``spec`` path would resolve against the manifest's directory.
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
    parser = _parse(config_text)
    parser.remove_section("sbm")
    path = os.path.join(out_dir, "manifest.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n[sbm]\n" + _model_text(spec) + "\n")
        parser.write(fh)
    return path
