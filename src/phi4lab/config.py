"""Experiment configuration: INI-style parsing, validation, canonical echo.

The file format is flat key/value pairs under fixed section headers (Python
``configparser`` syntax, ``#`` or ``;`` comments).  The exact grammar is
documented in the README.  Every numeric field is validated with a
section/key-precise error message, and the resolved configuration can be
re-rendered canonically: parse -> render -> parse is the identity.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import CutoffSpec, load_cutoff_table

_SECTIONS = (
    "model",
    "grid",
    "uv_cutoff",
    "spatial_cutoff",
    "quadrature",
    "truncation",
    "coupling",
    "solver",
    "epsilon",
    "output",
)


@dataclass(frozen=True)
class ModelParams:
    """Fully resolved experiment description."""

    dimension: int = 1
    mass: float = 1.0
    kmax: float | None = None
    modes_per_axis: int | None = None
    modes: tuple[tuple[float, ...], ...] | None = None
    mode_weights: tuple[float, ...] | None = None
    uv_cutoff: CutoffSpec = field(default_factory=lambda: CutoffSpec("indicator", (1e9,)))
    spatial_cutoff: CutoffSpec = field(default_factory=lambda: CutoffSpec("indicator", (-1.0, 1.0)))
    nodes_per_axis: int = 9
    n_max: int = 8
    kappa: float | None = None
    kappa_list: tuple[float, ...] = ()
    eig_tol: float = 1e-10
    lin_tol: float = 1e-12
    max_iter: int = 20_000
    seed: int = 0
    pull_tol: float = 1e-6
    epsilon_policy: str = "optimized"
    epsilon_value: float | None = None
    output_dir: str = "out"
    dump_vectors: bool = False

    def validate(self) -> "ModelParams":
        def need(cond, section, key, msg):
            if not cond:
                raise ConfigError(f"[{section}] {key}: {msg}")

        need(self.dimension >= 1, "model", "dimension", "must be a positive integer")
        need(self.mass >= 0, "model", "mass", "must be nonnegative")
        if self.modes is None:
            need(self.kmax is not None and self.kmax > 0, "grid", "kmax", "must be positive")
            need(
                self.modes_per_axis is not None and self.modes_per_axis >= 1,
                "grid",
                "modes_per_axis",
                "must be at least 1",
            )
        else:
            need(len(self.modes) >= 1, "grid", "modes", "needs at least one mode")
            for m in self.modes:
                need(
                    len(m) == self.dimension,
                    "grid",
                    "modes",
                    f"mode {m} has dimension {len(m)}, expected {self.dimension}",
                )
            if self.mode_weights is not None:
                need(
                    len(self.mode_weights) == len(self.modes),
                    "grid",
                    "weights",
                    "one weight per mode required",
                )
                need(all(w > 0 for w in self.mode_weights), "grid", "weights", "must be positive")
        need(self.nodes_per_axis >= 1, "quadrature", "nodes_per_axis", "must be at least 1")
        need(self.n_max >= 0, "truncation", "n_max", "must be nonnegative")
        if self.kappa is not None:
            need(self.kappa >= 0, "coupling", "kappa", "must be nonnegative")
        need(all(k >= 0 for k in self.kappa_list), "coupling", "kappa_list", "must be nonnegative")
        need(
            all(a > b for a, b in zip(self.kappa_list, self.kappa_list[1:])),
            "coupling",
            "kappa_list",
            "must be sorted strictly descending",
        )
        need(self.eig_tol > 0, "solver", "eig_tol", "must be positive")
        need(self.lin_tol > 0, "solver", "lin_tol", "must be positive")
        need(self.max_iter >= 1, "solver", "max_iter", "must be at least 1")
        need(self.pull_tol > 0, "solver", "pull_tol", "must be positive")
        need(
            self.epsilon_policy in ("optimized", "fixed"),
            "epsilon",
            "policy",
            "must be 'optimized' or 'fixed'",
        )
        if self.epsilon_policy == "fixed":
            need(
                self.epsilon_value is not None and self.epsilon_value > 0,
                "epsilon",
                "value",
                "fixed policy needs a positive value",
            )
        return self

    def with_overrides(self, seed: int | None = None, output_dir: str | None = None) -> "ModelParams":
        out = self
        if seed is not None:
            out = replace(out, seed=seed)
        if output_dir is not None:
            out = replace(out, output_dir=output_dir)
        return out


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_floats(text: str, section: str, key: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split()]
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def _parse_bool(text: str) -> bool:
    """configparser's boolean words: 1/yes/true/on or 0/no/false/off, any case."""
    word = text.strip().lower()
    if word not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"{text.strip()!r} is not a boolean (1/yes/true/on or 0/no/false/off)")
    return configparser.ConfigParser.BOOLEAN_STATES[word]


def _get(parser, section, key, cast, default, *, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] {key}: required key missing")
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def _parse_cutoff(parser, section: str, base_dir: Path) -> CutoffSpec | None:
    if not parser.has_section(section):
        return None
    kind = _get(parser, section, "kind", str, None, required=True).strip()
    if kind == "tabulated":
        if parser.has_option(section, "table_file"):
            path = Path(parser.get(section, "table_file"))
            if not path.is_absolute():
                path = base_dir / path
            try:
                return load_cutoff_table(path)
            except OSError as exc:
                raise ConfigError(f"[{section}] table_file: {exc}") from None
        if parser.has_option(section, "table"):
            pairs = []
            for chunk in parser.get(section, "table").split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                vals = _parse_floats(chunk, section, "table")
                if len(vals) != 2:
                    raise ConfigError(f"[{section}] table: entry {chunk!r} is not a pair")
                pairs.append((vals[0], vals[1]))
            return CutoffSpec(kind="tabulated", table=tuple(pairs))
        raise ConfigError(f"[{section}]: tabulated cutoff needs table or table_file")
    params = tuple(_parse_floats(parser.get(section, "parameters", fallback=""), section, "parameters"))
    try:
        return CutoffSpec(kind=kind, parameters=params)
    except ConfigError as exc:
        raise ConfigError(f"[{section}]: {exc}") from None


def _parse_kappa_list(text: str) -> tuple[float, ...]:
    toks = text.split()
    if toks and toks[0] == "geometric":
        if len(toks) != 4:
            raise ConfigError("[coupling] kappa_list: geometric needs start factor count")
        start, factor, count = float(toks[1]), float(toks[2]), int(toks[3])
        if not 0 < factor < 1:
            raise ConfigError("[coupling] kappa_list: geometric factor must lie in (0, 1)")
        return tuple(start * factor**i for i in range(count))
    return tuple(float(t) for t in toks)


def parse_config(path) -> ModelParams:
    """Read and validate a configuration file into ModelParams."""
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    base_dir = path.parent

    modes = None
    weights = None
    if parser.has_option("grid", "modes"):
        modes = tuple(
            tuple(_parse_floats(chunk, "grid", "modes"))
            for chunk in parser.get("grid", "modes").split(";")
            if chunk.strip()
        )
        if parser.has_option("grid", "weights"):
            weights = tuple(_parse_floats(parser.get("grid", "weights"), "grid", "weights"))

    uv = _parse_cutoff(parser, "uv_cutoff", base_dir)
    spatial = _parse_cutoff(parser, "spatial_cutoff", base_dir)

    kappa_list: tuple[float, ...] = ()
    if parser.has_option("coupling", "kappa_list"):
        try:
            kappa_list = _parse_kappa_list(parser.get("coupling", "kappa_list"))
        except ValueError as exc:
            raise ConfigError(f"[coupling] kappa_list: {exc}") from None

    defaults = ModelParams()
    params = ModelParams(
        dimension=_get(parser, "model", "dimension", int, defaults.dimension),
        mass=_get(parser, "model", "mass", float, defaults.mass),
        kmax=_get(parser, "grid", "kmax", float, None),
        modes_per_axis=_get(parser, "grid", "modes_per_axis", int, None),
        modes=modes,
        mode_weights=weights,
        uv_cutoff=uv if uv is not None else defaults.uv_cutoff,
        spatial_cutoff=spatial if spatial is not None else defaults.spatial_cutoff,
        nodes_per_axis=_get(parser, "quadrature", "nodes_per_axis", int, defaults.nodes_per_axis),
        n_max=_get(parser, "truncation", "n_max", int, defaults.n_max),
        kappa=_get(parser, "coupling", "kappa", float, None),
        kappa_list=kappa_list,
        eig_tol=_get(parser, "solver", "eig_tol", float, defaults.eig_tol),
        lin_tol=_get(parser, "solver", "lin_tol", float, defaults.lin_tol),
        max_iter=_get(parser, "solver", "max_iter", int, defaults.max_iter),
        seed=_get(parser, "solver", "seed", int, defaults.seed),
        pull_tol=_get(parser, "solver", "pull_tol", float, defaults.pull_tol),
        epsilon_policy=_get(parser, "epsilon", "policy", str, defaults.epsilon_policy).strip(),
        epsilon_value=_get(parser, "epsilon", "value", float, None),
        output_dir=_get(parser, "output", "directory", str, defaults.output_dir).strip(),
        dump_vectors=_get(parser, "output", "dump_vectors", _parse_bool, defaults.dump_vectors),
    )
    return params.validate()


def render_config(params: ModelParams) -> str:
    """Canonical text of a resolved configuration (stable key order)."""
    lines: list[str] = []

    def sec(name):
        if lines:
            lines.append("")
        lines.append(f"[{name}]")

    def put(key, value):
        lines.append(f"{key} = {value}")

    sec("model")
    put("dimension", params.dimension)
    put("mass", _fmt(params.mass))
    sec("grid")
    if params.modes is not None:
        put("modes", " ; ".join(" ".join(_fmt(c) for c in m) for m in params.modes))
        if params.mode_weights is not None:
            put("weights", " ".join(_fmt(w) for w in params.mode_weights))
    else:
        put("kmax", _fmt(params.kmax))
        put("modes_per_axis", params.modes_per_axis)
    for name, cut in (("uv_cutoff", params.uv_cutoff), ("spatial_cutoff", params.spatial_cutoff)):
        sec(name)
        put("kind", cut.kind)
        if cut.kind == "tabulated":
            put("table", " ; ".join(f"{_fmt(p)} {_fmt(v)}" for p, v in cut.table))
        else:
            put("parameters", " ".join(_fmt(p) for p in cut.parameters))
    sec("quadrature")
    put("nodes_per_axis", params.nodes_per_axis)
    sec("truncation")
    put("n_max", params.n_max)
    sec("coupling")
    if params.kappa is not None:
        put("kappa", _fmt(params.kappa))
    if params.kappa_list:
        put("kappa_list", " ".join(_fmt(k) for k in params.kappa_list))
    sec("solver")
    put("eig_tol", _fmt(params.eig_tol))
    put("lin_tol", _fmt(params.lin_tol))
    put("max_iter", params.max_iter)
    put("seed", params.seed)
    put("pull_tol", _fmt(params.pull_tol))
    sec("epsilon")
    put("policy", params.epsilon_policy)
    if params.epsilon_value is not None:
        put("value", _fmt(params.epsilon_value))
    sec("output")
    put("directory", params.output_dir)
    put("dump_vectors", "true" if params.dump_vectors else "false")
    return "\n".join(lines) + "\n"


def build_model(params: ModelParams):
    """Instantiate grid, quadrature, and basis from validated parameters."""
    from .fock import enumerate_basis
    from .grid import build_grid, build_spatial_quadrature

    grid = build_grid(  # explicit modes, when given, take precedence over kmax
        params.dimension,
        params.mass,
        params.uv_cutoff,
        kmax=params.kmax,
        modes_per_axis=params.modes_per_axis,
        modes=None if params.modes is None else np.array(params.modes, dtype=float),
        weights=None if params.mode_weights is None else np.array(params.mode_weights, dtype=float),
    )
    quad = build_spatial_quadrature(params.dimension, params.spatial_cutoff, params.nodes_per_axis)
    basis = enumerate_basis(grid.num_modes, params.n_max)
    return grid, quad, basis
