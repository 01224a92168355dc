"""Experiment configuration: INI-style parsing, validation, canonical echo.

The file format is flat key/value pairs under fixed section headers (Python
``configparser`` syntax, ``#`` or ``;`` comments); the README documents the
grammar.  One table, ``_KEYS``, lists every ``ModelParams`` field with its
``[section] key`` and how its value is read and written: ``parse_config``,
``render_config`` and the error messages of ``ModelParams.validate`` all read
it, so an unknown section or key is rejected and every error names its
``[section] key``.  The canonical echo writes every key that is set, so
parse -> render -> parse is the identity.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grid import CutoffSpec, load_cutoff_table


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split())


def _join(values) -> str:
    return " ".join(_fmt(v) for v in values)


def _parse_modes(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_floats(chunk) for chunk in text.split(";") if chunk.strip())


def _parse_kappa_list(text: str) -> tuple[float, ...]:
    toks = text.split()
    if toks and toks[0] == "geometric":
        if len(toks) != 4:
            raise ValueError("geometric needs start factor count")
        start, factor, count = float(toks[1]), float(toks[2]), int(toks[3])
        if not 0 < factor < 1:
            raise ValueError("geometric factor must lie in (0, 1)")
        return tuple(start * factor**i for i in range(count))
    return _floats(text)


def _numbers(value) -> list:
    """Every number of a float field: a float, a tuple of them or of tuples, or None."""
    if isinstance(value, tuple):
        return [x for v in value for x in _numbers(v)]
    return [] if value is None else [value]


def _parse_bool(text: str) -> bool:
    """configparser's boolean words: 1/yes/true/on or 0/no/false/off, any case."""
    word = text.strip().lower()
    if word not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"{text.strip()!r} is not a boolean (1/yes/true/on or 0/no/false/off)")
    return configparser.ConfigParser.BOOLEAN_STATES[word]


# One row per ModelParams field, in the order render_config writes them:
# (field, section, key, parse text -> value, render value -> text).  The two
# cutoff rows have no key: _parse_cutoff reads their sections, and render_config
# writes their kind with its parameters or table.
_KEYS = (
    ("dimension", "model", "dimension", int, str),
    ("mass", "model", "mass", float, _fmt),
    ("kmax", "grid", "kmax", float, _fmt),
    ("modes_per_axis", "grid", "modes_per_axis", int, str),
    ("modes", "grid", "modes", _parse_modes, lambda modes: " ; ".join(_join(m) for m in modes)),
    ("mode_weights", "grid", "weights", _floats, _join),
    ("uv_cutoff", "uv_cutoff", None, None, None),
    ("spatial_cutoff", "spatial_cutoff", None, None, None),
    ("nodes_per_axis", "quadrature", "nodes_per_axis", int, str),
    ("n_max", "truncation", "n_max", int, str),
    ("kappa", "coupling", "kappa", float, _fmt),
    ("kappa_list", "coupling", "kappa_list", _parse_kappa_list, _join),
    ("eig_tol", "solver", "eig_tol", float, _fmt),
    ("lin_tol", "solver", "lin_tol", float, _fmt),
    ("max_iter", "solver", "max_iter", int, str),
    ("seed", "solver", "seed", int, str),
    ("pull_tol", "solver", "pull_tol", float, _fmt),
    ("epsilon_policy", "epsilon", "policy", str.strip, str),
    ("epsilon_value", "epsilon", "value", float, _fmt),
    ("output_dir", "output", "directory", str.strip, str),
    ("dump_vectors", "output", "dump_vectors", _parse_bool, lambda on: "true" if on else "false"),
)

# cutoff kind -> the keys it reads beside kind
_CUTOFF_KEYS = {"indicator": {"parameters"}, "gaussian": {"parameters"}, "tabulated": {"table", "table_file"}}

# section -> the keys it may hold, sections in file order
_SECTIONS = {
    section: {key for _, s, key, _, _ in _KEYS if s == section} - {None}
    or {"kind"}.union(*_CUTOFF_KEYS.values())
    for _, section, *_ in _KEYS
}


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
        def need(cond, name, msg):
            if not cond:
                section, key = next((s, k) for f, s, k, _, _ in _KEYS if f == name)
                raise ConfigError(f"[{section}] {key}: {msg}")

        for name, _, _, parse, _ in _KEYS:
            if parse in (float, _floats, _parse_modes, _parse_kappa_list):  # the float fields
                need(all(math.isfinite(x) for x in _numbers(getattr(self, name))), name, "must be finite")
        need(self.dimension >= 1, "dimension", "must be a positive integer")
        need(self.mass >= 0, "mass", "must be nonnegative")
        if self.modes is None:
            need(self.mode_weights is None, "mode_weights", "needs an explicit modes list")
            need(self.kmax is not None and self.kmax > 0, "kmax", "must be positive")
            need(
                self.modes_per_axis is not None and self.modes_per_axis >= 1,
                "modes_per_axis",
                "must be at least 1",
            )
        else:
            need(len(self.modes) >= 1, "modes", "needs at least one mode")
            for m in self.modes:
                need(
                    len(m) == self.dimension,
                    "modes",
                    f"mode {m} has dimension {len(m)}, expected {self.dimension}",
                )
            if self.mode_weights is not None:
                need(
                    len(self.mode_weights) == len(self.modes),
                    "mode_weights",
                    "one weight per mode required",
                )
                need(all(w > 0 for w in self.mode_weights), "mode_weights", "must be positive")
        need(self.nodes_per_axis >= 1, "nodes_per_axis", "must be at least 1")
        need(self.n_max >= 0, "n_max", "must be nonnegative")
        if self.kappa is not None:
            need(self.kappa >= 0, "kappa", "must be nonnegative")
        need(all(k >= 0 for k in self.kappa_list), "kappa_list", "must be nonnegative")
        need(
            all(a > b for a, b in zip(self.kappa_list, self.kappa_list[1:])),
            "kappa_list",
            "must be sorted strictly descending",
        )
        need(self.eig_tol > 0, "eig_tol", "must be positive")
        need(self.lin_tol > 0, "lin_tol", "must be positive")
        need(self.max_iter >= 1, "max_iter", "must be at least 1")
        need(self.pull_tol > 0, "pull_tol", "must be positive")
        need(
            self.epsilon_policy in ("optimized", "fixed"),
            "epsilon_policy",
            "must be 'optimized' or 'fixed'",
        )
        if self.epsilon_policy == "fixed":
            need(
                self.epsilon_value is not None and self.epsilon_value > 0,
                "epsilon_value",
                "fixed policy needs a positive value",
            )
        return self

    @property
    def coupling(self) -> float:
        """The one coupling of ``solve`` and ``verify``: ``kappa``, else the first ``kappa_list`` entry."""
        if self.kappa is not None:
            return self.kappa
        if self.kappa_list:
            return self.kappa_list[0]
        raise ConfigError("[coupling] kappa: not set, and kappa_list is empty")

    def with_overrides(self, seed: int | None = None, output_dir: str | None = None) -> "ModelParams":
        out = self
        if seed is not None:
            out = replace(out, seed=seed)
        if output_dir is not None:
            out = replace(out, output_dir=output_dir)
        return out


def _parse_cutoff(parser, section: str, base_dir: Path) -> CutoffSpec | None:
    if not parser.has_section(section):
        return None
    if not parser.has_option(section, "kind"):
        raise ConfigError(f"[{section}] kind: required key missing")
    kind = parser.get(section, "kind").strip()
    keys = set(parser.options(section)) - {"kind"}
    unread = sorted(keys - _CUTOFF_KEYS.get(kind, keys))  # an unknown kind is CutoffSpec's error
    if unread:
        raise ConfigError(f"[{section}] {unread[0]}: not read by kind = {kind}")
    if {"table", "table_file"} <= keys:
        raise ConfigError(f"[{section}] table_file: table is set too; keep one of the two")
    if kind not in _CUTOFF_KEYS:  # CutoffSpec names the kinds
        key = "kind"
    else:  # the key whose value CutoffSpec judges
        key = "table_file" if "table_file" in keys else "table" if kind == "tabulated" else "parameters"
    text = parser.get(section, key, fallback="")
    try:
        if key == "table_file":
            path = Path(text)
            return load_cutoff_table(path if path.is_absolute() else base_dir / path)
        if key == "table":
            return CutoffSpec(kind, table=_parse_modes(text))
        return CutoffSpec(kind, parameters=_floats(text) if key == "parameters" else ())
    except (OSError, ValueError, ConfigError) as exc:  # unreadable, not numeric, ragged or invalid
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def parse_config(path) -> ModelParams:
    """Read and validate a configuration file into ModelParams."""
    path = Path(path)
    # values are literal ('%' and the ';' that separates modes and table entries
    # included), and default_section "" matches no header, so [DEFAULT] is an
    # unknown section rather than inherited
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#",), default_section="", interpolation=None
    )
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"[{section}] {key}: unknown key")
    values = {}  # only the keys the file sets: the ModelParams defaults cover the rest
    for name, section, key, parse, _ in _KEYS:
        if key is None:
            cutoff = _parse_cutoff(parser, section, path.parent)
            if cutoff is not None:
                values[name] = cutoff
        elif parser.has_option(section, key):
            try:
                values[name] = parse(parser.get(section, key))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
    return ModelParams(**values).validate()


def render_config(params: ModelParams) -> str:
    """Canonical text of a resolved configuration: every section, every key that is set."""
    lines: list[str] = []
    for name, section, key, _, render in _KEYS:
        if f"[{section}]" not in lines:
            lines += ["", f"[{section}]"]
        value = getattr(params, name)
        if key is None:
            lines.append(f"kind = {value.kind}")
            if value.kind == "tabulated":
                lines.append("table = " + " ; ".join(f"{_fmt(p)} {_fmt(v)}" for p, v in value.table))
            else:
                lines.append(f"parameters = {_join(value.parameters)}")
        elif value is not None and value != ():
            lines.append(f"{key} = {render(value)}")
    return "\n".join(lines[1:]) + "\n"  # no blank line before the first header


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
