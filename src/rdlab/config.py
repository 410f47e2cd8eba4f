"""Flat key=value configuration files with sections, strictly validated.

Unknown sections or keys are rejected so typos fail fast instead of being
silently ignored.
"""

from __future__ import annotations

import configparser

SCHEMA = {
    "law": {"name"},
    "mesh": {"kind", "n", "nx", "ny", "x0", "x1", "y0", "y1", "degree", "periodic"},
    "scheme": {"kind", "tau_scale", "theta_e", "gamma_jump", "alpha"},
    "time": {"method", "cfl", "dt", "t_end", "dec_iterations"},
    "corrections": {"correct_conservation"},
    "run": {"initial", "out"},
}

DEFAULTS = {
    "law": {"name": "advection(1,0)"},
    "mesh": {
        "kind": "structured_tri",
        "n": "100",
        "nx": "16",
        "ny": "16",
        "x0": "0",
        "x1": "1",
        "y0": "0",
        "y1": "1",
        "degree": "1",
        "periodic": "false",
    },
    "scheme": {
        "kind": "rusanov",
        "tau_scale": "1.0",
        "theta_e": "0.01",
        "gamma_jump": "0.1",
        "alpha": "",
    },
    "time": {
        "method": "euler",
        "cfl": "0.3",
        "dt": "",
        "t_end": "0.1",
        "dec_iterations": "",
    },
    "corrections": {"correct_conservation": "true"},
    "run": {"initial": "cosine", "out": "out"},
}


class ConfigError(Exception):
    pass


def _as_bool(s):
    s = s.strip().lower()
    if s in ("true", "1", "yes", "on"):
        return True
    if s in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


class RunConfig:
    """Validated configuration with typed accessors."""

    def __init__(self, sections):
        self.sections = sections

    @classmethod
    def load(cls, path):
        cp = configparser.ConfigParser()
        try:
            with open(path) as fh:
                cp.read_file(fh)
        except (OSError, configparser.Error) as err:
            raise ConfigError(f"cannot parse {path}: {err}") from err
        sections = {k: dict(v) for k, v in DEFAULTS.items()}
        for sec in cp.sections():
            if sec not in SCHEMA:
                raise ConfigError(f"unknown section [{sec}]")
            for key, val in cp.items(sec):
                if key not in SCHEMA[sec]:
                    raise ConfigError(f"unknown key {key!r} in section [{sec}]")
                sections[sec][key] = val
        return cls(sections)

    def get(self, sec, key):
        return self.sections[sec][key]

    def get_float(self, sec, key, default=None):
        raw = self.sections[sec][key].strip()
        if raw == "":
            return default
        try:
            return float(raw)
        except ValueError as err:
            raise ConfigError(f"[{sec}] {key}: not a number: {raw!r}") from err

    def get_int(self, sec, key, default=None):
        raw = self.sections[sec][key].strip()
        if raw == "":
            return default
        try:
            return int(raw)
        except ValueError as err:
            raise ConfigError(f"[{sec}] {key}: not an integer: {raw!r}") from err

    def get_bool(self, sec, key):
        try:
            return _as_bool(self.sections[sec][key])
        except ConfigError as err:
            raise ConfigError(f"[{sec}] {key}: {err}") from err

    def manifest_lines(self):
        """Every effective key echoed as section.key=value lines."""
        lines = []
        for sec in sorted(self.sections):
            for key in sorted(self.sections[sec]):
                lines.append(f"{sec}.{key}={self.sections[sec][key]}")
        return lines
