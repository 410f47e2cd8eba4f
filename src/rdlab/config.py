"""Flat key=value configuration files with sections, strictly validated.

``DEFAULTS`` names every section and key; others are rejected on load.  The
accessors record each key they read, so a run can reject every key its file
sets that the run did not read: no key is silently ignored.
"""

from __future__ import annotations

import configparser

DEFAULTS = {
    "law": {"name": "advection"},
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
    raise ValueError(f"not a boolean: {s!r}")


class RunConfig:
    """Validated configuration with typed accessors that record each key read."""

    def __init__(self, values):
        self.values = values    # (section, key) -> value, for the keys the file sets
        self.read = {}          # (section, key) -> effective value, for the keys read

    @classmethod
    def load(cls, path):
        cp = configparser.ConfigParser()
        try:
            with open(path) as fh:
                cp.read_file(fh)
        except (OSError, configparser.Error) as err:
            raise ConfigError(f"cannot parse {path}: {err}") from err
        values = {}
        for sec in cp.sections():
            if sec not in DEFAULTS:
                raise ConfigError(f"unknown section [{sec}]")
            for key, val in cp.items(sec):
                if key not in DEFAULTS[sec]:
                    raise ConfigError(f"unknown key {key!r} in section [{sec}]")
                values[sec, key] = val
        return cls(values)

    def get(self, sec, key):
        """The file's value, or the default where the file sets none or ''."""
        self.read[sec, key] = value = self.values.get((sec, key)) or DEFAULTS[sec][key]
        return value

    def _typed(self, sec, key, convert):
        raw = self.get(sec, key).strip()
        if raw == "":
            return None
        try:
            return convert(raw)
        except ValueError as err:
            raise ConfigError(f"[{sec}] {key}: {err}") from err

    def get_float(self, sec, key):
        return self._typed(sec, key, float)

    def get_int(self, sec, key):
        return self._typed(sec, key, int)

    def get_bool(self, sec, key):
        return self._typed(sec, key, _as_bool)

    def check_all_read(self, what):
        """Reject the keys the file sets that ``what`` did not read."""
        unread = [f"[{sec}] {key}" for sec, key in sorted(self.values.keys() - self.read.keys())]
        if unread:
            raise ConfigError(f"{what} does not read {', '.join(unread)}")

    def manifest_lines(self):
        """The keys read so far, with their effective values, as sorted
        section.key=value lines."""
        return [f"{sec}.{key}={val}" for (sec, key), val in sorted(self.read.items())]
