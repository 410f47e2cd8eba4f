import dataclasses

import pytest

from rdlab import cli
from rdlab.cli import main
from rdlab.config import DEFAULTS, ConfigError, RunConfig
from rdlab.rd_core import Scheme
from rdlab.time_dec import DecConfig


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_defaults_and_overrides(tmp_path):
    cfg = RunConfig.load(write(tmp_path, "[mesh]\nnx = 4\n"))
    assert cfg.get_int("mesh", "nx") == 4
    assert cfg.get_int("mesh", "ny") == 16  # untouched default
    assert cfg.get("law", "name") == "advection"
    assert cfg.get_float("time", "cfl") == 0.3
    assert cfg.get_bool("corrections", "correct_conservation") is True


def test_empty_values_fall_back_to_default(tmp_path):
    cfg = RunConfig.load(write(tmp_path, "[time]\ndt =\nt_end =\n"))
    assert cfg.get_float("time", "dt") is None      # the DEFAULTS value is empty too
    assert cfg.get_float("time", "t_end") == 0.1    # the DEFAULTS value, not None


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.load(write(tmp_path, "[solver]\nkind = x\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.load(write(tmp_path, "[mesh]\nnz = 4\n"))


def test_bad_types_rejected(tmp_path):
    cfg = RunConfig.load(write(tmp_path, "[time]\ncfl = fast\n"))
    with pytest.raises(ConfigError):
        cfg.get_float("time", "cfl")
    cfg = RunConfig.load(write(tmp_path, "[mesh]\nperiodic = maybe\n"))
    with pytest.raises(ConfigError):
        cfg.get_bool("mesh", "periodic")


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.load(str(tmp_path / "nope.ini"))


def test_manifest_lines(tmp_path):
    cfg = RunConfig.load(write(tmp_path, "[mesh]\nnx = 4\n"))
    cfg.get_int("mesh", "nx")
    cfg.get_float("time", "cfl")
    lines = cfg.manifest_lines()
    assert "mesh.nx=4" in lines
    assert lines == sorted(lines)
    # only the keys read, with their effective values
    assert lines == ["mesh.nx=4", "time.cfl=0.3"]


@pytest.mark.parametrize("section, key", [
    ("corrections", "correct_entropy"),
    ("run", "seed"),
    ("run", "strict"),
    ("run", "snapshots"),
])
def test_keys_nothing_reads_are_rejected(tmp_path, section, key):
    path = write(tmp_path, f"[{section}]\n{key} = 1\n")
    with pytest.raises(ConfigError):
        RunConfig.load(path)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2


def test_seed_flag_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", write(tmp_path, "[run]\n"), "--seed", "1"])
    assert exc.value.code == 2


def test_the_set_ups_read_every_key(tmp_path):
    """The scalar triangle, scalar interval and Sod set-ups, run on defaults
    and with the two limited-stabilized scheme kinds, read every key of
    DEFAULTS between them: no key is one that nothing reads."""
    read = set()
    for text in ("", "[mesh]\nkind = interval\n[law]\nname = burgers\n",
                 "[law]\nname = euler\n", "[scheme]\nkind = limited_supg\n",
                 "[scheme]\nkind = limited_jump\n"):
        cfg = RunConfig.load(write(tmp_path, text))
        cli._setup(cfg)
        read |= set(cfg.read)
    assert read == {(sec, key) for sec, keys in DEFAULTS.items() for key in keys}


def test_defaults_are_the_library_defaults():
    """The [scheme] and [time] cfl defaults are those of ``Scheme`` and
    ``DecConfig``, written as the config file would: None as ''."""
    scheme = {f.name: "" if f.default is None else str(f.default)
              for f in dataclasses.fields(Scheme)}
    assert DEFAULTS["scheme"] == scheme
    cfl = {f.name: f.default for f in dataclasses.fields(DecConfig)}["cfl"]
    assert DEFAULTS["time"]["cfl"] == str(cfl)
