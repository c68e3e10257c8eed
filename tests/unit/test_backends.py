"""Unit tests for the engine backend registry (:mod:`repro.sim.backends`).

These run on every host: the compiled legs either use the extension or
check the eager refusal that replaces it when it is not built.
"""

import pytest

from repro.cli import main
from repro.config.system import SimConfig, SystemConfig
from repro.sim.backends import (
    BACKEND_ENV,
    ConfigError,
    build_engine,
    compiled_available,
    resolve_backend,
)
from repro.sim.engine import Engine, SimulationError


def test_resolve_backend_env_override(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert resolve_backend("heap") == "heap"
    monkeypatch.setenv(BACKEND_ENV, "heap")
    assert resolve_backend("compiled") == "heap"
    monkeypatch.setenv(BACKEND_ENV, "bogus")
    with pytest.raises(SimulationError):
        resolve_backend("heap")


def test_build_engine_types():
    assert type(build_engine("heap")) is Engine
    if compiled_available():
        from repro.sim.compiled import CompiledEngine

        assert type(build_engine("compiled")) is CompiledEngine


def test_sim_config_validates_backend():
    assert SimConfig().engine_backend == "heap"
    assert SimConfig(engine_backend="compiled").engine_backend == "compiled"
    with pytest.raises(ValueError):
        SimConfig(engine_backend="bogus")


def test_with_engine_backend_helper():
    config = SystemConfig(num_gpus=2)
    compiled = config.with_engine_backend("compiled")
    assert compiled.sim.engine_backend == "compiled"
    assert config.sim.engine_backend == "heap"
    assert compiled.num_gpus == 2
    assert compiled.with_engine_backend("heap") == config


def test_removed_ring_backend_is_refused_everywhere(monkeypatch, capsys):
    """"ring" is no longer a backend: the config, the env override and the
    CLI flag all refuse it and name the remaining choices."""
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    with pytest.raises(ConfigError, match="valid choices: heap, compiled"):
        SimConfig(engine_backend="ring")
    monkeypatch.setenv(BACKEND_ENV, "ring")
    with pytest.raises(ConfigError, match="valid choices: heap, compiled"):
        resolve_backend("heap")
    monkeypatch.delenv(BACKEND_ENV)
    # The flag's choices come from the registry, so argparse refuses it.
    with pytest.raises(SystemExit) as exc:
        main(["run", "MT", "--engine-backend", "ring"])
    assert exc.value.code == 2
    assert "choose from 'heap', 'compiled'" in capsys.readouterr().err
