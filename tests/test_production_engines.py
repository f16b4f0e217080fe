"""Production entry points run the production engines, with no switch.

Only the library functions that the differential bench records and the
tests call to reach a reference engine take an ``engine=`` argument.
The CLI commands, the presets, the predictor configuration and the
degradation ladder have no way to pick one.
"""

import dataclasses

import pytest

from repro.__main__ import main
from repro.core.predictor import PredictorConfig
from repro.resilience.degrade import LADDER
from repro.resilience.sweep import SimulatePreset
from repro.telemetry.runner import TelemetryPreset


@pytest.mark.parametrize("command", [
    ["simulate", "--scenes", "SB"],
    ["telemetry", "--quick"],
    ["faults", "SB"],
])
def test_engine_flag_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*command, "--engine", "scalar"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --engine scalar" in capsys.readouterr().err


@pytest.mark.parametrize("config", [SimulatePreset, TelemetryPreset, PredictorConfig])
def test_configs_have_no_engine_field(config):
    names = {field.name for field in dataclasses.fields(config)}
    assert not names & {"engine", "table_impl"}


def test_no_ladder_rung_switches_engines():
    assert LADDER == ("wavefront", "predictor_off", "skip")
