"""The knob protocol, proved row by row over :data:`repro.knobs.KNOBS`.

Every test is parametrized over the table, so a new row gets the whole
protocol checked without a line of new test code: resolution order
(argument > override > env > default), the env mirror and its restore,
eager env validation naming the variable, the CLI flag, the
``ExperimentConfig`` check and the runner's lazy apply.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import pytest

from repro import knobs
from repro.cli import build_parser
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner
from repro.knobs import KNOBS, ChoiceKnob, CountKnob, PathKnob, SwitchKnob

README = Path(__file__).resolve().parents[1] / "README.md"

KNOB_IDS = [knob.name for knob in KNOBS]


def _samples(knob, tmp_path):
    """Two distinct valid values and an invalid argument for ``knob``."""
    if isinstance(knob, ChoiceKnob):
        return knob.choices[-1], knob.choices[0], "bogus"
    if isinstance(knob, SwitchKnob):
        return False, True, "maybe"
    if isinstance(knob, CountKnob):
        return knob.minimum + 7, knob.minimum + 3, knob.minimum - 1
    if isinstance(knob, PathKnob):
        return str(tmp_path / "a"), str(tmp_path / "b"), "   "
    raise AssertionError(f"no samples for {knob.name}")  # pragma: no cover


def _cli_text(knob, value) -> str:
    if isinstance(knob, SwitchKnob):
        return "on" if value else "off"
    return str(value)


@pytest.fixture
def clean(monkeypatch):
    """Unset every knob variable and clear every override, before and after."""
    for knob in KNOBS:
        monkeypatch.delenv(knob.env_var, raising=False)
        knob.set(None)
    yield
    for knob in KNOBS:
        knob.set(None)


@pytest.mark.parametrize("knob", KNOBS, ids=KNOB_IDS)
class TestKnobProtocol:
    def test_row_is_consistent(self, knob):
        assert knob.env_var == "REPRO_" + knob.name.upper()
        assert knob.flag == "--" + knob.name.replace("_", "-")
        assert knob.help
        if knob.default is not None:
            assert knob.check(knob.default) == knob.default

    def test_resolution_order(self, knob, clean, monkeypatch, tmp_path):
        first, second, _ = _samples(knob, tmp_path)
        assert knob.resolve() == knob.default
        monkeypatch.setenv(knob.env_var, knob.encode(first))
        assert knob.resolve() == first  # env > default
        knob.set(second)
        assert knob.resolve() == second
        # The override wins even over a variable exported after it.
        monkeypatch.setenv(knob.env_var, knob.encode(first))
        assert knob.resolve() == second  # override > env
        assert knob.resolve(first) == first  # argument > override
        knob.set(None)
        assert knob.resolve() == first

    def test_blank_env_counts_as_unset(self, knob, clean, monkeypatch):
        monkeypatch.setenv(knob.env_var, "  ")
        assert knob.env() is None
        assert knob.resolve() == knob.default

    def test_override_mirrors_and_restores(self, knob, clean, monkeypatch, tmp_path):
        first, second, _ = _samples(knob, tmp_path)
        knob.set(second)
        assert os.environ[knob.env_var] == knob.encode(second)
        knob.set(None)
        assert knob.env_var not in os.environ
        monkeypatch.setenv(knob.env_var, knob.encode(first))
        knob.set(second)
        knob.set(first)  # only the first override displaces
        knob.set(None)
        assert os.environ[knob.env_var] == knob.encode(first)

    def test_invalid_argument_rejected(self, knob, clean, tmp_path):
        _, _, invalid = _samples(knob, tmp_path)
        with pytest.raises((TypeError, ValueError), match=knob.name):
            knob.set(invalid)
        with pytest.raises((TypeError, ValueError), match=knob.name):
            knob.resolve(invalid)
        assert knob.override is None

    def test_cli_flag_reaches_the_override(self, knob, clean, tmp_path):
        first, _, _ = _samples(knob, tmp_path)
        parser = build_parser()
        knobs.apply_arguments(parser.parse_args(["rank"]))
        assert knob.override is None  # an absent flag leaves the env in charge
        for command in (["rank"], ["compare"], ["table", "1"], ["figure", "3"]):
            args = parser.parse_args(command + [knob.flag, _cli_text(knob, first)])
            knobs.apply_arguments(args)
            assert knob.override == first
            knob.set(None)

    def test_experiment_config_field(self, knob, tmp_path):
        fields = {field.name: field for field in dataclasses.fields(ExperimentConfig)}
        assert fields[knob.name].default is None
        first, _, invalid = _samples(knob, tmp_path)
        assert getattr(ExperimentConfig(**{knob.name: first}), knob.name) == first
        with pytest.raises(ValueError, match=knob.name):
            ExperimentConfig(**{knob.name: invalid})

    def test_runner_applies_lazily(self, knob, clean, tmp_path):
        first, _, _ = _samples(knob, tmp_path)
        runner = ExperimentRunner(
            ExperimentConfig(datasets=("karate",), **{knob.name: first})
        )
        assert knob.override is None  # construction flips nothing
        runner.dataset("karate")
        # Sticky knobs become process-wide overrides; the runner passes
        # the others (workers) to every estimator as an argument instead.
        assert knob.override == (first if knob.sticky else None)


# Every non-blank path is a valid directory name, so path knobs have no
# invalid variable value.
PARSED = [knob for knob in KNOBS if not isinstance(knob, PathKnob)]


@pytest.mark.parametrize("knob", PARSED, ids=[knob.name for knob in PARSED])
def test_invalid_env_raises_naming_the_variable(knob, clean, monkeypatch, tmp_path):
    first, _, invalid = _samples(knob, tmp_path)
    monkeypatch.setenv(knob.env_var, str(invalid))
    with pytest.raises(ValueError, match=knob.env_var):
        knob.resolve()
    with pytest.raises(ValueError, match=knob.env_var):
        knob.resolve(first)  # eager even when an argument decides


def test_readme_knob_reference_lists_every_row():
    text = README.read_text(encoding="utf-8")
    start = text.index("## Knob reference")
    section = text[start:text.index("\n## ", start + 1)]
    assert "repro/knobs.py" in section
    for knob in KNOBS:
        for spelling in (f"`{knob.name}`", knob.env_var, f"`{knob.flag}`"):
            assert spelling in section, spelling


def test_table_has_the_thirteen_knobs():
    assert len(KNOBS) == len(set(KNOB_IDS)) == 13
