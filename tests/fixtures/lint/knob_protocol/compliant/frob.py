"""Compliant twin, the consumer: reads the knob through its table row."""

from knobs import FROB

FROB_ENV_VAR = FROB.env_var
frob_enabled = FROB.resolve
