"""Compliant twin, the table: REPRO_FROB is declared as one row."""

import os


class SwitchKnob:
    def __init__(self, name, env_var):
        self.name = name
        self.env_var = env_var

    def resolve(self):
        return os.environ.get(self.env_var, "") not in ("", "0")


FROB = SwitchKnob("frob", "REPRO_FROB")
