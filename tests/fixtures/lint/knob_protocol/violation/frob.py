"""Violation twin: REPRO_* variables declared and read around the table.

Three findings: a literal declaration, a literal read, and a read keyed
by an ``*_ENV_VAR`` constant.
"""

import os

FROB_ENV_VAR = "REPRO_FROB"


def frob_enabled():
    return os.environ.get("REPRO_FROB", "") not in ("", "0")


def frob_raw():
    return os.environ[FROB_ENV_VAR]
