"""Compliant twin: writes only inside knobs.py's EnvMirroredOverride."""

import os


class EnvMirroredOverride:
    def __init__(self, env_var):
        self.env_var = env_var
        self._displaced = None
        self._active = False

    def set(self, encoded):
        if encoded is None:
            if self._active:
                if self._displaced is None:
                    os.environ.pop(self.env_var, None)
                else:
                    os.environ[self.env_var] = self._displaced
                self._active = False
            return
        if not self._active:
            self._displaced = os.environ.get(self.env_var)
            self._active = True
        os.environ[self.env_var] = encoded


def read_only(name):
    return os.environ.get(name, "")
