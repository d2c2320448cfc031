"""``knob-protocol``: every ``REPRO_*`` variable lives in the knob table.

The protocol (ROADMAP, "Architecture invariants"): every toggle resolves
arg > override > ``REPRO_*`` env > default, mirrors its override into the
variable for spawn workers, and is reachable from the command line and
from ``ExperimentConfig``.  :mod:`repro.knobs` generates all of that from
one table row, and ``tests/test_knobs.py`` proves it row by row.  What
remains to police is the way around the table: a variable declared or
read anywhere else works on the machine that exported it and silently
falls back everywhere else.

In product code (test, benchmark, example and fixture code, and the lint
package itself, are exempt) the rule flags, outside any ``knobs.py``:

* every ``"REPRO_*"`` string literal — a ``X_ENV_VAR = "REPRO_FOO"``
  declaration, an ``os.environ.get("REPRO_FOO")`` read, a subscript;
* every ``os.environ``/``os.getenv`` read keyed by a ``*_ENV_VAR`` name,
  which reads a table variable around the table's parser.
"""

from __future__ import annotations

import ast
import re
from typing import List, Sequence, Tuple

from repro.lint.model import Finding, Rule, SourceFile
from repro.lint.rules.common import dotted_name, is_os_environ

_ENV_VALUE_RE = re.compile(r"^REPRO_[A-Z0-9_]+$")

#: Path components whose files may name knob variables freely: tests,
#: benchmarks and examples pin knobs on purpose, fixture twins are
#: deliberate violations, and the lint package describes the rule.
DEFAULT_EXCLUDE_PARTS: Tuple[str, ...] = (
    "tests",
    "benchmarks",
    "examples",
    "fixtures",
    "lint",
)

_READ_FUNCTIONS = ("os.environ.get", "os.getenv")


def _env_var_name(node: ast.AST) -> bool:
    name = dotted_name(node)
    return name is not None and name.endswith("_ENV_VAR")


def _offence(node: ast.AST) -> str:
    """What ``node`` does with a knob variable outside the table, or ``""``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if _ENV_VALUE_RE.match(node.value):
            return f"names {node.value}"
    elif isinstance(node, ast.Call):
        if dotted_name(node.func) in _READ_FUNCTIONS and node.args:
            if _env_var_name(node.args[0]):
                return f"reads {dotted_name(node.args[0])}"
    elif isinstance(node, ast.Subscript) and is_os_environ(node.value):
        if _env_var_name(node.slice):
            return f"reads {dotted_name(node.slice)}"
    return ""


class KnobProtocolRule(Rule):
    rule_id = "knob-protocol"
    description = (
        "every REPRO_* variable is declared and read only in repro/knobs.py; "
        "add a row to the knob table instead of reading the environment"
    )

    def __init__(
        self, exclude_parts: Sequence[str] = DEFAULT_EXCLUDE_PARTS
    ) -> None:
        self.exclude_parts = tuple(exclude_parts)

    def check_file(self, source: SourceFile) -> List[Finding]:
        if (
            source.tree is None
            or source.name == "knobs.py"
            or any(part in self.exclude_parts for part in source.parts)
        ):
            return []
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            offence = _offence(node)
            if offence:
                findings.append(
                    source.finding(
                        self.rule_id,
                        node,
                        f"{offence} outside the knob table: declare the "
                        "knob as a row of repro/knobs.py and resolve it "
                        "through the row (arg > override > env > default, "
                        "mirrored for spawn workers, with a --flag and an "
                        "ExperimentConfig field)",
                    )
                )
        return findings
