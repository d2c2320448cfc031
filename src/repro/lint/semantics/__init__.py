"""Whole-program semantic model shared by the cross-module lint rules.

PR 7's rules are per-file pattern matchers; the PR 9 rules (``knob-flow``,
``cache-version-key``, ``journal-hook``) need to answer questions a single
AST cannot: *which function does this call site invoke, and which keyword
arguments does it bind there?*  This subpackage builds that model once per
lint run and shares it between rules:

* :mod:`repro.lint.semantics.modules` — the module index: dotted names for
  every linted file plus per-module import/alias resolution (``import a.b
  as c``, ``from a import b as c``, relative imports), with dotted-suffix
  matching so the fixture corpus resolves under any root directory.
* :mod:`repro.lint.semantics.symbols` — the symbol table: signatures of
  every module-level function and every method (positional/keyword-only
  parameters, ``*args``/``**kwargs``, decorators), class layouts, and the
  knob-name registry read from the knob table's rows.
* :mod:`repro.lint.semantics.callgraph` — the call-graph builder: per
  call site, the resolved callee (through import aliases, ``from x import
  y as z`` bindings, dotted module paths and ``self.``/class-name method
  resolution) and the exact keyword/positional binding, including ``**``
  splats (treated as forwarding everything).

Everything here is conservative by construction: a call that cannot be
confidently resolved to a project-owned function simply produces no edge,
so the rules built on top can only fire on bindings they actually proved.

Rules obtain the shared model with :func:`project_semantics`, which
memoizes on the source list the engine passes to ``check_project`` — three
rules asking for the model of the same run build it once.
"""

from __future__ import annotations

from repro.lint.semantics.callgraph import CallSite, call_sites
from repro.lint.semantics.modules import ModuleIndex, ModuleInfo
from repro.lint.semantics.symbols import (
    ClassInfo,
    FunctionInfo,
    Project,
    project_semantics,
)

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleIndex",
    "ModuleInfo",
    "Project",
    "call_sites",
    "project_semantics",
]
