"""The knob table: every ``REPRO_*`` runtime setting, declared once.

Each row of :data:`KNOBS` is one :class:`Knob` — its name (the keyword
argument, the ``ExperimentConfig`` field and, dashed, the ``--flag``), its
environment variable, its value type (choices, on/off switch, count or
path), its default and its help text.  Everything a knob needs is
generated from the row:

* the env parse (:meth:`Knob.env`), validated eagerly with an error that
  names the variable;
* the process-wide override (:meth:`Knob.set`), mirrored into the variable
  by :class:`EnvMirroredOverride` so ``spawn``/``forkserver`` workers —
  which re-import modules fresh — resolve the same value;
* the resolver (:meth:`Knob.resolve`): argument > override > env >
  default;
* the ``--flag`` of every ``repro`` subcommand that runs estimators
  (:func:`add_arguments` / :func:`apply_arguments`);
* the ``ExperimentConfig`` field check (:func:`check_config`) and the
  experiment runner's lazy apply (:func:`apply_config`).

The modules that own a knob's meaning bind their public names to the row
(``set_default_backend = BACKEND.set``) and keep only the logic that needs
the graph or numpy (``effective_backend``, ``effective_weighted``,
``effective_mmap``, ``compiled_enabled``).  Adding a knob means adding one
row here and one ``ExperimentConfig`` field; ``tests/test_knobs.py`` then
covers its whole protocol.

Apart from ``weighted``, which selects a different workload, no knob ever
changes results, only wall-clock time, memory or cold-start time.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple

#: Sentinel marking "no override active" for the displaced-env machinery.
_UNSET = object()

_TRUE_VALUES = ("1", "on", "true", "yes")
_FALSE_VALUES = ("0", "off", "false", "no")


class EnvMirroredOverride:
    """Process-wide override mirrored into an environment variable.

    Setting an override writes the encoded value into the variable —
    ``fork`` children copy the module state, but ``spawn`` children
    re-import modules fresh and resolve from the environment — and the
    *first* override displaces the variable's prior value so clearing the
    override (``set(None)``) can put it back.
    """

    __slots__ = ("env_var", "_displaced")

    def __init__(self, env_var: str) -> None:
        self.env_var = env_var
        self._displaced: object = _UNSET

    def set(self, encoded: Optional[str]) -> None:
        """Mirror ``encoded`` into the variable; ``None`` restores the
        value the first override displaced."""
        if encoded is None:
            if self._displaced is not _UNSET:
                if self._displaced is None:
                    os.environ.pop(self.env_var, None)
                else:
                    os.environ[self.env_var] = self._displaced  # type: ignore[assignment]
                self._displaced = _UNSET
            return
        if self._displaced is _UNSET:
            self._displaced = os.environ.get(self.env_var)
        os.environ[self.env_var] = encoded


class Knob:
    """One row of the table; subclasses supply the value type.

    ``override`` holds the :meth:`set` value (``None`` = no override).
    ``on_change`` runs after every :meth:`set`.  ``sticky`` knobs are set
    process-wide by :func:`apply_config`; the experiment runner passes the
    others as arguments instead.
    """

    #: ``argparse`` choices of the flag (``None`` = free-form).
    cli_choices: Optional[Tuple[str, ...]] = None

    def __init__(
        self,
        name: str,
        env_var: str,
        *,
        default: object,
        help: str,
        metavar: Optional[str] = None,
        on_change: Optional[Callable[[], None]] = None,
        sticky: bool = True,
    ) -> None:
        self.name = name
        self.env_var = env_var
        self.default = default
        self.help = help
        self.metavar = metavar
        self.on_change = on_change
        self.sticky = sticky
        self.override: object = None
        self._mirror = EnvMirroredOverride(env_var)
        #: Raw variable value -> decoded value (``None`` = unset).  Parsing
        #: is pure, so a hot-path resolution is one ``os.environ`` read
        #: plus one lookup; invalid values are never cached and so raise
        #: on every read.
        self._decoded: Dict[Optional[str], object] = {None: None}

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    # -- the protocol -------------------------------------------------
    def env(self):
        """The validated value of the variable (``None`` = unset or blank)."""
        raw = os.environ.get(self.env_var)
        env = self._decoded.get(raw, _UNSET)
        if env is _UNSET:
            text = raw.strip()
            env = self._decoded[raw] = self.parse(text) if text else None
        return env

    def resolve(self, value=None):
        """argument > override > env > default.

        The variable is validated even when an argument or override makes
        it moot, so a typo'd setting fails at the first resolution with an
        error naming the variable instead of deep inside a later call.
        """
        env = self.env()
        if value is not None:
            return self.check(value)
        if self.override is not None:
            return self.override
        return self.default if env is None else env

    def set(self, value) -> None:
        """Set (or with ``None`` clear) the process-wide override.

        Mirrored into the variable; ``None`` restores the value the first
        override displaced.
        """
        if value is not None:
            value = self.check(value)
        self._mirror.set(None if value is None else self.encode(value))
        self.override = value
        if self.on_change is not None:
            self.on_change()

    # -- the value type ---------------------------------------------------
    def parse(self, text: str):
        """Decode a non-blank variable value, raising a ``ValueError``
        that names the variable."""
        raise NotImplementedError

    def check(self, value, source: Optional[str] = None):
        """Validate an argument or override (``source`` names it)."""
        raise NotImplementedError

    def encode(self, value) -> str:
        return str(value)

    def from_cli(self, value):
        return value


class ChoiceKnob(Knob):
    """One of a fixed set of names; ``noun`` words the error."""

    def __init__(self, name, env_var, choices, *, noun: str, **kwargs) -> None:
        super().__init__(name, env_var, **kwargs)
        self.choices = self.cli_choices = tuple(choices)
        self.noun = noun

    def parse(self, text: str):
        return self.check(text.lower(), source=self.env_var)

    def check(self, value, source=None):
        if value not in self.choices:
            raise ValueError(
                f"{source or self.name}={value!r} is not a valid {self.noun}; "
                f"choose one of {self.choices} (the default can also be set "
                f"via the {self.env_var} environment variable)"
            )
        return value


class SwitchKnob(Knob):
    """A boolean, spelled ``on``/``off`` on the command line."""

    cli_choices = ("on", "off")

    def parse(self, text: str):
        text = text.lower()
        if text in _TRUE_VALUES:
            return True
        if text in _FALSE_VALUES:
            return False
        raise ValueError(
            f"{self.env_var}={text!r} is not a valid setting; use one of "
            f"{_TRUE_VALUES} to enable or {_FALSE_VALUES} to disable"
        )

    def check(self, value, source=None):
        if not isinstance(value, bool):
            raise TypeError(
                f"{source or self.name} must be a bool, got {type(value).__name__}"
            )
        return value

    def encode(self, value) -> str:
        return "1" if value else "0"

    def from_cli(self, value):
        return value == "on"


class CountKnob(Knob):
    """An integer ``>= minimum``; ``noun`` words the env error."""

    def __init__(self, name, env_var, *, minimum: int, noun: str, **kwargs) -> None:
        super().__init__(name, env_var, **kwargs)
        self.minimum = minimum
        self.noun = noun
        self._kind = "positive" if minimum == 1 else "non-negative"

    def parse(self, text: str):
        try:
            value = int(text)
        except ValueError:
            raise ValueError(
                f"{self.env_var}={text!r} is not a valid {self.noun}; "
                f"expected a {self._kind} integer"
            ) from None
        return self._bounded(value, self.env_var)

    def check(self, value, source=None):
        source = source or self.name
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(
                f"{source} must be a {self._kind} int, got {type(value).__name__}"
            )
        return self._bounded(value, source)

    def _bounded(self, value: int, source: str) -> int:
        if value < self.minimum:
            raise ValueError(f"{source} must be >= {self.minimum}, got {value}")
        return value


class PathKnob(Knob):
    """A directory path, kept as a string."""

    def parse(self, text: str):
        return text

    def check(self, value, source=None):
        value = str(value)
        if not value.strip():
            raise ValueError(f"{source or self.name} must be a non-empty path or None")
        return value


def _drop_default_dag_cache() -> None:
    """Rebuild the default DAG cache with the new bounds on next use."""
    from repro.engine.dag_cache import clear_default_dag_cache

    clear_default_dag_cache()


# ----------------------------------------------------------------------
# The table (the order is the order of the --flags in --help)
# ----------------------------------------------------------------------
BACKEND = ChoiceKnob(
    "backend", "REPRO_BACKEND", ("auto", "dict", "csr"),
    noun="backend", default="auto",
    help="traversal backend: csr (array kernels), dict (reference "
         "implementation), or auto (pick per graph size; the default, "
         "and when passed explicitly it overrides REPRO_BACKEND)",
)
WEIGHTED = ChoiceKnob(
    "weighted", "REPRO_WEIGHTED", ("auto", "on", "off"),
    noun="weighted mode", default="auto",
    help="weighted SSSP routing: auto (use edge weights iff the graph "
         "has them; the default), on (force the Dijkstra engine, absent "
         "weights count as 1), or off (ignore weights, hop distances).  "
         "When passed explicitly it overrides REPRO_WEIGHTED",
)
SSSP_KERNEL = ChoiceKnob(
    "sssp_kernel", "REPRO_SSSP_KERNEL", ("auto", "dijkstra", "delta"),
    noun="SSSP kernel", default="auto",
    help="weighted SSSP kernel: dijkstra (per-source binary heap), "
         "delta (bucket-synchronous delta-stepping), or auto (delta for "
         "batched sweeps, dijkstra for single-source calls; the "
         "default).  When passed explicitly it overrides "
         "REPRO_SSSP_KERNEL.  The kernels are bit-identical — this "
         "never changes results, only wall-clock time",
)
COMPILED = ChoiceKnob(
    "compiled", "REPRO_COMPILED", ("auto", "on", "off"),
    noun="compiled mode", default="auto",
    help="compiled (numba) kernel tier for the weighted engine: auto "
         "(use numba iff installed; the default), on (require numba — "
         "error when missing), or off (pure-Python loops).  When passed "
         "explicitly it overrides REPRO_COMPILED.  Never changes "
         "results, only wall-clock time",
)
WORKERS = CountKnob(
    "workers", "REPRO_WORKERS", minimum=0, noun="worker count", default=0,
    sticky=False,
    help="worker processes for source sweeps and sampling (0 = serial; "
         "the default, and when passed explicitly it overrides "
         "REPRO_WORKERS).  Worker counts never change results, only "
         "wall-clock time",
)
START_METHOD = ChoiceKnob(
    "start_method", "REPRO_START_METHOD", ("fork", "spawn", "forkserver"),
    noun="start method", default=None,
    help="multiprocessing start method for the worker pool (the "
         "platform default when absent; when passed explicitly it "
         "overrides REPRO_START_METHOD).  The pool is bit-identical "
         "under every start method — this never changes results",
)
DAG_CACHE = SwitchKnob(
    "dag_cache", "REPRO_DAG_CACHE", default=True,
    help="cross-sample shortest-path DAG cache (on by default; when "
         "passed explicitly it overrides REPRO_DAG_CACHE).  The cache "
         "never changes results, only wall-clock time; "
         "REPRO_DAG_CACHE_SIZE bounds its per-graph entry count",
)
DAG_CACHE_SIZE = CountKnob(
    "dag_cache_size", "REPRO_DAG_CACHE_SIZE", minimum=1, noun="cache size",
    default=512, metavar="N", on_change=_drop_default_dag_cache,
    help="per-graph LRU entry bound for the DAG cache (default 512; "
         "when passed explicitly it overrides REPRO_DAG_CACHE_SIZE).  "
         "Cache bounds never change results, only wall-clock time",
)
DAG_CACHE_BUDGET = CountKnob(
    "dag_cache_budget", "REPRO_DAG_CACHE_BUDGET", minimum=1, noun="cache size",
    default=16_000_000, metavar="N", on_change=_drop_default_dag_cache,
    help="per-graph estimated-element budget for the DAG cache "
         "(default 16000000, about 128 MB; when passed explicitly it "
         "overrides REPRO_DAG_CACHE_BUDGET).  Never changes results",
)
DAG_CACHE_DELTA = ChoiceKnob(
    "dag_cache_delta", "REPRO_DAG_CACHE_DELTA", ("auto", "on", "off"),
    noun="delta-invalidation mode", default="auto",
    help="delta cache invalidation for mutating graphs: auto (validate "
         "cached entries against the mutation journal, falling back to "
         "wholesale eviction past a size limit; the default), on "
         "(always validate), or off (journal disabled, wholesale "
         "eviction on every mutation — the pre-delta behaviour).  When "
         "passed explicitly it overrides REPRO_DAG_CACHE_DELTA.  "
         "Retention is only ever claimed when provably safe — this "
         "never changes results, only wall-clock time",
)
DELTA_JOURNAL_SIZE = CountKnob(
    "delta_journal_size", "REPRO_DELTA_JOURNAL_SIZE", minimum=1,
    noun="journal size", default=256, metavar="N",
    help="mutation-journal cap per graph (default 256; when passed "
         "explicitly it overrides REPRO_DELTA_JOURNAL_SIZE).  Edits "
         "past the cap degrade to wholesale cache eviction; never "
         "changes results",
)
SNAPSHOT_DIR = PathKnob(
    "snapshot_dir", "REPRO_SNAPSHOT_DIR", default=None, metavar="DIR",
    help="on-disk CSR snapshot store: datasets are memoised to "
         "DIR/datasets and exact ground truth persists in "
         "DIR/ground_truth, so repeat invocations skip graph "
         "generation and Brandes entirely.  No store when absent "
         "(when passed explicitly it overrides REPRO_SNAPSHOT_DIR).  "
         "Never changes results, only cold-start time",
)
MMAP = ChoiceKnob(
    "mmap", "REPRO_MMAP", ("auto", "on", "off"),
    noun="mmap mode", default="auto",
    help="how snapshot files are attached: auto (read-only np.memmap "
         "views when numpy is available; the default), on (same, "
         "asserting intent), or off (read arrays into RAM).  When "
         "passed explicitly it overrides REPRO_MMAP.  Mapped and "
         "in-RAM arrays are byte-identical — never changes results, "
         "only memory footprint and load time",
)

KNOBS: Tuple[Knob, ...] = (
    BACKEND,
    WEIGHTED,
    SSSP_KERNEL,
    COMPILED,
    WORKERS,
    START_METHOD,
    DAG_CACHE,
    DAG_CACHE_SIZE,
    DAG_CACHE_BUDGET,
    DAG_CACHE_DELTA,
    DELTA_JOURNAL_SIZE,
    SNAPSHOT_DIR,
    MMAP,
)


# ----------------------------------------------------------------------
# Generated surfaces
# ----------------------------------------------------------------------
def add_arguments(parser) -> None:
    """Add every knob's ``--flag`` to an ``argparse`` (sub)parser.

    Flags default to ``None`` so an absent flag leaves the variable (or
    the built-in default) in charge.
    """
    for knob in KNOBS:
        options = {"choices": knob.cli_choices} if knob.cli_choices else {}
        if isinstance(knob, CountKnob):
            options["type"] = int
        parser.add_argument(
            knob.flag, default=None, metavar=knob.metavar, help=knob.help,
            **options,
        )


def apply_arguments(args) -> None:
    """Set the override of every knob whose flag was passed.

    An explicit flag is applied even when it names the default
    (``--backend auto``), so it beats an exported variable.
    """
    for knob in KNOBS:
        value = getattr(args, knob.name, None)
        if value is not None:
            knob.set(knob.from_cli(value))


def check_config(config) -> None:
    """Reject an invalid knob field of an ``ExperimentConfig`` (``None``
    fields leave the knob alone)."""
    for knob in KNOBS:
        value = getattr(config, knob.name)
        if value is not None:
            try:
                knob.check(value)
            except TypeError as error:
                raise ValueError(str(error)) from None


def apply_config(config) -> None:
    """Set the override of every sticky knob the config pins.

    Process-wide and sticky: mirrored into the variables so spawned
    workers agree, and in force until ``knob.set(None)`` hands control
    back to the environment.
    """
    for knob in KNOBS:
        value = getattr(config, knob.name)
        if knob.sticky and value is not None:
            knob.set(value)
