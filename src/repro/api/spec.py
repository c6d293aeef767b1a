"""One codec for every spec, and the canonical training spec :class:`RunSpec`.

A spec is a frozen dataclass of *names and scalars only*: strategy
name, placement key, fault spec strings, tie-order policy name, and so
on.  Six classes are specs: :class:`RunSpec` (training),
:class:`repro.inference.InferenceSpec` (serving),
:class:`repro.cluster.ClusterScenario` (the multi-tenant service),
:class:`repro.experiments.common.ExperimentSpec` (one paper experiment),
:class:`repro.cluster.JobSpec` (one submitted job) and
:class:`repro.campaign.CampaignSpec` (a sweep).  Each declares only its
fields, its ``__post_init__`` validation and its domain methods; the
base :class:`Spec` owns the codec they share:

``to_dict()``
    Every field in declaration order.  A tuple becomes a list, a dict
    entry is copied, and a nested spec becomes its own ``to_dict()``.
``from_dict(payload)``
    The one gate for JSON from outside the program (arrival traces,
    campaign files, cache payloads).  A payload that is not a mapping,
    an unknown or missing field, or a value whose JSON type does not
    match the field's annotation is a :class:`ConfigurationError` naming
    the class and the field.  An int in a float field is kept as given,
    so it hashes as it did before; a bool is never a number.
``replace(**changes)``
    A copy through ``__init__``, so ``__post_init__`` re-validates it;
    unknown field names are rejected like ``from_dict``'s.
``cache_key(salt=...)``
    The content hash the campaign result cache is keyed on.

Constructing a spec with a list for a tuple field stores a tuple, and
mapping entries of a tuple-of-specs field are decoded through the entry
class's ``from_dict``; a string for a tuple field is rejected.  Field
annotations are resolved once per class.  They may use ``bool``,
``int``, ``float``, ``str``, ``Optional[...]`` of those, and
``Tuple[X, ...]`` of those, ``Dict`` or a spec class; not PEP 604
unions, which Python 3.9 cannot evaluate.

Materializing the live simulator objects from a :class:`RunSpec` is
:mod:`repro.api.build`'s job, keeping this module importable from
anywhere without cycles.

**Cache-key stability contract.**  ``cache_key()`` is a SHA-256 over the
salt plus the canonical JSON encoding (sorted keys, compact separators)
of ``{"kind": KIND, "spec": to_dict()}``.  ``KIND`` is the class's
namespace: ``"run"``, ``"inference"``, ``"cluster"`` or
``"experiment"``, so two kinds never share a key.  The key is therefore:

* independent of dict insertion order and of the process that computes
  it (no ``id()``/hash-seed/wall-clock inputs);
* changed by exactly two things — a field value changing, or the salt
  changing.  The default salt (:func:`default_salt`) embeds the package
  version and the results schema version, so upgrading either safely
  invalidates every cached result.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import (
    ClassVar,
    Dict,
    Iterable,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from ..errors import ConfigurationError
from ..sim.fastpath import validate_fidelity

#: Tie-order policy names accepted by :attr:`RunSpec.tie_order`
#: (materialized in :mod:`repro.api.build`).
TIE_ORDERS = ("fifo", "reversed", "seeded")


def default_salt() -> str:
    """The code-version salt mixed into every cache key.

    Bumping the package version or the results schema version changes
    the salt, so stale cached payloads can never be confused for current
    ones.  Imported lazily to keep this module cycle-free.
    """
    from .. import __version__
    from ..core.results import SCHEMA_VERSION

    return f"repro/{__version__}/results-v{SCHEMA_VERSION}"


def canonical_json(payload: Mapping[str, object]) -> str:
    """The canonical encoding content hashes are computed over.

    Sorted keys and compact separators make the encoding independent of
    dict ordering; ``allow_nan=False`` keeps the payload portable.
    """
    try:
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as error:
        raise ConfigurationError(
            f"payload is not canonically JSON-serializable: {error}"
        ) from None


def stable_key(payload: Mapping[str, object], *,
               salt: Optional[str] = None) -> str:
    """SHA-256 hex digest of ``salt`` + the canonical JSON of ``payload``."""
    if salt is None:
        salt = default_salt()
    body = salt + "\n" + canonical_json(payload)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


S = TypeVar("S", bound="Spec")


class _Field(NamedTuple):
    """One spec field's annotation, resolved once per class."""

    name: str
    #: bool, int, float, str, dict, or a Spec subclass
    kind: type
    #: ``Optional[kind]``: null is accepted
    optional: bool
    #: ``Tuple[kind, ...]``: a list of ``kind`` entries
    sequence: bool
    #: no default, so a payload must carry the field
    required: bool

    def expects(self) -> str:
        names = {bool: "a boolean", int: "an integer", float: "a number",
                 str: "a string", dict: "an object"}
        text = names.get(self.kind, f"a {self.kind.__name__} object")
        if self.sequence:
            text = f"a list, each entry {text}"
        return f"{text} or null" if self.optional else text


@functools.lru_cache(maxsize=None)
def _fields_of(cls: type) -> Dict[str, _Field]:
    """``cls``'s fields by name, in declaration order."""
    hints = get_type_hints(cls)
    resolved: Dict[str, _Field] = {}
    for spec_field in dataclasses.fields(cls):
        hint = hints[spec_field.name]
        optional = get_origin(hint) is Union
        if optional:
            hint = next(arg for arg in get_args(hint)
                        if arg is not type(None))
        sequence = get_origin(hint) is tuple
        if sequence:
            hint = get_args(hint)[0]
        resolved[spec_field.name] = _Field(
            spec_field.name, get_origin(hint) or hint, optional, sequence,
            spec_field.default is dataclasses.MISSING
            and spec_field.default_factory is dataclasses.MISSING)
    return resolved


def _reject_unknown(cls: type, names: Iterable[str]) -> None:
    known = _fields_of(cls)
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise ConfigurationError(
            f"unknown {cls.__name__} fields {unknown}; known: {sorted(known)}"
        )


def _mismatch(cls: type, spec_field: _Field, got: object) -> ConfigurationError:
    return ConfigurationError(
        f"{cls.__name__} field {spec_field.name!r} expects "
        f"{spec_field.expects()}, got {got!r}"
    )


def _accepts(kind: type, value: object) -> bool:
    """Whether a JSON-decoded ``value`` has the type ``kind`` names.

    A bool is no number, and an int is a float, kept as given.
    """
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    if kind is dict or issubclass(kind, Spec):
        return isinstance(value, (Mapping, kind))
    return isinstance(value, kind)


def _encode(value: object) -> object:
    if isinstance(value, tuple):
        return [_encode(entry) for entry in value]
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, Spec):
        return value.to_dict()
    return value


@dataclasses.dataclass(frozen=True)
class Spec:
    """The codec every spec class shares (see the module docstring).

    Subclasses are frozen dataclasses whose ``__post_init__`` calls this
    one before validating.
    """

    #: cache-key namespace and campaign job kind; specs that are never
    #: cached (``JobSpec``, ``CampaignSpec``) declare none
    KIND: ClassVar[str]

    def __post_init__(self) -> None:
        for spec_field in _fields_of(type(self)).values():
            if not spec_field.sequence:
                continue
            value = getattr(self, spec_field.name)
            if isinstance(value, str):
                raise _mismatch(type(self), spec_field, value)
            kind = spec_field.kind
            if issubclass(kind, Spec):
                value = (entry if isinstance(entry, kind)
                         else kind.from_dict(entry) for entry in value)
            object.__setattr__(self, spec_field.name, tuple(value))

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dict of every field, in declaration order."""
        return {name: _encode(getattr(self, name))
                for name in _fields_of(type(self))}

    @classmethod
    def from_dict(cls: Type[S], payload: Mapping[str, object]) -> S:
        """Inverse of :meth:`to_dict`; the gate for outside JSON."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"a {cls.__name__} payload must be an object, "
                f"got {payload!r}"
            )
        _reject_unknown(cls, payload)
        for spec_field in _fields_of(cls).values():
            if spec_field.name not in payload:
                if spec_field.required:
                    raise ConfigurationError(
                        f"{cls.__name__} payload needs "
                        f"{spec_field.name!r}"
                    )
                continue
            value = payload[spec_field.name]
            if value is None and spec_field.optional:
                continue
            if not spec_field.sequence:
                if not _accepts(spec_field.kind, value):
                    raise _mismatch(cls, spec_field, value)
                continue
            if not isinstance(value, (list, tuple)):
                raise _mismatch(cls, spec_field, value)
            for entry in value:
                if not _accepts(spec_field.kind, entry):
                    raise _mismatch(cls, spec_field, entry)
        try:
            return cls(**payload)
        except (TypeError, ValueError) as error:
            raise ConfigurationError(
                f"bad {cls.__name__} payload: {error}"
            ) from None

    def replace(self: S, **changes: object) -> S:
        """A copy with ``changes`` applied, re-validated on construction."""
        _reject_unknown(type(self), changes)
        return dataclasses.replace(self, **changes)

    def cache_key(self, *, salt: Optional[str] = None) -> str:
        """The stable content hash caching is keyed on (see module doc)."""
        return stable_key({"kind": self.KIND, "spec": self.to_dict()},
                          salt=salt)


@dataclasses.dataclass(frozen=True)
class RunSpec(Spec):
    """One simulated training run, as pure serializable data.

    Exactly one of ``size_billions`` / ``num_layers`` selects the model
    depth (``size_billions`` goes through the paper's layers-for-target
    search; ``num_layers`` pins the depth exactly).  Everything else
    mirrors one ``run_training`` keyword; see :func:`repro.api.run_spec`
    for the mapping.
    """

    KIND = "run"

    strategy: str
    size_billions: Optional[float] = None
    num_layers: Optional[int] = None
    nodes: int = 1
    placement: str = "B"
    iterations: int = 3
    warmup_iterations: int = 1
    #: training hyperparameters (``TrainingConfig``)
    micro_batch_per_gpu: int = 16
    precision_bytes: int = 2
    activation_recompute: bool = True
    #: fault injection: spec strings in :meth:`repro.faults.FaultPlan.parse`
    #: syntax, plus the seed/horizon the plan is expanded with
    faults: Tuple[str, ...] = ()
    fault_seed: int = 0
    fault_horizon: Optional[float] = None
    #: transport retry policy; ``None`` everywhere means library defaults
    retry_timeout_s: Optional[float] = None
    retry_backoff: Optional[float] = None
    retry_max_retries: Optional[int] = None
    #: determinism / observability hooks
    tie_order: str = "fifo"
    tie_seed: int = 7
    sanitize: bool = False
    trace: bool = False
    #: attach the runtime leak sanitizer (:mod:`repro.sim.leaksan`) and
    #: audit pools/ledgers/flows for outstanding balance at teardown
    leak_check: bool = False
    preflight: bool = True
    #: simulation fidelity: "full" runs every iteration on the DES;
    #: "hybrid" measures a steady window and extrapolates the rest
    #: (:mod:`repro.sim.fastpath`).  Part of the cache key by
    #: construction, so full and hybrid results can never be conflated.
    fidelity: str = "full"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.strategy:
            raise ConfigurationError("RunSpec needs a strategy name")
        if (self.size_billions is None) == (self.num_layers is None):
            raise ConfigurationError(
                "RunSpec needs exactly one of size_billions / num_layers"
            )
        if self.size_billions is not None and self.size_billions <= 0:
            raise ConfigurationError("size_billions must be positive")
        if self.num_layers is not None and self.num_layers < 1:
            raise ConfigurationError("num_layers must be >= 1")
        if self.nodes < 1:
            raise ConfigurationError("nodes must be >= 1")
        if self.iterations <= self.warmup_iterations:
            raise ConfigurationError(
                "need more iterations than warmup iterations"
            )
        if self.tie_order not in TIE_ORDERS:
            raise ConfigurationError(
                f"unknown tie order {self.tie_order!r} "
                f"(expected one of {TIE_ORDERS})"
            )
        validate_fidelity(self.fidelity)

    @property
    def label(self) -> str:
        """A short human-readable identity, used for job ids."""
        size = (f"{self.size_billions:g}b" if self.size_billions is not None
                else f"{self.num_layers}l")
        return f"{self.strategy}-{size}-n{self.nodes}-{self.placement}"

    def run(self):
        """Materialize and simulate this spec (see :func:`repro.api.run_spec`)."""
        from .build import run_spec

        return run_spec(self)
