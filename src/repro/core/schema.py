"""Experiment documents: one field codec, versioning, canonical JSON.

Every document an experiment is stored as — the system spec, the
traffic, the faults and a run's reliability report, a trial's failure
and retry policy, the campaign server's options and job status — is a
dataclass subclassing :class:`Document`, and its document is its
fields under their own names.  Four kinds of value are encoded:

* a nested document (an :class:`~repro.core.addresses.Address`, a
  node, a workload part, a fault) becomes its dict;
* a tuple (or list) becomes a list; an optional tuple that is empty is
  written ``null``, as ``None`` is (both mean "every node");
* a frozenset becomes a sorted list;
* bytes become hex.

Everything else (numbers, strings, booleans, ``None``, plain dicts)
is written as it is.  Loading follows each field's declared type,
resolved once per class: a list comes back as a tuple, a list or a
frozenset, hex as bytes, and a nested document loads with the enclosing call's
``lenient``.  A key a class writes beside its fields (its ``kind``, a
schema stamp, a derived property) is named in its ``derived_keys``
and skipped on load.

Strict loading, the default, rejects unknown keys and names them;
``lenient=True`` drops them, so a document written by a newer schema
still loads (:func:`take_keys`, which the classes that keep their own
encoding call too).  A missing field without a default is an error
either way.

Documents told apart by a ``kind`` key (the workload kinds, the fault
kinds) are registered in their family's :class:`Kinds`, and a field
declared as the family's base class loads through that registry.  To
add a kind, declare it as a frozen dataclass subclassing the family's
base with a ``kind`` class attribute, and register it; nothing else
lists its fields.

``REPORT_SCHEMA_VERSION`` stamps every persisted report document —
:meth:`repro.scenario.runner.RunReport.to_dict`,
:meth:`repro.faults.report.ReliabilityReport.to_dict` and the
content-addressed records in :class:`repro.campaign.ResultStore` — so
cached results written today remain identifiable (and loadable, in
lenient mode) after the schema grows new fields.  Bump the version
when a field changes *meaning*; adding fields does not require a
bump, because loaders tolerate unknown keys in lenient mode and
queries address fields by name.

:func:`canonical_json` is the one serialisation of those documents;
:func:`splice_json` builds the same bytes from parts that were already
encoded once (a spec shared by every trial of a campaign, the
transaction rows of a batch round template).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import operator
import typing
from typing import (
    AbstractSet,
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.core.errors import ConfigurationError

REPORT_SCHEMA_VERSION = 1


#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))``, built
#: once: ``dumps`` with non-default options makes a new encoder per
#: call, which costs as much as encoding a small document.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(document: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace.

    The single serialisation used for hashing, store lines and
    byte-identity comparisons, so "equal documents" and "equal bytes"
    are the same statement.
    """
    return _ENCODER.encode(document)


class Encoded(str):
    """A value that is already its own :func:`canonical_json` text;
    :func:`splice_json` copies it into the output verbatim."""

    __slots__ = ()


@functools.lru_cache(maxsize=64)
def _member(key: str) -> str:
    return canonical_json(key) + ":"


def splice_json(document: Dict[str, Any]) -> str:
    """``canonical_json(document)`` for a dict some of whose values
    are :class:`Encoded`.

    Encoded values are spliced in as they are; every run of other
    members (in sorted key order) is encoded by one
    :func:`canonical_json` call.  The bytes equal those of the decoded
    document, so an Encoded value must be the canonical JSON of what
    it stands for.
    """
    parts: List[str] = []
    plain: Dict[str, Any] = {}
    for key in sorted(document):
        value = document[key]
        if isinstance(value, Encoded):
            if plain:
                parts.append(canonical_json(plain)[1:-1])
                plain = {}
            parts.append(_member(key) + value)
        else:
            plain[key] = value
    if plain:
        parts.append(canonical_json(plain)[1:-1])
    return "{" + ",".join(parts) + "}"


# ----------------------------------------------------------------------
# The field codec.
# ----------------------------------------------------------------------
def take_keys(
    data: Any, allowed: AbstractSet[str], what: str, lenient: bool
) -> Mapping[str, Any]:
    """``data`` restricted to the ``allowed`` keys.

    Strict mode rejects any other key, naming it; lenient mode drops
    it.  ``what`` names the document in the error.
    """
    if not isinstance(data, (dict, Mapping)):
        raise ConfigurationError(
            f"{what} must be a JSON object, not {data!r}"
        )
    if data.keys() <= allowed:
        return data
    if lenient:
        return {key: value for key, value in data.items() if key in allowed}
    raise ConfigurationError(
        f"unknown {what} key(s): {', '.join(sorted(data.keys() - allowed))}"
    )


_D = TypeVar("_D", bound="Document")
_K = TypeVar("_K", bound=type)

#: How a field's value is written, and read back (``value, lenient``);
#: ``None`` for a value written and read as it is.
Encoder = Callable[[Any], Any]
Decoder = Callable[[Any, bool], Any]


class Document:
    """Base of a dataclass whose document is its fields (see the module
    docstring for the encoding)."""

    #: Read-only attributes written beside the fields and skipped on
    #: load: a registered kind, a schema stamp, a derived property.
    derived_keys: ClassVar[Tuple[str, ...]] = ()

    def to_dict(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {}
        for key, encode in _table(type(self)).encoders:
            value = getattr(self, key)
            document[key] = (
                value if encode is None or value is None else encode(value)
            )
        return document

    @classmethod
    def from_dict(
        cls: Type[_D], data: Mapping[str, Any], lenient: bool = False
    ) -> _D:
        table = _table(cls)
        data = take_keys(data, table.allowed, cls.__name__, lenient)
        kwargs: Dict[str, Any] = {}
        for name, decode in table.decoders:
            if name in data:
                value = data[name]
                kwargs[name] = (
                    value if decode is None or value is None
                    else decode(value, lenient)
                )
        if not table.required <= kwargs.keys():
            missing = sorted(table.required - kwargs.keys())
            raise ConfigurationError(
                f"{cls.__name__} needs {', '.join(map(repr, missing))}"
            )
        return cls(**kwargs)


class Kinds(Dict[str, type]):
    """The registered kinds of one document family, by ``kind``.

    ``base`` is the family's base class: a field declared as ``base``
    (or a tuple of it) loads through :meth:`decode`.
    """

    def __init__(self, family: str, base: type) -> None:
        super().__init__()
        self.family = family
        self.base = base
        _FAMILIES[base] = self

    def register(self, cls: _K) -> _K:
        """Register ``cls`` under its ``kind``; returns ``cls``, so it
        serves as a class decorator.  Registering a class twice is a
        no-op; claiming a registered kind with another class is an
        error."""
        kind = getattr(cls, "kind", "")
        if not (issubclass(cls, self.base) and kind):
            raise ConfigurationError(
                f"a {self.family} kind must be a {self.base.__name__} "
                f"subclass with a non-empty 'kind', got {cls!r}"
            )
        existing = self.get(kind)
        if existing is not None and existing is not cls:
            raise ConfigurationError(
                f"{self.family} kind {kind!r} is already registered to "
                f"{existing.__name__}"
            )
        self[kind] = cls
        return cls

    def decode(self, data: Any, lenient: bool = False) -> Any:
        """Load a document of this family by its ``kind``.

        An unknown kind is an error even in lenient mode: there is
        nothing to fall back to.
        """
        kind = data.get("kind") if isinstance(data, (dict, Mapping)) else None
        cls: Any = self.get(kind)
        if cls is None:
            raise ConfigurationError(
                f"unknown {self.family} kind {kind!r}; expected one of "
                f"{sorted(self)}"
            )
        try:
            return cls.from_dict(data, lenient)
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"bad {kind} {self.family} parameters: {exc}"
            ) from None


_FAMILIES: Dict[type, Kinds] = {}


class _Table(NamedTuple):
    """A document class's codec, built on first use."""

    #: Every key (the derived keys, then the fields) and its encoder.
    encoders: Tuple[Tuple[str, Optional[Encoder]], ...]
    #: Every field and its decoder.
    decoders: Tuple[Tuple[str, Optional[Decoder]], ...]
    allowed: frozenset
    #: The fields without a default.
    required: frozenset


_TABLES: Dict[type, _Table] = {}

_to_dict = operator.methodcaller("to_dict")
_hex = operator.methodcaller("hex")


def _table(cls: type) -> _Table:
    table = _TABLES.get(cls)
    if table is None:
        table = _TABLES[cls] = _build_table(cls)
    return table


def _build_table(cls: Any) -> _Table:
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    codecs = {field.name: _codec(hints[field.name]) for field in fields}
    return _Table(
        encoders=tuple((key, None) for key in cls.derived_keys) + tuple(
            (name, encode) for name, (encode, _) in codecs.items()
        ),
        decoders=tuple(
            (name, decode) for name, (_, decode) in codecs.items()
        ),
        allowed=frozenset(cls.derived_keys) | codecs.keys(),
        required=frozenset(
            field.name for field in fields
            if field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING
        ),
    )


def _codec(tp: Any) -> Tuple[Optional[Encoder], Optional[Decoder]]:
    """How a value of declared type ``tp`` is written and read back
    (``None`` is always written and read as it is)."""
    optional = typing.get_origin(tp) is Union
    if optional:
        tp = next(arg for arg in typing.get_args(tp) if arg is not type(None))
    origin = typing.get_origin(tp) or tp
    if origin in (tuple, list):
        args = typing.get_args(tp)
        encode_item, decode_item = _codec(args[0]) if args else (None, None)
        encode: Encoder = list
        if encode_item is not None:
            encode = lambda value: [encode_item(item) for item in value]
        if optional:
            encode_list = encode
            encode = lambda value: encode_list(value) or None
        if decode_item is None:
            return encode, lambda value, lenient: origin(value)
        return encode, lambda value, lenient: origin(
            decode_item(item, lenient) for item in value
        )
    if origin is frozenset:
        return sorted, lambda value, lenient: frozenset(value)
    if origin is bytes:
        return _hex, lambda value, lenient: bytes.fromhex(value)
    if origin is dict:
        return dict, lambda value, lenient: dict(value)
    if origin in _FAMILIES:
        return _to_dict, _FAMILIES[origin].decode
    if isinstance(origin, type) and issubclass(origin, Document):
        return _to_dict, origin.from_dict
    return None, None
