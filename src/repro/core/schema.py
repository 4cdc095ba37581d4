"""Versioning and canonical encoding for serialised experiment documents.

``REPORT_SCHEMA_VERSION`` stamps every persisted report document —
:meth:`repro.scenario.runner.RunReport.to_dict`,
:meth:`repro.faults.report.ReliabilityReport.to_dict` and the
content-addressed records in :class:`repro.campaign.ResultStore` — so
cached results written today remain identifiable (and loadable, via
the ``lenient`` mode of the ``from_dict``-style loaders) after the
schema grows new fields.

Bump the version when a field changes *meaning*; adding fields does
not require a bump, because loaders tolerate unknown keys in lenient
mode and queries address fields by name.

:func:`canonical_json` is the one serialisation of those documents;
:func:`splice_json` builds the same bytes from parts that were already
encoded once (a spec shared by every trial of a campaign, the
transaction rows of a batch round template).
"""

from __future__ import annotations

import functools
import json
from typing import Any, Dict, List

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
