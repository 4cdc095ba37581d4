"""canonical_json and splice_json give the same bytes.

``splice_json`` builds a document's canonical JSON from members that
were already encoded (``Encoded``) plus the rest, so a record can
reuse a spec's or a round template's one encoding.  Whatever subset
of members arrives pre-encoded, the bytes must equal
``canonical_json`` of the plain document.
"""

import itertools
import json

import pytest

from repro.core.schema import Encoded, canonical_json, splice_json

DOCS = {
    "record-like": {
        "schema_version": 1,
        "key": "ab" * 32,
        "params": {"workload.payload": "00ff", "n": 3},
        "backend": "batch",
        "outcome": "ok",
        "report": {"spec": {"nodes": [{"name": "m"}]}, "energy_pj": 1.5},
    },
    "awkward keys": {
        'quo"te': [1, 2.5, None],
        "back\\slash": {"z": True, "a": False},
        "Zeta": "ünïcode ☃",
        "_under": "",
        "\x00nul": "\x00",
        "alpha": -0.0,
    },
    "one member": {"only": {"nested": [{"deep": [1, {"x": "y"}]}]}},
    "empty": {},
}


@pytest.mark.parametrize("name", sorted(DOCS))
def test_any_subset_of_encoded_members_gives_the_same_bytes(name):
    doc = DOCS[name]
    expected = canonical_json(doc)
    assert json.loads(expected) == doc
    keys = list(doc)
    for size in range(len(keys) + 1):
        for chosen in itertools.combinations(keys, size):
            spliced = {
                key: Encoded(canonical_json(value)) if key in chosen
                else value
                for key, value in doc.items()
            }
            assert splice_json(spliced) == expected, chosen


def test_canonical_json_matches_sorted_compact_dumps():
    for doc in DOCS.values():
        assert canonical_json(doc) == json.dumps(
            doc, sort_keys=True, separators=(",", ":")
        )
