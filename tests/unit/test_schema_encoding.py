"""repro.core.schema: canonical JSON and the document field codec.

``splice_json`` builds a document's canonical JSON from members that
were already encoded (``Encoded``) plus the rest, so a record can
reuse a spec's or a round template's one encoding.  Whatever subset
of members arrives pre-encoded, the bytes must equal
``canonical_json`` of the plain document.

The field codec (``Document``, ``Kinds``, ``take_keys``) writes a
document as its fields and loads it by their declared types; the
byte pins of every real document class are in ``test_documents.py``.
"""

import dataclasses
import itertools
import json
from dataclasses import dataclass
from typing import Optional, Tuple

import pytest

from repro.core import Address, schema
from repro.core.errors import ConfigurationError
from repro.core.schema import (
    Document,
    Encoded,
    Kinds,
    canonical_json,
    splice_json,
    take_keys,
)
from repro.faults import (
    FaultOutcome,
    FaultSpec,
    RandomGlitches,
    ReliabilityReport,
)
from repro.scenario import (
    Burst,
    OneShot,
    RandomTraffic,
    Workload,
    register_workload_kind,
    workload_from_dict,
)

from tests.unit.test_documents import EXAMPLES, load

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


# ----------------------------------------------------------------------
# The field codec (``Document``, ``Kinds``, ``take_keys``).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Blob(Document):
    """One field: the codec must not assume two."""

    data: bytes


@dataclass(frozen=True)
class Shelf(Document):
    labels: frozenset = frozenset()
    blobs: Tuple[Blob, ...] = ()
    spare: Optional[Tuple[str, ...]] = None


class TestCodec:
    def test_a_single_field_document(self):
        assert Blob(b"\x01\xff").to_dict() == {"data": "01ff"}
        assert Blob.from_dict({"data": "01ff"}) == Blob(b"\x01\xff")

    def test_values_load_as_their_declared_types(self):
        shelf = Shelf.from_dict({
            "labels": ["b", "a"],
            "blobs": [{"data": "00"}, {"data": "ab"}],
            "spare": ["x"],
        })
        assert shelf == Shelf(
            labels=frozenset({"a", "b"}),
            blobs=(Blob(b"\x00"), Blob(b"\xab")),
            spare=("x",),
        )
        assert shelf.to_dict() == {
            "labels": ["a", "b"],
            "blobs": [{"data": "00"}, {"data": "ab"}],
            "spare": ["x"],
        }

    def test_an_empty_optional_tuple_is_written_null(self):
        assert Shelf(spare=()).to_dict()["spare"] is None
        assert RandomTraffic(sources=()).to_dict()["sources"] is None
        assert RandomGlitches(nodes=()).to_dict()["nodes"] is None
        assert Shelf().to_dict()["blobs"] == []

    @pytest.mark.parametrize(
        "example", EXAMPLES, ids=[type(e).__name__ for e in EXAMPLES]
    )
    def test_a_missing_required_field_is_a_configuration_error(
        self, example
    ):
        cls = type(example)
        for field in dataclasses.fields(cls):
            if (
                field.default is not dataclasses.MISSING
                or field.default_factory is not dataclasses.MISSING
            ):
                continue
            document = example.to_dict()
            del document[field.name]
            with pytest.raises(ConfigurationError, match=field.name):
                load(cls, document)

    def test_nested_documents_load_with_the_enclosing_lenient(self):
        document = OneShot("a", Address.short(0x3)).to_dict()
        document["dest"]["future_key"] = 1
        with pytest.raises(ConfigurationError, match="future_key"):
            workload_from_dict(document)
        loaded = workload_from_dict(document, lenient=True)
        assert loaded == OneShot("a", Address.short(0x3))
        faults = FaultSpec((RandomGlitches(seed=3),)).to_dict()
        faults["faults"][0]["future_key"] = 1
        with pytest.raises(ConfigurationError, match="future_key"):
            FaultSpec.from_dict(faults)
        assert FaultSpec.from_dict(faults, lenient=True).faults == (
            RandomGlitches(seed=3),
        )

    def test_a_reliability_report_round_trips_with_its_derived_keys(self):
        report = ReliabilityReport(
            n_faults=1, scheduled_injections=2, performed_injections=2,
            injection_counts={"glitch_edge": 2}, edges_injected=2,
            edges_dropped=0, expected_deliveries=4, intact_deliveries=3,
            corrupted_deliveries=1, lost_deliveries=0, n_transactions=4,
            failed_transactions=1, general_errors=0, interjections=1,
            retransmissions=1, retransmission_latencies_s=[2e-5],
            outcomes=[FaultOutcome(0, "wire_glitch", 1e-3, 2, "corrupted")],
        )
        document = report.to_dict()
        assert document["recovery_rate"] == 0.75
        assert document["mean_retransmission_latency_s"] == 2e-5
        assert document["outcomes"][0]["classification"] == "corrupted"
        wire = json.loads(canonical_json(document))
        assert ReliabilityReport.from_dict(wire) == report

    def test_a_document_must_be_an_object(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            Shelf.from_dict(["labels"])
        with pytest.raises(ConfigurationError, match="JSON object"):
            workload_from_dict(Burst("m", Address.short(0x2)).to_dict()
                               | {"dest": 5})

    def test_each_class_table_is_built_once(self, monkeypatch):
        built = []
        real = schema._build_table

        def counting(cls):
            built.append(cls)
            return real(cls)

        monkeypatch.setattr(schema, "_build_table", counting)

        @dataclass(frozen=True)
        class Fresh(Document):
            a: int = 0
            b: bytes = b""

        for i in range(5):
            assert Fresh.from_dict(Fresh(i, b"\x01").to_dict()).a == i
        assert built == [Fresh]

    def test_take_keys(self):
        data = {"a": 1, "b": 2}
        assert take_keys(data, {"a", "b"}, "thing", lenient=False) == data
        assert take_keys(data, {"a"}, "thing", lenient=True) == {"a": 1}
        with pytest.raises(ConfigurationError, match="unknown thing key"):
            take_keys(data, {"a"}, "thing", lenient=False)


class TestKinds:
    def test_unknown_kind_fails_even_lenient(self):
        class Gadget(Document):
            pass

        kinds = Kinds("gadget", Gadget)
        with pytest.raises(ConfigurationError, match="unknown gadget kind"):
            kinds.decode({"kind": "nope"}, lenient=True)

    def test_registration_rules(self):
        with pytest.raises(ConfigurationError, match="non-empty 'kind'"):
            register_workload_kind(Blob)

        @dataclass(frozen=True)
        class Impostor(Workload):
            kind = "burst"

        with pytest.raises(ConfigurationError, match="already registered"):
            register_workload_kind(Impostor)
        assert register_workload_kind(Burst) is Burst
