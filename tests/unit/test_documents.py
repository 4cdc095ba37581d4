"""Every document's bytes, pinned: spec, workload, fault and wire.

A campaign trial's cache key is the SHA-256 of its spec, workload and
fault documents, and the campaign server's wire carries the options
and status documents, so a codec change that moves one byte splits
caches or breaks old clients without any other test noticing.  For
one instance of every document class, each field off its default,
this checks:

* the SHA-256 of its canonical JSON;
* the JSON round trip, and that ``to_dict`` is already plain JSON;
* that its keys are exactly its dataclass fields, plus ``kind`` for a
  workload or fault kind, plus ``JobStatus``'s ``schema_version`` and
  ``terminal`` (nested documents too: addresses, nodes, parts and
  faults);
* that a strict load names an unknown key and a lenient load drops it.

The workload and fault kinds are read from their registries, so a kind
registered later fails here until it has an example and a pin.
"""

import dataclasses
import hashlib
import json

import pytest

import repro.campaign  # noqa: F401  (registers the chaos workload kind)
from repro.campaign.chaos import Chaos
from repro.campaign.failures import RetryPolicy, TrialFailure
from repro.core import Address
from repro.core.errors import ConfigurationError
from repro.core.schema import canonical_json
from repro.faults.primitives import (
    _FAULT_KINDS,
    BitFlip,
    ClockDrift,
    DropEdge,
    Fault,
    FaultSpec,
    NodePowerLoss,
    RandomGlitches,
    StuckAt,
    WireGlitch,
    fault_from_dict,
)
from repro.scenario.spec import NodeSpec, SystemSpec
from repro.scenario.workload import (
    _WORKLOAD_KINDS,
    Broadcast,
    Burst,
    Combined,
    Interrupt,
    OneShot,
    Periodic,
    RandomTraffic,
    Workload,
    workload_from_dict,
)
from repro.serve.protocol import JobStatus, SubmitOptions

NODE = NodeSpec(
    "m",
    short_prefix=0x1,
    full_prefix=0x12345,
    broadcast_channels=frozenset({0, 3}),
    power_gated=True,
    auto_sleep=False,
    rx_buffer_bytes=4096,
    memory_words=64,
    is_mediator=True,
    node_delay_ps=9_000,
)

FAULTS = (
    WireGlitch("a", at_s=1e-3, wire="clk", edges=3, width_s=2e-8),
    StuckAt("a", at_s=2e-3, duration_s=1e-4, value=1, wire="clk"),
    DropEdge("m", at_s=3e-3, count=2, duration_s=1e-4, wire="data"),
    BitFlip("a", at_s=4e-3, duration_s=1e-5, wire="clk"),
    ClockDrift("m", ppm=250.0),
    NodePowerLoss("a", at_s=5e-3, duration_s=1e-3),
    RandomGlitches(
        seed=9, rate_hz=500.0, duration_s=0.02, start_s=1e-3, wire="clk",
        nodes=("m", "a"), edges=2, width_s=3e-8,
    ),
)

EXAMPLES = [
    NODE,
    SystemSpec(
        nodes=(NODE, NodeSpec("a", short_prefix=0x2)),
        name="documents",
        clock_hz=1_000_000.0,
        node_delay_ps=10_000,
        drive_delay_ps=5_000,
        mediator_wakeup_ps=20_000,
        interjection_threshold=4,
        max_message_bytes=64,
        arbitration_anchor="a",
    ),
    OneShot("m", Address.short(0x2, 5), b"\x01\x02", at_s=0.5, priority=True),
    Burst(
        "m", Address.short(0x2, 1), b"\xaa" * 4, count=6, at_s=0.25,
        gap_s=0.01, priority=True,
    ),
    Periodic(
        "a", Address.full(0x4FFC2, 3), b"\x00", period_s=15.0, count=4,
        start_s=1.5, priority=True,
    ),
    RandomTraffic(
        seed=9, count=12, mean_gap_s=0.05, start_s=0.1, min_bytes=2,
        max_bytes=6, sources=("m", "a"), priority_fraction=0.25,
    ),
    Broadcast("m", channel=1, payload=b"\xfe", at_s=0.75, priority=True),
    Interrupt("a", at_s=2.0),
    Combined(parts=(
        OneShot("m", Address.short(0x2), b"\x07"),
        Interrupt("a", at_s=1.0),
    )),
    Chaos(behavior="flaky", token="chaos.token", hang_s=2.0,
          payload=b"\x01\x02"),
    *FAULTS,
    FaultSpec(faults=FAULTS, name="every fault"),
    TrialFailure(
        outcome="timeout", error_type="WallClockTimeout",
        message="over budget", traceback_digest="0123456789abcdef",
        attempts=3, quarantined=True, transient=True,
    ),
    RetryPolicy(
        max_attempts=5, backoff_s=0.5, backoff_factor=3.0,
        retry_transient=False, retry_crashed=False, retry_timeout=True,
    ),
    SubmitOptions(
        executor="process", workers=2, wall_timeout_s=2.5,
        retry_failed=True, retry_quarantined=True,
    ),
    JobStatus(
        job_id="job-1", client="alice", state="failed", name="study",
        n_trials=8, done=5, cached=3, executed=2, failed=1,
        outcomes={"ok": 4, "error": 1}, resumptions=2,
        error="worker thread died",
    ),
]

SHA256 = {
    "NodeSpec": (
        "dccf5c676cea00dc497693ff0daf031a6a1512bdb7398e77ddd7c95ce3129605"
    ),
    "SystemSpec": (
        "56e433c1311683301033f82e319a99f178581372311227778704b39d6a9aec12"
    ),
    "OneShot": (
        "75a25ba510342edf3d65068f4d8f07331a6ee81f23cb13c80cf2a0affcab0f07"
    ),
    "Burst": (
        "9eb8263511c42f87fd7b63426a9815eb2b36745e6a5d5ebef1117089780d422f"
    ),
    "Periodic": (
        "73172ecd2afebc7537b1e04454c5671c2da9fe0da2f2d76d9f60edb66cc508eb"
    ),
    "RandomTraffic": (
        "d2d10f25bfc85280a4ae1bdcfb37444660694569948b143321284052d4d2b55e"
    ),
    "Broadcast": (
        "f0ef297a72d8087137e166aa790ba224ef569fbaccfa8b2d98692b1695c82596"
    ),
    "Interrupt": (
        "f459c72efff4ea16018d9501cd6bb22ad648b94a24ad3237c2df460bc7e3597c"
    ),
    "Combined": (
        "70eedad3519c21641e4924d41e4b57e37332a2863820ffe935f98788507e02b7"
    ),
    "Chaos": (
        "396e3935e5e045ac2ba5affcfc5d651399273f144323fea76f472c681abf87f8"
    ),
    "WireGlitch": (
        "769df7791ed0f65db5401e01bf51499deafac102f2434eb069f357b7980f4dde"
    ),
    "StuckAt": (
        "bdb7b109fff9ba9ce12a407607340cdc27c77b04b116862b259f01634546396a"
    ),
    "DropEdge": (
        "c0f6b623889b9c258edb0d5ea794a78efdd45fdd0b4a6d0ad104aa7eb4d5793b"
    ),
    "BitFlip": (
        "00a5ed431f9f8f60b42164db775ff70e2b9461bd78c697416e2eecd635a674da"
    ),
    "ClockDrift": (
        "959cd1ba147b0685180b1b0e3c6ac93287f4efc1aece7a3afe6becdf414e91fd"
    ),
    "NodePowerLoss": (
        "8c34675a2c1f58ff3dd736c2db26f96d13e024a8d311994f788c4cbcc638c2dd"
    ),
    "RandomGlitches": (
        "f0700daa5c9dabfdd8d41aa19e85b6d8362f84e4dea298cb5cf9a86c492eb955"
    ),
    "FaultSpec": (
        "9df2321f0dec6fac189f197f0b6b18dac6f7e726b519cc5bcbbdc9a8fe7f47e2"
    ),
    "TrialFailure": (
        "918fcf62288e89307123ef1fc814bea1f82b9766c50890ba24a001140d62ae22"
    ),
    "RetryPolicy": (
        "d5757a4a0037e209c4c83dc7a853ef160951ed0837e7017520a4996110e6f393"
    ),
    "SubmitOptions": (
        "99d23adcb4ef94413379a579809f5f125e7cac9adb46f8827c84b1870e8caca2"
    ),
    "JobStatus": (
        "3328777d1793c2e6b4234cdd821a8502b2301a9a6feff7dbda0747bec9390115"
    ),
}

#: Keys a class writes beside its fields.
DERIVED_KEYS = {JobStatus: {"schema_version", "terminal"}}

BY_CLASS = {type(example): example for example in EXAMPLES}
REGISTERED = [*_WORKLOAD_KINDS.values(), *_FAULT_KINDS.values()]
CLASSES = list(dict.fromkeys([*map(type, EXAMPLES), *REGISTERED]))


def example(cls):
    assert cls in BY_CLASS, (
        f"{cls.__name__} has no example here; add one with every field "
        "off its default, and pin its bytes"
    )
    return BY_CLASS[cls]


def load(cls, document, lenient=False):
    if issubclass(cls, Workload):
        return workload_from_dict(document, lenient=lenient)
    if issubclass(cls, Fault):
        return fault_from_dict(document, lenient=lenient)
    return cls.from_dict(document, lenient=lenient)


def own_keys(cls):
    keys = {field.name for field in dataclasses.fields(cls)}
    if issubclass(cls, (Workload, Fault)):
        keys.add("kind")
    return keys | DERIVED_KEYS.get(cls, set())


def check_keys(instance, document):
    """``document``'s keys are ``instance``'s fields, recursively."""
    assert set(document) == own_keys(type(instance))
    for field in dataclasses.fields(instance):
        value = getattr(instance, field.name)
        items = value if isinstance(value, tuple) else (value,)
        docs = document[field.name]
        docs = docs if isinstance(value, tuple) else (docs,)
        for item, doc in zip(items, docs):
            if dataclasses.is_dataclass(item):
                check_keys(item, doc)


ids = [cls.__name__ for cls in CLASSES]


def test_every_registered_kind_is_covered():
    assert set(REGISTERED) <= set(BY_CLASS)
    assert set(SHA256) == {cls.__name__ for cls in CLASSES}


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_every_field_is_off_its_default(cls):
    instance = example(cls)
    for field in dataclasses.fields(cls):
        if field.default is not dataclasses.MISSING:
            default = field.default
        elif field.default_factory is not dataclasses.MISSING:
            default = field.default_factory()
        else:
            continue
        assert getattr(instance, field.name) != default, field.name


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_bytes_are_pinned(cls):
    text = canonical_json(example(cls).to_dict())
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == SHA256[cls.__name__], text


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_json_round_trip(cls):
    instance = example(cls)
    document = instance.to_dict()
    wire = json.loads(canonical_json(document))
    assert wire == document
    assert load(cls, wire) == instance


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_keys_are_the_fields(cls):
    instance = example(cls)
    check_keys(instance, instance.to_dict())


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_strict_names_an_unknown_key_and_lenient_drops_it(cls):
    instance = example(cls)
    document = instance.to_dict()
    document["from_the_future"] = 1
    with pytest.raises(ConfigurationError, match="from_the_future"):
        load(cls, document)
    assert load(cls, document, lenient=True) == instance
