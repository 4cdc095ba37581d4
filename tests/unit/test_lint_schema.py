"""Schema pass: round-trip pairing, version stamps, canonical JSON."""

import textwrap

from repro.lint import run_lint


def lint(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint(root=tmp_path, select=["schema"])


def test_to_dict_without_loader_flagged(tmp_path):
    findings = lint(tmp_path, {
        "doc.py": (
            "class Spec:\n"
            "    def to_dict(self):\n"
            "        return {}\n"
        ),
    })
    assert len(findings) == 1
    assert "no from_dict" in findings[0].message


def test_from_dict_classmethod_pairs(tmp_path):
    findings = lint(tmp_path, {
        "doc.py": (
            "class Spec:\n"
            "    def to_dict(self):\n"
            "        return {}\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        return cls()\n"
        ),
    })
    assert findings == []


def test_module_level_loader_pairs(tmp_path):
    findings = lint(tmp_path, {
        "doc.py": (
            "class Spec:\n"
            "    def to_dict(self):\n"
            "        return {}\n"
            "def spec_from_dict(data):\n"
            "    return Spec()\n"
        ),
    })
    assert findings == []


def test_one_way_report_suppressible(tmp_path):
    findings = lint(tmp_path, {
        "doc.py": (
            "class Report:\n"
            "    # lint: disable=schema -- one-way analytic report\n"
            "    def to_dict(self):\n"
            "        return {}\n"
        ),
    })
    assert findings == []


def test_inline_schema_version_literal_flagged(tmp_path):
    findings = lint(tmp_path, {
        "doc.py": (
            "def record():\n"
            "    return {'schema_version': 3}\n"
        ),
    })
    assert len(findings) == 1
    assert "inline literal" in findings[0].message


def test_schema_version_constant_clean(tmp_path):
    findings = lint(tmp_path, {
        "doc.py": (
            "from repro.core.schema import REPORT_SCHEMA_VERSION\n"
            "def record():\n"
            "    return {'schema_version': REPORT_SCHEMA_VERSION}\n"
        ),
    })
    assert findings == []


def test_canonical_module_requires_sort_keys(tmp_path):
    findings = lint(tmp_path, {
        "campaign/trial.py": (
            "import json\n"
            "def canonical_json(doc):\n"
            "    return json.dumps(doc)\n"
        ),
    })
    assert len(findings) == 1
    assert "canonical" in findings[0].message
    clean = lint(tmp_path / "fixed", {
        "campaign/trial.py": (
            "import json\n"
            "def canonical_json(doc):\n"
            "    return json.dumps(doc, sort_keys=True)\n"
        ),
    })
    assert clean == []


def test_dumps_feeding_hashlib_requires_sort_keys(tmp_path):
    findings = lint(tmp_path, {
        "anywhere.py": (
            "import hashlib, json\n"
            "def key(doc):\n"
            "    return hashlib.sha256("
            "json.dumps(doc).encode()).hexdigest()\n"
        ),
    })
    assert len(findings) == 1
    assert "content address" in findings[0].message


def test_plain_dumps_outside_canonical_modules_clean(tmp_path):
    findings = lint(tmp_path, {
        "anywhere.py": (
            "import json\n"
            "def pretty(doc):\n"
            "    return json.dumps(doc, indent=2)\n"
        ),
    })
    assert findings == []

