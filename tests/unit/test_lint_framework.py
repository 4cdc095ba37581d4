"""Lint framework: suppressions, selection, reporting, CLI contract."""

import json
import subprocess
import sys
import textwrap

import pytest

from repro.lint import (
    Finding,
    available_passes,
    default_root,
    format_findings,
    run_lint,
)


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def lint(tmp_path, files, select=None):
    write_tree(tmp_path, files)
    return run_lint(root=tmp_path, select=select)


def test_registry_has_the_contracted_passes():
    passes = available_passes()
    for name in (
        "determinism",
        "time-hygiene",
        "schema",
        "api-hygiene",
        "typing",
    ):
        assert name in passes


def test_unknown_select_raises():
    with pytest.raises(KeyError):
        run_lint(root=default_root(), select=["no-such-pass"])


def test_findings_sorted_and_anchored(tmp_path):
    findings = lint(
        tmp_path,
        {
            "b.py": "import random\nx = random.random()\n",
            "a.py": "import random\ny = random.random()\n",
        },
        select=["determinism"],
    )
    assert [f.path for f in findings] == ["a.py", "b.py"]
    assert all(f.pass_name == "determinism" for f in findings)
    assert findings[0].line == 2


def test_inline_suppression_with_justification(tmp_path):
    findings = lint(
        tmp_path,
        {
            "m.py": (
                "import random\n"
                "x = random.random()  "
                "# lint: disable=determinism -- fixture entropy only\n"
            ),
        },
        select=["determinism"],
    )
    assert findings == []


def test_own_line_suppression_covers_next_line(tmp_path):
    findings = lint(
        tmp_path,
        {
            "m.py": (
                "import random\n"
                "# lint: disable=determinism -- fixture entropy only\n"
                "x = random.random()\n"
            ),
        },
        select=["determinism"],
    )
    assert findings == []


def test_suppression_without_justification_is_a_finding(tmp_path):
    findings = lint(
        tmp_path,
        {
            "m.py": (
                "import random\n"
                "x = random.random()  # lint: disable=determinism\n"
            ),
        },
        select=["determinism"],
    )
    # The determinism finding is suppressed, but the bare suppression
    # itself is reported.
    assert [f.pass_name for f in findings] == ["suppression"]
    assert "justification" in findings[0].message


def test_suppression_naming_unknown_pass_is_a_finding(tmp_path):
    findings = lint(
        tmp_path,
        {
            "m.py": (
                "x = 1  # lint: disable=no-such-pass -- mistyped\n"
            ),
        },
        select=["determinism"],
    )
    assert [f.pass_name for f in findings] == ["suppression"]
    assert "unknown pass" in findings[0].message


def test_lint_package_is_excluded(tmp_path):
    findings = lint(
        tmp_path,
        {
            "lint/fixture.py": "import random\nx = random.random()\n",
        },
        select=["determinism"],
    )
    assert findings == []


def test_finding_format_and_dict():
    finding = Finding(
        pass_name="determinism",
        path="core/bus.py",
        line=7,
        col=4,
        message="msg",
        hint="do the fix",
    )
    assert finding.format() == (
        "core/bus.py:7:4: [determinism] msg  (fix: do the fix)"
    )
    assert finding.to_dict()["pass"] == "determinism"


def test_format_findings_text_and_json():
    finding = Finding("typing", "a.py", 1, 0, "m")
    text = format_findings([finding], fmt="text")
    assert text.endswith("lint: 1 finding(s)")
    assert format_findings([], fmt="text") == "lint: clean"
    doc = json.loads(format_findings([finding], fmt="json"))
    assert doc["n_findings"] == 1
    assert doc["findings"][0]["path"] == "a.py"


def test_shipped_tree_is_lint_clean():
    """Satellite 1: the repo's own sources carry zero findings."""
    assert run_lint() == []


def test_cli_exit_codes(tmp_path):
    # Clean tree -> 0.
    write_tree(tmp_path, {"clean.py": "x = 1\n"})
    ok = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert ok.returncode == 0, ok.stdout + ok.stderr
    assert "lint: clean" in ok.stdout
    # Violations -> 1.
    dirty = tmp_path / "dirty"
    write_tree(dirty, {"m.py": "import random\nx = random.random()\n"})
    bad = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(dirty)],
        capture_output=True, text=True,
    )
    assert bad.returncode == 1
    assert "[determinism]" in bad.stdout
    # Unknown pass -> 2.
    usage = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--select", "bogus"],
        capture_output=True, text=True,
    )
    assert usage.returncode == 2


def test_cli_list_and_json(tmp_path):
    listed = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--list"],
        capture_output=True, text=True,
    )
    assert listed.returncode == 0
    assert "determinism" in listed.stdout
    write_tree(tmp_path, {"m.py": "import random\nx = random.random()\n"})
    as_json = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(tmp_path),
         "--format", "json"],
        capture_output=True, text=True,
    )
    assert as_json.returncode == 1
    doc = json.loads(as_json.stdout)
    assert doc["n_findings"] == 1
