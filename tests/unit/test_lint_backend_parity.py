"""Backend-parity pass: backend registry consistency.

The registry (``BACKEND_TABLE``) must have unique names and exactly
one selector advertising the union of the concrete tiers' flags,
``select_backend`` may only return registered backends, and CLI
``--backends`` defaults must name registered backends.
"""

import textwrap

from repro.lint import run_lint


def lint(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint(root=tmp_path, select=["backend-parity"])


_GOOD_TABLE = '''
BACKEND_TABLE = (
    BackendInfo("edge", supports_trace=True, supports_faults=True,
                supports_setup=True),
    BackendInfo("fast", supports_trace=False, supports_faults=True,
                supports_setup=True),
    BackendInfo("auto", selector=True, supports_trace=True,
                supports_faults=True, supports_setup=True),
)


def select_backend(trial):
    if trial.trace:
        return "edge"
    return "fast"
'''


def test_consistent_registry_clean(tmp_path):
    findings = lint(tmp_path, {"scenario/runner.py": _GOOD_TABLE})
    assert findings == []


def test_duplicate_backend_name_flagged(tmp_path):
    findings = lint(tmp_path, {
        "scenario/runner.py": _GOOD_TABLE.replace(
            'BackendInfo("fast"', 'BackendInfo("edge"'
        ),
    })
    assert any("duplicate backend name" in f.message for f in findings)


def test_selector_capability_union_enforced(tmp_path):
    findings = lint(tmp_path, {
        "scenario/runner.py": _GOOD_TABLE.replace(
            '"auto", selector=True, supports_trace=True',
            '"auto", selector=True, supports_trace=False',
        ),
    })
    assert len(findings) == 1
    assert "supports_trace" in findings[0].message


def test_selector_returning_unregistered_backend_flagged(tmp_path):
    findings = lint(tmp_path, {
        "scenario/runner.py": _GOOD_TABLE.replace(
            'return "fast"', 'return "turbo"'
        ),
    })
    assert len(findings) == 1
    assert "'turbo'" in findings[0].message


def test_cli_backend_defaults_must_be_registered(tmp_path):
    cli = (
        "def build(parser):\n"
        "    parser.add_argument('--backends', default='edge,warp')\n"
    )
    findings = lint(tmp_path, {
        "scenario/runner.py": _GOOD_TABLE,
        "__main__.py": cli,
    })
    assert len(findings) == 1
    assert "'warp'" in findings[0].message
    assert findings[0].path == "__main__.py"


def test_real_tree_parity_holds():
    """The shipped registry and CLI defaults are consistent."""
    assert run_lint(select=["backend-parity"]) == []
