"""Determinism pass: ambient entropy, wall clocks, env, set order."""

import textwrap

from repro.lint import run_lint


def lint(tmp_path, files, select=("determinism",)):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint(root=tmp_path, select=list(select))


def messages(findings):
    return [f.message for f in findings]


def test_global_rng_flagged(tmp_path):
    findings = lint(tmp_path, {
        "m.py": (
            "import random\n"
            "x = random.random()\n"
            "y = random.randint(0, 7)\n"
        ),
    })
    assert len(findings) == 2
    assert "process-global RNG" in findings[0].message


def test_seeded_rng_clean(tmp_path):
    findings = lint(tmp_path, {
        "m.py": (
            "import random\n"
            "rng = random.Random(42)\n"
            "x = rng.random()\n"
        ),
    })
    assert findings == []


def test_from_random_import_flagged(tmp_path):
    findings = lint(tmp_path, {
        "m.py": "from random import randint, shuffle\n",
    })
    assert len(findings) == 1
    assert "randint" in findings[0].message
    assert "shuffle" in findings[0].message


def test_absolute_clock_flagged_even_in_wall_module(tmp_path):
    findings = lint(tmp_path, {
        "campaign/executors.py": (
            "import time\n"
            "stamp = time.time()\n"
        ),
    })
    assert len(findings) == 1
    assert "absolute wall clock" in findings[0].message


def test_relative_clock_allowed_in_wall_module_only(tmp_path):
    clean = lint(tmp_path, {
        "campaign/executors.py": (
            "import time\n"
            "t0 = time.perf_counter()\n"
        ),
    })
    assert clean == []
    flagged = lint(tmp_path / "other", {
        "core/bus.py": (
            "import time\n"
            "t0 = time.perf_counter()\n"
        ),
    })
    assert len(flagged) == 1
    assert "whitelist" in flagged[0].message


def test_relative_clock_allowed_in_obs_wallclock(tmp_path):
    clean = lint(tmp_path, {
        "obs/wallclock.py": (
            "import time\n"
            "wall_now = time.perf_counter\n"
            "t0 = time.perf_counter()\n"
        ),
    })
    assert clean == []
    flagged = lint(tmp_path / "other", {
        "obs/tracer.py": (
            "import time\n"
            "t0 = time.perf_counter()\n"
        ),
    })
    assert len(flagged) == 1
    assert "whitelist" in flagged[0].message


def test_datetime_now_flagged(tmp_path):
    findings = lint(tmp_path, {
        "m.py": (
            "import datetime\n"
            "stamp = datetime.datetime.now()\n"
        ),
    })
    assert len(findings) == 1


def test_environ_flagged_in_every_module(tmp_path):
    for i, rel in enumerate(("batch/accel.py", "core/node.py")):
        flagged = lint(tmp_path / str(i), {
            rel: (
                "import os\n"
                "gate = os.environ.get('REPRO_ACCEL', '')\n"
            ),
        })
        assert len(flagged) == 1, rel
        assert "host" in flagged[0].message
    getenv = lint(tmp_path / "getenv", {
        "core/node.py": (
            "import os\n"
            "gate = os.getenv('REPRO_ACCEL')\n"
        ),
    })
    assert len(getenv) == 1


def test_set_iteration_in_serialization_file_flagged(tmp_path):
    findings = lint(tmp_path, {
        "doc.py": (
            "class Report:\n"
            "    def to_dict(self):\n"
            "        return {'chans': [c for c in {1, 2, 3}]}\n"
        ),
    })
    assert len(findings) == 1
    assert "hash-order" in findings[0].message


def test_set_iteration_outside_serialization_file_clean(tmp_path):
    findings = lint(tmp_path, {
        "m.py": (
            "def walk():\n"
            "    return [c for c in {1, 2, 3}]\n"
        ),
    })
    assert findings == []


def test_sorted_set_in_serialization_file_clean(tmp_path):
    findings = lint(tmp_path, {
        "doc.py": (
            "class Report:\n"
            "    def to_dict(self):\n"
            "        return {'chans': sorted({1, 2, 3})}\n"
        ),
    })
    assert findings == []
