"""The backend registry agrees with the selector and the CLI.

``BACKEND_TABLE`` is the one list of backends: names must be unique,
exactly one entry is the ``auto`` selector, and its capability flags
are the union of the concrete tiers' (it can only offer what some tier
it resolves to offers).  ``select_backend`` must, for every backend and
every (trace, active faults, live system) input, either refuse with a
:class:`ConfigurationError` or return a registered concrete tier that
supports each requested input — and ``auto`` never refuses.  The CLI's
``--backend`` / ``--backends`` defaults must name registered backends.

:func:`registry_problems` lists every violation, so the real registry
must give none, and each kind of desync it exists to catch is fed to it
below and must be reported.
"""

import argparse
import dataclasses
import itertools

import pytest

from repro.__main__ import build_parser
from repro.core.errors import ConfigurationError
from repro.scenario.runner import BACKEND_TABLE, select_backend

#: select_backend input -> the capability flag a tier needs to serve it.
CAPABILITY = {
    "trace": "supports_trace",
    "faults_active": "supports_faults",
    "live_system": "supports_setup",
}


def cli_backend_defaults(parser):
    """Every backend name the parser's ``--backend``/``--backends``
    options default to, over all subcommands."""
    names = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                names += cli_backend_defaults(sub)
        elif action.dest in ("backend", "backends") and action.default:
            names += [name.strip() for name in action.default.split(",")]
    return names


def registry_problems(table, select, cli_defaults):
    problems = []
    names = [info.name for info in table]
    registry = {info.name: info for info in table}
    for name in sorted({n for n in names if names.count(n) > 1}):
        problems.append(f"duplicate backend name {name!r}")
    selectors = [info for info in table if info.selector]
    concrete = [info for info in table if not info.selector]
    if len(selectors) != 1:
        problems.append(f"{len(selectors)} selector entries, not 1")
    for selector in selectors:
        for flag in CAPABILITY.values():
            union = any(getattr(info, flag) for info in concrete)
            if getattr(selector, flag) != union:
                problems.append(
                    f"selector {selector.name!r} has {flag}="
                    f"{getattr(selector, flag)}; the tiers offer {union}"
                )
    for info in table:
        for values in itertools.product((False, True), repeat=3):
            inputs = dict(zip(CAPABILITY, values))
            needs = [CAPABILITY[k] for k, v in inputs.items() if v]
            try:
                tier = select(info.name, **inputs)
            except ConfigurationError:
                if info.selector or all(getattr(info, f) for f in needs):
                    problems.append(f"{info.name!r} refused {inputs}")
                continue
            target = registry.get(tier)
            if target is None or target.selector:
                problems.append(
                    f"{info.name!r} with {inputs} resolved to "
                    f"unregistered backend {tier!r}"
                )
            elif not all(getattr(target, f) for f in needs):
                problems.append(
                    f"{info.name!r} with {inputs} resolved to {tier!r}, "
                    "which cannot serve it"
                )
            elif not info.selector and tier != info.name:
                problems.append(f"{info.name!r} resolved to {tier!r}")
    for name in cli_defaults:
        if name not in registry:
            problems.append(
                f"CLI default names unregistered backend {name!r}"
            )
    return problems


def test_registry_selector_and_cli_agree():
    defaults = cli_backend_defaults(build_parser())
    assert len(defaults) >= 5   # run, sweep, trace, and fuzz's pair
    assert registry_problems(BACKEND_TABLE, select_backend, defaults) == []


def _renamed(table, old, new):
    return tuple(
        dataclasses.replace(info, name=new) if info.name == old else info
        for info in table
    )


def _flipped_selector_flag(table):
    return tuple(
        dataclasses.replace(info, supports_trace=not info.supports_trace)
        if info.selector else info
        for info in table
    )


def _select_turbo(backend, **inputs):
    tier = select_backend(backend, **inputs)
    return "turbo" if tier == "batch" else tier


DESYNCS = {
    "duplicate name": (
        _renamed(BACKEND_TABLE, "fast", "edge"), select_backend, [],
        "duplicate backend name 'edge'",
    ),
    "selector flags not the union": (
        _flipped_selector_flag(BACKEND_TABLE), select_backend, [],
        "supports_trace",
    ),
    "unregistered selector target": (
        BACKEND_TABLE, _select_turbo, [],
        "unregistered backend 'turbo'",
    ),
    "unregistered CLI default": (
        BACKEND_TABLE, select_backend, ["edge", "warp"],
        "unregistered backend 'warp'",
    ),
}


@pytest.mark.parametrize("desync", sorted(DESYNCS))
def test_each_desync_is_reported(desync):
    table, select, defaults, expected = DESYNCS[desync]
    problems = registry_problems(table, select, defaults)
    assert any(expected in problem for problem in problems), problems
