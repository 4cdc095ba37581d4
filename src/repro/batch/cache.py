"""Content-addressed compiled-system cache.

Campaign trials are content-addressed by the SHA-256 of their
canonical documents (``repro.campaign.trial.Trial.key``); the spec
document is one component of that key.  This cache addresses compiled
systems by the same canonical-JSON digest of the spec document, so a
campaign whose trials share a topology compiles it **once** — and,
because the round table lives on the
:class:`~repro.batch.compiler.CompiledSystem` itself, later trials
start with every round the earlier ones resolved and every message
shape they planned: a trial that only changes payloads overlays them
instead of planning (a shape holds at most two plans, one per value
of the driven bit its round's end depends on).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.batch.compiler import CompiledSystem
from repro.obs.state import OBS
from repro.scenario.spec import SystemSpec

#: Bounded LRU: big enough for any realistic campaign mix, small
#: enough that abandoned topologies (e.g. a long fuzz run) are evicted.
MAX_ENTRIES = 64

_lock = threading.Lock()
_cache: "OrderedDict[str, CompiledSystem]" = OrderedDict()
_hits = 0
_misses = 0


def spec_digest(spec: SystemSpec) -> str:
    """SHA-256 of the spec's canonical JSON document (the same
    serialisation Trial keys hash), computed once per spec instance
    (:attr:`SystemSpec.digest`): a campaign decodes each distinct
    spec once, so its trials hash it once between them."""
    return spec.digest


def compile_system_cached(spec: SystemSpec) -> CompiledSystem:
    """Compile ``spec``, memoised by content digest."""
    global _hits, _misses
    key = spec_digest(spec)
    with _lock:
        csys = _cache.get(key)
        if csys is not None:
            _cache.move_to_end(key)
            _hits += 1
            if OBS.enabled:
                OBS.metrics.inc("batch.compile_cache_hits")
            return csys
    # Compile outside the lock (validation may raise; never poison it).
    csys = CompiledSystem(spec)
    with _lock:
        _misses += 1
        if OBS.enabled:
            OBS.metrics.inc("batch.compile_cache_misses")
        _cache[key] = csys
        while len(_cache) > MAX_ENTRIES:
            _cache.popitem(last=False)
    return csys


def cache_stats() -> dict:
    with _lock:
        return {
            "entries": len(_cache),
            "hits": _hits,
            "misses": _misses,
            "templates": sum(
                len(csys.templates) for csys in _cache.values()
            ),
        }


def clear_cache() -> None:
    global _hits, _misses
    with _lock:
        _cache.clear()
        _hits = 0
        _misses = 0
