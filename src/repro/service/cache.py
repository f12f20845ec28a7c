"""The cache layer: a byte-budgeted LRU over built semi-local indexes.

The whole premise of the serving subsystem is that one seaweed build answers
unboundedly many queries — so built indexes must be *kept*.  The
:class:`IndexCache` holds them in memory under a byte budget (sized through
each index's honest ``nbytes``, which includes the dominance-count
acceleration structures), evicts least-recently-used entries when over
budget, and can optionally **spill** evicted entries to compressed ``.npz``
files so a later request pays a disk load instead of a full rebuild.

Every interaction is counted once (hits / misses / evictions / spill
round-trips), in the cache's own registry; service stats, the
``service_throughput`` artifact and ``/metrics`` all read those series,
because a cache without observable hit-rates cannot be tuned.
"""

from __future__ import annotations

import functools
import os
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from .index import SemiLocalIndex
from ..obs.metrics import MetricsRegistry, snapshot_value
from ..obs.trace import span_event
from ..resilience.faults import fault_point

__all__ = ["IndexCache", "DEFAULT_CACHE_BYTES", "cache_counters"]

#: Default in-memory budget: generous for laptop-scale experiments, small
#: enough that the eviction path is actually exercised by real workloads.
DEFAULT_CACHE_BYTES = 256 << 20


def cache_counters(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The cache counts in one cache's snapshot or a fleet's merge (JSON-safe)."""
    count = functools.partial(snapshot_value, snapshot)
    hits = count("repro_cache_lookups_total", result="hit")
    misses = count("repro_cache_lookups_total", result="miss")
    return {
        "entries": int(count("repro_cache_entries")),
        "current_bytes": int(count("repro_cache_resident_bytes")),
        "hits": hits,
        "misses": misses,
        "evictions": count("repro_cache_evictions_total"),
        "spill_saves": count("repro_cache_spills_total", direction="save"),
        "spill_loads": count("repro_cache_spills_total", direction="load"),
        "oversize_spills": count("repro_cache_oversize_spills_total"),
        "hit_rate": hits / (hits + misses) if (hits + misses) else 0.0,
    }


class IndexCache:
    """Byte-budgeted LRU cache of :class:`SemiLocalIndex` objects.

    Parameters
    ----------
    max_bytes:
        In-memory budget.  An index whose ``nbytes`` exceeds the *whole*
        budget can never share memory with other entries, so inserting it
        must not trigger a degenerate evict-everything loop: oversized
        indexes spill straight to disk when ``spill_dir`` is set (later
        lookups pay a disk load, not a rebuild) and otherwise are admitted
        only into an empty cache — one oversized index beats caching
        nothing, but never at the price of flushing every resident entry.
    spill_dir:
        When set, evicted indexes are written to ``<spill_dir>/<fp>.npz``
        and looked up there on a memory miss (``spill_loads`` counts the
        successful reloads).  ``None`` disables disk spill.

    Counts live in :attr:`metrics`; :meth:`counters` is a view over it.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES, spill_dir: Optional[str] = None) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self.spill_dir = spill_dir
        self._entries: "OrderedDict[str, SemiLocalIndex]" = OrderedDict()
        #: Read by the eviction loop; published as ``repro_cache_resident_bytes``.
        self.current_bytes = 0
        self.metrics = MetricsRegistry()
        counter, gauge = self.metrics.counter, self.metrics.gauge
        self._lookups = counter(
            "repro_cache_lookups_total", "Index cache lookups by outcome", ("result",)
        )
        self._evictions = counter(
            "repro_cache_evictions_total", "LRU evictions from the index cache"
        )
        self._spills = counter(
            "repro_cache_spills_total", "Disk spill round-trips by direction", ("direction",)
        )
        self._oversize_spills = counter(
            "repro_cache_oversize_spills_total", "Indexes over the budget spilled to disk"
        )
        self._entry_count = gauge("repro_cache_entries", "Indexes resident in this cache")
        self._resident_bytes = gauge("repro_cache_resident_bytes", "Bytes resident in this cache")

    # ----------------------------------------------------------------- spill
    def _spill_path(self, fingerprint: str) -> Optional[str]:
        if self.spill_dir is None:
            return None
        return os.path.join(self.spill_dir, f"{fingerprint}.npz")

    def _spill_save(self, index: SemiLocalIndex) -> None:
        path = self._spill_path(index.fingerprint)
        if path is None:
            return
        os.makedirs(self.spill_dir, exist_ok=True)
        # Write-then-rename so a crash mid-eviction never leaves a truncated
        # file under the final name (rename is atomic within a directory).
        # The temp name keeps the .npz suffix — np.savez would append one —
        # and embeds the pid so caches in different processes sharing a
        # spill directory never scribble over each other's half-written temp
        # file (shard workers get a private subdirectory on top of this, see
        # :mod:`repro.service.sharding`).
        tmp_path = f"{path}.{os.getpid()}.tmp.npz"
        index.save(tmp_path)
        os.replace(tmp_path, path)
        self._spills.inc(direction="save")
        span_event(
            "cache_spill_save", fingerprint=index.fingerprint, nbytes=index.nbytes
        )

    def _spill_load(self, fingerprint: str) -> Optional[SemiLocalIndex]:
        path = self._spill_path(fingerprint)
        if path is None or not os.path.exists(path):
            return None
        if fault_point("cache.spill_load", fingerprint=fingerprint) == "corrupt":
            # Chaos plans corrupt the file *for real* (truncate to garbage)
            # so the degrade-to-rebuild path below runs exactly as it would
            # for a torn write or a foreign file — no simulated shortcut.
            try:
                with open(path, "wb") as handle:
                    handle.write(b"corrupt")
            except OSError:
                pass
        try:
            index = SemiLocalIndex.load(path)
        except Exception:
            # A corrupt/foreign spill file must degrade to a rebuild, not
            # crash every future request for this fingerprint.  Drop it so
            # the next eviction can spill cleanly.
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self._spills.inc(direction="load")
        span_event("cache_spill_load", fingerprint=fingerprint, nbytes=index.nbytes)
        return index

    # ------------------------------------------------------------------- api
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def get(self, fingerprint: str) -> Optional[SemiLocalIndex]:
        """Look up an index; memory first, then the spill directory.

        A memory hit refreshes recency.  A spill hit re-inserts the loaded
        index into memory (it is now hot again) and counts as a miss at the
        memory level plus one ``spill_loads``.
        """
        entry = self._entries.get(fingerprint)
        if entry is not None:
            self._entries.move_to_end(fingerprint)
            self._lookups.inc(result="hit")
            return entry
        self._lookups.inc(result="miss")
        loaded = self._spill_load(fingerprint)
        if loaded is not None and loaded.nbytes <= self.max_bytes:
            # Oversized spill entries keep serving from disk — re-admitting
            # one would flush every resident entry for a single loan.
            self._insert(loaded)
        return loaded

    def put(self, index: SemiLocalIndex) -> None:
        """Insert (or refresh) an index and evict down to the byte budget.

        An index larger than the whole budget bypasses memory entirely: it
        spills straight to disk when a spill directory is configured, and
        without one it is admitted only into an empty cache — either way the
        resident entries are never flushed wholesale for it.
        """
        if index.fingerprint in self._entries:
            self._remove(index.fingerprint)
        if index.nbytes > self.max_bytes and (self.spill_dir is not None or self._entries):
            if self.spill_dir is not None:
                self._spill_save(index)
                self._oversize_spills.inc()
            return
        self._insert(index)

    def get_or_build(
        self, fingerprint: str, builder: Callable[[], SemiLocalIndex]
    ) -> Tuple[SemiLocalIndex, bool]:
        """The serving-layer entry point: ``(index, was_cached)``.

        ``was_cached`` is true for memory *and* spill hits — either way the
        expensive seaweed build was avoided.
        """
        cached = self.get(fingerprint)
        if cached is not None:
            return cached, True
        built = builder()
        if built.fingerprint != fingerprint:
            raise ValueError(
                "builder returned an index with a different fingerprint "
                f"({built.fingerprint[:12]}… != {fingerprint[:12]}…); the cache "
                "would silently serve wrong answers"
            )
        self.put(built)
        return built, False

    def clear(self) -> None:
        """Drop every in-memory entry (spill files are left in place)."""
        self._entries.clear()
        self.current_bytes = 0
        self._publish_residency()

    def counters(self) -> Dict[str, Any]:
        """The observable cache state (JSON-safe, used in artifacts)."""
        return {**cache_counters(self.metrics.snapshot()), "max_bytes": int(self.max_bytes)}

    # -------------------------------------------------------------- internals
    def _publish_residency(self) -> None:
        self._entry_count.set(len(self._entries))
        self._resident_bytes.set(self.current_bytes)

    def _insert(self, index: SemiLocalIndex) -> None:
        self._entries[index.fingerprint] = index
        self._entries.move_to_end(index.fingerprint)
        self.current_bytes += index.nbytes
        # Evict LRU entries until back under budget, but never the entry just
        # inserted (len > 1): one oversized index beats caching nothing.
        while self.current_bytes > self.max_bytes and len(self._entries) > 1:
            victim_fp = next(iter(self._entries))
            victim = self._remove(victim_fp)
            self._spill_save(victim)
            self._evictions.inc()
        self._publish_residency()

    def _remove(self, fingerprint: str) -> SemiLocalIndex:
        entry = self._entries.pop(fingerprint)
        self.current_bytes -= entry.nbytes
        self._publish_residency()
        return entry
