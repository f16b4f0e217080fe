"""Struct-of-arrays predictor table with batched probe kernels.

:class:`VectorizedPredictorTable` stores the Section 4.1 table as flat
numpy arrays - one plane per hardware field (valid bit, tag, node slot,
replacement metadata) - instead of per-entry Python objects, and adds
``lookup_batch`` / ``update_batch`` / ``confirm_batch`` kernels that
process a whole hash vector per call.  The wavefront simulation engine
(:mod:`repro.core.simulate`) probes an entire in-flight window with
three kernel calls instead of ``3 x in_flight`` Python method calls.

Order equivalence
-----------------
The scalar :class:`~repro.core.table.PredictorTable` remains the
differential reference; this class is *order-equivalent* to it:

* Entry LRU order is a monotone global stamp per entry; the scalar
  list front (the eviction victim) is the minimum stamp.
* Node-policy state is per-slot metadata: LRU keeps a recency stamp,
  LFU a use count plus insertion sequence, LRU-K a right-aligned
  K-history (``-1`` padded, so the K-th most recent reference is simply
  column 0).  Victim selection reproduces the scalar tie-breaks
  (minimum count / oldest K-th reference, then insertion order).
* ``lookup`` returns nodes in the scalar list order (recency order for
  LRU, insertion order for LFU/LRU-K), which the verification step
  traverses in order.

Batched probes are order-equivalent to sequential probes: every probe
in a batch draws a distinct, position-ordered stamp, and probes to
*different* sets commute.  A batch therefore commits in rounds: round
``r`` holds the ``r``-th probe of every set (of every entry, for
confirms), so each round runs through one vectorized row kernel and
each set still sees its probes in batch order.  A window takes as many
kernel calls as its most-repeated set has probes.  The differential and
Hypothesis tests in ``tests/test_vectable.py`` pin this contract across
all associativities and policies.

The fault-injection surface (``occupied_slots`` / ``entry_nodes`` /
``corrupt_node`` / ``corrupt_tag``) is preserved: logical ``(set, way)``
coordinates follow the scalar bucket order (stamp-ascending), and
corruption rewrites the stored value without touching replacement
metadata, like SRAM corruption would.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import telemetry
from repro.core.policies import LFUPolicy, LRUKPolicy, LRUPolicy, make_node_policy
from repro.core.table import NODE_INDEX_BITS, VALID_BITS, PredictorTable, TableStats

#: Sentinel for masked argmin reductions over stamps/counts.
_INF = np.iinfo(np.int64).max


def _rounds(keys: np.ndarray) -> List[np.ndarray]:
    """Split probe positions into conflict-free rounds.

    Round ``r`` holds the ``r``-th probe of every distinct key, in batch
    order, so no key repeats within a round and each key's probes land
    in successive rounds in their original order.  The number of rounds
    is the maximum key multiplicity.
    """
    n = keys.size
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    pos = np.arange(n)
    first = np.ones(n, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = pos - np.maximum.accumulate(np.where(first, pos, 0))
    by_round = np.argsort(rank, kind="stable")
    return np.split(by_round, np.cumsum(np.bincount(rank))[:-1])


class VectorizedPredictorTable:
    """Set-associative predictor table backed by flat numpy planes.

    Drop-in replacement for :class:`~repro.core.table.PredictorTable`
    (same constructor, probe, statistics and fault surfaces) plus the
    batched kernels ``lookup_batch`` / ``update_batch`` /
    ``confirm_batch``.
    """

    def __init__(
        self,
        num_entries: int = 1024,
        ways: int = 4,
        nodes_per_entry: int = 1,
        hash_bits: int = 15,
        node_policy: str = "lru",
        node_policy_kwargs: Optional[dict] = None,
    ) -> None:
        if num_entries < 1 or ways < 1:
            raise ValueError("num_entries and ways must be >= 1")
        if num_entries % ways != 0:
            raise ValueError("num_entries must be divisible by ways")
        num_sets = num_entries // ways
        if num_sets & (num_sets - 1):
            raise ValueError("num_entries / ways must be a power of two")
        self.num_entries = num_entries
        self.ways = ways
        self.nodes_per_entry = nodes_per_entry
        self.hash_bits = hash_bits
        self.num_sets = num_sets
        self.index_bits = num_sets.bit_length() - 1
        self.node_policy = node_policy
        self._node_policy_kwargs = dict(node_policy_kwargs or {})

        # Validate the policy configuration through the scalar factory so
        # both implementations reject identical configurations.
        probe = make_node_policy(
            node_policy, nodes_per_entry, **self._node_policy_kwargs
        )
        if isinstance(probe, LRUKPolicy):
            self._kind = "lruk"
            self._k = probe.k
        elif isinstance(probe, LFUPolicy):
            self._kind = "lfu"
            self._k = 0
        elif isinstance(probe, LRUPolicy):
            self._kind = "lru"
            self._k = 0
        else:  # pragma: no cover - unreachable via make_node_policy
            raise ValueError(f"unsupported node replacement policy: {node_policy!r}")

        S, W, P = num_sets, ways, nodes_per_entry
        # Entry planes.
        self._valid = np.zeros((S, W), dtype=bool)
        self._tags = np.zeros((S, W), dtype=np.int64)
        self._estamp = np.zeros((S, W), dtype=np.int64)
        # Node-slot planes.
        self._nodes = np.full((S, W, P), -1, dtype=np.int64)
        self._nvalid = np.zeros((S, W, P), dtype=bool)
        self._nstamp = np.zeros((S, W, P), dtype=np.int64)   # LRU recency
        self._nseq = np.zeros((S, W, P), dtype=np.int64)     # insertion order
        self._ncount = np.zeros((S, W, P), dtype=np.int64)   # LFU use count
        if self._kind == "lruk":
            self._nhist = np.full((S, W, P, self._k), -1, dtype=np.int64)
        else:
            self._nhist = None
        self._clock = 0
        self.stats = TableStats()
        # Tag-alias introspection (docs/OBSERVABILITY.md): a probe that
        # matches more than one way means two entries share a tag in a
        # set - impossible in normal operation, observable after
        # ``corrupt_tag`` (hash aliasing) fault injection.  Enablement
        # is sampled at construction so the disabled probe path pays a
        # single attribute check.
        self._telemetry = telemetry.enabled()
        self.tag_alias_probes = 0

    # ------------------------------------------------------------------
    # Hash folding (batched form of PredictorTable._index_and_tag).
    # ------------------------------------------------------------------
    def _index_and_tag(self, ray_hash: int):
        """Scalar fold, identical to the batched kernel for one hash."""
        tag = int(ray_hash) & ((1 << self.hash_bits) - 1)
        if self.index_bits == 0:
            return 0, tag
        omask = (1 << self.index_bits) - 1
        folded = 0
        chunk = tag
        remaining = self.hash_bits
        while remaining > 0:
            folded ^= chunk & omask
            chunk >>= self.index_bits
            remaining -= self.index_bits
        return folded, tag

    def _index_and_tag_batch(self, hashes: np.ndarray):
        hashes = np.asarray(hashes, dtype=np.uint64)
        tag = hashes & np.uint64((1 << self.hash_bits) - 1)
        if self.index_bits == 0:
            return np.zeros(hashes.shape, dtype=np.int64), tag.astype(np.int64)
        omask = np.uint64((1 << self.index_bits) - 1)
        shift = np.uint64(self.index_bits)
        folded = np.zeros_like(tag)
        chunk = tag.copy()
        remaining = self.hash_bits
        while remaining > 0:
            folded ^= chunk & omask
            chunk >>= shift
            remaining -= self.index_bits
        return folded.astype(np.int64), tag.astype(np.int64)

    def _ticks(self, n: int) -> np.ndarray:
        """Reserve ``n`` consecutive stamps, one per probe position."""
        base = self._clock
        self._clock += n
        return np.arange(base + 1, base + n + 1, dtype=np.int64)

    # ------------------------------------------------------------------
    # Internal order helpers.
    # ------------------------------------------------------------------
    def _order_key(self) -> np.ndarray:
        """Per-slot key whose ascending order is the scalar list order."""
        return self._nstamp if self._kind == "lru" else self._nseq

    def _match_way(self, s: int, t: int) -> int:
        """Way holding tag ``t`` in set ``s`` (-1 = miss).

        Tags are unique per set in normal operation; after
        ``corrupt_tag`` aliasing the scalar engine answers with the
        first bucket-order match, i.e. the minimum entry stamp.
        """
        m = self._valid[s] & (self._tags[s] == t)
        if not m.any():
            return -1
        return int(np.where(m, self._estamp[s], _INF).argmin())

    def _node_order(self, s: int, w: int) -> np.ndarray:
        """Physical slot indices of entry ``(s, w)`` in list order."""
        val = self._nvalid[s, w]
        key = np.where(val, self._order_key()[s, w], _INF)
        return np.argsort(key, kind="stable")[: int(val.sum())]

    def _entry_order(self, s: int) -> np.ndarray:
        """Physical ways of set ``s`` in bucket (LRU) order."""
        val = self._valid[s]
        key = np.where(val, self._estamp[s], _INF)
        return np.argsort(key, kind="stable")[: int(val.sum())]

    # ------------------------------------------------------------------
    # Batched kernels.
    # ------------------------------------------------------------------
    def lookup_batch(self, hashes: np.ndarray):
        """Probe a whole hash vector; returns ``(nodes, counts)``.

        ``nodes`` is ``(n, nodes_per_entry)`` int64, list-ordered and
        ``-1``-padded; ``counts`` is the per-probe number of valid
        nodes (0 = table miss).  Statistics and entry recency update
        exactly as ``n`` sequential :meth:`lookup` calls would: probes
        never mutate node state, and duplicate probes of one entry
        leave the latest probe's stamp.
        """
        hashes = np.asarray(hashes, dtype=np.uint64)
        n = hashes.size
        P = self.nodes_per_entry
        out_nodes = np.full((n, P), -1, dtype=np.int64)
        out_counts = np.zeros(n, dtype=np.int64)
        self.stats.lookups += n
        if n == 0:
            return out_nodes, out_counts
        idx, tag = self._index_and_tag_batch(hashes)
        vt = self._valid[idx]
        match = vt & (self._tags[idx] == tag[:, None])
        if self._telemetry:
            telemetry.record_hook_activation()
            self.tag_alias_probes += int((match.sum(axis=1) > 1).sum())
        hit = match.any(axis=1)
        nhits = int(hit.sum())
        self.stats.hits += nhits
        if not nhits:
            return out_nodes, out_counts
        way = np.where(match, self._estamp[idx], _INF).argmin(axis=1)
        hs, hw = idx[hit], way[hit]
        stamps = self._ticks(n)
        # Duplicate probes of one entry: the sequentially-last (max)
        # stamp survives, exactly like repeated scalar lookups.
        np.maximum.at(self._estamp, (hs, hw), stamps[hit])
        ev = self._nvalid[hs, hw]
        key = np.where(ev, self._order_key()[hs, hw], _INF)
        order = np.argsort(key, axis=1, kind="stable")
        snodes = np.take_along_axis(self._nodes[hs, hw], order, axis=1)
        counts = ev.sum(axis=1)
        snodes[np.arange(P)[None, :] >= counts[:, None]] = -1
        out_nodes[hit] = snodes
        out_counts[hit] = counts
        return out_nodes, out_counts

    def update_batch(self, hashes: np.ndarray, nodes: np.ndarray) -> None:
        """Train a whole probe vector (delayed window commit).

        Equivalent to ``n`` sequential :meth:`update` calls in batch
        order.  Probes to distinct sets commute, so the batch commits in
        per-set rounds (see :func:`_rounds`), one vectorized pass each;
        every probe keeps its pre-drawn stamp, so allocation and
        eviction order is preserved.
        """
        hashes = np.asarray(hashes, dtype=np.uint64)
        nodes = np.asarray(nodes, dtype=np.int64)
        n = hashes.size
        self.stats.updates += n
        if n == 0:
            return
        idx, tag = self._index_and_tag_batch(hashes)
        stamps = self._ticks(n)
        for rows in _rounds(idx):
            self._update_rows(idx[rows], tag[rows], nodes[rows], stamps[rows])

    def confirm_batch(self, hashes: np.ndarray, nodes: np.ndarray) -> None:
        """Policy feedback for a whole vector of verified predictions.

        Equivalent to ``n`` sequential :meth:`confirm` calls in batch
        order; the hit probes commit in per-entry rounds (see
        :func:`_rounds`).
        """
        hashes = np.asarray(hashes, dtype=np.uint64)
        nodes = np.asarray(nodes, dtype=np.int64)
        n = hashes.size
        if n == 0:
            return
        idx, tag = self._index_and_tag_batch(hashes)
        stamps = self._ticks(n)
        # Conflicts are per *entry* here: confirm never moves entries,
        # so probes of different ways in one set still commute.
        vt = self._valid[idx]
        match = vt & (self._tags[idx] == tag[:, None])
        hit = match.any(axis=1)
        if not hit.any():
            return
        way = np.where(match, self._estamp[idx], _INF).argmin(axis=1)
        hit_rows = np.nonzero(hit)[0]
        for r in _rounds(idx[hit_rows] * self.ways + way[hit_rows]):
            rows = hit_rows[r]
            self._confirm_rows(idx[rows], way[rows], nodes[rows], stamps[rows])

    # ------------------------------------------------------------------
    # Row kernels (vectorized over probes with unique sets/entries).
    # ------------------------------------------------------------------
    def _update_rows(self, s, t, node, stamp) -> None:
        vt = self._valid[s]
        match = vt & (self._tags[s] == t[:, None])
        hit = match.any(axis=1)
        way = np.where(match, self._estamp[s], _INF).argmin(axis=1)
        miss = ~hit
        full = vt.all(axis=1)
        evict = miss & full
        self.stats.entry_evictions += int(evict.sum())
        free_way = (~vt).argmax(axis=1)
        victim_way = self._estamp[s].argmin(axis=1)
        way = np.where(hit, way, np.where(full, victim_way, free_way))
        if miss.any():
            ms, mw = s[miss], way[miss]
            self._valid[ms, mw] = True
            self._tags[ms, mw] = t[miss]
            self._nvalid[ms, mw] = False
        # Hit or miss, the trained entry becomes most recent (the scalar
        # path re-appends it to the bucket).
        self._estamp[s, way] = stamp

        ent_nodes = self._nodes[s, way]
        ent_valid = self._nvalid[s, way]
        dup = ent_valid & (ent_nodes == node[:, None])
        isdup = dup.any(axis=1)
        dup_slot = dup.argmax(axis=1)
        count = ent_valid.sum(axis=1)
        has_free = count < self.nodes_per_entry
        free_slot = (~ent_valid).argmax(axis=1)
        victim = self._node_victims(s, way, ent_valid)
        slot = np.where(isdup, dup_slot, np.where(has_free, free_slot, victim))
        self.stats.node_evictions += int((~isdup & ~has_free).sum())

        new = ~isdup
        if new.any():
            ns, nw, nslot = s[new], way[new], slot[new]
            self._nodes[ns, nw, nslot] = node[new]
            self._nvalid[ns, nw, nslot] = True
            self._nseq[ns, nw, nslot] = stamp[new]
            if self._kind == "lru":
                self._nstamp[ns, nw, nslot] = stamp[new]
            elif self._kind == "lfu":
                self._ncount[ns, nw, nslot] = 1
            else:
                self._nhist[ns, nw, nslot, :] = -1
                self._nhist[ns, nw, nslot, -1] = stamp[new]
        if isdup.any():
            # Re-inserting a present node is a policy touch.
            self._touch_slots(s[isdup], way[isdup], slot[isdup], stamp[isdup])

    def _confirm_rows(self, s, w, node, stamp) -> None:
        ent_valid = self._nvalid[s, w]
        m = ent_valid & (self._nodes[s, w] == node[:, None])
        found = m.any(axis=1)
        if not found.any():
            return
        # First list-order occurrence, matching scalar value search.
        key = np.where(m, self._order_key()[s, w], _INF)
        slot = key.argmin(axis=1)
        fs = found
        self._touch_slots(s[fs], w[fs], slot[fs], stamp[fs])

    def _touch_slots(self, s, w, slot, stamp) -> None:
        """Policy 'use' events at distinct ``(s, w, slot)`` coordinates."""
        if self._kind == "lru":
            self._nstamp[s, w, slot] = stamp
        elif self._kind == "lfu":
            self._ncount[s, w, slot] += 1
        else:
            hist = self._nhist[s, w, slot]
            hist[:, :-1] = hist[:, 1:]
            hist[:, -1] = stamp
            self._nhist[s, w, slot] = hist

    def _node_victims(self, s, w, ent_valid) -> np.ndarray:
        """Per-row eviction slot under the configured policy."""
        if self._kind == "lru":
            key = np.where(ent_valid, self._nstamp[s, w], _INF)
            return key.argmin(axis=1)
        if self._kind == "lfu":
            primary = np.where(ent_valid, self._ncount[s, w], _INF)
        else:
            primary = np.where(ent_valid, self._nhist[s, w, :, 0], _INF)
        cand = primary == primary.min(axis=1, keepdims=True)
        tie = np.where(cand, self._nseq[s, w], _INF)
        return tie.argmin(axis=1)

    def _touch_slot(self, s: int, w: int, slot: int, stamp: int) -> None:
        """Single-coordinate form of :meth:`_touch_slots`."""
        if self._kind == "lru":
            self._nstamp[s, w, slot] = stamp
        elif self._kind == "lfu":
            self._ncount[s, w, slot] += 1
        else:
            hist = self._nhist[s, w, slot]
            hist[:-1] = hist[1:]
            hist[-1] = stamp

    def _node_victim(self, s: int, w: int, ent_valid: np.ndarray) -> int:
        """Single-entry form of :meth:`_node_victims`."""
        if self._kind == "lru":
            key = np.where(ent_valid, self._nstamp[s, w], _INF)
            return int(key.argmin())
        if self._kind == "lfu":
            primary = np.where(ent_valid, self._ncount[s, w], _INF)
        else:
            primary = np.where(ent_valid, self._nhist[s, w, :, 0], _INF)
        cand = primary == primary.min()
        tie = np.where(cand, self._nseq[s, w], _INF)
        return int(tie.argmin())

    # ------------------------------------------------------------------
    # Scalar probe API.
    #
    # Semantically these are ``*_batch`` calls with ``n == 1``, but they
    # run as direct single-row kernels: the event-driven RT-unit timing
    # model retires threads one at a time, and going through the batch
    # path costs ~100x more per probe in fancy-indexing overhead.  The
    # differential tests in ``tests/test_vectable.py`` drive the table
    # through this scalar surface, pinning it to both the batch kernels
    # and the reference ``PredictorTable``.
    # ------------------------------------------------------------------
    def lookup(self, ray_hash: int) -> Optional[List[int]]:
        """Look a ray hash up; returns the predicted nodes or ``None``."""
        self.stats.lookups += 1
        s, t = self._index_and_tag(ray_hash)
        if self._telemetry:
            telemetry.record_hook_activation()
            m = self._valid[s] & (self._tags[s] == t)
            if int(m.sum()) > 1:
                self.tag_alias_probes += 1
        way = self._match_way(s, t)
        if way < 0:
            # Misses consume no stamp, matching ``lookup_batch``'s
            # early return before ``_ticks``.
            return None
        self.stats.hits += 1
        self._clock += 1
        self._estamp[s, way] = self._clock
        order = self._node_order(s, way)
        return [int(self._nodes[s, way, p]) for p in order]

    def peek(self, ray_hash: int) -> Optional[List[int]]:
        """Probe without touching LRU state or statistics."""
        idx, tag = self._index_and_tag_batch(
            np.asarray([ray_hash], dtype=np.uint64)
        )
        s, t = int(idx[0]), int(tag[0])
        way = self._match_way(s, t)
        if way < 0:
            return None
        order = self._node_order(s, way)
        return [int(self._nodes[s, way, p]) for p in order]

    def confirm(self, ray_hash: int, node: int) -> None:
        """Record that ``node`` from this entry verified a ray."""
        s, t = self._index_and_tag(ray_hash)
        # ``confirm_batch`` reserves stamps before probing; keep the
        # same clock consumption so interleavings stay order-equivalent.
        self._clock += 1
        stamp = self._clock
        way = self._match_way(s, t)
        if way < 0:
            return
        ent_valid = self._nvalid[s, way]
        m = ent_valid & (self._nodes[s, way] == int(node))
        if not m.any():
            return
        key = np.where(m, self._order_key()[s, way], _INF)
        self._touch_slot(s, way, int(key.argmin()), stamp)

    def update(self, ray_hash: int, node: int) -> None:
        """Insert one traversal result (see ``PredictorTable.update``)."""
        self.stats.updates += 1
        s, t = self._index_and_tag(ray_hash)
        node = int(node)
        self._clock += 1
        stamp = self._clock
        way = self._match_way(s, t)
        if way < 0:
            valid_row = self._valid[s]
            if valid_row.all():
                way = int(self._estamp[s].argmin())
                self.stats.entry_evictions += 1
            else:
                way = int((~valid_row).argmax())
            self._valid[s, way] = True
            self._tags[s, way] = t
            self._nvalid[s, way] = False
        # Hit or miss, the trained entry becomes most recent.
        self._estamp[s, way] = stamp
        ent_valid = self._nvalid[s, way]
        dup = ent_valid & (self._nodes[s, way] == node)
        if dup.any():
            # Re-inserting a present node is a policy touch.
            self._touch_slot(s, way, int(dup.argmax()), stamp)
            return
        if not ent_valid.all():
            slot = int((~ent_valid).argmax())
        else:
            slot = self._node_victim(s, way, ent_valid)
            self.stats.node_evictions += 1
        self._nodes[s, way, slot] = node
        self._nvalid[s, way, slot] = True
        self._nseq[s, way, slot] = stamp
        if self._kind == "lru":
            self._nstamp[s, way, slot] = stamp
        elif self._kind == "lfu":
            self._ncount[s, way, slot] = 1
        else:
            self._nhist[s, way, slot, :] = -1
            self._nhist[s, way, slot, -1] = stamp

    # ------------------------------------------------------------------
    # Fault-injection surface (logical scalar coordinates).
    # ------------------------------------------------------------------
    def occupied_slots(self) -> List[tuple]:
        """All ``(set_index, way)`` pairs currently holding an entry."""
        return [
            (s, way)
            for s in range(self.num_sets)
            for way in range(int(self._valid[s].sum()))
        ]

    def entry_nodes(self, set_index: int, way: int) -> List[int]:
        """The node slots of one entry (copy, list order)."""
        pw = int(self._entry_order(set_index)[way])
        order = self._node_order(set_index, pw)
        return [int(self._nodes[set_index, pw, p]) for p in order]

    def entry_tag(self, set_index: int, way: int) -> int:
        """The tag of one entry."""
        return int(self._tags[set_index, self._entry_order(set_index)[way]])

    def corrupt_node(self, set_index: int, way: int, slot: int, value: int) -> int:
        """Overwrite one node slot with ``value``; returns the old node.

        Replacement metadata keeps tracking the slot (hardware
        corruption does not update LRU state either).
        """
        pw = int(self._entry_order(set_index)[way])
        p = int(self._node_order(set_index, pw)[slot])
        old = int(self._nodes[set_index, pw, p])
        self._nodes[set_index, pw, p] = value
        return old

    def corrupt_tag(self, set_index: int, way: int, value: int) -> int:
        """Overwrite one entry's tag (hash aliasing); returns the old tag."""
        pw = int(self._entry_order(set_index)[way])
        old = int(self._tags[set_index, pw])
        self._tags[set_index, pw] = value & ((1 << self.hash_bits) - 1)
        return old

    # ------------------------------------------------------------------
    def occupancy(self) -> float:
        """Fraction of entries currently valid."""
        return float(self._valid.sum()) / self.num_entries

    def iter_nodes(self) -> List[int]:
        """All node indices currently stored (for oracle-lookup scans)."""
        out: List[int] = []
        for s in range(self.num_sets):
            for pw in self._entry_order(s):
                order = self._node_order(s, int(pw))
                out.extend(int(self._nodes[s, pw, p]) for p in order)
        return out

    def size_bits(self) -> int:
        """Storage cost in bits (valid + tag + node slots, per entry)."""
        per_entry = VALID_BITS + self.hash_bits + self.nodes_per_entry * NODE_INDEX_BITS
        return self.num_entries * per_entry

    def size_kib(self) -> float:
        """Storage cost in KiB (the paper quotes 5.5 KB for the default)."""
        return self.size_bits() / 8.0 / 1024.0

    def clear(self) -> None:
        """Invalidate every entry (start of a new frame)."""
        self._valid[:] = False
        self._nvalid[:] = False


#: Table implementations selectable via ``PredictorConfig.table_impl``.
TABLE_IMPLS = ("vector", "scalar")


def make_table(impl: str = "vector", **kwargs):
    """Construct a predictor table by implementation name.

    ``"vector"`` is the struct-of-arrays default;  ``"scalar"`` is the
    per-entry reference implementation kept for differential testing.
    """
    if impl == "vector":
        return VectorizedPredictorTable(**kwargs)
    if impl == "scalar":
        return PredictorTable(**kwargs)
    raise ValueError(
        f"unknown table implementation {impl!r}; expected one of {TABLE_IMPLS}"
    )


__all__ = ["TABLE_IMPLS", "VectorizedPredictorTable", "make_table"]
