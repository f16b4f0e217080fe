"""Differential tests: vectorized vs scalar predictor table.

The struct-of-arrays :class:`~repro.core.vectable.VectorizedPredictorTable`
must be *order-equivalent* to the scalar
:class:`~repro.core.table.PredictorTable` - same lookup results (in the
same list order), same statistics, same occupancy and same fault
surface - across every associativity and node replacement policy, and
its batched kernels must match sequential scalar probes within a
window.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.table import PredictorTable
from repro.core.vectable import VectorizedPredictorTable

ASSOCIATIVITIES = (1, 2, 4, 8)
POLICIES = ("lru", "lfu", "lru-k")


def _pair(ways, policy, num_entries=8, nodes_per_entry=2, hash_bits=6):
    kwargs = dict(
        num_entries=num_entries,
        ways=ways,
        nodes_per_entry=nodes_per_entry,
        hash_bits=hash_bits,
        node_policy=policy,
    )
    return PredictorTable(**kwargs), VectorizedPredictorTable(**kwargs)


def _assert_equivalent(scalar: PredictorTable, vector: VectorizedPredictorTable):
    """Full observable-state equality between the two implementations."""
    assert vector.stats == scalar.stats
    assert vector.occupancy() == scalar.occupancy()
    slots = scalar.occupied_slots()
    assert vector.occupied_slots() == slots
    for s, w in slots:
        assert vector.entry_tag(s, w) == scalar.entry_tag(s, w)
        assert vector.entry_nodes(s, w) == scalar.entry_nodes(s, w)
    assert vector.iter_nodes() == scalar.iter_nodes()


def _drive(scalar, vector, ops):
    """Apply one op stream to both tables, checking probe-for-probe."""
    for kind, h, node in ops:
        if kind == "lookup":
            assert vector.lookup(h) == scalar.lookup(h)
        elif kind == "peek":
            assert vector.peek(h) == scalar.peek(h)
        elif kind == "confirm":
            scalar.confirm(h, node)
            vector.confirm(h, node)
        else:
            scalar.update(h, node)
            vector.update(h, node)


def _random_ops(rng, n, hash_pool=24, node_pool=12):
    kinds = ("lookup", "update", "update", "confirm", "peek")
    return [
        (
            kinds[int(rng.integers(len(kinds)))],
            int(rng.integers(hash_pool)) * 37 % (1 << 8),
            int(rng.integers(node_pool)),
        )
        for _ in range(n)
    ]


class TestScalarEquivalence:
    @pytest.mark.parametrize("ways", ASSOCIATIVITIES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_random_stream(self, ways, policy):
        scalar, vector = _pair(ways, policy)
        rng = np.random.default_rng(ways * 100 + len(policy))
        _drive(scalar, vector, _random_ops(rng, 400))
        _assert_equivalent(scalar, vector)

    @pytest.mark.parametrize("ways", ASSOCIATIVITIES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_single_node_entries(self, ways, policy):
        """The paper's default shape: one node slot per entry."""
        scalar, vector = _pair(ways, policy, nodes_per_entry=1)
        rng = np.random.default_rng(7)
        _drive(scalar, vector, _random_ops(rng, 300))
        _assert_equivalent(scalar, vector)

    def test_clear_preserves_stats(self):
        scalar, vector = _pair(2, "lru")
        _drive(scalar, vector, [("update", 3, 5), ("lookup", 3, 0)])
        scalar.clear()
        vector.clear()
        _assert_equivalent(scalar, vector)
        assert vector.lookup(3) is None
        assert scalar.lookup(3) is None
        assert vector.stats == scalar.stats

    def test_size_accounting_matches(self):
        scalar, vector = _pair(4, "lru", num_entries=1024, nodes_per_entry=1,
                               hash_bits=15)
        assert vector.size_bits() == scalar.size_bits()
        assert vector.size_kib() == pytest.approx(5.375)

    def test_rejects_bad_shapes_like_scalar(self):
        for kwargs in (
            dict(num_entries=0),
            dict(num_entries=6, ways=4),
            dict(num_entries=12, ways=2),  # 6 sets: not a power of two
        ):
            with pytest.raises(ValueError):
                PredictorTable(**kwargs)
            with pytest.raises(ValueError):
                VectorizedPredictorTable(**kwargs)
        # The vectorized store validates the policy eagerly (the scalar
        # table only instantiates policies on first allocation).
        with pytest.raises(ValueError):
            VectorizedPredictorTable(node_policy="mru")

    def test_factory_selects_implementation(self, small_bvh):
        # The predictor always builds the vector store; the scalar table
        # is the reference these tests construct directly.
        from repro.core.predictor import RayPredictor

        assert isinstance(RayPredictor(small_bvh).table, VectorizedPredictorTable)


class TestFaultSurfaceEquivalence:
    """Corruption lands on the same logical slot in both stores."""

    @pytest.mark.parametrize("ways", ASSOCIATIVITIES)
    def test_corrupt_node_and_tag(self, ways):
        scalar, vector = _pair(ways, "lru")
        rng = np.random.default_rng(13)
        _drive(scalar, vector, _random_ops(rng, 200))
        slots = scalar.occupied_slots()
        assert slots
        for _ in range(8):
            s, w = slots[int(rng.integers(len(slots)))]
            nodes = scalar.entry_nodes(s, w)
            slot = int(rng.integers(len(nodes)))
            value = int(rng.integers(1 << 10))
            assert (vector.corrupt_node(s, w, slot, value)
                    == scalar.corrupt_node(s, w, slot, value))
            tag = int(rng.integers(1 << 8))
            assert (vector.corrupt_tag(s, w, tag)
                    == scalar.corrupt_tag(s, w, tag))
        # Post-corruption behavior (aliased lookups, stale nodes) stays
        # in lockstep under the default LRU policy.
        _drive(scalar, vector, _random_ops(rng, 200))
        _assert_equivalent(scalar, vector)


@st.composite
def _op_window(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    hashes = draw(st.lists(st.integers(min_value=0, max_value=255),
                           min_size=n, max_size=n))
    nodes = draw(st.lists(st.integers(min_value=0, max_value=15),
                          min_size=n, max_size=n))
    return hashes, nodes


class TestBatchedOrderEquivalence:
    """Batched kernels == sequential probes within a window."""

    @settings(deadline=None, max_examples=40)
    @given(window=_op_window(),
           ways=st.sampled_from(ASSOCIATIVITIES),
           policy=st.sampled_from(POLICIES))
    def test_lookup_insert_window(self, window, ways, policy):
        hashes, nodes = window
        seq = VectorizedPredictorTable(
            num_entries=8, ways=ways, nodes_per_entry=2, hash_bits=6,
            node_policy=policy,
        )
        bat = VectorizedPredictorTable(
            num_entries=8, ways=ways, nodes_per_entry=2, hash_bits=6,
            node_policy=policy,
        )
        ref = PredictorTable(
            num_entries=8, ways=ways, nodes_per_entry=2, hash_bits=6,
            node_policy=policy,
        )
        # Window semantics: all lookups, then all confirms, then all
        # updates - matching the simulate engine's in-flight window.
        seq_results = [seq.lookup(h) for h in hashes]
        ref_results = [ref.lookup(h) for h in hashes]
        for h, n_ in zip(hashes, nodes):
            seq.confirm(h, n_)
            ref.confirm(h, n_)
        for h, n_ in zip(hashes, nodes):
            seq.update(h, n_)
            ref.update(h, n_)

        harr = np.asarray(hashes, dtype=np.uint64)
        narr = np.asarray(nodes, dtype=np.int64)
        bnodes, bcounts = bat.lookup_batch(harr)
        bat.confirm_batch(harr, narr)
        bat.update_batch(harr, narr)

        for i, expect in enumerate(seq_results):
            got = (None if bcounts[i] == 0
                   else [int(x) for x in bnodes[i, : bcounts[i]]])
            assert got == expect == ref_results[i]
        assert bat.stats == seq.stats == ref.stats
        _assert_equivalent(ref, bat)
        _assert_equivalent(ref, seq)


def _hashes_by_set(table):
    """Every hash of ``table``'s tag space, grouped by the set it folds to."""
    groups = {}
    for h in range(1 << table.hash_bits):
        groups.setdefault(table._index_and_tag(h)[0], []).append(h)
    return groups


def _one_set_window(table):
    """Every probe in one set: five tags over two ways, repeated nodes."""
    tags = _hashes_by_set(table)[0][:5]
    picks = [(0, 1), (1, 2), (0, 3), (0, 1), (2, 4), (0, 5),
             (3, 1), (1, 2), (4, 6), (0, 3), (4, 7), (4, 6)]
    return [tags[t] for t, _ in picks], [n for _, n in picks]


def _recurring_set_window(table):
    """One set probed ten times (three tags) among ten once-probed sets."""
    groups = _hashes_by_set(table)
    hot = groups[3][:3]
    cold = [groups[s][0] for s in range(table.num_sets) if s != 3][:10]
    hashes, nodes = [], []
    for i, t in enumerate((0, 1, 0, 2, 0, 1, 0, 2, 0, 1)):
        hashes += [hot[t], cold[i]]
        nodes += [i % 3, 10 + i]
    return hashes, nodes


class TestRoundCommit:
    """``update_batch``/``confirm_batch`` commit in per-set rounds."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize(
        "make_window, rounds",
        [(_one_set_window, 12), (_recurring_set_window, 10)],
    )
    def test_rounds_match_sequential_scalar(self, policy, make_window, rounds):
        kwargs = dict(num_entries=32, ways=2, nodes_per_entry=2, hash_bits=8,
                      node_policy=policy)
        ref = PredictorTable(**kwargs)
        bat = VectorizedPredictorTable(**kwargs)
        hashes, nodes = make_window(bat)
        harr = np.asarray(hashes, dtype=np.uint64)
        narr = np.asarray(nodes, dtype=np.int64)

        calls = []
        update_rows = bat._update_rows

        def counted(*args):
            calls.append(len(args[0]))
            update_rows(*args)

        bat._update_rows = counted
        # Train, confirm the trained window, then train it again so the
        # second pass mixes hits, duplicate-node touches and evictions.
        for _ in range(2):
            for h, n_ in zip(hashes, nodes):
                ref.update(h, n_)
            bat.update_batch(harr, narr)
            _assert_equivalent(ref, bat)
            for h, n_ in zip(hashes, nodes):
                ref.confirm(h, n_)
            bat.confirm_batch(harr, narr)
            _assert_equivalent(ref, bat)
        # One kernel call per round: the window's max set multiplicity.
        assert len(calls) == 2 * rounds
        assert sum(calls) == 2 * len(hashes)
        assert ref.stats.entry_evictions > 0
        assert ref.stats.node_evictions > 0
