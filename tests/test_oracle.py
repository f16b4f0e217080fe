"""Unit tests for the limit-study oracles (Section 6.3)."""

import math

import pytest

from repro.core import OracleKind, PredictorConfig, run_limit_study
from repro.core.oracle import ancestor_closure
from repro.core.vectable import VectorizedPredictorTable


CFG = PredictorConfig(origin_bits=3, direction_bits=2, go_up_level=2)


class TestAncestorClosure:
    def test_empty(self, small_bvh):
        assert ancestor_closure(small_bvh, []) == set()

    def test_contains_root_and_leaf(self, small_bvh):
        leaf = int(small_bvh.leaf_nodes()[0])
        closure = ancestor_closure(small_bvh, [leaf])
        assert leaf in closure
        assert 0 in closure

    def test_size_is_depth_plus_one(self, small_bvh):
        leaf = int(small_bvh.leaf_nodes()[0])
        depth = int(small_bvh.depths()[leaf])
        assert len(ancestor_closure(small_bvh, [leaf])) == depth + 1

    def test_union_of_leaves(self, small_bvh):
        leaves = small_bvh.leaf_nodes()[:2]
        combined = ancestor_closure(small_bvh, leaves)
        separate = ancestor_closure(small_bvh, [leaves[0]]) | ancestor_closure(
            small_bvh, [leaves[1]]
        )
        assert combined == separate


@pytest.fixture(scope="module")
def study(small_bvh, small_workload):
    return run_limit_study(small_bvh, small_workload.rays, CFG, in_flight=64)


class TestLimitStudy:
    def test_all_kinds_present(self, study):
        assert set(study) == set(OracleKind)

    def test_oracles_never_mispredict(self, study):
        for kind in (
            OracleKind.ORACLE_LOOKUP,
            OracleKind.ORACLE_TRAINING,
            OracleKind.ORACLE_UPDATES,
        ):
            result = study[kind]
            assert result.predicted == result.verified
            assert result.misprediction_node_fetches == 0

    def test_verified_bounded_by_hits(self, study):
        for result in study.values():
            assert result.verified <= result.hits

    def test_oracle_hierarchy(self, study):
        """Each relaxation can only verify more rays (Figure 2's shape)."""
        proposed = study[OracleKind.PROPOSED].verified
        ol = study[OracleKind.ORACLE_LOOKUP].verified
        ot = study[OracleKind.ORACLE_TRAINING].verified
        ou = study[OracleKind.ORACLE_UPDATES].verified
        assert proposed <= ol
        assert ol <= ot
        assert ot <= ou

    def test_oracle_memory_savings_exceed_proposed(self, study):
        assert (
            study[OracleKind.ORACLE_LOOKUP].memory_savings
            >= study[OracleKind.PROPOSED].memory_savings
        )

    def test_oracle_savings_positive(self, study):
        assert study[OracleKind.ORACLE_UPDATES].memory_savings > 0.0

    def test_hit_counts_agree_across_kinds(self, study):
        hits = {kind: r.hits for kind, r in study.items()}
        assert len(set(hits.values())) == 1  # ground truth is shared

    def test_subset_of_kinds(self, small_bvh, small_workload):
        partial = run_limit_study(
            small_bvh,
            small_workload.rays,
            CFG,
            kinds=[OracleKind.PROPOSED, OracleKind.ORACLE_LOOKUP],
        )
        assert set(partial) == {OracleKind.PROPOSED, OracleKind.ORACLE_LOOKUP}


#: Exact Figure 2 counts for the ``study`` fixture (512 rays,
#: ``in_flight=64``): ``(predicted, verified, hits, predictor node
#: fetches, predictor tri fetches, baseline node fetches, baseline tri
#: fetches, table updates)``.  Any change is a change to the limit study.
PINNED_COUNTS = {
    OracleKind.ORACLE_LOOKUP: (239, 239, 295, 3470, 2412, 4979, 2665, 295),
    OracleKind.ORACLE_TRAINING: (239, 239, 295, 3467, 2415, 4979, 2665, 295),
    OracleKind.ORACLE_UPDATES: (280, 280, 295, 3254, 2375, 4979, 2665, 295),
}


class TestLimitStudyPins:
    @pytest.mark.parametrize("kind", list(PINNED_COUNTS))
    def test_exact_counts(self, study, kind):
        r = study[kind]
        assert (r.num_rays, r.table_lookups) == (512, 512)
        assert (
            r.predicted,
            r.verified,
            r.hits,
            r.predictor_node_fetches,
            r.predictor_tri_fetches,
            r.baseline_node_fetches,
            r.baseline_tri_fetches,
            r.table_updates,
        ) == PINNED_COUNTS[kind]

    def test_oracle_lookup_scalar_vs_vector_table(
        self, monkeypatch, small_bvh, small_workload
    ):
        import repro.core.predictor as predictor_module
        from repro.core.table import PredictorTable

        def study():
            return run_limit_study(
                small_bvh,
                small_workload.rays,
                CFG,
                kinds=[OracleKind.ORACLE_LOOKUP],
                in_flight=64,
            )[OracleKind.ORACLE_LOOKUP]

        vector = study()
        # The scalar reference table, injected where the predictor
        # builds its store.
        monkeypatch.setattr(
            predictor_module, "VectorizedPredictorTable", PredictorTable
        )
        assert study() == vector

    @pytest.mark.parametrize("in_flight", [1, 64, 100])
    def test_oracle_lookup_snapshots_once_per_window(
        self, monkeypatch, small_bvh, small_workload, in_flight
    ):
        calls = []
        original = VectorizedPredictorTable.iter_nodes

        def counting(table):
            calls.append(1)
            return original(table)

        monkeypatch.setattr(VectorizedPredictorTable, "iter_nodes", counting)
        rays = small_workload.rays
        run_limit_study(
            small_bvh, rays, CFG, kinds=[OracleKind.ORACLE_LOOKUP],
            in_flight=in_flight,
        )
        assert len(calls) == math.ceil(len(rays) / in_flight)
