import math

import numpy as np
import pytest

from layerstack import (
    Clustering,
    Document,
    EntropicState,
    aggregate_corpus,
    count_entropy,
    entropic_gain,
    kmeans,
    rank_documents,
)
from layerstack.intelligence import TermRows, unit_term_rows

from helpers import TWO_TOPIC_COUNTS, dense, make_corpus, make_doc


class TestDocVector:
    """Document rows built by unit_term_rows, the input of kmeans."""

    @staticmethod
    def dense_row(docs):
        """The dense row of the first document of ``docs``, over the sorted
        terms of them all."""
        ids, rows = unit_term_rows(make_corpus(docs))
        assert ids[0] == next(iter(docs))
        return rows.row(0)

    def test_single_term(self):
        assert self.dense_row({"d": {"a": 1}, "e": {"b": 1}}).tolist() == [1.0, 0.0]

    def test_two_equal_terms(self):
        row = self.dense_row({"d": {"a": 1, "b": 1}})
        assert np.allclose(row, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_orthogonal_document_rejected(self):
        # the ids show who was left out; aggregate_corpus notes each of them
        corpus = make_corpus({"c": {"c": 5}, "z": {"a": 0}, "d": {"a": 1}, "e": {}})
        ids, rows = unit_term_rows(corpus)
        assert ids == ("c", "d")
        assert rows.shape == (2, 2)

    def test_unit_norm_and_prescaling_norm(self):
        row = self.dense_row({"d": {"a": 3, "b": 1}, "e": {"c": 1}})
        assert math.isclose(float(np.linalg.norm(row)), 1.0, abs_tol=1e-12)
        prescaling = math.sqrt(0.75**2 + 0.25**2)
        assert np.allclose(row * prescaling, [0.75, 0.25, 0.0], atol=1e-12)


def blob_rows(count=8):
    """Two tight 4-row blobs over disjoint term pairs, the first ``count``
    rows of them."""
    docs = {
        "a1": {"a": 9, "b": 1},
        "a2": {"a": 8, "b": 2},
        "a3": {"a": 7, "b": 2},
        "a4": {"a": 9, "b": 2},
        "x1": {"x": 9, "y": 1},
        "x2": {"x": 8, "y": 2},
        "x3": {"x": 7, "y": 2},
        "x4": {"x": 9, "y": 2},
    }
    return unit_term_rows(make_corpus(dict(list(docs.items())[:count])))


class TestKmeans:
    def test_single_cluster_centroid_is_mean(self):
        ids, rows = blob_rows(3)
        clustering = kmeans(ids, rows, k=1, seed=0)
        assert set(clustering.assignments.values()) == {0}
        points = dense(rows)
        assert np.allclose(clustering.centroids[0], points.mean(axis=0), atol=1e-12)

    def test_two_blobs_recovered_for_any_seed(self):
        ids, rows = blob_rows()
        for seed in range(5):
            clustering = kmeans(ids, rows, k=2, seed=seed)
            groups = {}
            for doc_id, cluster in clustering.assignments.items():
                groups.setdefault(cluster, set()).add(doc_id)
            assert sorted(groups.values(), key=min) == [
                {"a1", "a2", "a3", "a4"},
                {"x1", "x2", "x3", "x4"},
            ]

    def test_identical_vectors_collapse(self):
        corpus = make_corpus({f"d{i}": {"a": 2, "b": 2} for i in range(4)})
        clustering = kmeans(*unit_term_rows(corpus), k=2, seed=1)
        assert clustering.inertia == 0.0
        non_empty = {c for c in clustering.assignments.values()}
        assert len(non_empty) >= 1  # a fully empty second cluster is legal

    def test_inertia_history_non_increasing(self):
        clustering = kmeans(*blob_rows(), k=3, seed=9)
        history = clustering.inertia_history
        assert clustering.inertia == history[-1]
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-9

    def test_deterministic_for_fixed_seed(self):
        a = kmeans(*blob_rows(), k=2, seed=42)
        b = kmeans(*blob_rows(), k=2, seed=42)
        assert a.assignments == b.assignments
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia_history == b.inertia_history

    def test_rows_without_entries_form_one_cluster_at_the_origin(self):
        # np.bincount sums no weights into int64 zeros; the centroids must
        # still come out as floats
        rows = TermRows(
            indptr=np.array([0, 0, 0]),
            indices=np.array([], dtype=np.int64),
            data=np.array([]),
            n_columns=2,
        )
        clustering = kmeans(["a", "b"], rows, k=1, seed=0)
        assert clustering.assignments == {"a": 0, "b": 0}
        assert clustering.inertia == 0.0
        assert clustering.centroids.dtype == np.float64
        assert np.array_equal(clustering.centroids, np.zeros((1, 2)))

    def test_rows_given_as_lists_cluster_as_their_arrays_do(self):
        listed = TermRows(indptr=[0, 0, 0], indices=[], data=[], n_columns=2)
        assert listed.indptr.dtype == listed.indices.dtype == np.intp
        assert listed.data.dtype == np.float64
        arrays = TermRows(
            indptr=np.array([0, 0, 0]),
            indices=np.array([], dtype=np.int64),
            data=np.array([]),
            n_columns=2,
        )
        a = kmeans(["a", "b"], listed, k=1, seed=0)
        b = kmeans(["a", "b"], arrays, k=1, seed=0)
        assert a.assignments == b.assignments == {"a": 0, "b": 0}
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia_history == b.inertia_history

    def test_validation(self):
        ids, rows = blob_rows()
        with pytest.raises(ValueError, match="fewer rows than k"):
            kmeans(*blob_rows(2), k=3, seed=0)
        with pytest.raises(ValueError, match="k must be >= 1"):
            kmeans(ids, rows, k=0, seed=0)
        with pytest.raises(ValueError, match="duplicate doc ids"):
            kmeans(("a1", "a1"), blob_rows(2)[1], k=1, seed=0)
        with pytest.raises(ValueError, match="3 ids for 8 rows"):
            kmeans(ids[:3], rows, k=1, seed=0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            kmeans(ids, rows, k=1, seed=-1)
        with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
            kmeans(ids, rows, k=1, seed=3.0)

    def test_numpy_integer_seed_clusters_as_the_equal_int(self):
        ids, rows = blob_rows()
        a = kmeans(ids, rows, k=np.int64(2), seed=np.int64(3))
        b = kmeans(ids, rows, k=2, seed=3)
        assert type(a.k) is type(a.seed) is int
        assert a.assignments == b.assignments
        assert a.inertia_history == b.inertia_history
        assert np.array_equal(a.centroids, b.centroids)
        corpus = six_doc_corpus()
        numpy_run = aggregate_corpus(corpus, k=2, seed=np.int64(3))
        assert numpy_run.ranking == aggregate_corpus(corpus, k=2, seed=3).ranking

    def test_clustering_invariants_enforced(self):
        with pytest.raises(ValueError, match="last history entry"):
            Clustering(
                k=1,
                seed=0,
                assignments={"d": 0},
                centroids=np.zeros((1, 2)),
                inertia=0.5,
                inertia_history=(0.4,),
            )
        with pytest.raises(ValueError, match="increased"):
            Clustering(
                k=1,
                seed=0,
                assignments={"d": 0},
                centroids=np.zeros((1, 2)),
                inertia=0.5,
                inertia_history=(0.1, 0.5),
            )

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"k": 0}, "k must be >= 1, got 0"),
            ({"assignments": {"d": 1}}, "cluster index 1 for 'd' outside [0, 1)"),
            ({"centroids": np.zeros((2, 2))}, "expected 1 centroid rows"),
            ({"inertia": -1.0, "inertia_history": (-1.0,)}, "negative inertia -1.0"),
        ],
    )
    def test_clustering_fields_checked(self, fields, message):
        valid = {
            "k": 1,
            "seed": 0,
            "assignments": {"d": 0},
            "centroids": np.zeros((1, 2)),
            "inertia": 0.0,
            "inertia_history": (0.0,),
        }
        with pytest.raises(ValueError) as raised:
            Clustering(**{**valid, **fields})
        assert str(raised.value) == message

    def test_members_of_a_cluster_outside_k_rejected(self):
        clustering = kmeans(*blob_rows(2), k=1, seed=0)
        assert clustering.members(0) == ("a1", "a2")
        with pytest.raises(ValueError) as raised:
            clustering.members(1)
        assert str(raised.value) == "cluster index 1 outside [0, 1)"


class TestEntropicGain:
    def test_merge_two_new_terms(self):
        state = EntropicState(macrostate={"a": 1, "b": 1}, reservoir_strength=1.0)
        gain = entropic_gain(state, make_doc("c", {"c": 2}))
        assert gain == 0.5  # entropy moves 1.0 -> 1.5 bits exactly

    def test_distribution_preserving_candidate_has_zero_gain(self):
        state = EntropicState(macrostate={"a": 2, "b": 2}, reservoir_strength=3.7)
        assert entropic_gain(state, make_doc("same", {"a": 1, "b": 1})) == 0.0
        assert entropic_gain(state, make_doc("same2", {"a": 2, "b": 2})) == 0.0

    def test_linear_in_reservoir_strength(self):
        candidate = make_doc("c", {"c": 3, "d": 1})
        base = entropic_gain(
            EntropicState(macrostate={"a": 1, "b": 1}, reservoir_strength=1.0), candidate
        )
        for scale in (0.25, 0.5, 2.0, 8.0):
            scaled = entropic_gain(
                EntropicState(macrostate={"a": 1, "b": 1}, reservoir_strength=scale),
                candidate,
            )
            assert abs(scaled - scale * base) <= 1e-12

    def test_gain_bounded_below(self):
        state = EntropicState(macrostate={"a": 1, "b": 1, "c": 1, "d": 1}, reservoir_strength=1.0)
        lower = -count_entropy(state.macrostate.values()) * state.reservoir_strength
        # a hugely repetitive candidate drags entropy down, but never below -S(X0)*T
        gain = entropic_gain(state, make_doc("heavy", {"a": 10_000}))
        assert lower - 1e-12 <= gain < 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            EntropicState(macrostate={"a": 1}, reservoir_strength=0.0)
        with pytest.raises(ValueError, match="negative count"):
            EntropicState(macrostate={"a": -1}, reservoir_strength=1.0)
        with pytest.raises(ValueError, match="empty distribution"):
            EntropicState(macrostate={"a": 0}, reservoir_strength=1.0)
        state = EntropicState(macrostate={"a": 1}, reservoir_strength=1.0)
        with pytest.raises(ValueError, match="empty candidate"):
            entropic_gain(state, make_doc("empty", {}))


class TestSelectRepresentatives:
    """Per-cluster selection, read from the AggregationRound trace."""

    @staticmethod
    def two_topic_corpus():
        return make_corpus(TWO_TOPIC_COUNTS)

    def test_central_docs_selected_per_cluster(self):
        corpus = self.two_topic_corpus()
        # the two survivors share no term, so the final ranking excludes both
        notes: list[str] = []
        result = aggregate_corpus(corpus, k=2, rounds=1, per_cluster=1, seed=0, notes=notes)
        assert notes == [
            f"RankingWarning: excluding {doc_id!r}: insufficient overlap: "
            f"{doc_id!r} shares 0 terms with the rest"
            for doc_id in ("a-center", "b-center")
        ]
        (round_trace,) = result.rounds
        clustering = round_trace.clustering
        assert len(round_trace.selected_ids) == 2
        for cluster_index, doc_id in enumerate(round_trace.selected_ids):
            members = clustering.members(cluster_index)
            best = rank_documents(corpus.subset(members), top_k=1)[0].doc_id
            assert doc_id == best
            assert round_trace.cluster_rankings[cluster_index][0].doc_id == best

    def test_identical_docs_tie_break_to_first_id(self):
        counts = {"p": 4, "q": 2, "r": 1}
        corpus = make_corpus(
            {"zeta": counts, "beta": counts, "alpha": counts, "gamma": counts}
        )
        result = aggregate_corpus(corpus, k=1, rounds=1, per_cluster=2, seed=0)
        (round_trace,) = result.rounds
        assert round_trace.selected_ids == ("alpha", "beta")

    def test_per_cluster_beyond_size_returns_everyone(self):
        corpus = self.two_topic_corpus()
        result = aggregate_corpus(corpus, k=2, rounds=1, per_cluster=50, seed=0)
        (round_trace,) = result.rounds
        selected = round_trace.selected_ids
        assert sorted(selected) == sorted(d.id for d in corpus)
        assert len(selected) == len(set(selected))

    def test_singleton_cluster_contributes_nothing(self):
        corpus = make_corpus(
            {
                "a1": {"p": 3, "q": 2, "r": 1},
                "a2": {"p": 2, "q": 2, "r": 1},
                "solo": {"x": 1, "y": 1, "z": 1},
            }
        )
        notes: list[str] = []
        result = aggregate_corpus(corpus, k=2, rounds=1, per_cluster=5, seed=0, notes=notes)
        assert notes == ["AggregationWarning: cluster 0 has 1 member(s); nothing selected"]
        (round_trace,) = result.rounds
        solo_cluster = round_trace.clustering.assignments["solo"]
        assert round_trace.clustering.members(solo_cluster) == ("solo",)
        assert round_trace.cluster_rankings[solo_cluster] == ()
        assert set(round_trace.selected_ids) == {"a1", "a2"}


def six_doc_corpus():
    return make_corpus(
        {
            "d1": {"p": 8, "q": 4, "r": 2, "s": 1},
            "d2": {"p": 12, "q": 2, "r": 2, "s": 1},
            "d3": {"p": 6, "q": 8, "r": 1, "s": 1},
            "d4": {"p": 7, "q": 3, "r": 5, "s": 1},
            "d5": {"p": 9, "q": 4, "r": 1, "s": 3},
            "d6": {"p": 8, "q": 5, "r": 3, "s": 1},
        }
    )


class TestAggregation:
    def test_rounds_zero_is_plain_ranking(self):
        corpus = six_doc_corpus()
        result = aggregate_corpus(corpus, k=2, rounds=0)
        assert list(result.ranking) == rank_documents(corpus, top_k=len(corpus))
        assert result.rounds == ()

    def test_two_docs_two_clusters_both_survive(self):
        corpus = make_corpus(
            {
                "d1": {"p": 3, "q": 2, "r": 1},
                "d2": {"p": 2, "q": 2, "r": 1},
            }
        )
        notes: list[str] = []
        result = aggregate_corpus(corpus, k=2, rounds=1, per_cluster=5, notes=notes)
        assert notes == [
            "AggregationWarning: cluster 0 has 1 member(s); nothing selected",
            "AggregationWarning: cluster 1 has 1 member(s); nothing selected",
            "AggregationWarning: aggregation stopped at round 0: only 0 document(s) "
            "would survive; keeping the previous selection",
        ]
        assert sorted(result.survivor_ids) == ["d1", "d2"]
        assert len(result.ranking) == 2

    def test_reduction_bounds_and_consistency(self):
        corpus = six_doc_corpus()
        result = aggregate_corpus(corpus, k=2, rounds=1, per_cluster=2, seed=7)
        assert len(result.survivor_ids) <= 4
        assert set(result.survivor_ids) <= {d.id for d in corpus}
        assert [res.doc_id for res in result.ranking] == [
            res.doc_id
            for res in rank_documents(corpus.subset(result.survivor_ids), top_k=10)
        ]
        (round_trace,) = result.rounds
        # survivors are exactly the last round's selection (corpus order)
        assert sorted(round_trace.selected_ids) == sorted(result.survivor_ids)

    def test_survivors_have_no_duplicates(self):
        notes: list[str] = []
        result = aggregate_corpus(
            six_doc_corpus(), k=3, rounds=2, per_cluster=2, seed=3, notes=notes
        )
        assert notes == [
            f"AggregationWarning: cluster {c} has 1 member(s); nothing selected" for c in (1, 0, 1)
        ]
        assert len(result.survivor_ids) == len(set(result.survivor_ids))

    def test_deterministic(self):
        notes_a: list[str] = []
        notes_b: list[str] = []
        a = aggregate_corpus(six_doc_corpus(), k=2, rounds=1, per_cluster=2, seed=11, notes=notes_a)
        b = aggregate_corpus(six_doc_corpus(), k=2, rounds=1, per_cluster=2, seed=11, notes=notes_b)
        assert notes_a == notes_b == [
            "AggregationWarning: cluster 1 has 1 member(s); nothing selected"
        ]
        assert a.ranking == b.ranking
        assert a.survivor_ids == b.survivor_ids

    def test_validation(self):
        corpus = six_doc_corpus()
        with pytest.raises(ValueError, match="fewer documents than clusters"):
            aggregate_corpus(corpus, k=7)
        with pytest.raises(ValueError, match="k must be >= 1"):
            aggregate_corpus(corpus, k=0)
        with pytest.raises(ValueError, match="rounds"):
            aggregate_corpus(corpus, k=2, rounds=-1)
        with pytest.raises(ValueError, match="per_cluster"):
            aggregate_corpus(corpus, k=2, per_cluster=0)

    def test_one_document_stops_before_clustering(self):
        # the rounds stop at one row, and the final ranking needs two
        notes: list[str] = []
        corpus = make_corpus({"d1": {"p": 3, "q": 1}})
        with pytest.raises(ValueError) as raised:
            aggregate_corpus(corpus, k=1, rounds=1, notes=notes)
        assert str(raised.value) == "ranking needs at least 2 documents, got 1"
        assert notes == []

    def test_unvectorizable_documents_excluded_with_warning(self):
        corpus = make_corpus(
            {
                "d1": {"p": 8, "q": 4, "r": 2},
                "d2": {"p": 12, "q": 2, "r": 2},
                "d3": {"p": 6, "q": 8, "r": 1},
                "empty": {},
            }
        )
        notes: list[str] = []
        result = aggregate_corpus(corpus, k=2, rounds=1, per_cluster=2, seed=0, notes=notes)
        assert notes == [
            "AggregationWarning: document 'empty' has no terms; excluded from clustering",
            "AggregationWarning: cluster 0 has 1 member(s); nothing selected",
        ]
        assert "empty" not in result.survivor_ids
