import math

import numpy as np
import pytest

from layerstack import (
    CorrelationResult,
    EventSpace,
    correlate_document,
    correlation_p_value,
    justification_score,
    pearson_r,
    rank_documents,
)

from helpers import make_corpus, make_doc

# r for xs=(1,2,3), ys=(2,4,7) by the direct formula:
# Sxy=5, Sxx=2, Syy=38/3  ->  r = 5/sqrt(76/3)
PEARSON_123_247 = 0.9933992677987828

# two-sided p for r=0.6, n=20 from numerically integrating the t density
# with 18 degrees of freedom (t = 0.6*sqrt(18/0.64))
P_06_20 = 0.0051629256736767945


class TestPearson:
    def test_hand_checked_value(self):
        assert math.isclose(pearson_r((1, 2, 3), (2, 4, 7)), PEARSON_123_247, abs_tol=1e-12)

    def test_perfect_linear(self):
        assert pearson_r((1, 2, 3), (10, 20, 30)) == 1.0
        assert pearson_r((1, 2, 3), (30, 20, 10)) == -1.0

    def test_affine_invariance_and_sign_flip(self):
        rng = np.random.default_rng(3)
        xs = rng.random(20)
        ys = rng.random(20)
        base = pearson_r(xs, ys)
        assert math.isclose(pearson_r(2.5 * xs + 7, ys), base, abs_tol=1e-12)
        assert math.isclose(pearson_r(-1.5 * xs + 2, ys), -base, abs_tol=1e-12)

    def test_clamped_to_unit_interval(self):
        assert -1.0 <= pearson_r((1.0, 1.0 + 1e-15, 3.0), (2.0, 2.0 + 2e-15, 6.0)) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pearson_r((1, 2, 3), (1, 2))

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 3"):
            pearson_r((1, 2), (3, 4))

    def test_zero_variance(self):
        with pytest.raises(ValueError, match="zero variance"):
            pearson_r((1, 1, 1), (1, 2, 3))


class TestPValue:
    # point counts on both sides of each switch between evaluation methods
    COUNTS = (3, 5, 31, 32, 51, 52, 500, 2000, 30_036)

    def test_zero_r_means_one(self):
        for n in self.COUNTS:
            assert correlation_p_value(0.0, n) == 1.0
            assert correlation_p_value(-0.0, n) == 1.0

    def test_unit_r_means_zero(self):
        for n in self.COUNTS:
            assert correlation_p_value(1.0, n) == 0.0
            assert correlation_p_value(-1.0, n) == 0.0

    def test_reference_point(self):
        assert math.isclose(correlation_p_value(0.6, 20), P_06_20, abs_tol=5e-5)
        assert math.isclose(correlation_p_value(0.6, 20), 0.00517, abs_tol=5e-5)

    def test_symmetric_in_r(self):
        for n in self.COUNTS:
            for r in (1e-9, 0.03, 0.4, 0.9, 1 - 1e-12):
                assert correlation_p_value(r, n) == correlation_p_value(-r, n)

    def test_monotone_in_abs_r(self):
        for n in self.COUNTS:
            ps = [correlation_p_value(k / 1000, n) for k in range(1001)]
            assert all(later <= earlier for earlier, later in zip(ps, ps[1:]))

    def test_monotone_in_n(self):
        counts = [*range(3, 400), *range(400, 60_000, 997)]
        for r in (1e-6, 0.01, 0.1, 0.3, 0.5, 0.9, 0.999):
            ps = [correlation_p_value(r, n) for n in counts]
            assert all(later <= earlier for earlier, later in zip(ps, ps[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be >= 3"):
            correlation_p_value(0.5, 2)
        with pytest.raises(ValueError, match="outside"):
            correlation_p_value(1.5, 10)


class TestCorrelateDocument:
    def test_profile_equal_to_aggregate_gives_unit_r(self):
        # doc matches the pooled profile of the others exactly
        corpus = make_corpus(
            {
                "match": {"x": 2, "y": 4, "z": 8},
                "partA": {"x": 1, "y": 3, "z": 4},
                "partB": {"x": 1, "y": 1, "z": 4},
            }
        )
        res = correlate_document(corpus.get("match"), corpus)
        assert math.isclose(res.r, 1.0, abs_tol=1e-9)
        assert res.n == 3

    def test_not_in_corpus(self):
        corpus = make_corpus({"d1": {"a": 1, "b": 1, "c": 1}})
        with pytest.raises(ValueError, match="not in corpus"):
            correlate_document(make_doc("ghost", {"a": 1}), corpus)

    def test_insufficient_overlap(self):
        corpus = make_corpus(
            {
                "d1": {"a": 1, "b": 1},
                "d2": {"a": 1, "b": 2, "c": 3},
            }
        )
        with pytest.raises(ValueError, match="insufficient overlap"):
            correlate_document(corpus.get("d1"), corpus)

    def test_result_fields_validate(self):
        with pytest.raises(ValueError, match="outside"):
            CorrelationResult(doc_id="d", r=1.5, p_value=0.5, n=5)
        with pytest.raises(ValueError, match="outside"):
            CorrelationResult(doc_id="d", r=0.5, p_value=1.5, n=5)
        with pytest.raises(ValueError, match="n 2"):
            CorrelationResult(doc_id="d", r=0.5, p_value=0.5, n=2)


class TestRankDocuments:
    def test_identical_documents_tie_break_by_id(self):
        counts = {"a": 1, "b": 2, "c": 4}
        corpus = make_corpus({"zed": counts, "ann": counts})
        ranked = rank_documents(corpus, top_k=5)
        assert [res.doc_id for res in ranked] == ["ann", "zed"]
        assert all(math.isclose(res.r, 1.0, abs_tol=1e-9) for res in ranked)

    def test_central_document_ranks_first_vs_brute_force(self):
        # five slanted docs plus one mirroring the overall term profile
        docs = {
            "center": {"a": 8, "b": 4, "c": 2, "d": 1},
            "lean1": {"a": 12, "b": 2, "c": 2, "d": 1},
            "lean2": {"a": 6, "b": 8, "c": 1, "d": 1},
            "lean3": {"a": 7, "b": 3, "c": 5, "d": 1},
            "lean4": {"a": 9, "b": 4, "c": 1, "d": 3},
            "lean5": {"a": 8, "b": 5, "c": 3, "d": 1},
        }
        corpus = make_corpus(docs)
        ranked = rank_documents(corpus, top_k=6)

        def oracle_r(doc_id):
            rest = corpus.leave_one_out_counts(doc_id)
            doc = corpus.get(doc_id)
            shared = sorted(set(doc.token_counts) & set(rest))
            xs = np.log10([doc.token_counts[t] / doc.total_tokens for t in shared])
            ys = np.log10([rest[t] / sum(rest.values()) for t in shared])
            return float(np.corrcoef(xs, ys)[0, 1])

        expected = sorted(docs, key=lambda d: (-oracle_r(d), d))
        assert [res.doc_id for res in ranked] == expected
        for res in ranked:
            assert math.isclose(res.r, oracle_r(res.doc_id), abs_tol=1e-10)

    def test_truncation(self):
        counts = {"a": 1, "b": 2, "c": 4}
        corpus = make_corpus({f"d{i:02d}": counts for i in range(36)})
        assert len(rank_documents(corpus, top_k=5)) == 5

    def test_scaling_counts_leaves_ranking_unchanged(self):
        docs = {
            "d1": {"a": 3, "b": 1, "c": 2},
            "d2": {"a": 1, "b": 4, "c": 2},
            "d3": {"a": 2, "b": 2, "c": 5},
        }
        base = rank_documents(make_corpus(docs), top_k=3)
        scaled = rank_documents(
            make_corpus({d: {t: 7 * c for t, c in cts.items()} for d, cts in docs.items()}),
            top_k=3,
        )
        assert [r.doc_id for r in base] == [r.doc_id for r in scaled]
        for a, b in zip(base, scaled):
            assert math.isclose(a.r, b.r, abs_tol=1e-12)

    def test_unscorable_documents_dropped_with_warning(self):
        corpus = make_corpus(
            {
                "good1": {"a": 1, "b": 2, "c": 4},
                "good2": {"a": 2, "b": 3, "c": 5},
                "loner": {"zz": 7},
            }
        )
        notes: list[str] = []
        ranked = rank_documents(corpus, top_k=5, notes=notes)
        assert notes == [
            "RankingWarning: excluding 'loner': insufficient overlap: "
            "'loner' shares 0 terms with the rest"
        ]
        assert {res.doc_id for res in ranked} == {"good1", "good2"}

    def test_validation(self):
        corpus = make_corpus({"d1": {"a": 1, "b": 1, "c": 1}})
        with pytest.raises(ValueError, match="at least 2"):
            rank_documents(corpus, top_k=5)
        two = make_corpus({"d1": {"a": 1, "b": 1, "c": 1}, "d2": {"a": 1, "b": 1, "c": 1}})
        with pytest.raises(ValueError, match="top_k"):
            rank_documents(two, top_k=0)


class TestJustification:
    def test_whole_space(self):
        outcomes = frozenset({1, 2, 3, 4})
        space = EventSpace(
            weights={i: 0.25 for i in range(1, 5)},
            belief_event=outcomes,
            testimonies=(outcomes,),
        )
        assert justification_score(space) == 1.0

    def test_disjoint_belief(self):
        space = EventSpace(
            weights={1: 0.5, 2: 0.5},
            belief_event=frozenset({1}),
            testimonies=(frozenset({2}),),
        )
        assert justification_score(space) == 0.0

    def test_uniform_four_outcome_example(self):
        space = EventSpace(
            weights={i: 0.25 for i in range(1, 5)},
            belief_event=frozenset({1, 2}),
            testimonies=(frozenset({1, 2, 3}), frozenset({1, 3})),
        )
        assert math.isclose(justification_score(space), 1.0 / 3.0, abs_tol=1e-12)

    def test_single_testimony_squares_denominator(self):
        space = EventSpace(
            weights={1: 0.5, 2: 0.25, 3: 0.25},
            belief_event=frozenset({1}),
            testimonies=(frozenset({1, 2}),),
        )
        # p(B∩t1)=0.5, denominator p(t1)^2 = 0.5625
        assert math.isclose(justification_score(space), 0.5 / 0.5625, abs_tol=1e-12)

    def test_untestable_testimony(self):
        space = EventSpace(
            weights={1: 1.0, 2: 0.0},
            belief_event=frozenset({1}),
            testimonies=(frozenset({2}),),
        )
        with pytest.raises(ValueError, match="untestable testimony"):
            justification_score(space)

    def test_zero_probability_conditioning_set(self):
        space = EventSpace(
            weights={1: 1.0, 2: 0.0},
            belief_event=frozenset({1}),
            testimonies=(frozenset({1}), frozenset({2})),
        )
        with pytest.raises(ValueError, match="untestable testimony"):
            justification_score(space)

    def test_space_validation(self):
        with pytest.raises(ValueError, match="empty event space"):
            EventSpace(weights={}, belief_event=frozenset(), testimonies=(frozenset({1}),))
        with pytest.raises(ValueError, match="sum to"):
            EventSpace(
                weights={1: 0.7, 2: 0.7},
                belief_event=frozenset(),
                testimonies=(frozenset({1}),),
            )
        with pytest.raises(ValueError, match="not a subset"):
            EventSpace(
                weights={1: 1.0},
                belief_event=frozenset({9}),
                testimonies=(frozenset({1}),),
            )
        with pytest.raises(ValueError, match="at least one testimony"):
            EventSpace(weights={1: 1.0}, belief_event=frozenset(), testimonies=())
