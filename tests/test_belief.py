import math

import pytest

from layerstack import (
    Frame,
    MassFunction,
    belief,
    combine,
    keyword_belief_update,
    make_mass,
    plausibility,
    vacuous_mass,
)
from layerstack.belief import MAX_FRAME_SIZE


@pytest.fixture
def theta2():
    return Frame(elements=("b1", "b2"))


@pytest.fixture
def simple_support(theta2):
    return make_mass(theta2, {("b1",): 0.6, ("b1", "b2"): 0.4})


class TestFrame:
    def test_mask_round_trip(self):
        frame = Frame(elements=("x", "y", "z"))
        mask = frame.mask(("x", "z"))
        assert mask == 0b101
        assert frame.names(mask) == ("x", "z")

    def test_complement_and_singleton(self):
        frame = Frame(elements=("x", "y", "z"))
        assert frame.full_mask & ~frame.mask(("y",)) == frame.mask(("x", "z"))
        assert frame.singleton("z") == 0b100

    def test_subsets_enumeration(self):
        frame = Frame(elements=("a", "b", "c"))
        assert frame.full_mask == 0b111

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            Frame(elements=())
        with pytest.raises(ValueError, match="unique"):
            Frame(elements=("a", "a"))
        with pytest.raises(ValueError, match="non-empty"):
            Frame(elements=("a", ""))
        with pytest.raises(ValueError, match="larger than"):
            Frame(elements=tuple(f"e{i}" for i in range(MAX_FRAME_SIZE + 1)))

    def test_unknown_element_and_bad_mask(self):
        frame = Frame(elements=("a", "b"))
        with pytest.raises(ValueError, match="not in frame"):
            frame.mask(("zz",))
        with pytest.raises(ValueError, match="outside frame"):
            frame.mask(8)
        with pytest.raises(ValueError, match="outside frame"):
            frame.names(8)


class TestMassConstruction:
    def test_vacuous(self, theta2):
        m = vacuous_mass(theta2)
        assert m.masses == {theta2.full_mask: 1.0}

    def test_make_mass_merges_duplicates(self, theta2):
        m = make_mass(theta2, [(("b1",), 0.3), ((0b01), 0.3), (("b1", "b2"), 0.4)])
        assert m.masses[theta2.singleton("b1")] == 0.6

    def test_simple_support_valid(self, simple_support, theta2):
        assert tuple(simple_support.masses) == (0b01, 0b11)

    def test_sum_violation_rejected(self, theta2):
        with pytest.raises(ValueError, match="sum to"):
            make_mass(theta2, {("b1",): 0.6, ("b2",): 0.6})

    def test_empty_set_mass_rejected(self, theta2):
        with pytest.raises(ValueError, match="empty set"):
            make_mass(theta2, {(): 1.0})
        with pytest.raises(ValueError, match="empty set"):
            MassFunction(frame=theta2, masses={0: 1.0})

    def test_focal_element_outside_frame_rejected(self, theta2):
        with pytest.raises(ValueError, match=r"^focal element 0x4 outside frame$"):
            MassFunction(frame=theta2, masses={0b100: 1.0})

    def test_non_positive_mass_rejected(self, theta2):
        with pytest.raises(ValueError, match="non-positive"):
            make_mass(theta2, [(("b1",), 0.0), (("b1", "b2"), 1.0)])

    def test_exact_masses_stored_bit_identical(self, theta2):
        m = MassFunction(frame=theta2, masses={0b01: 0.8, 0b11: 0.2})
        assert m.masses == {0b01: 0.8, 0b11: 0.2}

    def test_tiny_drift_renormalized(self, theta2):
        m = MassFunction(frame=theta2, masses={0b01: 0.5 + 1e-10, 0b11: 0.5})
        assert math.isclose(math.fsum(m.masses.values()), 1.0, abs_tol=1e-15)


class TestBeliefPlausibility:
    def test_vacuous_ignorance(self, theta2):
        m = vacuous_mass(theta2)
        assert belief(m, ("b1",)) == 0.0
        assert plausibility(m, ("b1",)) == 1.0
        assert belief(m, ("b1", "b2")) == 1.0

    def test_simple_support_values(self, simple_support):
        assert belief(simple_support, ("b1",)) == 0.6
        assert belief(simple_support, ("b2",)) == 0.0
        assert belief(simple_support, ("b1", "b2")) == 1.0
        assert plausibility(simple_support, ("b1",)) == 1.0
        assert plausibility(simple_support, ("b2",)) == 0.4

    def test_empty_hypothesis(self, simple_support):
        assert plausibility(simple_support, ()) == 0.0
        assert belief(simple_support, ()) == 0.0

    def test_bayesian_mass_reduces_to_probability(self):
        frame = Frame(elements=("a", "b", "c"))
        m = make_mass(frame, {("a",): 0.2, ("b",): 0.3, ("c",): 0.5})
        assert math.isclose(belief(m, ("a", "c")), 0.7, abs_tol=1e-15)
        assert math.isclose(plausibility(m, ("a", "c")), 0.7, abs_tol=1e-15)

    def test_duality(self, simple_support, theta2):
        for mask in range(theta2.full_mask + 1):
            pl = plausibility(simple_support, mask)
            bel_comp = belief(simple_support, theta2.full_mask & ~mask)
            assert math.isclose(pl, 1.0 - bel_comp, abs_tol=1e-12)


class TestCombine:
    def test_vacuous_is_exact_identity(self, theta2, simple_support):
        assert combine(simple_support, vacuous_mass(theta2)).masses == simple_support.masses
        assert combine(vacuous_mass(theta2), simple_support).masses == simple_support.masses

    def test_hand_enumerated_example(self, theta2):
        m1 = make_mass(theta2, {("b1",): 0.6, ("b1", "b2"): 0.4})
        m2 = make_mass(theta2, {("b1",): 0.5, ("b1", "b2"): 0.5})
        out = combine(m1, m2)
        b1 = theta2.singleton("b1")
        assert math.isclose(out.masses[b1], 0.8, abs_tol=1e-12)
        assert math.isclose(out.masses[theta2.full_mask], 0.2, abs_tol=1e-12)

    def test_total_conflict_rejected(self, theta2):
        m1 = MassFunction(frame=theta2, masses={theta2.singleton("b1"): 1.0})
        m2 = MassFunction(frame=theta2, masses={theta2.singleton("b2"): 1.0})
        with pytest.raises(ValueError, match="irreconcilable evidence"):
            combine(m1, m2)

    def test_different_frames_rejected(self, theta2):
        other = Frame(elements=("x", "y"))
        with pytest.raises(ValueError, match="different frames"):
            combine(vacuous_mass(theta2), vacuous_mass(other))

    def test_commutative(self, theta2):
        m1 = make_mass(theta2, {("b1",): 0.7, ("b1", "b2"): 0.3})
        m2 = make_mass(theta2, {("b2",): 0.4, ("b1", "b2"): 0.6})
        ab = combine(m1, m2).masses
        ba = combine(m2, m1).masses
        assert ab.keys() == ba.keys()
        for key in ab:
            assert math.isclose(ab[key], ba[key], abs_tol=1e-12)

    def test_partial_conflict_renormalizes(self, theta2):
        m1 = make_mass(theta2, {("b1",): 0.8, ("b1", "b2"): 0.2})
        m2 = make_mass(theta2, {("b2",): 0.5, ("b1", "b2"): 0.5})
        out = combine(m1, m2)
        # K = 0.8*0.5 = 0.4; surviving products renormalized by 0.6
        assert math.isclose(out.masses[theta2.singleton("b1")], 0.4 / 0.6, abs_tol=1e-12)
        assert math.isclose(out.masses[theta2.singleton("b2")], 0.1 / 0.6, abs_tol=1e-12)
        assert math.isclose(out.masses[theta2.full_mask], 0.1 / 0.6, abs_tol=1e-12)


class TestKeywordBeliefUpdate:
    def test_all_zero_evidence_returns_prior(self, theta2, simple_support):
        out = keyword_belief_update(simple_support, {"b1": 0.0, "b2": 0.0})
        assert out.masses == simple_support.masses

    def test_single_support_from_vacuous(self, theta2):
        out = keyword_belief_update(vacuous_mass(theta2), {"b1": 0.7})
        assert math.isclose(out.masses[theta2.singleton("b1")], 0.7, abs_tol=1e-12)
        assert math.isclose(out.masses[theta2.full_mask], 0.3, abs_tol=1e-12)

    def test_update_strengthens_prior(self, theta2):
        prior = make_mass(theta2, {("b1",): 0.5, ("b1", "b2"): 0.5})
        out = keyword_belief_update(prior, {"b1": 0.5})
        assert math.isclose(out.masses[theta2.singleton("b1")], 0.75, abs_tol=1e-12)
        assert math.isclose(out.masses[theta2.full_mask], 0.25, abs_tol=1e-12)

    def test_certain_evidence(self, theta2):
        out = keyword_belief_update(vacuous_mass(theta2), {"b2": 1.0})
        assert out.masses == {theta2.singleton("b2"): 1.0}

    @pytest.mark.parametrize("score", [0.5, 1.0])
    def test_one_element_frame_evidence_is_vacuous(self, score):
        # the keyword's singleton is the whole frame, so {keyword: s} is no evidence
        frame = Frame(elements=("a",))
        prior = vacuous_mass(frame)
        assert keyword_belief_update(prior, {"a": score}) is prior

    def test_two_element_frame_folds_each_simple_support(self, theta2, simple_support):
        evidence = {"b2": 0.3, "b1": 0.45}
        expected = simple_support
        for keyword in sorted(evidence):
            support = {theta2.singleton(keyword): evidence[keyword]}
            support[theta2.full_mask] = 1.0 - evidence[keyword]
            expected = combine(expected, MassFunction(frame=theta2, masses=support))
        out = keyword_belief_update(simple_support, evidence)
        assert out.masses == expected.masses

    def test_score_out_of_range_rejected(self, theta2):
        with pytest.raises(ValueError, match="outside"):
            keyword_belief_update(vacuous_mass(theta2), {"b1": 1.2})

    def test_order_is_lexicographic_hence_deterministic(self):
        frame = Frame(elements=("kw2", "kw1"))
        evidence = {"kw2": 0.4, "kw1": 0.3}
        a = keyword_belief_update(vacuous_mass(frame), evidence)
        b = keyword_belief_update(vacuous_mass(frame), dict(reversed(evidence.items())))
        assert a.masses == b.masses
