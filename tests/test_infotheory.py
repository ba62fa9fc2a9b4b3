import math

import numpy as np
import pytest

from layerstack import (
    JointDistribution,
    TokenDistribution,
    bitstream_entropy,
    count_entropy,
    hartley_entropy,
    joint_entropy,
    residual_entropy,
    shannon_entropy,
)

# binary entropy of p=0.25, derived by hand:
# 0.25*log2(4) + 0.75*log2(4/3) = 0.5 + 0.75*(2 - log2(3))
H_QUARTER = 0.8112781244591328

# the 0.25-flip channel: T uniform over {0,1}, R = T flipped with prob 0.25
FLIP_JOINT = {
    (0, 0): 0.375,
    (0, 1): 0.125,
    (1, 0): 0.125,
    (1, 1): 0.375,
}
# H(joint) = 2*0.375*log2(8/3) + 2*0.125*log2(8) = 1 + H_QUARTER, by hand
FLIP_JOINT_BITS = 1.811278124459133


class TestHartley:
    def test_single_message_is_exactly_zero(self):
        assert hartley_entropy(1) == 0.0

    def test_binary_choice(self):
        assert hartley_entropy(2) == 1.0

    def test_eight_messages(self):
        assert hartley_entropy(8) == 3.0

    def test_matches_uniform_shannon(self):
        for m in (1, 2, 3, 7, 64, 1000):
            assert math.isclose(
                hartley_entropy(m),
                shannon_entropy(TokenDistribution.uniform(m)),
                abs_tol=1e-12,
            )

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="empty ensemble"):
            hartley_entropy(0)


class TestCountEntropy:
    def test_zero_counts_skipped(self):
        assert count_entropy([3, 1, 0]) == count_entropy([3, 1])
        assert math.isclose(count_entropy([3, 1, 0]), H_QUARTER, abs_tol=1e-12)
        assert count_entropy([0, 5, 0]) == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="sum to zero"):
            count_entropy([0])
        with pytest.raises(ValueError, match="sum to zero"):
            count_entropy([])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative count"):
            count_entropy([3, -1, 2])


class TestTokenDistribution:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty distribution"):
            TokenDistribution({})

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            TokenDistribution({"a": 1.5})
        with pytest.raises(ValueError, match="outside"):
            TokenDistribution({"a": 0.0, "b": 1.0})

    def test_sum_tolerance(self):
        with pytest.raises(ValueError, match="sum to"):
            TokenDistribution({"a": 0.6, "b": 0.6})
        TokenDistribution({"a": 0.5, "b": 0.5 + 5e-10})  # within 1e-9

    def test_uniform(self):
        dist = TokenDistribution.uniform(4)
        assert set(dist.probabilities.values()) == {0.25}
        with pytest.raises(ValueError):
            TokenDistribution.uniform(0)


class TestShannon:
    def test_uniform_four(self):
        assert shannon_entropy(TokenDistribution.uniform(4)) == 2.0

    def test_certainty(self):
        assert shannon_entropy(TokenDistribution({"a": 1.0})) == 0.0

    def test_half_quarter_quarter(self):
        dist = TokenDistribution({"a": 0.5, "b": 0.25, "c": 0.25})
        assert math.isclose(shannon_entropy(dist), 1.5, abs_tol=1e-12)

    def test_binary_quarter(self):
        dist = TokenDistribution({"a": 0.25, "b": 0.75})
        assert math.isclose(shannon_entropy(dist), H_QUARTER, abs_tol=1e-12)

    def test_permutation_invariant_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            weights = rng.random(n) + 1e-9
            probs = weights / weights.sum()
            base = TokenDistribution({i: float(p) for i, p in enumerate(probs)})
            order = rng.permutation(n)
            shuffled = TokenDistribution(
                {i: float(probs[j]) for i, j in enumerate(order)}
            )
            assert math.isclose(
                shannon_entropy(base), shannon_entropy(shuffled), abs_tol=1e-12
            )
            assert shannon_entropy(base) <= math.log2(n) + 1e-12

    def test_maximized_at_uniform(self):
        tilted = TokenDistribution({"a": 0.7, "b": 0.3})
        assert shannon_entropy(tilted) < shannon_entropy(TokenDistribution.uniform(2))


class TestJoint:
    def test_pair_keys_required(self):
        with pytest.raises(ValueError, match="not a pair"):
            JointDistribution({("a",): 1.0})
        with pytest.raises(ValueError, match="empty joint"):
            JointDistribution({})

    def test_independent_fair_bits(self):
        joint = JointDistribution({(t, r): 0.25 for t in (0, 1) for r in (0, 1)})
        assert joint_entropy(joint) == 2.0
        assert math.isclose(residual_entropy(joint), 1.0, abs_tol=1e-12)

    def test_copy_channel(self):
        joint = JointDistribution({(0, 0): 0.5, (1, 1): 0.5})
        assert joint_entropy(joint) == 1.0
        assert math.isclose(residual_entropy(joint), 0.0, abs_tol=1e-12)

    def test_uniform_eight_pairs(self):
        joint = JointDistribution({(i, j): 0.125 for i in range(4) for j in range(2)})
        assert joint_entropy(joint) == 3.0

    def test_flip_channel_values(self):
        joint = JointDistribution(FLIP_JOINT)
        assert math.isclose(joint_entropy(joint), FLIP_JOINT_BITS, abs_tol=1e-12)
        marginal = joint.marginal_transmitter()
        assert math.isclose(shannon_entropy(marginal), 1.0, abs_tol=1e-12)
        assert math.isclose(residual_entropy(joint), H_QUARTER, abs_tol=1e-12)

    def test_marginals(self):
        joint = JointDistribution({(0, "x"): 0.25, (0, "y"): 0.25, (1, "x"): 0.5})
        t = joint.marginal_transmitter().probabilities
        r = joint.marginal_receiver().probabilities
        assert t == {0: 0.5, 1: 0.5}
        assert r == {"x": 0.75, "y": 0.25}

    def test_residual_matches_conditional_expansion(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            nt, nr = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            weights = rng.random((nt, nr)) + 1e-9
            probs = weights / weights.sum()
            joint = JointDistribution(
                {(i, j): float(probs[i, j]) for i in range(nt) for j in range(nr)}
            )
            expansion = 0.0
            for i in range(nt):
                pt = float(probs[i].sum())
                expansion += pt * math.fsum(
                    (p / pt) * math.log2(pt / p) for p in probs[i]
                )
            actual = residual_entropy(joint)
            assert math.isclose(actual, expansion, abs_tol=1e-9)
            assert actual >= -1e-9


class TestBitstream:
    def test_constant_bytes(self):
        assert bitstream_entropy(b"\x07" * 100) == 0.0

    def test_two_equal_values(self):
        assert bitstream_entropy(b"\x00\x01" * 50) == 1.0

    def test_all_byte_values(self):
        assert bitstream_entropy(bytes(range(256))) == 8.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty input"):
            bitstream_entropy(b"")
