"""Tensor kernels: marginals, rescaling, scalings, entropy, file formats."""

import json
import math

import numpy as np
import pytest

from tensorot import (
    ContractViolation,
    DegenerateSliceError,
    MarginalFamily,
    Tensor,
    all_marginals,
    apply_scaling,
    entropy,
    exp_neg_scaled,
    inner,
    l1_distance,
    l1_norm,
    load_marginals,
    load_tensor,
    marginal,
    ones_tensor,
    outer,
    rescale_mode,
    save_marginals,
    save_tensor,
)
from tensorot.io import FileFormatError
from tensorot.tensor import _SHORT_SUM, _fsum, _marginals

from conftest import brute_inner, brute_marginal, random_marginals, random_positive_tensor


class TestTensorType:
    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            Tensor(np.ones((2, 3)))

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.float64(3.0))

    def test_immutable(self):
        A = Tensor([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises((ValueError, AttributeError)):
            A.data[0, 0] = 5.0

    def test_from_flat_roundtrip(self):
        A = Tensor.from_flat(3, 2, np.arange(8.0))
        assert A.data[1, 0, 1] == 5.0  # row-major, first index slowest

    def test_probability_flag(self):
        assert Tensor(np.full((2, 2), 0.25)).is_probability()
        assert not Tensor(np.full((2, 2), 0.3)).is_probability()


class TestMarginalFamily:
    def test_rejects_nonpositive(self):
        with pytest.raises(ContractViolation):
            MarginalFamily([[0.5, 0.5], [1.0, 0.0]])

    def test_rejects_unequal_masses(self):
        with pytest.raises(ContractViolation):
            MarginalFamily([[0.5, 0.5], [0.7, 0.4]])

    def test_mass(self):
        P = MarginalFamily([[0.6, 0.4], [0.5, 0.5]])
        assert P.h == pytest.approx(1.0, abs=1e-15)
        assert P.is_probability()


class TestMarginal:
    def test_product_measure(self, rng):
        P = random_marginals(rng, 3, 4)
        A = outer(P.p)
        for j in range(3):
            assert np.abs(marginal(A, j) - P.p[j]).max() < 1e-12

    def test_all_ones(self):
        A = ones_tensor(3, 2)
        for j in range(3):
            assert np.array_equal(marginal(A, j), [4.0, 4.0])

    def test_against_bruteforce(self, rng):
        A = random_positive_tensor(rng, 3, 3)
        for j in range(3):
            assert np.abs(marginal(A, j) - brute_marginal(A, j)).max() < 1e-12

    def test_mass_conservation(self, rng):
        A = random_positive_tensor(rng, 3, 3)
        total = l1_norm(A)
        for j in range(3):
            assert math.fsum(marginal(A, j).tolist()) == pytest.approx(total, rel=1e-10)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            marginal(ones_tensor(2, 2), 2)

    def test_order_one(self):
        A = Tensor([0.3, 0.7])
        assert np.array_equal(marginal(A, 0), [0.3, 0.7])


class TestAllMarginals:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_matches_per_mode_sums(self, rng, d, n, zeros):
        data = rng.random((n,) * d)
        if zeros:
            data[rng.random(data.shape) < 0.3] = 0.0
        A = Tensor(data)
        M = all_marginals(A)
        assert M.shape == (d, n)
        want = np.stack([marginal(A, j) for j in range(d)])
        assert np.allclose(M, want, rtol=1e-14, atol=0.0)
        assert np.array_equal(A.data, data)

    def test_leaves_a_writable_input_alone(self, rng):
        data = rng.random((4,) * 4)
        before = data.copy()
        M = _marginals(data)
        assert np.array_equal(data, before)
        assert M.shape == (4, 4)


class TestRescaleMode:
    def test_identity(self, rng):
        A = random_positive_tensor(rng, 3, 2)
        out = rescale_mode(A, marginal(A, 1), 1)
        assert np.abs(out.data - A.data).max() < 1e-14

    def test_hand_example(self):
        A = ones_tensor(2, 2)
        out = rescale_mode(A, np.array([0.6, 0.4]), 0)
        assert np.allclose(out.data, [[0.3, 0.3], [0.2, 0.2]], atol=1e-15)
        assert l1_distance(out, A) == pytest.approx(3.0, abs=1e-12)

    def test_l1_identity(self, rng):
        for _ in range(20):
            A = random_positive_tensor(rng, 3, 3)
            r = 0.1 + rng.random(3)
            j = int(rng.integers(3))
            moved = l1_distance(rescale_mode(A, r, j), A)
            expected = np.abs(r - marginal(A, j)).sum()
            assert moved == pytest.approx(expected, rel=1e-10)

    def test_exact_marginal_after(self, rng):
        A = random_positive_tensor(rng, 3, 3)
        r = 0.1 + rng.random(3)
        out = rescale_mode(A, r, 2)
        assert np.abs(marginal(out, 2) - r).max() < 1e-13

    def test_zero_slice(self):
        A = Tensor([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DegenerateSliceError):
            rescale_mode(A, np.array([0.5, 0.5]), 0)


class TestApplyScaling:
    def test_zero_exponents(self, rng):
        A = random_positive_tensor(rng, 3, 2)
        assert np.array_equal(apply_scaling(A, np.zeros((3, 2))).data, A.data)

    def test_hand_example(self):
        A = ones_tensor(2, 2)
        X = np.array([[math.log(2), 0.0], [0.0, math.log(3)]])
        assert np.allclose(apply_scaling(A, X).data, [[2.0, 6.0], [1.0, 3.0]], atol=1e-12)

    def test_exponent_additivity(self, rng):
        A = random_positive_tensor(rng, 2, 3)
        X = rng.normal(size=(2, 3))
        Y = rng.normal(size=(2, 3))
        lhs = apply_scaling(apply_scaling(A, X), Y)
        rhs = apply_scaling(A, X + Y)
        assert np.abs(lhs.data - rhs.data).max() < 1e-12

    def test_zero_pattern_bitwise(self, rng):
        data = rng.random((3, 3, 3))
        data[data < 0.4] = 0.0
        A = Tensor(data)
        out = apply_scaling(A, rng.normal(size=(3, 3)))
        assert np.array_equal(out.data == 0.0, data == 0.0)

    def test_rejects_nonfinite_exponents(self):
        with pytest.raises(ContractViolation):
            apply_scaling(ones_tensor(2, 2), np.array([[np.inf, 0.0], [0.0, 0.0]]))


class TestInner:
    def test_total_mass(self, rng):
        U = random_positive_tensor(rng, 3, 2)
        U = Tensor(U.data / l1_norm(U))
        assert inner(ones_tensor(3, 2), U) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        A = Tensor([[0.0, 1.0], [1.0, 0.0]])
        assert inner(A, Tensor(np.zeros((2, 2)))) == 0.0

    def test_hand_example(self):
        A = Tensor([[0.0, 1.0], [1.0, 0.0]])
        B = Tensor([[0.5, 0.0], [0.0, 0.5]])
        assert inner(A, B) == 0.0

    def test_against_bruteforce(self, rng):
        A = random_positive_tensor(rng, 3, 3)
        B = random_positive_tensor(rng, 3, 3)
        assert inner(A, B) == pytest.approx(brute_inner(A, B), rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            inner(ones_tensor(2, 2), ones_tensor(3, 2))


def _sum_outcome(total, values):
    """Bits of the sum, or the exception class it raised."""
    try:
        return float.hex(total(values))
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _reference_sum(values):
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())


class TestFsum:
    """_fsum must return math.fsum's bits whether or not it takes the numpy passes."""

    def assert_same(self, values):
        assert _sum_outcome(_fsum, values) == _sum_outcome(_reference_sum, values)

    @pytest.mark.parametrize("size", [1, 7, _SHORT_SUM, _SHORT_SUM + 1, 4099, 65537, 262144])
    def test_random_arrays(self, rng, size):
        self.assert_same(rng.random(size))
        self.assert_same(-rng.random(size))
        self.assert_same(rng.standard_normal(size))
        self.assert_same(rng.random((size, 1)) * 1e-3 - 1e-4)
        self.assert_same(rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size))
        self.assert_same(rng.standard_normal(size) * 10.0 ** rng.integers(-12, 12, size))
        self.assert_same(-np.log(rng.random(size)) * rng.random(size) / size)

    @pytest.mark.parametrize("size", [_SHORT_SUM, _SHORT_SUM + 1, 40000])
    def test_exact_cancellation(self, rng, size):
        half = rng.standard_normal(size // 2) * 10.0 ** rng.integers(-20, 20, size // 2)
        pairs = np.concatenate([half, -half])
        rng.shuffle(pairs)
        self.assert_same(pairs)
        self.assert_same(np.concatenate([pairs, [1e-300]]))
        self.assert_same(np.concatenate([pairs, [2.0**-60, 1.0]]))

    @pytest.mark.parametrize("size", [_SHORT_SUM, _SHORT_SUM + 1, 40000])
    def test_subnormals(self, rng, size):
        self.assert_same(rng.integers(-1000, 1000, size) * 5e-324)
        self.assert_same(rng.random(size) * 1e-310)
        self.assert_same(np.ldexp(rng.choice([-1.0, 1.0], size), rng.integers(-1074, 1000, size)))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_residuals_summing_past_a_rounding_boundary(self, sign):
        # 4094 residuals of 2**-4 left by the first pass add up to 255.875,
        # which moves the total 2**60 to its next float: only a bound of
        # 2**m times the largest residual, over both signs, brackets that.
        x = np.full(4095, sign * 2.0**-4)
        x[0] = 2.0**60
        self.assert_same(x)
        assert _fsum(x) == 2.0**60 + sign * 256.0

    def test_rounding_ties(self, rng):
        for size in (_SHORT_SUM + 1, 5000):
            x = rng.integers(0, 2**20, size).astype(float)
            x[0] = 2.0**60
            for tail in (0.5, 1.5, 0.0, -0.5):
                x[1] = tail
                self.assert_same(x)

    def test_large_sums_skip_the_float_list(self, rng, monkeypatch):
        x = rng.random((24,) * 4)
        expected = _reference_sum(x)
        lengths = []

        def recording_fsum(values, fsum=math.fsum):
            lengths.append(len(values))
            return fsum(values)

        monkeypatch.setattr(math, "fsum", recording_fsum)
        total = _fsum(x)
        monkeypatch.undo()
        assert total == expected
        assert lengths and max(lengths) <= 4

    @pytest.mark.parametrize("values", [
        [], [-0.0], [0.0, -0.0], np.zeros(5000), -np.zeros(5000), np.zeros((64, 64, 64)),
    ])
    def test_zero_totals(self, values):
        self.assert_same(values)

    @pytest.mark.parametrize("special", [
        [np.inf], [-np.inf], [np.nan], [np.inf, -np.inf], [1e308, 1e308], [-1e308, -1e308],
    ])
    @pytest.mark.parametrize("size", [4, _SHORT_SUM + 1, 5000])
    def test_nonfinite_and_overflow(self, rng, special, size):
        x = rng.random(size)
        x[: len(special)] = special
        rng.shuffle(x)
        self.assert_same(x)


class TestEntropy:
    def test_point_mass(self):
        data = np.zeros((2, 2))
        data[0, 0] = 1.0
        assert entropy(Tensor(data)) == 0.0

    def test_uniform(self):
        n, d = 3, 2
        U = Tensor(np.full((n,) * d, 1.0 / n**d))
        assert entropy(U) == pytest.approx(d * math.log(n), abs=1e-12)

    def test_product_additivity(self, rng):
        P = random_marginals(rng, 3, 4)
        U = outer(P.p)
        per_vector = sum(-math.fsum((row * np.log(row)).tolist()) for row in P.p)
        assert entropy(U) == pytest.approx(per_vector, abs=1e-10)

    def test_range(self, rng):
        for _ in range(10):
            data = rng.random((3, 3))
            U = Tensor(data / data.sum())
            assert -1e-12 <= entropy(U) <= 2 * math.log(3) + 1e-9

    def test_negative_entry(self):
        with pytest.raises(ContractViolation):
            entropy(Tensor([[-0.1, 0.6], [0.3, 0.2]]))


class TestExpNegScaled:
    def test_zero_cost(self):
        out = exp_neg_scaled(Tensor(np.zeros((2, 2))), 3.7)
        assert np.array_equal(out.data, np.ones((2, 2)))

    def test_hand_example(self):
        out = exp_neg_scaled(Tensor([[0.0, 1.0], [1.0, 0.0]]), 1.0)
        e = math.exp(-1.0)
        assert np.allclose(out.data, [[1.0, e], [e, 1.0]], rtol=0, atol=1e-16)

    def test_shift_invariance(self, rng):
        C = Tensor(rng.random((2, 2, 2)))
        t = 0.8
        lam = 2.5
        lhs = exp_neg_scaled(Tensor(C.data + t), lam)
        rhs = exp_neg_scaled(C, lam)
        assert np.allclose(lhs.data, math.exp(-lam * t) * rhs.data, rtol=1e-12)

    def test_strictly_positive(self, rng):
        out = exp_neg_scaled(Tensor(rng.random((3, 3)) * 50), 10.0)
        assert out.data.min() > 0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ContractViolation):
            exp_neg_scaled(ones_tensor(2, 2), 0.0)


class TestOuter:
    def test_single_vector(self):
        out = outer([np.array([0.2, 0.8])])
        assert np.array_equal(out.data, [0.2, 0.8])

    def test_hand_example(self):
        out = outer([np.array([0.5, 0.5]), np.array([0.6, 0.4])])
        assert np.allclose(out.data, [[0.3, 0.2], [0.3, 0.2]], atol=1e-15)

    def test_marginals_match(self, rng):
        P = random_marginals(rng, 4, 3)
        A = outer(P.p)
        for j in range(4):
            assert np.abs(marginal(A, j) - P.p[j]).max() < 1e-12


class TestFileFormats:
    def test_tensor_roundtrip_bitstable(self, rng, tmp_path):
        A = random_positive_tensor(rng, 3, 3)
        path = tmp_path / "a.json"
        save_tensor(A, path)
        B = load_tensor(path)
        assert np.array_equal(A.data, B.data)
        save_tensor(B, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_marginals_roundtrip(self, rng, tmp_path):
        P = random_marginals(rng, 3, 4)
        path = tmp_path / "p.json"
        save_marginals(P, path)
        Q = load_marginals(path)
        assert np.array_equal(P.p, Q.p)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d": 2, "data": [1.0] * 4}))
        with pytest.raises(FileFormatError, match="'n'"):
            load_tensor(path)

    def test_wrong_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d": 2, "n": 2, "data": [1.0] * 5}))
        with pytest.raises(FileFormatError, match="data"):
            load_tensor(path)

    def test_marginals_must_be_positive(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": [[0.5, 0.5], [1.0, 0.0]]}))
        with pytest.raises(FileFormatError, match="'p'"):
            load_marginals(path)

    def test_all_marginals_shape(self, rng):
        A = random_positive_tensor(rng, 3, 2)
        M = all_marginals(A)
        assert M.shape == (3, 2)
        for j in range(3):
            assert np.array_equal(M[j], marginal(A, j))
