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
from tensorot import rounding, scaling, tensor, transport
from tensorot.io import FileFormatError
from tensorot.tensor import (_SHORT_SUM, _SUM_BLOCK, _SUM_LEVELS, _abs_diff, _fsum, _marginals,
                             _xlogx)

from conftest import brute_inner, brute_marginal, random_marginals, random_positive_tensor


class TestTensorType:
    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            Tensor(np.ones((2, 3)))

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.float64(3.0))

    @pytest.mark.parametrize("shape", [(0,), (0, 0)])
    def test_rejects_empty(self, shape):
        with pytest.raises(ValueError, match="n >= 1"):
            Tensor(np.zeros(shape))

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        data = np.ones((3, 3))
        data[1, 2] = bad
        with pytest.raises(ContractViolation, match="finite"):
            Tensor(data)
        with pytest.raises(ContractViolation, match="finite"):
            Tensor.from_flat(2, 3, data.ravel())

    def test_copies_the_callers_array(self):
        data = np.ones((2, 2))
        A = Tensor(data)
        data[0, 0] = 7.0
        assert A.data[0, 0] == 1.0
        assert data.flags.writeable

    def test_adopt_freezes_without_a_copy(self):
        data = np.ones((2, 2))
        A = Tensor._adopt(data)
        assert A.data is data
        assert not data.flags.writeable

    def test_adopt_copies_a_strided_array(self):
        data = np.arange(16.0).reshape(4, 4)
        A = Tensor._adopt(data[::2, ::2])
        assert A.data.flags.c_contiguous
        assert data.flags.writeable
        assert A.data.tolist() == [[0.0, 2.0], [8.0, 10.0]]

    def test_adopt_runs_the_same_checks(self):
        with pytest.raises(ContractViolation, match="finite"):
            Tensor._adopt(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            Tensor._adopt(np.ones((2, 3)))


class TestMarginalFamily:
    def test_rejects_nonpositive(self):
        with pytest.raises(ContractViolation):
            MarginalFamily([[0.5, 0.5], [1.0, 0.0]])

    def test_rejects_unequal_masses(self):
        with pytest.raises(ContractViolation):
            MarginalFamily([[0.5, 0.5], [0.7, 0.4]])

    @pytest.mark.parametrize("vectors", [[], [[]], np.zeros((0, 3))], ids=["[]", "[[]]", "0x3"])
    def test_rejects_empty(self, vectors):
        with pytest.raises(ContractViolation, match="n >= 1"):
            MarginalFamily(vectors)

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


def _random_arrays(rng, size):
    return [
        rng.random(size),
        -rng.random(size),
        rng.standard_normal(size),
        rng.random((size, 1)) * 1e-3 - 1e-4,
        rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size),
        rng.standard_normal(size) * 10.0 ** rng.integers(-12, 12, size),
        -np.log(rng.random(size)) * rng.random(size) / size,
    ]


def _cancellations(rng, size):
    half = rng.standard_normal(size // 2) * 10.0 ** rng.integers(-20, 20, size // 2)
    pairs = np.concatenate([half, -half])
    rng.shuffle(pairs)
    return [pairs, np.concatenate([pairs, [1e-300]]), np.concatenate([pairs, [2.0**-60, 1.0]])]


def _subnormals(rng, size):
    return [
        rng.integers(-1000, 1000, size) * 5e-324,
        rng.random(size) * 1e-310,
        np.ldexp(rng.choice([-1.0, 1.0], size), rng.integers(-1074, 1000, size)),
    ]


_SPECIALS = [[np.inf], [-np.inf], [np.nan], [np.inf, -np.inf], [1e308, 1e308], [-1e308, -1e308]]


def _specials(rng, size):
    cases = []
    for special in _SPECIALS:
        x = rng.random(size)
        x[: len(special)] = special
        rng.shuffle(x)
        cases.append(x)
    return cases


def _signed_zeros(size):
    return [np.zeros(size), -np.zeros(size), np.concatenate([np.zeros(size - 1), [-0.0]])]


def _finite_cases(rng, size):
    return (_random_arrays(rng, size) + _cancellations(rng, size) + _subnormals(rng, size)
            + _signed_zeros(size))


def _passes_settle(values):
    """Whether extraction levels over whole arrays, without blocks, settle
    the sum before the float-list fallback: the blockwise pass may fall
    back only where these do not."""
    x = np.asarray(values, dtype=float).ravel()
    m = (x.size + 1).bit_length()
    mu = float(np.abs(x).max())
    r, parts = x, []
    for _ in range(_SUM_LEVELS):
        e = m + math.frexp(mu)[1]
        if not (math.isfinite(mu) and -1000 < e < 1000):
            return False
        q = (r + math.ldexp(1.0, e)) - math.ldexp(1.0, e)
        parts.append(math.fsum(q.tolist()))
        r = r - q
        mu = float(np.abs(r).max())
        bound = math.ldexp(mu, m)
        low = math.fsum(parts + [-bound])
        if low != 0.0 and low == math.fsum(parts + [bound]):
            return True
        if bound == 0.0:
            return False
    return False


# around the short path's end, a one-block pass of about 1,024 entries (the
# size of an n=10, d=3 plan), one full block and several blocks
_BLOCK_SIZES = [_SHORT_SUM - 1, _SHORT_SUM, _SHORT_SUM + 1, 1023, 1024, 1025, _SUM_BLOCK - 1,
                _SUM_BLOCK, _SUM_BLOCK + 1, 3 * _SUM_BLOCK + 7]


class TestFsum:
    """_fsum must return math.fsum's bits whether or not it takes the numpy passes."""

    def assert_same(self, values):
        assert _sum_outcome(_fsum, values) == _sum_outcome(_reference_sum, values)

    @pytest.mark.parametrize("size", [1, 7, _SHORT_SUM, _SHORT_SUM + 1, 1024, 1025, 4099, 65537,
                                      262144])
    def test_random_arrays(self, rng, size):
        for x in _random_arrays(rng, size):
            self.assert_same(x)

    @pytest.mark.parametrize("size", [_SHORT_SUM, _SHORT_SUM + 1, 1024, 1025, 40000])
    def test_exact_cancellation(self, rng, size):
        for x in _cancellations(rng, size):
            self.assert_same(x)

    @pytest.mark.parametrize("size", [_SHORT_SUM, _SHORT_SUM + 1, 1024, 1025, 40000])
    def test_subnormals(self, rng, size):
        for x in _subnormals(rng, size):
            self.assert_same(x)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_residuals_summing_past_a_rounding_boundary(self, sign):
        # 4094 residuals of 2**-4 left by the first pass add up to 255.875,
        # which moves the total 2**60 to its next float: only a bound of
        # 2**m times the largest residual, over both signs, brackets that.
        x = np.full(4095, sign * 2.0**-4)
        x[0] = 2.0**60
        self.assert_same(x)
        assert _fsum(x) == 2.0**60 + sign * 256.0

    def test_residuals_of_many_blocks_summing_past_a_rounding_boundary(self):
        # each block spends its levels on the pairs +-2**60, +-2**20 and
        # +-2**-20 and keeps its entries of 2**-62 as residuals; they add up
        # to about 2**-43.7 and move the total, 2**-45 below the midpoint
        # 2**60 + 128, past it: a bound of 2**m with m taken from one block's
        # size instead of the whole array's would miss that
        x = np.full(10 * _SUM_BLOCK, 2.0**-62)
        for start in range(0, x.size, _SUM_BLOCK):
            x[start:start + 6] = [2.0**60, -2.0**60, 2.0**20, -2.0**20, 2.0**-20, -2.0**-20]
        x[6:8] = [2.0**60, 128.0 - 2.0**-45]
        self.assert_same(x)
        assert _fsum(x) == 2.0**60 + 256.0

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
        assert lengths and max(lengths) <= _SUM_LEVELS * math.ceil(x.size / _SUM_BLOCK) + 1

    @pytest.mark.parametrize("size", _BLOCK_SIZES[2:])
    def test_op_runs_once_per_block(self, rng, size):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0].size)
            return np.multiply(*args, **kwargs)

        x, y = rng.random(size), rng.random(size)
        assert _fsum(x, y, op=spy) == _reference_sum(x * y)
        assert len(calls) == math.ceil(size / _SUM_BLOCK)

    @pytest.mark.parametrize("size", [_SHORT_SUM + 1, 1025, _SUM_BLOCK + 1, 24**4])
    def test_kernel_like_arrays(self, rng, size):
        # a normalized kernel exp(-500 C) and its cost terms C * K, as in a
        # solve: entries spread over some 200 decades
        C = rng.random(size)
        K = np.exp(-500.0 * (C - C.min()))
        K /= K.sum()
        assert _sum_outcome(_fsum, K) == _sum_outcome(_reference_sum, K)
        got = _sum_outcome(lambda v: _fsum(v, K, op=np.multiply), C)
        assert got == _sum_outcome(_reference_sum, C * K)
        got = _sum_outcome(lambda v: _fsum(v, op=_xlogx), K)
        assert got == _sum_outcome(_reference_sum, _xlogx(K))

    @pytest.mark.parametrize("sign", [0.0, 0.5])
    def test_a_subnormal_middle_block_settles(self, rng, sign, monkeypatch):
        # that block stops extracting at its first level; its residual only
        # widens the bound by 2**m * 1e-310
        middle = (rng.random(_SUM_BLOCK) - sign) * 1e-310
        x = np.concatenate([rng.random(_SUM_BLOCK), middle, rng.random(_SUM_BLOCK)])
        expected = _reference_sum(x)
        lengths = []

        def recording_fsum(values, fsum=math.fsum):
            lengths.append(len(values))
            return fsum(values)

        monkeypatch.setattr(math, "fsum", recording_fsum)
        total = _fsum(x)
        monkeypatch.undo()
        assert total == expected
        assert max(lengths) < x.size

    @staticmethod
    def _check_every_sum(monkeypatch) -> list:
        """Make every ``_fsum`` of a solve assert that it equals
        ``math.fsum`` of its entries; returns the list their sizes go to."""
        calls = []

        def spy(values, *others, op=None):
            total = _fsum(values, *others, op=op)
            entries = np.asarray(values, dtype=float)
            if op is not None:
                entries = op(entries, *others)
            assert float.hex(total) == float.hex(_reference_sum(entries))
            calls.append(entries.size)
            return total

        for module in (tensor, scaling, rounding, transport):
            monkeypatch.setattr(module, "_fsum", spy)
        return calls

    def test_every_sum_of_a_solve_is_correctly_rounded(self, rng, monkeypatch):
        calls = self._check_every_sum(monkeypatch)
        C = Tensor(rng.random((64,) * 3))
        transport.approx_tot(C, random_marginals(rng, 3, 64), 0.2)
        assert max(calls) == 64**3 and min(calls) <= _SHORT_SUM

    @pytest.mark.parametrize("n", [8, 10])
    def test_every_sum_of_a_small_solve_is_correctly_rounded(self, rng, monkeypatch, n):
        # a solve at d=3 on plans of 512 and 1,000 entries, whose kernel at
        # delta=0.02 spans some 250 decades: its checks sum whole plans on
        # the pass above the short path's end, and short vectors on the list
        calls = self._check_every_sum(monkeypatch)
        C = Tensor(rng.random((n,) * 3))
        transport.approx_tot(C, random_marginals(rng, 3, n), 0.02)
        assert min(calls) <= _SHORT_SUM < max(calls) == n**3 <= 1024

    @pytest.mark.parametrize("values", [
        [], [-0.0], [0.0, -0.0], np.zeros(5000), -np.zeros(5000), np.zeros((64, 64, 64)),
    ])
    def test_zero_totals(self, values):
        self.assert_same(values)

    @pytest.mark.parametrize("special", _SPECIALS)
    @pytest.mark.parametrize("size", [4, _SHORT_SUM + 1, 1025, 5000])
    def test_nonfinite_and_overflow(self, rng, special, size):
        x = rng.random(size)
        x[: len(special)] = special
        rng.shuffle(x)
        self.assert_same(x)

    @pytest.mark.parametrize("size", _BLOCK_SIZES)
    def test_products_and_differences(self, rng, size):
        # each form sums op(values, other) one block at a time; the
        # reference forms the whole array first, as a plain reduction would
        def assert_form(op, values, other):
            with np.errstate(over="ignore"):  # products of 1e300s overflow to inf
                got = _sum_outcome(lambda v: _fsum(v, other, op=op), values)
                assert got == _sum_outcome(_reference_sum, op(values, other))

        for x in _finite_cases(rng, size) + _specials(rng, size):
            x = x.ravel()
            assert_form(np.multiply, x, np.ones(x.size))  # the product is x itself
            assert_form(_abs_diff, x, -np.zeros(x.size))
        for x in _finite_cases(rng, size):
            x = x.ravel()
            assert_form(np.multiply, x, 0.5 + rng.random(x.size))
            assert_form(_abs_diff, x, rng.standard_normal(x.size) * np.abs(x).max())
            assert_form(np.multiply, x, x[::-1].copy())

    @pytest.mark.parametrize("size", _BLOCK_SIZES)
    def test_entropy_terms(self, rng, size):
        for x in _finite_cases(rng, size):
            x = np.abs(x.ravel())
            x[rng.random(x.size) < 0.2] = 0.0
            got = _sum_outcome(lambda v: _fsum(v, op=_xlogx), x)
            assert got == _sum_outcome(_reference_sum, _xlogx(x))

    @pytest.mark.parametrize("size", _BLOCK_SIZES[2:])
    def test_blocks_fall_back_only_where_whole_array_passes_do(self, rng, size, monkeypatch):
        lengths = []

        def recording_fsum(values, fsum=math.fsum):
            lengths.append(len(values))
            return fsum(values)

        cases = _finite_cases(rng, size) + _specials(rng, size)
        cases += [np.full(size, 2.0**-4), np.concatenate([[2.0**60], np.full(size - 1, 2.0**-4)])]
        # level 1 leaves residuals far below its bound 2**(m + e - 53), and the
        # total sits just above a rounding midpoint: a level 2 at that bound
        # would leave +-2**-20 to level 3, which then cannot reach the tiny
        # entries; the sigmas of the measured residuals settle it at level 3
        cases.append(np.concatenate([[2.0**60, 128.0 + 2.0**-20, -(2.0**-20)],
                                     rng.random(size - 3) * 1e-35]))
        # a first block of 2**60 alone, then 128 + 2**-50 and cancelling pairs
        # with bits far below 2**-50: whole-array sigmas, set by 2**60, spend a
        # level on bits only the first block has and leave the total, just past
        # a rounding midpoint, unresolved; the second block's own sigmas settle it
        first = np.zeros(_SUM_BLOCK)
        first[0] = 2.0**60
        half = rng.standard_normal(1000) * 2.0 ** rng.integers(-40, 20, 1000)
        cases.append(np.concatenate([first, [128.0, 2.0**-50], half, -half]))
        with np.errstate(invalid="ignore", over="ignore"):
            settles = [_passes_settle(x) for x in cases]
        monkeypatch.setattr(math, "fsum", recording_fsum)
        fell_back = []
        for x, settled in zip(cases, settles):
            for form in (lambda: _fsum(x), lambda: _fsum(x, np.ones(x.shape), op=np.multiply)):
                del lengths[:]
                try:
                    form()
                except (OverflowError, ValueError):
                    pass
                fell_back.append(max(lengths) >= x.size)
                assert not (fell_back[-1] and settled)
        monkeypatch.undo()
        assert any(settles) and not all(settles) and any(fell_back)
        assert not settles[-1] and fell_back[-2:] == [False, False]


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

    def test_mass_other_than_one(self):
        with pytest.raises(ContractViolation, match="unit mass"):
            entropy(Tensor([[0.1, 0.6], [0.3, 0.2]]))

    def test_bits_of_the_positive_entries_sum(self, rng):
        # zero cells add exact zeros, so the sum over the positive entries
        # alone has the same bits, down to the -0.0 of a point mass
        point = np.zeros((3, 3))
        point[1, 2] = 1.0
        tensors = [point]
        for d, n in [(1, 5), (2, 4), (3, 3), (4, 5)]:
            data = rng.random((n,) * d) * (rng.random((n,) * d) > 0.4)
            data[(0,) * d] = 1.0
            tensors.append(data / math.fsum(data.ravel().tolist()))
        for data in tensors:
            pos = data[data > 0]
            expect = -math.fsum((pos * np.log(pos)).tolist())
            got = entropy(Tensor(data))
            assert got == expect and math.copysign(1.0, got) == math.copysign(1.0, expect)


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

    def test_rejects_an_underflowing_kernel(self):
        # exp(-1000) is 0 in floating point: no kernel entry may vanish
        with pytest.raises(ContractViolation, match="underflows"):
            exp_neg_scaled(Tensor([[0.0, 1.0], [1.0, 0.0]]), 1000.0)

    def test_rejects_an_overflowing_kernel(self):
        # exp(1000) is past the float range
        with pytest.raises(ContractViolation, match="overflows"):
            exp_neg_scaled(Tensor([[-1.0, 0.0], [0.0, 1.0]]), 1000.0)


class TestOuter:
    def test_single_vector(self):
        out = outer([np.array([0.2, 0.8])])
        assert np.array_equal(out.data, [0.2, 0.8])

    def test_single_vector_is_copied(self):
        v = np.array([0.25, 0.75])
        out = outer([v])
        v[0] = 9.0
        assert out.data.tolist() == [0.25, 0.75]

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

    def test_written_bytes(self, tmp_path):
        save_tensor(Tensor([[0.1, 2.0], [-3.0, 1e-300]]), tmp_path / "a.json")
        assert (tmp_path / "a.json").read_bytes() == (
            b'{"d": 2, "n": 2, "data": [0.1, 2.0, -3.0, 1e-300]}\n')
        save_marginals(MarginalFamily([[1 / 3, 2 / 3], [0.5, 0.5]]), tmp_path / "p.json")
        assert (tmp_path / "p.json").read_bytes() == (
            b'{"p": [[0.3333333333333333, 0.6666666666666666], [0.5, 0.5]]}\n')
        save_marginals(MarginalFamily([0.25, 0.75]), tmp_path / "q.json")
        assert (tmp_path / "q.json").read_bytes() == b'{"p": [[0.25, 0.75]]}\n'

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
        with pytest.raises(ContractViolation, match="strictly positive"):
            load_marginals(path)

    def test_all_marginals_shape(self, rng):
        A = random_positive_tensor(rng, 3, 2)
        M = all_marginals(A)
        assert M.shape == (3, 2)
        for j in range(3):
            assert np.array_equal(M[j], marginal(A, j))
