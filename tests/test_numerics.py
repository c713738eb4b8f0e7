import cmath
import math

import numpy as np
import pytest

import labelforge.numerics as numerics
from labelforge.numerics import (
    BLOCK,
    SEED_LIMIT,
    Rng,
    checked_seed,
    derive_seed,
    log_softmax_rows,
    mix64,
    row_max,
    row_sum,
    softmax_pair,
    softmax_probs_into,
    softmax_rows,
)

from oracles import cross_entropy

M64 = (1 << 64) - 1


class TestSoftmax:
    def test_symmetric_row(self):
        out = softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_closed_form(self):
        out = softmax_rows(np.array([[math.log(2.0), 0.0]]))
        assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_large_logits_stay_finite(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_rows_sum_to_one_across_magnitudes(self):
        rng = np.random.default_rng(5)
        for scale in (1.0, 10.0, 1e2, 1e4):
            m = rng.uniform(-scale, scale, size=(8, 6))
            out = softmax_rows(m)
            assert np.all(out >= 0.0)
            assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN|Inf"):
            softmax_rows(np.array([[0.0, float("nan")]]))


class TestLogSoftmax:
    def test_symmetric_row(self):
        out = log_softmax_rows(np.array([[0.0, 0.0]]))
        assert np.allclose(out, -math.log(2.0), atol=1e-15)

    def test_extreme_row_finite(self):
        out = log_softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert out[0, 1] == pytest.approx(-1000.0, rel=1e-12)

    def test_agrees_with_composed_oracle(self):
        rng = np.random.default_rng(9)
        m = rng.uniform(-5, 5, size=(10, 7))
        composed = np.log(softmax_rows(m))
        assert np.abs(log_softmax_rows(m) - composed).max() < 1e-12

    def test_exp_of_rows_sums_to_one(self):
        rng = np.random.default_rng(10)
        out = log_softmax_rows(rng.uniform(-50, 50, size=(6, 5)))
        assert np.abs(np.exp(out).sum(axis=1) - 1.0).max() < 1e-12

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            log_softmax_rows(np.array([[float("nan"), 1.0]]))


def hard_rows(seed: int, k: int) -> np.ndarray:
    """Rows that stress a row maximum: ties, signed zeros (rows whose maximum
    is a tie between 0.0 and -0.0), subnormals, values at and near +-1e308,
    plus plain normal draws, at an odd row count."""
    rng = np.random.default_rng(seed)
    big = np.finfo(np.float64).max
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324, -5e-324,
                     1e308, -1e308, big, -big])
    picks = pool[rng.integers(0, pool.size, size=(97, k))]
    signed_zeros = np.where(rng.random((97, k)) < 0.5, 0.0, -0.0)
    zeros_and_negatives = np.where(rng.random((97, k)) < 0.3, -rng.random((97, k)),
                                   signed_zeros)
    normals = rng.standard_normal((97, k))
    return np.concatenate([picks, signed_zeros, zeros_and_negatives, normals])


def reference_softmax(m):
    """The per-op softmax and log-softmax: NumPy's own row max, recomputing
    exp and the row sum for the log form."""
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True), log_probs


def assert_same_max(got, expected, k):
    """Equal values, and equal bits wherever the maximum is not a zero (the
    sign of a zero that 0.0 and -0.0 tie for follows the reduction order,
    which NumPy sets by the CPU's vector width)."""
    assert np.array_equal(got, expected), k
    nonzero = expected != 0.0
    assert got[nonzero].tobytes() == expected[nonzero].tobytes(), k


class TestRowMax:
    def test_matches_numpy_max(self):
        for k in range(2, 65):
            m = hard_rows(k, k)
            assert_same_max(row_max(m), m.max(axis=1), k)
            strided = np.repeat(m, 2, axis=1)[:, ::2]
            assert_same_max(row_max(strided), strided.max(axis=1), k)

    def test_unique_zero_maximum_keeps_its_sign(self):
        m = np.array([[-0.0, -1.0, -3.0], [-2.0, 0.0, -3.0]])
        assert row_max(m).tobytes() == np.array([-0.0, 0.0]).tobytes()
        assert row_max(np.empty((0, 4))).shape == (0,)


class TestRowSum:
    def test_bit_identical_to_numpy_sum(self):
        # below 8 columns row_sum adds a Fortran-ordered copy column by
        # column, which matches NumPy's own left-to-right order for narrow
        # rows only; this pins that on the NumPy under test
        rng = np.random.default_rng(13)
        for k in range(1, 17):
            for rows in (1, 32, 2000):
                m = rng.standard_normal((rows, k)) * 10.0 ** rng.integers(-8, 9, (rows, k))
                got = row_sum(m)
                assert got.shape == (rows, 1)
                assert got.tobytes() == m.sum(axis=1, keepdims=True).tobytes(), (k, rows)
            strided = np.repeat(m, 2, axis=1)[:, ::2]
            assert row_sum(strided).tobytes() == strided.sum(axis=1, keepdims=True).tobytes()


class TestSoftmaxPair:
    def test_bit_identical_to_per_op_reference(self):
        # rows whose maximum is a 0.0/-0.0 tie included: its sign, which may
        # differ between row_max and NumPy's max, reaches neither output
        # -1e308 - 1e308 overflows to -inf in the shift, in both forms
        with np.errstate(over="ignore"):
            for k in range(2, 65):
                m = hard_rows(100 + k, k)
                probs, log_probs = softmax_pair(m)
                ref_probs, ref_log_probs = reference_softmax(m)
                assert probs.tobytes() == ref_probs.tobytes(), k
                assert log_probs.tobytes() == ref_log_probs.tobytes(), k

    def test_inplace_probs_match_first_half(self):
        with np.errstate(over="ignore"):
            for k in range(2, 65):
                m = hard_rows(100 + k, k)
                work = m.copy()
                out = softmax_probs_into(work, work)
                assert out is work
                assert out.tobytes() == softmax_pair(m)[0].tobytes(), k

    def test_probs_into_match_first_half(self):
        with np.errstate(over="ignore"):
            for k in range(2, 65):
                m = hard_rows(100 + k, k)
                before = m.tobytes()
                out = np.full_like(m, np.nan)
                assert softmax_probs_into(m, out) is out
                assert m.tobytes() == before
                assert out.tobytes() == softmax_pair(m)[0].tobytes(), k

    def test_checked_forms_return_its_halves(self):
        m = np.random.default_rng(12).uniform(-30.0, 30.0, size=(33, 5))
        probs, log_probs = softmax_pair(m)
        assert softmax_rows(m).tobytes() == probs.tobytes()
        assert log_softmax_rows(m).tobytes() == log_probs.tobytes()


class TestCrossEntropy:
    def test_onehot_uniform(self):
        log_probs = np.full(4, math.log(0.25))
        assert cross_entropy([1.0, 0, 0, 0], log_probs) == pytest.approx(
            math.log(4.0), abs=1e-14
        )

    def test_self_entropy(self):
        p = np.array([0.5, 0.25, 0.25])
        expected = -(p * np.log(p)).sum()
        assert cross_entropy(p, np.log(p)) == pytest.approx(expected, abs=1e-14)

    def test_hand_computation(self):
        target = np.array([0.9, 0.05, 0.05])
        log_probs = np.array([-0.2, -2.0, -3.1])
        by_hand = -(0.9 * -0.2 + 0.05 * -2.0 + 0.05 * -3.1)
        assert abs(cross_entropy(target, log_probs) - by_hand) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cross_entropy([1.0, 0.0], [-1.0, -1.0, -1.0])

    def test_non_distribution_rejected(self):
        with pytest.raises(ValueError, match="distribution"):
            cross_entropy([0.5, 0.2], [-1.0, -1.0])


def reference_mix64(x):
    """Independent restatement of the documented splitmix64 finalizer."""
    z = x & M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def reference_xorshift_star(state, count):
    """Independent restatement of the documented draw recurrence."""
    outputs = []
    x = state
    for _ in range(count):
        x ^= x >> 12
        x = (x ^ (x << 25)) & M64
        x ^= x >> 27
        outputs.append((x * 0x2545F4914F6CDD1D) & M64)
    return outputs


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123)
        b = Rng(123)
        assert a._next_block(50).tolist() == b._next_block(50).tolist()
        assert_same_bits(a.normals((7,)), b.normals((7,)))
        assert a.next_below(1000) == b.next_below(1000)

    def test_stream_matches_documented_recurrence(self):
        seed = 99
        state = reference_mix64((seed + 0x9E3779B97F4A7C15) & M64)
        expected = reference_xorshift_star(state, 40)
        rng = Rng(seed)
        ref = ScalarReference(rng)
        assert [ref.next_uint64() for _ in range(20)] == expected[:20]
        assert rng._next_block(20).tolist() == expected[:20]
        assert_same_bits(rng.uniforms((20,), 0.0, 1.0),
                         [(u >> 11) * 2.0 ** -53 for u in expected[20:]])

    def test_derive_seed_matches_splitmix_stream(self):
        seed = 7
        for i in range(5):
            expected = reference_mix64((seed + (i + 1) * 0x9E3779B97F4A7C15) & M64)
            assert derive_seed(seed, i) == expected
        assert mix64(0) == reference_mix64(0)

    def test_floats_in_unit_interval(self):
        draws = Rng(4).uniforms((1000,), 0.0, 1.0)
        assert ((0.0 <= draws) & (draws < 1.0)).all()
        assert abs(draws.mean() - 0.5) < 0.05
        # the outputs 1 and 2**64 - 1 give the interval's ends
        rng = Rng(0)
        inverse = pow(0x2545F4914F6CDD1D, -1, 1 << 64)  # the state whose output is 1
        rng._state = previous_state(inverse)
        assert rng.uniforms((1,), 0.0, 1.0)[0] == 0.0
        rng._state = previous_state(M64 * inverse & M64)
        assert rng.uniforms((1,), 0.0, 1.0)[0] == 1.0 - 2.0 ** -53

    def test_next_below_bounds_and_reach(self):
        rng = Rng(5)
        draws = [rng.next_below(7) for _ in range(2000)]
        assert set(draws) == set(range(7))

    @pytest.mark.parametrize("bound", (0, -1, 2**32 + 1))
    def test_next_below_rejects_bounds_outside_range(self, bound):
        rng = Rng(0)
        state = rng._state
        with pytest.raises(ValueError, match=r"bound must be in \(0, 2\*\*32\]"):
            rng.next_below(bound)
        assert rng._state == state

    @pytest.mark.parametrize("bound", (1, 3, 2**31 + 11, 2**32))
    def test_next_below_matches_oracle_up_to_two_pow_32(self, bound):
        rng = Rng(6)
        ref = ScalarReference(rng)
        for _ in range(5):
            assert rng.next_below(bound) == (ref.next_uint64() * bound) >> 64
        assert_same_generator(rng, ref)

    def test_normals_mean_and_scale(self):
        draws = Rng(6).normals((4000,))
        assert abs(draws.mean()) < 3.0 / math.sqrt(4000)
        assert abs(draws.std() - 1.0) < 0.05

    def test_normals_deterministic(self):
        assert np.array_equal(Rng(8).normals((64,)), Rng(8).normals((64,)))

    def test_permutation_is_valid_and_deterministic(self):
        perm = Rng(3).permutation(100)
        assert np.array_equal(np.sort(perm), np.arange(100))
        assert np.array_equal(perm, Rng(3).permutation(100))
        assert not np.array_equal(perm, np.arange(100))

    def test_different_seeds_differ(self):
        assert Rng(1)._next_block(1)[0] != Rng(2)._next_block(1)[0]
        assert not np.array_equal(Rng(1).uniforms((4,), 0.0, 1.0),
                                  Rng(2).uniforms((4,), 0.0, 1.0))

    def test_checked_seed_keeps_seeds_that_derive_seed_reads_one_to_one(self):
        assert derive_seed(SEED_LIMIT + 5, 1) == derive_seed(5, 1)  # why the range
        assert checked_seed(0) == 0
        assert checked_seed(SEED_LIMIT - 1) == SEED_LIMIT - 1
        for seed in (-1, SEED_LIMIT, SEED_LIMIT + 5):
            with pytest.raises(ValueError, match=r"^split seed must be in \[0, 2\*\*64\)"):
                checked_seed(seed, "split seed")


# Box-Muller's radii, at the largest and the smallest u1
BOX_MULLER_R_MIN = math.sqrt(-2.0 * math.log(1.0 - 2.0 ** -53))
BOX_MULLER_R_MAX = math.sqrt(-2.0 * math.log(2.0 ** -53))


def assert_rect_is_cos_sin(r, theta):
    """``cmath.rect(r, theta)`` is ``complex(r*cos(theta), r*sin(theta))``
    bit for bit, the sign of a zero included."""
    got = cmath.rect(r, theta)
    expected = complex(r * math.cos(theta), r * math.sin(theta))
    assert_same_bits([got.real, got.imag], [expected.real, expected.imag])


class TestRectIdentity:
    """Rng.normals takes both normals of a Box-Muller pair from one
    cmath.rect call; ScalarReference.normal takes them from math.cos and
    math.sin."""

    # 5e-324 rounds r*cos(3 pi / 2) to -0.0
    @pytest.mark.parametrize("r", (5e-324, BOX_MULLER_R_MIN, 0.5, 1.0, 3.0,
                                   BOX_MULLER_R_MAX))
    @pytest.mark.parametrize("theta", (0.0, math.pi / 2, math.pi, 3 * math.pi / 2))
    def test_zero_and_multiples_of_half_pi(self, r, theta):
        assert_rect_is_cos_sin(r, theta)

    def test_box_muller_range(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=500, deadline=None, database=None)
        @hypothesis.given(
            st.floats(0.0, BOX_MULLER_R_MAX, exclude_min=True),
            st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        )
        def check(r, theta):
            assert_rect_is_cos_sin(r, theta)

        check()


class ScalarReference:
    """Per-draw oracle for the block paths: the documented recurrence and
    derived quantities restated one value at a time, started from a copy of
    a generator's state and cached normal."""

    def __init__(self, rng):
        self.state = rng._state
        self.spare = rng._spare_normal

    def next_uint64(self):
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & M64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & M64

    def next_float(self):
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def normal(self):
        if self.spare is not None:
            value, self.spare = self.spare, None
            return value
        u1 = self.next_float()
        while u1 == 0.0:
            u1 = self.next_float()
        u2 = self.next_float()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self.spare = radius * math.sin(theta)
        return radius * math.cos(theta)

    def uniforms(self, n, lo, hi):
        return [lo + (hi - lo) * self.next_float() for _ in range(n)]

    def normals(self, n):
        return [self.normal() for _ in range(n)]

    def permutation(self, n):
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = (self.next_uint64() * (i + 1)) >> 64
            perm[i], perm[j] = perm[j], perm[i]
        return perm


def previous_state(x):
    """Invert one xorshift step: the state whose successor is x."""
    x ^= (x >> 27) ^ (x >> 54)
    x = (x ^ (x << 25) ^ (x << 50)) & M64
    return x ^ (x >> 12) ^ (x >> 24) ^ (x >> 36) ^ (x >> 48) ^ (x >> 60)


def assert_same_bits(got, expected):
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def assert_same_generator(rng, ref):
    assert rng._state == ref.state
    assert rng._spare_normal == ref.spare
    assert type(rng._spare_normal) is type(ref.spare)


SIZES = (0, 1, 2, 31, 32, 33, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)
SEEDS = (0, 7, 2 ** 40 + 3)


class TestBlockDraws:
    """uniforms, normals and permutation against the per-draw oracle."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", SIZES)
    def test_uniforms_match_oracle(self, seed, n):
        rng = Rng(seed)
        ref = ScalarReference(rng)
        limit = math.sqrt(6.0 / 912)
        assert_same_bits(rng.uniforms((n,), -limit, limit), ref.uniforms(n, -limit, limit))
        assert_same_generator(rng, ref)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("spare_in", (False, True))
    def test_normals_match_oracle(self, seed, n, spare_in):
        rng = Rng(seed)
        if spare_in:
            rng.normals((1,))  # leaves the pair's sine cached
        ref = ScalarReference(rng)
        assert_same_bits(rng.normals((n,)), ref.normals(n))
        assert_same_generator(rng, ref)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", SIZES)
    def test_permutation_matches_oracle(self, seed, n):
        rng = Rng(seed)
        ref = ScalarReference(rng)
        perm = rng.permutation(n)
        assert perm.dtype == np.int64
        assert perm.tolist() == ref.permutation(n)
        assert_same_generator(rng, ref)

    def test_permutation_beyond_two_pow_32_rejected_before_any_draw(self, monkeypatch):
        # with NumPy and the block draw out of reach, an array or a draw made
        # before the check fails the test instead of allocating 2**32 entries
        rng = Rng(4)
        state = rng._state
        monkeypatch.setattr(numerics, "np", None)
        monkeypatch.setattr(Rng, "_next_block", None)
        with pytest.raises(ValueError, match=r"cannot permute 4294967297 > 2\*\*32"):
            rng.permutation(2**32 + 1)
        assert rng._state == state

    def test_shaped_draws_keep_row_major_order(self):
        rng = Rng(3)
        ref = ScalarReference(rng)
        assert_same_bits(rng.normals((37, 5)), np.reshape(ref.normals(185), (37, 5)))
        assert_same_bits(rng.uniforms((40, 3), 0.0, 2.0),
                         np.reshape(ref.uniforms(120, 0.0, 2.0), (40, 3)))
        assert_same_generator(rng, ref)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_block_draws_mixed_with_next_below(self, seed):
        rng = Rng(seed)
        ref = ScalarReference(rng)
        assert rng.next_below(2**32) == ref.next_uint64() >> 32
        assert_same_bits(rng.normals((BLOCK + 1,)), ref.normals(BLOCK + 1))
        assert rng.normals((1,))[0] == ref.normal()  # the spare left by the odd block
        assert rng.next_below(7) == (ref.next_uint64() * 7) >> 64
        assert_same_bits(rng.uniforms((1,), 0.0, 1.0), ref.uniforms(1, 0.0, 1.0))
        assert_same_bits(rng.normals((33,)), ref.normals(33))
        assert_same_bits(rng.uniforms((2 * BLOCK + 3,), -1.0, 1.0),
                         ref.uniforms(2 * BLOCK + 3, -1.0, 1.0))
        assert_same_bits(rng.normals((3,)), ref.normals(3))
        assert rng.permutation(BLOCK).tolist() == ref.permutation(BLOCK)
        assert_same_bits(rng.normals((2 * BLOCK,)), ref.normals(2 * BLOCK))
        assert rng.next_below(10) == (ref.next_uint64() * 10) >> 64
        assert_same_generator(rng, ref)

    # the first u1, one inside the first block, the last of a full block
    # (2 * BLOCK - 2), one inside the short final block and its last (of
    # 2 * BLOCK + 8 normals), and a u2
    @pytest.mark.parametrize("position", (0, 4, 2 * BLOCK - 2, 2 * BLOCK + 2,
                                          2 * BLOCK + 6, 2 * BLOCK + 1))
    @pytest.mark.parametrize("spare_in", (False, True))
    def test_zero_u1_resampled_like_the_scalar_loop(self, position, spare_in):
        # choose the state so that draw number `position` is exactly 0.0: an
        # even position is a u1, which is resampled; an odd one is a u2
        target = pow(0x2545F4914F6CDD1D, -1, 1 << 64)  # the state whose output is 1
        state = target
        for _ in range(position + 1):
            state = previous_state(state)
        rng = Rng(0)
        rng._state = state
        if spare_in:
            rng._spare_normal = 0.25  # taken first; the draws are as above
        probe = ScalarReference(rng)
        assert [probe.next_float() for _ in range(position + 1)][-1] == 0.0
        ref = ScalarReference(rng)
        n = 2 * BLOCK + 8
        got = rng.normals((n,))
        expected = ref.normals(n)
        assert_same_bits(got, expected)
        assert_same_generator(rng, ref)

    def test_bounded_draws_match_python_integers(self):
        rng = np.random.default_rng(17)
        u = np.concatenate([
            rng.integers(0, 2 ** 64, size=500, dtype=np.uint64, endpoint=False),
            np.array([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1], dtype=np.uint64),
        ])
        for bound in (1, 2, 3, 1000, 2 ** 31 + 11, 2 ** 32 - 1, 2 ** 32):
            bounds = np.full(u.size, bound, dtype=np.uint64)
            expected = [(int(v) * bound) >> 64 for v in u.tolist()]
            assert numerics._below(u, bounds).tolist() == expected

    def test_jump_table_rows_step_basis_vectors(self):
        table = numerics._jump_table()
        assert table.shape == (64, BLOCK) and table.dtype == np.uint64
        ref = ScalarReference(Rng(0))
        for j in (0, 1, 31, 63):
            ref.state = 1 << j
            states = []
            for _ in range(BLOCK):
                ref.next_uint64()
                states.append(ref.state)
            assert table[j].tolist() == states
