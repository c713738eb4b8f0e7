"""Row reductions, stable probability transforms, and seeded RNG.

Matrices are plain 2-D float64 numpy arrays (row-major). The operations
that take values from outside the training loop (``softmax_rows``,
``log_softmax_rows``) validate shapes and reject non-finite inputs, so that
bad values surface where they are created instead of three modules later.
``row_max``, ``row_sum``, ``softmax_pair`` and ``softmax_probs_into`` trust
their input: the training loop calls them where one check covers many
operations. ``softmax_probs_into`` is the one kernel that gives
probabilities alone: ``Mlp.predict`` writes it over its logits, and a
learned table (``labelreg.TableTargets``) into its run's buffer. Training
checks the network's logits once per forward pass (``Mlp.forward`` and
``Mlp.predict``), a logit table's once when it is made (``CMatrix``) and the
loss once per step (``train``); a NaN or Inf anywhere else on a step's path,
in the logit table, the targets or the log-probabilities, reaches that loss.

The random generator is written out explicitly (instead of delegating to a
library) so that any reimplementation, in any language, can reproduce the
exact same streams from the same 64-bit seed. The recurrences are:

splitmix64 (used for seed derivation and state initialization)::

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)

xorshift64* (the draw stream; state is never zero)::

    x = state
    x = x XOR (x >> 12)
    x = (x XOR (x << 25)) mod 2^64
    x = x XOR (x >> 27)
    state = x
    output = (x * 0x2545F4914F6CDD1D) mod 2^64

Derived quantities:

* float in [0, 1): top 53 bits of the output, ``(u64 >> 11) * 2**-53``.
* bounded int in [0, n), n <= 2**32: Lemire's ``(u64 * n) >> 64``.
* standard normal: Box-Muller on two floats (the first resampled until
  nonzero), ``r = sqrt(-2 ln u1)``, returning ``r*cos(2 pi u2)`` and caching
  ``r*sin(2 pi u2)`` for the next draw.
* permutation of n: Fisher-Yates, swapping index i (descending from n-1)
  with the bounded int in [0, i + 1).

Block draws. Every draw runs through one path (``next_below`` is a block of
one). The state update is linear over GF(2), so the state k steps after s
is the XOR of the k-step images of the basis vectors e_j at the set bits j
of s. A draw uses this to produce up to ``BLOCK`` states at once from a
(64, BLOCK) jump table, then applies the multiply and the derived
transforms above elementwise in uint64 and float64 arithmetic. The stream,
the final state and the cached normal are bit-identical to the recurrence
read one value at a time: ``(u * n) >> 64`` is formed from 32-bit halves
without overflow, a zero u1 ends its block's pairs, and Box-Muller keeps
the platform's libm, because NumPy's own log and trigonometry may round
differently. It calls ``math.log`` per u1 and ``cmath.rect(r, theta)`` per
pair, which CPython computes as ``r*cos(theta)`` and ``r*sin(theta)`` with
the same C functions that ``math.cos`` and ``math.sin`` call (at theta 0.0
it returns ``r`` and ``r*0.0``, the same values), so one call gives both
normals of a pair bit for bit, already interleaved as complex128. Box-Muller
runs at most ``BLOCK`` pairs at a time, so its temporaries stay small
however large the draw.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
_TWO_POW_NEG53 = 2.0 ** -53

BLOCK = 1024  # states computed per jump-table pass
ORDER_CAP = 1 << 20  # epoch-order indices a process keeps, 4 MB as int32 (train.epoch_order)
STACK_CAP = 1 << 16  # input values one stacked teacher call gathers, 512 KB (train.teacher_targets)
SEED_LIMIT = 1 << 64  # seeds lie in [0, SEED_LIMIT); derive_seed reads them mod 2**64


def checked_seed(seed: int, name: str = "seed") -> int:
    """``seed`` if it lies in [0, SEED_LIMIT), else a ValueError naming
    ``name``: `derive_seed` reads a seed modulo 2**64, so a seed outside the
    range would train as another."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"{name} must be in [0, 2**64), got {seed}")
    return seed


def mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit mix with good avalanche."""
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, stream: int) -> int:
    """Return the ``stream``-th output of the splitmix64 sequence at ``seed``.

    Used to spawn independent deterministic sub-streams (model init, one per
    training epoch, ...) from a single run seed.
    """
    return mix64((seed + (stream + 1) * _GOLDEN) & _MASK64)


def _advance(table: np.ndarray, state: int, count: int) -> np.ndarray:
    """The xorshift states 1..count steps after ``state``; count <= table width."""
    bits = [j for j in range(64) if state >> j & 1]
    return np.bitwise_xor.reduce(table[bits, :count], axis=0)


@functools.cache
def _jump_table() -> np.ndarray:
    """(64, BLOCK) table: row j holds the states 1..BLOCK steps after e_j.

    Built once per process, on the first block draw, by stepping the 64
    basis vectors together BLOCK times.
    """
    table = np.empty((64, BLOCK), dtype=np.uint64)
    lanes = np.uint64(1) << np.arange(64, dtype=np.uint64)
    for k in range(BLOCK):
        lanes ^= lanes >> np.uint64(12)
        lanes ^= lanes << np.uint64(25)
        lanes ^= lanes >> np.uint64(27)
        table[:, k] = lanes
    table.flags.writeable = False
    return table


def _below(u: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``(u * bounds) >> 64`` elementwise, for bounds up to 2**32."""
    hi = u >> np.uint64(32)
    lo = u & np.uint64(0xFFFFFFFF)
    return (hi * bounds + ((lo * bounds) >> np.uint64(32))) >> np.uint64(32)


class Rng:
    """Seedable xorshift64* generator; identical seed, identical stream."""

    def __init__(self, seed: int):
        state = derive_seed(seed, 0)
        # xorshift has a fixed point at zero; remap that one seed.
        self._state = state if state != 0 else _GOLDEN
        self._spare_normal: float | None = None

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n), for n in (0, 2**32] (`_below`)."""
        if not 0 < n <= 1 << 32:
            raise ValueError(f"bound must be in (0, 2**32], got {n}")
        return int(_below(self._next_block(1), np.uint64(n))[0])

    def _next_block(self, count: int) -> np.ndarray:
        """The next ``count`` outputs of the xorshift64* recurrence, as uint64."""
        table = _jump_table()
        states = np.empty(count, dtype=np.uint64)
        state = self._state
        for start in range(0, count, BLOCK):
            stop = min(start + BLOCK, count)
            states[start:stop] = _advance(table, state, stop - start)
            state = int(states[stop - 1])
        self._state = state
        return states * np.uint64(_XORSHIFT_MULT)

    def _next_floats(self, count: int) -> np.ndarray:
        """The next ``count`` floats in [0, 1), one per output."""
        return (self._next_block(count) >> np.uint64(11)).astype(np.float64) * _TWO_POW_NEG53

    def normals(self, shape: tuple[int, ...]) -> np.ndarray:
        size = int(np.prod(shape))
        flat = np.empty(size, dtype=np.float64)
        done = 0
        if size and self._spare_normal is not None:
            flat[0] = self._spare_normal
            self._spare_normal = None
            done = 1
        while done < size:
            pairs = min((size - done + 1) // 2, BLOCK)
            state = self._state
            u = self._next_floats(2 * pairs)
            u1, u2 = u[0::2], u[1::2]
            if not u1.all():
                # a zero u1 is resampled: keep the pairs before the first
                # (argmin, as u1 >= 0) and go on from the draw after it
                pairs = int(u1.argmin())
                self._state = state
                self._next_block(2 * pairs + 1)
                u1, u2 = u1[:pairs], u2[:pairs]
            logs = np.fromiter(map(math.log, u1.tolist()), np.float64, pairs)
            radius = np.sqrt(-2.0 * logs).tolist()
            theta = (2.0 * math.pi * u2).tolist()
            # (r cos θ, r sin θ) per pair, already interleaved
            values = np.fromiter(map(cmath.rect, radius, theta), np.complex128,
                                 pairs).view(np.float64)
            take = min(2 * pairs, size - done)
            flat[done : done + take] = values[:take]
            if take < 2 * pairs:
                self._spare_normal = float(values[-1])
            done += take
        return flat.reshape(shape)

    def uniforms(self, shape: tuple[int, ...], lo: float, hi: float) -> np.ndarray:
        size = int(np.prod(shape))
        return (lo + (hi - lo) * self._next_floats(size)).reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n), for n up to 2**32 (`_below`)."""
        if n > 1 << 32:
            raise ValueError(f"cannot permute {n} > 2**32 elements")
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        draws = _below(self._next_block(bounds.size), bounds).tolist()
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), draws):
            perm[i], perm[j] = perm[j], perm[i]
        return np.fromiter(perm, dtype=np.int64, count=n)


def as_matrix(values) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything else."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {m.shape}")
    return m


def require_finite(m: np.ndarray, name: str) -> None:
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains NaN or Inf")


def row_max(m: np.ndarray) -> np.ndarray:
    """Maximum of each row of a 2-D array, equal to ``m.max(axis=1)``.

    NumPy reduces a C-ordered array along axis 1 with one inner call per row,
    which dominates for the narrow rows of a class axis. A Fortran-ordered
    copy is reduced instead, which NumPy does with one elementwise maximum per
    column: with NumPy 2.4.6 on an x86-64 core, 10 us against 125 us on
    2000 x 4 and 37 against 135 on 2000 x 16, though 318 against 170 on
    2000 x 100. A maximum is exact whatever the order, so the bits are the
    same, with one exception: when 0.0 and -0.0 tie for a row's maximum, the
    sign returned depends on the order, and NumPy's own per-row order depends
    on the CPU's vector width. Shifting a softmax row by either zero gives the
    same bits (see ``softmax_pair``).
    """
    return np.maximum.reduce(np.asfortranarray(m), axis=1)


def row_sum(m: np.ndarray) -> np.ndarray:
    """Sum of each row of a 2-D array as a column, equal bit for bit to
    ``m.sum(axis=1, keepdims=True)``. Below 8 columns NumPy adds a row left
    to right, as it adds the columns of a Fortran-ordered copy, one call per
    column: 10 us against 44 us on 2000 x 4 (NumPy 2.4.6, one x86-64 core).
    Wider rows it sums pairwise, in another order, so they keep its own."""
    if m.shape[1] < 8:
        m = np.asfortranarray(m)
    return np.add.reduce(m, axis=1, keepdims=True)


def softmax_pair(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax and log-softmax of a finite 2-D float64 array.

    One shift by the row maximum, one exp and one row sum serve both:
    ``exp(m - max) / sum`` and ``(m - max) - log(sum)``. The input is not
    checked; softmax_rows and log_softmax_rows are the checked forms.

    The sign of a zero maximum cannot reach either output: it changes the
    shifted value only at entries equal to the maximum, only by the sign of
    a zero, and only when a 0.0 and a -0.0 tie for it. exp gives 1 for both zeros,
    and with two terms of 1 the row sum is at least 2, so the log form
    subtracts a nonzero log(sum) from that zero.
    """
    shifted = m - row_max(m)[:, None]
    e = np.exp(shifted)
    total = row_sum(e)
    e /= total
    shifted -= np.log(total)
    return e, shifted


def softmax_probs_into(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the row-wise softmax of a finite 2-D float64 array into ``out``
    (C-ordered, of ``m``'s shape, or ``m`` itself) and return it: the first
    half of ``softmax_pair``, bit for bit, with the same three steps (row-max
    shift, exp, divide by the row sum) and no log half. The input is not
    checked."""
    np.subtract(m, row_max(m)[:, None], out=out)
    np.exp(out, out=out)
    out /= row_sum(out)
    return out


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for stability."""
    m = as_matrix(m)
    require_finite(m, "softmax input")
    return softmax_pair(m)[0]


def log_softmax_rows(m) -> np.ndarray:
    """Row-wise log-softmax in the fused stable form x - max - log(sum(exp))."""
    m = as_matrix(m)
    require_finite(m, "log_softmax input")
    return softmax_pair(m)[1]
