"""Tape correctness against closed forms and central finite differences."""

import operator
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mct import numkit as nk
from mct.errors import ContractError, DomainError
from oracles import (
    collector_off, exp, log, logsumexp, mean, repeat_rows, row_major_softmax_neg, sigmoid, sqrt,
    sub, tile_rows,
)


def central_diff(f, x, step=1e-5):
    """Independent gradient oracle: central differences, one entry at a time."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * step)
    return g


def rel_err(a, b, floor=1e-4):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.max(np.abs(a - b) / denom)


class TestSoftmaxNeg:
    def test_equal_distances_give_uniform(self):
        p = nk.softmax_neg(np.zeros(3))
        np.testing.assert_allclose(p, np.full(3, 1.0 / 3.0), rtol=0, atol=1e-15)

    def test_log_two_gap(self):
        # exp(0) = 1 and exp(-ln 2) = 1/2, so the split is 2/3 vs 1/3
        p = nk.softmax_neg(np.array([0.0, np.log(2.0)]))
        np.testing.assert_allclose(p, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)

    def test_shift_invariance_is_bitwise(self):
        base = np.array([0.0, 1.0, 2.0])
        shifted = base + 1000.0
        np.testing.assert_array_equal(
            nk.softmax_neg(base), nk.softmax_neg(shifted)
        )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(42)
        d = rng.uniform(0.0, 50.0, size=(64, 5))
        p = nk.softmax_neg(d)
        np.testing.assert_allclose(p.sum(axis=1), np.ones(64), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("ways", [1, 5, 15, 200])
    def test_class_major_max_equals_row_reduction(self, ways):
        rng = np.random.default_rng(ways)
        d = rng.uniform(0.0, 30.0, size=(4, 9, ways))
        d[0, 0] = 0.0  # ties at the row maximum
        d[1, 2, -1] = 0.0
        z = -d
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        expected = e / e.sum(axis=-1, keepdims=True)
        got = nk.softmax_neg(d)
        assert np.array_equal(got, expected)
        for i in range(4):
            assert np.array_equal(got[i], nk.softmax_neg(d[i]))
            assert np.array_equal(got[i, 3], nk.softmax_neg(d[i, 3]))
        assert nk.softmax_neg(d[:, :0]).shape == (4, 0, ways)

    @pytest.mark.parametrize("ways", [1, 2, 5, 7, 8, 15])
    def test_ways_major_axis_is_the_transposed_rows(self, ways):
        # refinement lays distances out (..., ways, n); fewer than 8 classes
        # sum in the same order on both layouts, 8 or more pairwise on the rows
        rng = np.random.default_rng(ways)
        d = rng.uniform(0.0, 30.0, size=(4, 9, ways))
        d[0, 0] = 0.0  # ties at the row maximum
        rows = nk.softmax_neg(d)
        got = nk._softmax_neg_value(np.ascontiguousarray(np.swapaxes(d, -1, -2)), -2)
        assert got.shape == (4, ways, 9)
        if ways < 8:
            assert np.array_equal(np.swapaxes(got, -1, -2), rows)
        else:
            assert np.max(np.abs(np.swapaxes(got, -1, -2) - rows)) <= 1e-15

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            nk.softmax_neg(np.array([1.0, np.nan]))
        with pytest.raises(DomainError):
            nk._softmax_neg_value(np.array([[1.0, 2.0], [np.inf, 0.0]]), -2)

    def test_rejects_empty_axis(self):
        with pytest.raises(ContractError):
            nk.softmax_neg(np.zeros((3, 0)))
        with pytest.raises(ContractError):
            nk._softmax_neg_value(np.zeros((3, 0, 4)), -2)

    @given(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=-1e4, max_value=1e4),
    )
    def test_property_sum_and_range(self, row, shift):
        p = nk.softmax_neg(np.array(row))
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        # adding the shift rounds the inputs themselves, so allow a few ulps
        q = nk.softmax_neg(np.array(row) + shift)
        np.testing.assert_allclose(p, q, rtol=0, atol=1e-10)


def masked_sigmoid(x):
    """The two stable sigmoid forms evaluated under a boolean mask: the reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoidValue:
    def test_bits_are_the_masked_forms(self):
        nan = np.float64(np.nan)
        edges = np.array([
            0.0, -0.0, np.inf, -np.inf, nan, -nan, 5e-324, -5e-324, 1e-300, -1e-300,
            1.0, -1.0, 36.7, -36.7, 709.8, -709.8, 745.2, -745.2, 1e308, -1e308,
        ])
        rng = np.random.default_rng(4)
        with np.errstate(under="ignore"):
            for x in (edges, np.asarray(-0.3), rng.normal(size=(0, 1)),
                      20.0 * rng.normal(size=(3, 50, 1)), 1e3 * rng.normal(size=(400,))):
                got = nk._sigmoid_value(x)
                assert got.shape == x.shape and got.dtype == np.float64
                assert np.array_equal(got.view(np.uint64), masked_sigmoid(x).view(np.uint64))


class TestLogsumexp:
    def test_single_element_is_exact(self):
        x = np.array([3.7])
        assert logsumexp(x) == 3.7

    def test_two_equal_entries(self):
        out = logsumexp(np.array([0.0, 0.0]))
        np.testing.assert_allclose(out, np.log(2.0), rtol=1e-15)

    def test_stable_for_large_negatives(self):
        out = logsumexp(np.array([-1000.0, -1000.0]))
        np.testing.assert_allclose(out, -1000.0 + np.log(2.0), rtol=1e-12)

    def test_matches_naive_in_safe_range(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(10, 4))
        naive = np.log(np.exp(x).sum(axis=1))
        np.testing.assert_allclose(logsumexp(x, axis=1), naive, rtol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            logsumexp(np.zeros((2, 0)), axis=-1)


class TestGradBasics:
    def test_square_at_three(self):
        tape = nk.Tape()
        x = tape.param(3.0)
        loss = nk.mul(x, x)
        g = nk.grad(tape, loss)
        np.testing.assert_allclose(g[x], 6.0, rtol=1e-15)

    def test_unused_param_gets_zeros(self):
        tape = nk.Tape()
        x = tape.param(np.ones(3))
        y = tape.param(2.0)
        loss = nk.asum(nk.mul(x, x))
        g = nk.grad(tape, loss)
        np.testing.assert_array_equal(g[y], 0.0)

    def test_constant_loss_gives_zero_grad(self):
        tape = nk.Tape()
        x = tape.param(np.array([1.0, 2.0]))
        loss = nk.asum(nk.mul(x, 0.0))
        g = nk.grad(tape, loss)
        np.testing.assert_array_equal(g[x], np.zeros(2))

    def test_reuse_accumulates(self):
        # y = x + x, dy/dx = 2 through two paths
        tape = nk.Tape()
        x = tape.param(5.0)
        loss = nk.add(x, x)
        g = nk.grad(tape, loss)
        np.testing.assert_allclose(g[x], 2.0, rtol=0)

    def test_rejects_non_scalar_loss(self):
        tape = nk.Tape()
        x = tape.param(np.ones(3))
        y = nk.mul(x, 2.0)
        with pytest.raises(ContractError):
            nk.grad(tape, y)

    def test_rejects_foreign_loss(self):
        t1, t2 = nk.Tape(), nk.Tape()
        x = t1.param(1.0)
        loss = nk.mul(x, x)
        with pytest.raises(ContractError):
            nk.grad(t2, loss)

    def test_rejects_cross_tape_mixing(self):
        t1, t2 = nk.Tape(), nk.Tape()
        a = t1.param(1.0)
        b = t2.param(2.0)
        with pytest.raises(ContractError):
            nk.add(a, b)

    def test_eval_path_returns_plain_arrays(self):
        out = nk.relu(np.array([-1.0, 2.0]))
        assert isinstance(out, np.ndarray)
        out = nk.softmax_neg(np.zeros(4))
        assert isinstance(out, np.ndarray)

    def test_var_arithmetic_raises_in_both_operand_orders(self):
        tape = nk.Tape()
        x = tape.param(np.array([1.0, 2.0]))
        for other in (2.0, np.array([3.0, 4.0]), x):
            for op in ("add", "sub", "mul", "truediv", "matmul"):
                fn = getattr(operator, op)
                with pytest.raises(TypeError):
                    fn(x, other)
                with pytest.raises(TypeError):
                    fn(other, x)
        with pytest.raises(TypeError):
            operator.neg(x)


class TestTapeLifetime:
    def test_tape_is_freed_by_reference_counting(self):
        with collector_off():
            tape = nk.Tape()
            x = tape.param(np.array([1.0, -2.0, 3.0]), name="x")
            loss = nk.asum(nk.mul(nk.relu(x), x))
            g = nk.grad(tape, loss)[x]
            ref = weakref.ref(tape)
            del tape, x, loss
            assert ref() is None
        np.testing.assert_array_equal(g, [2.0, 0.0, 6.0])

    def test_var_outliving_its_tape_raises(self):
        with collector_off():
            tape = nk.Tape()
            x = tape.param(np.array([1.0, 2.0]))
            y = nk.mul(x, x)
            del tape
            with pytest.raises(ContractError, match="tape is gone"):
                nk.add(y, 1.0)
            with pytest.raises(ContractError, match="tape is gone"):
                nk.relu(x)
            with pytest.raises(ContractError, match="tape is gone"):
                x.tape
            np.testing.assert_array_equal(nk.value_of(y), [1.0, 4.0])

    def test_dead_operand_raises_beside_a_live_one(self):
        dead = nk.Tape().param(1.0)
        live_tape = nk.Tape()
        live = live_tape.param(2.0)
        with pytest.raises(ContractError):
            nk.add(live, dead)
        with pytest.raises(ContractError):
            nk.grad(live_tape, dead)


class TestUntapedOperands:
    OPS = [
        lambda a, b: nk.add(a, b), lambda a, b: sub(a, b),
        lambda a, b: nk.mul(a, b), lambda a, b: nk.div(a, b),
        lambda a, b: nk.relu(a), lambda a, b: nk.neg(b), lambda a, b: exp(a),
        lambda a, b: nk.flip_last(b), lambda a, b: sigmoid(a),
    ]

    @pytest.mark.parametrize("op", range(len(OPS)))
    def test_every_operand_form_gives_the_float64_result(self, op):
        fn = self.OPS[op]
        rng = np.random.default_rng(op)
        a, b = rng.standard_normal((2, 3, 4))
        want = fn(a, b)
        assert type(want) is np.ndarray and want.dtype == np.float64
        forms = [
            (a.tolist(), b.tolist()),
            (a.astype(np.float32), b),
            (a, b.astype(">f8")),
            (a.view(np.matrix), b.view(np.matrix)),
        ]
        for x, y in forms:
            x64, y64 = (np.asarray(v, dtype=np.float64) for v in (x, y))
            got = fn(x, y)
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert np.array_equal(got, fn(x64, y64), equal_nan=True)

    @pytest.mark.parametrize("op", range(4))
    def test_scalar_operands_give_the_float64_result(self, op):
        fn = self.OPS[op]
        got = fn(np.float64(2.5), 1.5)
        assert got == fn(np.array(2.5), np.array(1.5)) and got.dtype == np.float64


class TestGradAgainstFiniteDifferences:
    """Every composite graph below is checked by two independent routes."""

    def check(self, build, x0):
        def f(x):
            return np.asarray(nk.value_of(build(None, x))).item()

        def g_tape(x):
            tape = nk.Tape()
            p = tape.param(x)
            loss = build(tape, p)
            return nk.grad(tape, loss)[p]

        fd = central_diff(f, np.array(x0, dtype=np.float64))
        an = g_tape(np.array(x0, dtype=np.float64))
        assert rel_err(an, fd) < 1e-4

    def test_softmax_cross_entropy_chain(self):
        def build(tape, x):
            p = nk.softmax_neg(x)
            return nk.neg(log(nk.asum(nk.mul(p, np.array([1.0, 0.0, 0.0])))))

        self.check(build, [0.3, -1.2, 2.0])

    def test_logsumexp_margin_chain(self):
        def build(tape, x):
            return nk.add(nk.asum(nk.mul(x, x)), logsumexp(nk.neg(x)))

        self.check(build, [0.5, 1.5, -0.7, 0.1])

    def test_matmul_sigmoid_chain(self):
        w0 = np.random.default_rng(3).normal(size=(4, 3))

        def build(tape, x):
            h = sigmoid(nk.matmul(nk.reshape(x, (1, 4)), w0))
            return mean(nk.mul(h, h))

        self.check(build, np.random.default_rng(4).normal(size=4))

    def test_division_sqrt_chain(self):
        def build(tape, x):
            n = sqrt(nk.asum(nk.mul(x, x)))
            return nk.asum(nk.div(x, n))

        self.check(build, [1.0, 2.0, 2.0])

    def test_concat_repeat_tile_chain(self):
        def build(tape, x):
            m = nk.reshape(x, (2, 3))
            both = nk.concat([repeat_rows(m, 2), tile_rows(m, 2)], axis=0)
            return mean(nk.mul(both, nk.flip_last(both)))

        self.check(build, np.linspace(-1.0, 1.0, 6))

    def test_pair_rows_chain(self):
        w0 = np.random.default_rng(6).normal(size=(7, 2))

        def build(tape, x):
            a, b = nk.reshape(x, (4, 3)), nk.reshape(x, (3, 4))
            return mean(sigmoid(nk.matmul(nk.pair_rows(a, b), w0)))

        self.check(build, np.linspace(-1.0, 1.5, 12))

    def test_broadcast_sub_mean_chain(self):
        b0 = np.array([0.5, -0.5, 1.0])

        def build(tape, x):
            m = nk.reshape(x, (2, 3))
            return mean(exp(nk.neg(nk.mul(sub(m, b0), sub(m, b0)))))

        self.check(build, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_small_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        w = rng.normal(size=(n, n))
        t = rng.normal(size=n)

        def build(tape, x):
            h = nk.relu(nk.matmul(nk.reshape(x, (1, n)), w))
            p = nk.softmax_neg(h)
            d = sub(nk.reshape(p, (n,)), t)
            return nk.add(nk.asum(nk.mul(d, d)), logsumexp(h, axis=-1))

        x0 = rng.normal(size=n)

        def f(x):
            return np.asarray(nk.value_of(build(None, x))).item()

        tape = nk.Tape()
        p = tape.param(x0.copy())
        an = nk.grad(tape, build(tape, p))[p]
        fd = central_diff(f, x0.copy())
        assert rel_err(an, fd) < 1e-4


class TestShapeBackward:
    def test_matmul_grad_shapes(self):
        tape = nk.Tape()
        a = tape.param(np.random.default_rng(0).normal(size=(3, 4)))
        b = tape.param(np.random.default_rng(1).normal(size=(4, 2)))
        loss = nk.asum(nk.matmul(a, b))
        g = nk.grad(tape, loss)
        assert g[a].shape == (3, 4)
        assert g[b].shape == (4, 2)

    def test_mean_axis_keepdims(self):
        tape = nk.Tape()
        x = tape.param(np.arange(12.0).reshape(3, 4))
        loss = nk.asum(mean(x, axis=1, keepdims=True))
        g = nk.grad(tape, loss)
        np.testing.assert_allclose(g[x], np.full((3, 4), 0.25), rtol=0)

    def test_broadcast_add_reduces_bias(self):
        tape = nk.Tape()
        b = tape.param(np.zeros(4))
        x = np.ones((5, 4))
        loss = nk.asum(nk.add(x, b))
        g = nk.grad(tape, loss)
        np.testing.assert_array_equal(g[b], np.full(4, 5.0))

    def test_flip_last_is_involution(self):
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(nk.flip_last(nk.flip_last(x)), x)

    def test_matmul_rejects_non_2d(self):
        with pytest.raises(ContractError):
            nk.matmul(np.ones(3), np.ones((3, 2)))

    def test_repeat_and_tile_rows_take_untaped_stacks(self):
        # the reference forms the pair rows of stacked distances are checked against
        x = np.random.default_rng(2).normal(size=(3, 4, 5))
        for op in (repeat_rows, tile_rows):
            out = op(x, 3)
            assert out.shape == (3, 12, 5)
            assert np.array_equal(out, np.stack([op(s, 3) for s in x]))
            tape = nk.Tape()
            with pytest.raises(ContractError, match="expects a 2-D operand"):
                op(tape.param(x), 3)

    def test_pair_rows_take_untaped_stacks(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 2, 6))
        out = nk.pair_rows(a, b)
        assert out.shape == (3, 8, 11) and out.flags.c_contiguous
        for p in range(3):
            assert np.array_equal(out[p], nk.pair_rows(a[p], b[p]))
            assert np.array_equal(out[p], nk.concat([repeat_rows(a[p], 2), tile_rows(b[p], 4)]))
        assert nk.pair_rows(a[:, :0], b).shape == (3, 0, 11)

    @pytest.mark.parametrize("op,shapes", [
        (nk.matmul, [(3, 4), (4, 2)]),
        (nk.transpose, [(3, 4)]),
        (nk.affine, [(3, 4), (4, 2), (2,)]),
        (nk.expanded_sq_dist, [(3, 4), (5, 4)]),
        (nk.pair_rows, [(3, 4), (5, 2)]),
    ])
    def test_one_shape_rule(self, op, shapes):
        # each matrix operand in turn: a stack is refused on the tape, a
        # vector everywhere; affine's bias broadcasts and is not a matrix
        rng = np.random.default_rng(4)
        for i, shape in enumerate(shapes[:2]):
            values = [rng.normal(size=s) for s in shapes]
            stack = rng.normal(size=(2, *shape))
            tape = nk.Tape()
            with pytest.raises(ContractError, match="expects a 2-D operand"):
                op(*values[:i], tape.param(stack), *values[i + 1:])
            with pytest.raises(ContractError, match="expects a 2-D operand"):
                op(*values[:i], rng.normal(size=shape[-1]), *values[i + 1:])


# one call of every primitive in nk.__all__: (function of the operands, operand shapes)
PRIMITIVE_CALLS = {
    "add": (nk.add, [(3, 2), (2,)]),
    "mul": (nk.mul, [(3, 2), (3, 2)]),
    "div": (nk.div, [(3, 2), (3, 2)]),
    "neg": (nk.neg, [(3, 2)]),
    "matmul": (nk.matmul, [(3, 2), (2, 4)]),
    "transpose": (nk.transpose, [(3, 2)]),
    "reshape": (lambda x: nk.reshape(x, (2, 3)), [(3, 2)]),
    "concat": (lambda a, b: nk.concat([a, b], axis=0), [(3, 2), (1, 2)]),
    "relu": (nk.relu, [(3, 2)]),
    "asum": (lambda x: nk.asum(x, axis=0), [(3, 2)]),
    "flip_last": (nk.flip_last, [(3, 2)]),
    "softmax_neg": (nk.softmax_neg, [(3, 4)]),
    "expanded_sq_dist": (nk.expanded_sq_dist, [(3, 2), (4, 2)]),
    "pair_rows": (nk.pair_rows, [(3, 2), (4, 3)]),
    "cross_entropy": (lambda x: nk.cross_entropy(x, np.eye(3)), [(3, 3)]),
    "affine": (nk.affine, [(5, 3), (3, 2), (2,)]),
    "unit_rows": (lambda x: nk.unit_rows(x, 1e-12), [(5, 3)]),
    "calibrated_sigmoid": (nk.calibrated_sigmoid, [(5, 1), (), ()]),
}


class TestRecorder:
    """Every primitive returns through the one recorder, ``_apply``."""

    def test_every_primitive_has_a_call(self):
        not_primitives = {"Tape", "Var", "grad", "leaves", "value_of", "expand_centred"}
        assert set(PRIMITIVE_CALLS) == set(nk.__all__) - not_primitives

    @pytest.mark.parametrize("name", list(PRIMITIVE_CALLS))
    def test_plain_untaped_and_one_record_taped(self, name):
        op, shapes = PRIMITIVE_CALLS[name]
        rng = np.random.default_rng(5)
        values = [rng.normal(size=s) + 2.0 for s in shapes]
        plain = op(*values)
        # cross_entropy's mean over rows is numpy's float64 scalar
        assert type(plain) in (np.ndarray, np.float64)
        # each operand tracked alone, then all of them; the first call on
        # every tape is its first record, and an empty tape is falsy
        tracked = [[i] for i in range(len(values))] + [list(range(len(values)))]
        for which in tracked:
            tape = nk.Tape()
            out = op(*(tape.param(v) if i in which else v for i, v in enumerate(values)))
            assert isinstance(out, nk.Var) and len(tape) == 1
            assert np.array_equal(out.value, plain)
            op(*(tape.param(v) if i in which else v for i, v in enumerate(values)))
            assert len(tape) == 2


# --------------------------------------------------------------------------
# Fused primitives against the compositions they replace
# --------------------------------------------------------------------------


def ref_sq_dist(a, b):
    (n, l), m = nk.value_of(a).shape, nk.value_of(b).shape[0]
    diff = sub(nk.reshape(a, (n, 1, l)), nk.reshape(b, (1, m, l)))
    return nk.asum(nk.mul(diff, diff), axis=-1)


def ref_cross_entropy(logits, targets):
    true_logit = nk.asum(nk.mul(logits, targets), axis=1)
    return mean(sub(logsumexp(logits, axis=-1), true_logit))


def ref_affine(x, w, b):
    return nk.add(nk.matmul(x, w), b)


def ref_unit_rows(x, floor):
    return nk.div(x, sqrt(nk.asum(nk.mul(x, x), axis=-1, keepdims=True)))


def ref_calibrated_sigmoid(h, alpha, beta):
    return nk.add(nk.mul(exp(alpha), sigmoid(h)), exp(beta))


def ref_pair_rows(a, b):
    n, m = nk.value_of(a).shape[0], nk.value_of(b).shape[0]
    return nk.concat([repeat_rows(a, m), tile_rows(b, n)], axis=-1)


def taped(build, values):
    """Value of ``build`` on tracked ``values`` and every value's gradient.

    The loss weights the output with fixed random numbers, so each
    entry's adjoint differs.
    """
    tape = nk.Tape()
    params = [tape.param(v) for v in values]
    out = build(*params)
    weights = np.random.default_rng(0).standard_normal(np.shape(nk.value_of(out)))
    grads = nk.grad(tape, nk.asum(nk.mul(out, weights)))
    return nk.value_of(out), [grads[p] for p in params]


def assert_same_as_reference(fused, reference, values):
    """Bitwise equal values and gradients, on the tape and off it."""
    assert np.array_equal(fused(*values), reference(*values))
    got, got_grads = taped(fused, values)
    want, want_grads = taped(reference, values)
    assert np.array_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        assert g.shape == w.shape and np.array_equal(g, w)


def one_hot_rows(rng, n, c):
    out = np.zeros((n, c))
    out[np.arange(n), rng.integers(0, c, n)] = 1.0
    return out


class TestFusedPrimitives:
    @pytest.mark.parametrize("n,c", [(8, 5), (120, 15), (1, 1), (6, 20)])
    def test_cross_entropy(self, n, c):
        rng = np.random.default_rng(n + c)
        targets = one_hot_rows(rng, n, c)
        assert_same_as_reference(
            lambda x: nk.cross_entropy(x, targets),
            lambda x: ref_cross_entropy(x, targets),
            [3.0 * rng.normal(size=(n, c))],
        )

    @pytest.mark.parametrize("n,d,h", [(5, 3, 4), (120, 16, 64), (1, 8, 1)])
    def test_affine(self, n, d, h):
        rng = np.random.default_rng(n + d + h)
        values = [rng.normal(size=(n, d)), rng.normal(size=(d, h)), rng.normal(size=h)]
        assert_same_as_reference(nk.affine, ref_affine, values)

    @pytest.mark.parametrize("n,l", [(6, 4), (120, 64), (3, 1)])
    def test_unit_rows(self, n, l):
        x = np.random.default_rng(n + l).normal(size=(n, l))
        assert_same_as_reference(
            lambda v: nk.unit_rows(v, 1e-12), lambda v: ref_unit_rows(v, 1e-12), [x]
        )

    @pytest.mark.parametrize("n", [1, 9, 300])
    def test_calibrated_sigmoid(self, n):
        rng = np.random.default_rng(n)
        h = 10.0 * rng.normal(size=(n, 1))  # both branches of the stable sigmoid
        values = [h, np.asarray(rng.normal()), np.asarray(rng.normal())]
        assert_same_as_reference(nk.calibrated_sigmoid, ref_calibrated_sigmoid, values)

    @pytest.mark.parametrize("n,m,la,lb", [(4, 3, 5, 5), (15, 5, 64, 64), (1, 7, 2, 3)])
    def test_pair_rows(self, n, m, la, lb):
        rng = np.random.default_rng(n + m)
        assert_same_as_reference(nk.pair_rows, ref_pair_rows,
                                 [rng.normal(size=(n, la)), rng.normal(size=(m, lb))])
        # one input on both sides, recorded before a node that adds two
        # contributions of its own: four adjoints sum into it, in an order
        # that shows in the bits
        w = rng.normal(size=(n * n, 2 * la))

        def shared(pair_rows):
            return lambda x: nk.add(nk.asum(nk.mul(pair_rows(x, x), w)), nk.asum(nk.mul(x, x)))

        assert_same_as_reference(shared(nk.pair_rows), shared(ref_pair_rows),
                                 [10.0 * rng.normal(size=(n, la))])

    def test_stacked_untaped_calls_equal_composition(self):
        rng = np.random.default_rng(4)
        x, w, b = rng.normal(size=(3, 5, 4)), rng.normal(size=(4, 6)), rng.normal(size=6)
        assert np.array_equal(nk.affine(x, w, b), ref_affine(x, w, b))
        assert np.array_equal(nk.unit_rows(x, 1e-12), ref_unit_rows(x, 1e-12))
        h = rng.normal(size=(3, 5, 1))
        assert np.array_equal(
            nk.calibrated_sigmoid(h, 0.3, -0.2), ref_calibrated_sigmoid(h, 0.3, -0.2)
        )

    def test_stacked_parameter_sets_equal_their_own_calls(self):
        rng = np.random.default_rng(9)
        x, w, b = rng.normal(size=(9, 8)), rng.normal(size=(5, 8, 7)), rng.normal(size=(5, 7))
        rows = rng.normal(size=(5, 9, 8))
        shared, own = nk.affine(x, w, b), nk.affine(rows, w, b)
        logits, targets = rng.normal(size=(5, 9, 4)), one_hot_rows(rng, 9, 4)
        losses = nk.cross_entropy(logits, targets)
        assert shared.shape == own.shape == (5, 9, 7) and losses.shape == (5,)
        for p in range(5):
            assert np.array_equal(shared[p], nk.affine(x, w[p], b[p]))
            assert np.array_equal(own[p], nk.affine(rows[p], w[p], b[p]))
            assert np.array_equal(losses[p], nk.cross_entropy(logits[p], targets))
            assert np.array_equal(nk.transpose(logits)[p], nk.transpose(logits[p]))

    def test_tape_rejects_stacks_of_weights_logits_and_matrices(self):
        tape = nk.Tape()
        with pytest.raises(ContractError):
            nk.affine(tape.param(np.ones((2, 3))), np.ones((4, 3, 2)), np.ones((4, 2)))
        with pytest.raises(ContractError):
            nk.cross_entropy(tape.param(np.ones((4, 2, 3))), np.eye(3)[:2])
        with pytest.raises(ContractError):
            nk.transpose(tape.param(np.ones((4, 2, 3))))

    @pytest.mark.parametrize("seed", range(4))
    def test_shared_inputs_accumulate_in_the_same_order(self, seed):
        # x, h, the logits and alpha each reach one node twice or more (x
        # as rows and weights of affine, h as both sides of the distance
        # node, alpha as both scalars of the sigmoid) and a later node too,
        # so each adjoint sums contributions whose order shows in the bits;
        # a scalar's sum can round alike in either order, so several seeds
        # run. Both sides share the distance node, which is not bitwise a
        # composition.
        rng = np.random.default_rng(seed)
        values = [rng.normal(size=(6, 6)), rng.normal(size=6), rng.normal(size=(6, 1)),
                  rng.normal(size=(4, 6)), np.asarray(rng.normal())]
        targets = one_hot_rows(rng, 6, 4)
        weights, pair_weights = rng.normal(size=(6, 4)), rng.normal(size=(6, 6))

        def build(cross_entropy, affine, unit_rows, calibrated_sigmoid):
            def loss(x, b, w1, protos, alpha):
                h = nk.add(unit_rows(x, 1e-12), affine(x, x, b))
                logits = nk.neg(nk.expanded_sq_dist(h, protos))
                g = calibrated_sigmoid(affine(h, w1, alpha), alpha, alpha)
                terms = [
                    cross_entropy(logits, targets),
                    nk.asum(nk.mul(logits, weights)),
                    nk.asum(nk.mul(nk.expanded_sq_dist(h, h), pair_weights)),
                    nk.mul(alpha, nk.asum(g)),
                    nk.asum(nk.mul(h, h)),
                    nk.asum(nk.mul(x, x)),
                ]
                total = terms[0]
                for t in terms[1:]:
                    total = nk.add(total, t)
                return total
            return loss

        fused = build(nk.cross_entropy, nk.affine, nk.unit_rows, nk.calibrated_sigmoid)
        reference = build(ref_cross_entropy, ref_affine, ref_unit_rows, ref_calibrated_sigmoid)
        assert_same_as_reference(fused, reference, values)

    def test_grad_twice_on_one_tape(self):
        rng = np.random.default_rng(12)
        targets = one_hot_rows(rng, 5, 3)
        tape = nk.Tape()
        x, w, b, w2 = (tape.param(v) for v in (
            rng.normal(size=(5, 4)), rng.normal(size=(4, 4)), rng.normal(size=4),
            rng.normal(size=(4, 1)),
        ))
        alpha = tape.param(np.asarray(0.1))
        h = nk.unit_rows(nk.relu(nk.affine(x, w, b)), 1e-12)
        g = nk.calibrated_sigmoid(nk.affine(h, w2, alpha), alpha, alpha)
        d = nk.div(nk.expanded_sq_dist(h, nk.reshape(mean(h, axis=0), (1, 4))), nk.mul(g, g))
        logits = nk.concat([nk.neg(d), nk.neg(nk.mul(d, 2.0)), d], axis=1)
        loss = nk.cross_entropy(logits, targets)
        first = nk.grad(tape, loss)
        second = nk.grad(tape, loss)
        for p in (x, w, b, w2, alpha):
            assert np.array_equal(first[p], second[p])

    @pytest.mark.parametrize("op,shapes", [
        (nk.expanded_sq_dist, [(5, 3), (4, 3)]),
        (lambda x: nk.cross_entropy(x, np.eye(3)), [(3, 3)]),
        (nk.affine, [(5, 3), (3, 2), (2,)]),
        (lambda x: nk.unit_rows(x, 1e-12), [(5, 3)]),
        (nk.calibrated_sigmoid, [(5, 1), (), ()]),
    ])
    def test_one_record_each(self, op, shapes):
        tape = nk.Tape()
        rng = np.random.default_rng(1)
        op(*(tape.param(rng.normal(size=s) + 2.0) for s in shapes))
        assert len(tape) == 1

    def test_sq_dist_stays_off_the_tape_for_stacks(self):
        tape = nk.Tape()
        with pytest.raises(ContractError):
            nk.expanded_sq_dist(tape.param(np.ones((2, 3, 4))), np.ones((2, 5, 4)))

    def test_cross_entropy_checks(self):
        tape = nk.Tape()
        with pytest.raises(ContractError):
            nk.cross_entropy(np.zeros((2, 3)), tape.param(np.eye(3)[:2]))
        with pytest.raises(ContractError):
            nk.cross_entropy(np.zeros((2, 3)), np.eye(3))
        with pytest.raises(ContractError):
            nk.cross_entropy(np.zeros((2, 0)), np.zeros((2, 0)))
        # no rows, 2-D, stacked or taped, on both sides of 8 classes: no mean to take
        for logits in (np.zeros((0, 3)), np.zeros((2, 0, 3)), np.zeros((0, 9)),
                       tape.param(np.zeros((0, 3)))):
            with pytest.raises(ContractError, match="at least one row"):
                nk.cross_entropy(logits, np.zeros(nk.value_of(logits).shape[-2:]))
        with pytest.raises(DomainError):
            nk.cross_entropy(np.array([[0.0, np.inf]]), np.array([[1.0, 0.0]]))

    def test_unit_rows_floor(self):
        with pytest.raises(DomainError):
            nk.unit_rows(np.array([[1.0, 0.0], [0.0, 1e-13]]), 1e-12)
        assert np.array_equal(nk.unit_rows(np.array([[3.0, 4.0]]), 1e-12), [[0.6, 0.8]])


def same_bits(a, b):
    """Equal shapes and equal bits, so +0.0 and -0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def awkward_rows(rng, shape):
    """(..., n, c) draws, n >= 6: rows of ties, signed zeros and large magnitudes."""
    x = 3.0 * rng.standard_normal(shape)
    x[..., 0, :] = 0.0  # every entry ties at the maximum
    x[..., 1, :] = np.where(np.arange(shape[-1]) % 2, -0.0, 0.0)  # signed zeros
    x[..., 2, :2] = 5.0  # two tied maxima above the rest
    x[..., 3, :] *= 1e6
    x[..., 4, :] *= 1e150
    x[..., 5, -1] = -0.0
    return x


class TestShortClassAxis:
    """Fewer than 8 classes run class-major, with the row-major bits.

    The class counts 1..12 cover both sides of 8, where numpy's
    last-axis sum turns pairwise and the kernels keep the row-major code.
    """

    @pytest.mark.parametrize("c", range(1, 13))
    def test_softmax_neg_is_the_row_major_reference(self, c):
        rng = np.random.default_rng(c)
        d = awkward_rows(rng, (3, 9, c))
        kept = d.copy()
        for x in (d, d[0], d[0, 2], d[:, :, :1]):
            got = nk.softmax_neg(x)
            assert got.flags.c_contiguous
            assert same_bits(got, row_major_softmax_neg(x))
        stacked = nk.softmax_neg(d)
        for p in range(3):
            assert same_bits(stacked[p], nk.softmax_neg(d[p]))
        assert same_bits(d, kept)  # the class-major copy is overwritten, not the input
        tape = nk.Tape()
        x = tape.param(d[0])
        out = nk.softmax_neg(x)
        w = rng.standard_normal((9, c))
        g = nk.grad(tape, nk.asum(nk.mul(out, w)))[x]
        p = row_major_softmax_neg(d[0])
        assert out.value.flags.c_contiguous and same_bits(out.value, p)
        assert g.flags.c_contiguous
        assert same_bits(g, -p * (w - (w * p).sum(axis=-1, keepdims=True)))

    @pytest.mark.parametrize("c", range(1, 13))
    def test_cross_entropy_is_the_row_major_composition(self, c):
        rng = np.random.default_rng(100 + c)
        logits = awkward_rows(rng, (4, 9, c))
        targets = one_hot_rows(rng, 9, c)
        kept = logits.copy()
        for p in range(4):
            got, got_grads = taped(lambda x: nk.cross_entropy(x, targets), [logits[p]])
            want, want_grads = taped(lambda x: ref_cross_entropy(x, targets), [logits[p]])
            assert same_bits(got, want)
            assert got_grads[0].flags.c_contiguous
            assert same_bits(got_grads[0], want_grads[0])
            assert same_bits(nk.cross_entropy(logits[p], targets), want)
        losses = nk.cross_entropy(logits, targets)
        assert losses.shape == (4,) and losses.flags.c_contiguous
        for p in range(4):
            assert same_bits(losses[p], nk.cross_entropy(logits[p], targets))
        assert same_bits(logits, kept)


class TestExpandedSqDist:
    """The expansion node against the difference composition it stands in for.

    It is not bitwise that composition: values and gradients agree within
    ``RTOL`` of the composition's largest entry.
    """

    RTOL = 1e-12

    def assert_close(self, got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= self.RTOL * np.max(np.abs(want))

    def assert_matches_composition(self, a, b):
        got, got_grads = taped(nk.expanded_sq_dist, [a, b])
        want, want_grads = taped(ref_sq_dist, [a, b])
        assert np.array_equal(got, nk.expanded_sq_dist(a, b))  # one arithmetic on and off the tape
        assert np.all(got >= 0.0)
        self.assert_close(got, want)
        for g, w in zip(got_grads, want_grads):
            self.assert_close(g, w)

    @pytest.mark.parametrize("n,m,l", [(120, 15, 64), (11, 9, 2), (5, 9, 1)])
    def test_gradients_match_the_difference_composition(self, n, m, l):
        rng = np.random.default_rng(n * 100 + m * 10 + l)
        self.assert_matches_composition(rng.normal(size=(n, l)), rng.normal(size=(m, l)))

    @pytest.mark.parametrize("offset", [1e4, 1e6])
    def test_translated_rows_stay_within_the_bound(self, offset):
        # about the origin the expansion would cancel terms of order
        # offset**2 * l and miss the bound by orders of magnitude
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(30, 16)), rng.normal(size=(5, 16))
        self.assert_matches_composition(a + offset, b + offset)

    def test_stack_slices_are_their_own_calls(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(4, 11, 6)), rng.normal(size=(4, 5, 6))
        flipped = a[..., ::-1]
        assert flipped.strides[-1] < 0
        for rows in (a, flipped):
            stacked = nk.expanded_sq_dist(rows, b)
            assert stacked.shape == (4, 11, 5)
            for p in range(4):
                assert np.array_equal(stacked[p], nk.expanded_sq_dist(rows[p], b[p]))
        assert np.array_equal(nk.expanded_sq_dist(flipped, b),
                              nk.expanded_sq_dist(np.ascontiguousarray(flipped), b))

    def test_one_record_and_plain_row_sets_on_the_tape(self):
        tape = nk.Tape()
        nk.expanded_sq_dist(tape.param(np.ones((5, 3))), tape.param(np.zeros((4, 3))))
        assert len(tape) == 1
        with pytest.raises(ContractError):
            nk.expanded_sq_dist(tape.param(np.ones((2, 3, 4))), np.ones((2, 5, 4)))

    def test_empty_row_sets_give_empty_results(self):
        # no prototypes centre on the origin: no "Mean of empty slice"
        # warning (an error under this suite's filters), and no nan gradients
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, 5, 4)), rng.normal(size=(2, 3, 4))
        assert nk.expanded_sq_dist(a, b[:, :0]).shape == (2, 5, 0)
        assert nk.expanded_sq_dist(a[:, :0], b).shape == (2, 0, 3)
        for x, y, shape in ((a[0], b[0, :0], (5, 0)), (a[0, :0], b[0], (0, 3))):
            got, grads = taped(nk.expanded_sq_dist, [x, y])
            assert got.shape == shape
            for g, v in zip(grads, (x, y)):
                assert g.shape == v.shape and np.all(g == 0.0)

    def test_untaped_shape_errors_are_contract_errors(self):
        # a vector was taken as one row, a vector b raised IndexError and
        # rows of two widths numpy's broadcast ValueError
        rows = np.ones((2, 3))
        with pytest.raises(ContractError, match="expects a 2-D operand"):
            nk.expanded_sq_dist(np.ones(3), rows)
        with pytest.raises(ContractError, match="expects a 2-D operand"):
            nk.expanded_sq_dist(rows, np.ones(3))
        for a, b in ((rows, np.ones((4, 5))), (np.ones((2, 2, 3)), np.ones((2, 4, 5)))):
            with pytest.raises(ContractError, match="rows of one width"):
                nk.expanded_sq_dist(a, b)


class TestParamReuse:
    def test_same_object_and_equal_copy_share_one_leaf(self):
        tape = nk.Tape()
        w = np.arange(6.0).reshape(2, 3)
        leaf = tape.param(w, name="w")
        assert tape.param(w, name="w") is leaf
        assert tape.param(w.copy(), name="w") is leaf
        assert len(tape.named_params) == 1

    def test_different_value_raises(self):
        tape = nk.Tape()
        w = np.arange(6.0).reshape(2, 3)
        tape.param(w, name="w")
        with pytest.raises(ContractError):
            tape.param(w + 1.0, name="w")


class TestLeaves:
    def test_untaped_returns_the_given_arrays(self):
        named = {"g.w": np.arange(6.0).reshape(2, 3), "g.b": np.zeros(3)}
        got = nk.leaves(named, None)
        assert got.keys() == named.keys()
        assert all(got[k] is named[k] for k in named)

    def test_taped_calls_share_one_leaf_per_name(self):
        tape = nk.Tape()
        named = {"g.w": np.array([[1.0, -2.0], [0.5, 3.0]]), "g.b": np.array([0.25, -1.0])}
        first, second = nk.leaves(named, tape), nk.leaves(dict(named), tape)
        assert list(tape.named_params) == ["g.w", "g.b"]
        assert all(first[k] is second[k] is tape.named_params[k] for k in named)
        x = np.array([[1.0, 2.0], [-1.0, 0.5]])
        # the group enters twice, as a forward pass that reads it twice would
        loss = nk.asum(nk.add(nk.affine(x, first["g.w"], first["g.b"]),
                              nk.affine(x, second["g.w"], second["g.b"])))
        grads = nk.grad(tape, loss)
        assert len(grads) == 2
        np.testing.assert_array_equal(grads[first["g.w"]], 2 * x.T @ np.ones((2, 2)))
        np.testing.assert_array_equal(grads[first["g.b"]], [4.0, 4.0])


def ways_major_softmax_neg(d):
    """Softmax of -d along axis -2, the classes, each reduction taken one class after another."""
    low = d[..., 0, :]
    for c in range(1, d.shape[-2]):
        low = np.minimum(low, d[..., c, :])
    e = np.exp(low[..., None, :] - d)
    total = e[..., 0, :]
    for c in range(1, d.shape[-2]):
        total = total + e[..., c, :]
    return e / total[..., None, :]


def taped_value(build, values):
    """The forward value ``build`` records on a fresh tape, every value tracked."""
    tape = nk.Tape()
    return build(*[tape.param(v) for v in values]).value


class TestValueKernels:
    """The plain-array kernels evaluation calls, bitwise their taped nodes' forward values.

    Each kernel runs on a stack at once; the taped node runs on one 2-D
    slice at a time, the only operand it takes for a matrix product.
    """

    @pytest.mark.parametrize("shape", [(7, 5), (3, 6, 8), (2, 4, 3, 64)])
    def test_unit_rows(self, shape):
        rng = np.random.default_rng(len(shape))
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 6, size=(*shape[:-1], 1))
        kept = x.copy()
        got, norms = nk._unit_rows_value(x, 1e-12)
        assert same_bits(got, taped_value(lambda v: nk.unit_rows(v, 1e-12), [x]))
        assert same_bits(norms, np.sqrt((x * x).sum(axis=-1, keepdims=True)))
        for i in np.ndindex(shape[:-2]):
            assert same_bits(got[i], taped_value(lambda v: nk.unit_rows(v, 1e-12), [x[i]]))
        assert same_bits(x, kept)
        x[(0,) * (len(shape) - 1)] = 0.0
        with pytest.raises(DomainError) as node:
            nk.unit_rows(x, 1e-12)
        with pytest.raises(DomainError) as kernel:
            nk._unit_rows_value(x, 1e-12)
        assert str(kernel.value) == str(node.value)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_calibrated_sigmoid(self, stacked):
        # a stacked scaler holds one (alpha, beta) per parameter set
        rng = np.random.default_rng(7)
        h = 20.0 * rng.standard_normal((4, 9, 1))
        h[0, :3, 0] = (0.0, -0.0, 750.0)
        alpha, beta = rng.standard_normal(4), rng.standard_normal(4)
        if not stacked:
            alpha, beta = np.full(4, alpha[0]), np.full(4, beta[0])
        ea, eb = np.exp(alpha[:, None, None]), np.exp(beta[:, None, None])
        if not stacked:
            ea, eb = np.exp(alpha[0]), np.exp(beta[0])
        kept = h.copy()
        value, sig = nk._calibrated_sigmoid_value(h, ea, eb)
        assert same_bits(h, kept) and same_bits(sig, nk._sigmoid_value(h))
        for p in range(4):
            assert same_bits(value[p], taped_value(nk.calibrated_sigmoid, [h[p], alpha[p], beta[p]]))
        if not stacked:
            assert same_bits(value, taped_value(nk.calibrated_sigmoid, [h, alpha[0], beta[0]]))
        assert nk._calibrated_sigmoid_value(h, ea, eb, out=h)[0] is h and same_bits(h, value)

    @pytest.mark.parametrize("weights", ["shared", "stacked"])
    def test_affine(self, weights):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 6, 16))
        w = rng.standard_normal((5, 16, 32) if weights == "stacked" else (16, 32))
        b = rng.standard_normal((5, 32) if weights == "stacked" else (32,))
        got = nk._affine_value(x, w, b)
        for p in range(5):
            wp, bp = (w[p], b[p]) if weights == "stacked" else (w, b)
            assert same_bits(got[p], taped_value(nk.affine, [x[p], wp, bp]))

    @pytest.mark.parametrize("ways", [2, 5, 7, 8, 9, 15])
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_softmax_neg(self, ways, axis):
        # below and from 8 classes, on the last axis and ways-major, in place too
        rng = np.random.default_rng(ways)
        d = np.abs(awkward_rows(rng, (3, 9, ways)))
        d[..., 4, :] = 3.0 * rng.standard_normal((3, ways))  # no overflow to inf
        rows = d
        d = np.ascontiguousarray(np.swapaxes(d, -1, -2)) if axis == -2 else d
        kept = d.copy()
        got = nk._softmax_neg_value(d, axis)
        assert same_bits(d, kept) and got.flags.c_contiguous
        if axis == -1:
            assert same_bits(got, taped_value(nk.softmax_neg, [d]))
            for p in range(3):
                assert same_bits(got[p], taped_value(nk.softmax_neg, [d[p]]))
        else:
            assert same_bits(got, ways_major_softmax_neg(d))
            for p in range(3):
                assert same_bits(got[p], nk._softmax_neg_value(d[p], -2))
            if ways < 8:  # one class after another in both layouts
                assert same_bits(got, np.swapaxes(taped_value(nk.softmax_neg, [rows]), -1, -2))
        if axis == -2 or ways >= 8:
            assert nk._softmax_neg_value(d, axis, out=d) is d and same_bits(d, got)
        with pytest.raises(DomainError, match="softmax_neg input must be finite"):
            nk._softmax_neg_value(np.full((2, ways), np.inf), axis)
