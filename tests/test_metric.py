"""Metric definitions: closed-form anchors, scaler calibration, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mct import numkit as nk
from mct.errors import ContractError, DomainError
from mct.metric import METRIC_KINDS, MetricSpec, ScalerParams, pairwise, scaler_eval
from oracles import distance, mean, query_terms, row_major_distances


def zero_scaler(in_dim, hidden=32, b2=0.0, alpha=0.0, beta=0.0):
    return ScalerParams(
        w1=np.zeros((in_dim, hidden)),
        b1=np.zeros(hidden),
        w2=np.zeros((hidden, 1)),
        b2=np.full(1, b2),
        alpha=np.asarray(alpha),
        beta=np.asarray(beta),
    )


def unit_scaler(in_dim):
    """g identically 1: sigmoid driven to exactly 0, beta = 0."""
    return zero_scaler(in_dim, b2=-1000.0)


def all_specs(dim, seed=0):
    rng = np.random.default_rng(seed)
    return [
        MetricSpec.euclid(),
        MetricSpec.scaled(7.5),
        MetricSpec.instance(dim, rng),
        MetricSpec.pair(dim, rng),
    ]


def stacked_spec(kind, dim, sets):
    """One ``kind`` spec of ``sets`` parameter sets, and the single-set specs it stacks."""
    if kind == "scaled":
        singles = [MetricSpec.scaled(7.5 / (p + 1)) for p in range(sets)]
    else:
        singles = [all_specs(dim, seed=p)[METRIC_KINDS.index(kind)] for p in range(sets)]
    named = {k: np.stack([s.to_named()[k] for s in singles]) for k in singles[0].to_named()}
    return MetricSpec.from_named(kind, named), singles


class TestScalerEval:
    def test_zero_network_gives_three_halves(self):
        g = scaler_eval(zero_scaler(4), np.ones(4))
        assert g == 1.5

    def test_saturated_low_approaches_one(self):
        g = scaler_eval(zero_scaler(4, b2=-1000.0), np.ones(4))
        assert g == 1.0

    def test_range_interval(self):
        rng = np.random.default_rng(0)
        scaler = ScalerParams.init(6, rng)
        feats = rng.normal(size=(200, 6))
        g = scaler_eval(scaler, feats)
        lo, hi = np.exp(0.0), np.exp(0.0) + np.exp(0.0)
        assert np.all(g > lo) and np.all(g < hi)

    def test_calibration_shifts_range(self):
        scaler = zero_scaler(3, alpha=1.0, beta=-1.0)
        g = scaler_eval(scaler, np.zeros(3))
        assert g == pytest.approx(np.exp(1.0) * 0.5 + np.exp(-1.0), rel=1e-15)

    def test_alpha_gradient_at_zero_point(self):
        tape = nk.Tape()
        g = scaler_eval(zero_scaler(4), np.ones(4), tape)
        grads = nk.grad(tape, g)
        alpha = tape.named_params["metric.scaler.alpha"]
        np.testing.assert_allclose(grads[alpha], 0.5, rtol=1e-15)

    def test_batch_column_shape(self):
        g = scaler_eval(zero_scaler(4), np.ones((7, 4)))
        assert g.shape == (7, 1)

    def test_stack_equals_one_call_per_set_bitwise(self):
        rng = np.random.default_rng(9)
        scaler = ScalerParams.init(8, rng)
        feats = rng.normal(size=(4, 7, 8))
        stacked = scaler_eval(scaler, feats)
        assert stacked.shape == (4, 7, 1)
        assert np.array_equal(stacked, np.stack([scaler_eval(scaler, f) for f in feats]))
        with pytest.raises(ContractError):
            scaler_eval(scaler, feats, nk.Tape())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            scaler_eval(zero_scaler(4), np.ones(5))
        # rows of the right width but not a stack of 3 name the stack, not the width
        scaler = stacked_spec("instance", 4, 3)[0].scaler
        for rows in (np.ones((5, 4)), np.ones((2, 5, 4))):
            with pytest.raises(ContractError, match=r"3 parameter sets score a \(3, n, l\)"):
                scaler_eval(scaler, rows)


class TestMetricSpecValidation:
    def test_kind_parameter_pairing(self):
        with pytest.raises(ContractError):
            MetricSpec(kind="euclid", s=1.0)
        with pytest.raises(ContractError):
            MetricSpec(kind="scaled")
        with pytest.raises(ContractError):
            MetricSpec(kind="instance")
        with pytest.raises(ContractError):
            MetricSpec(kind="pair", s=2.0, scaler=zero_scaler(8))
        with pytest.raises(ContractError):
            MetricSpec(kind="cosine")

    def test_kinds_enumerated(self):
        assert METRIC_KINDS == ("euclid", "scaled", "instance", "pair")


class TestDistanceAnchors:
    def test_identical_nonzero_input_is_zero_for_every_kind(self):
        a = np.array([0.3, -1.2, 0.4, 2.0])
        for spec in all_specs(4):
            assert distance(spec, a, a) == 0.0

    def test_euclid_squared(self):
        d = distance(MetricSpec.euclid(), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert d == 2.0

    def test_scaled_unit_difference(self):
        a = np.array([2.0, 5.0, -1.0])
        b = a.copy()
        b[0] -= 1.0
        assert distance(MetricSpec.scaled(7.5), a, b) == 7.5

    def test_instance_with_unit_g_on_basis_vectors(self):
        spec = MetricSpec(kind="instance", scaler=unit_scaler(3))
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        assert distance(spec, e1, e2) == 2.0

    def test_instance_zero_network_shrinks_by_g_squared(self):
        spec = MetricSpec(kind="instance", scaler=zero_scaler(3))
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(distance(spec, e1, e2), 2.0 / 1.5**2, rtol=1e-15)

    def test_fresh_instance_distance_within_sigmoid_interval(self):
        # both g's live in (1, 2), so the rescaled basis gap lands in (1/2, 2)
        rng = np.random.default_rng(3)
        spec = MetricSpec.instance(3, rng)
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        d = distance(spec, e1, e2)
        assert 2.0 / 4.0 < d < 2.0

    def test_pair_zero_network(self):
        spec = MetricSpec(kind="pair", scaler=zero_scaler(6))
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(distance(spec, e1, e2), 2.0 / 1.5**2, rtol=1e-15)

    def test_normalized_kinds_ignore_positive_scaling_with_constant_g(self):
        spec = MetricSpec(kind="instance", scaler=unit_scaler(4))
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=4), rng.normal(size=4)
        base = distance(spec, a, b)
        for lam in (0.5, 3.0, 250.0):
            np.testing.assert_allclose(distance(spec, lam * a, b), base, rtol=1e-12)

    def test_zero_norm_rejected_for_normalized_kinds(self):
        for spec in all_specs(3)[2:]:
            with pytest.raises(DomainError):
                distance(spec, np.zeros(3), np.ones(3))

    def test_euclid_accepts_zero_vectors(self):
        assert distance(MetricSpec.euclid(), np.zeros(3), np.zeros(3)) == 0.0

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_property_nonnegative_and_self_zero(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=5) + 0.1
        b = rng.normal(size=5) + 0.1
        for spec in all_specs(5, seed=seed):
            d = distance(spec, a, b)
            assert d >= 0.0
            assert distance(spec, a, a) == 0.0


class TestPairwise:
    def test_shape_and_consistency_with_single(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(4, 6))
        B = rng.normal(size=(3, 6))
        for spec in all_specs(6):
            D = pairwise(spec, A, B)
            assert D.shape == (4, 3)
            for i in range(4):
                for j in range(3):
                    np.testing.assert_allclose(
                        D[i, j], distance(spec, A[i], B[j]), rtol=1e-12
                    )

    def test_pair_kind_is_order_sensitive_in_general(self):
        # the shared g sees (query, prototype) concatenation as written;
        # no symmetrization is applied
        rng = np.random.default_rng(5)
        spec = MetricSpec.pair(4, rng)
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert distance(spec, a, b) != distance(spec, b, a)

    def test_diagonal_exactly_zero(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(5, 4))
        euclid, scaled, instance, pair = all_specs(4)
        for spec in (euclid, scaled):
            np.testing.assert_array_equal(np.diag(pairwise(spec, A, A)), np.zeros(5))
        # the learned kinds expand, so a diagonal entry is rounding: a few
        # eps, since they compare rows of norm at most 1 (unit rows over g > 1)
        for spec in (instance, pair):
            diag = np.diag(pairwise(spec, A, A))
            assert np.all(diag >= 0.0) and np.all(diag <= 1e-14)

    def test_untaped_is_the_row_major_reference_bitwise(self):
        # untaped pairwise transposes ways-major distances and builds the
        # pair kind's rows by one fill; the reference takes the row-major
        # product and the concat/repeat/tile pair rows, with the same
        # centre, for 2-D rows, a stack and a spec of 3 parameter sets
        rng = np.random.default_rng(12)
        for lead in ((), (3,)):
            A, B = rng.normal(size=(*lead, 9, 6)), rng.normal(size=(*lead, 4, 6))
            specs = all_specs(6) + ([stacked_spec(k, 6, 3)[0] for k in METRIC_KINDS[1:]] if lead else [])
            for spec in specs:
                got = pairwise(spec, A, B)
                assert got.shape == (*lead, 9, 4) and got.flags.c_contiguous
                assert np.array_equal(got, row_major_distances(spec, query_terms(spec, A, B), B))
                if not lead:
                    tape = nk.Tape()
                    assert np.array_equal(nk.value_of(pairwise(spec, A, B, tape)), got)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ContractError):
            pairwise(MetricSpec.euclid(), np.ones((2, 3)), np.ones((2, 4)))
        # a spec of 3 parameter sets takes a (3, n, l) stack and no other rows,
        # with one error that names the stack
        rng = np.random.default_rng(10)
        for kind in ("scaled", "instance", "pair"):
            spec = stacked_spec(kind, 3, 3)[0]
            for lead in ((), (2,)):
                a, b = rng.normal(size=(*lead, 4, 3)), rng.normal(size=(*lead, 5, 3))
                with pytest.raises(ContractError, match=r"3 parameter sets score a \(3, n, l\)"):
                    pairwise(spec, a, b)

    def test_stack_slices_equal_unstacked_calls_bitwise(self):
        # distances expand about the prototype mean: each slice is bitwise
        # its own call, never below zero, and rows with negative strides
        # give the bits of their contiguous copy
        rng = np.random.default_rng(7)
        A = rng.normal(size=(3, 7, 6))
        B = rng.normal(size=(3, 5, 6))
        B[:, 0] = A[:, 0]  # an exact zero in the difference form
        flipped = A[..., ::-1]
        assert flipped.strides[-1] < 0
        for spec in all_specs(6):
            per_slice = np.stack([pairwise(spec, a, b) for a, b in zip(A, B)])
            assert np.array_equal(pairwise(spec, A, B), per_slice)
            assert np.all(per_slice >= 0.0)
            copy = np.ascontiguousarray(flipped)
            assert np.array_equal(pairwise(spec, flipped, B), pairwise(spec, copy, B))
        # a spec of 3 parameter sets scores row set p with set p, as set p alone does
        for kind in METRIC_KINDS:
            spec, singles = stacked_spec(kind, 6, 3)
            assert np.array_equal(pairwise(spec, A, B), np.stack([
                pairwise(single, a, b) for single, a, b in zip(singles, A, B)
            ]))
        # rows in column-major order: the expansion itself takes the C-ordered bits
        wide = rng.normal(size=(15, 64))
        protos = rng.normal(size=(5, 64))
        for spec in all_specs(64)[:2]:  # euclid and scaled, which compare the rows as they are
            fortran = np.asfortranarray(wide)
            assert np.array_equal(pairwise(spec, fortran, protos), pairwise(spec, wide, protos))

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_sq_diff_promotes_like_numpy(self, dtype):
        # rows of another dtype are compared as their float64 values, and
        # every slice of a stack is its own call
        rng = np.random.default_rng(3)
        A = (rng.normal(size=(4, 11, 64)) * 8).astype(dtype)
        B = rng.normal(size=(4, 5, 64))
        for spec in all_specs(64)[:2]:  # euclid and scaled, which compare the rows as they are
            got = pairwise(spec, A, B)
            assert got.dtype == np.float64
            assert np.array_equal(got, pairwise(spec, A.astype(np.float64), B))
            for i in range(4):
                assert np.array_equal(got[i], pairwise(spec, A[i], B[i]))
        diff = A[..., :, None, :] - B[..., None, :, :]
        exact = (diff * diff).sum(axis=-1)
        got = pairwise(MetricSpec.euclid(), A, B)
        assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(exact)

    def test_empty_row_sets_give_empty_distances(self):
        rng = np.random.default_rng(4)
        A, B = rng.normal(size=(3, 6, 5)), rng.normal(size=(3, 4, 5))
        for spec in all_specs(5):
            assert pairwise(spec, A, B[:, :0]).shape == (3, 6, 0)
            assert pairwise(spec, A[:, :0], B).shape == (3, 0, 4)
            assert pairwise(spec, A[0], B[0, :0]).shape == (6, 0)
            tape = nk.Tape()
            a = tape.param(A[0])
            d = pairwise(spec, a, B[0, :0], tape)
            assert d.shape == (6, 0)
            assert np.all(nk.grad(tape, nk.asum(d))[a] == 0.0)

    def test_stacks_stay_off_the_tape(self):
        spec = MetricSpec.instance(3, np.random.default_rng(8))
        a, b = np.ones((2, 3)), np.full((4, 3), 2.0)
        with pytest.raises(ContractError, match="differentiated"):
            pairwise(spec, a[None], b[None], nk.Tape())
        # nor do specs of several parameter sets, on the rows they score
        with pytest.raises(ContractError, match="differentiated"):
            pairwise(stacked_spec("pair", 3, 3)[0], a, b, nk.Tape())


class TestMetricGradients:
    def rel_err(self, a, b, floor=1e-4):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        return np.max(np.abs(a - b) / denom)

    def check_input_gradient(self, spec, seed=0):
        rng = np.random.default_rng(seed)
        a0 = rng.normal(size=(2, 4)) + 0.2
        b0 = rng.normal(size=(3, 4)) + 0.2
        w = rng.normal(size=(2, 3))

        def f(a_flat):
            D = pairwise(spec, a_flat.reshape(2, 4), b0)
            return float((D * w).sum())

        tape = nk.Tape()
        a = tape.param(a0.copy(), name="a")
        loss = nk.asum(nk.mul(pairwise(spec, a, b0, tape), w))
        an = nk.grad(tape, loss)[a].reshape(-1)

        x = a0.reshape(-1).copy()
        fd = np.zeros_like(x)
        for i in range(x.size):
            orig = x[i]
            x[i] = orig + 1e-6
            hi = f(x)
            x[i] = orig - 1e-6
            lo = f(x)
            x[i] = orig
            fd[i] = (hi - lo) / 2e-6
        assert self.rel_err(an, fd) < 1e-4

    def test_input_gradients_all_kinds(self):
        for spec in all_specs(4, seed=11):
            self.check_input_gradient(spec, seed=12)

    def test_scaler_parameter_gradients(self):
        rng = np.random.default_rng(13)
        spec = MetricSpec.instance(4, rng)
        a0 = rng.normal(size=(2, 4)) + 0.1
        b0 = rng.normal(size=(2, 4)) + 0.1

        tape = nk.Tape()
        loss = mean(pairwise(spec, a0, b0, tape))
        grads = nk.grad(tape, loss)
        named = tape.named_params

        base = spec.scaler.to_named()
        for key in ("metric.scaler.alpha", "metric.scaler.w2"):
            target = base[key]
            fd = np.zeros_like(np.atleast_1d(target), dtype=np.float64).reshape(-1)
            flatness = np.asarray(target, dtype=np.float64).reshape(-1)
            for i in range(flatness.size):
                bumped = {k: np.array(v, dtype=np.float64) for k, v in base.items()}
                bv = bumped[key].reshape(-1)
                bv[i] += 1e-6
                hi = float(np.mean(pairwise(
                    MetricSpec(kind="instance", scaler=ScalerParams.from_named(bumped)),
                    a0, b0)))
                bv[i] -= 2e-6
                lo = float(np.mean(pairwise(
                    MetricSpec(kind="instance", scaler=ScalerParams.from_named(bumped)),
                    a0, b0)))
                fd[i] = (hi - lo) / 2e-6
            an = grads[named[key]].reshape(-1)
            assert self.rel_err(an, fd) < 1e-4
