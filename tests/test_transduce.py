"""Transduction math: closed forms, view-collapse identities, mass monotonicity."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mct import numkit as nk
from mct.checkpoint import ModelState
from mct.encoder import VIEWS, EncoderParams, encode_batch, view_by_name
from mct.episodes import Episode, SyntheticSpec, derive_seed, gen_synthetic, sample_episode
from mct.errors import ContractError, DomainError
from mct.evalcli import EvalProtocol, evaluate, nll
from mct.metatrain import TrainConfig, train
from mct.metric import _NORM_FLOOR, METRIC_KINDS, MetricSpec, pairwise
from mct.transduce import (
    init_from_embeddings,
    predict_labels,
    refine_batch,
    update_prototypes,
)
from oracles import (
    centred_confidence, check_confidence, confidence, metric_of, row_major_refine, semi_infer,
)

EUCLID = MetricSpec.euclid()


def palindromize(ep: Episode) -> Episode:
    """Widen inputs to x ++ reverse(x), making every row reversal-invariant."""

    def sym(a):
        return None if a is None else np.concatenate([a, a[:, ::-1]], axis=1)

    return Episode(
        ways=ep.ways, shots=ep.shots,
        support_x=sym(ep.support_x), support_y=ep.support_y,
        query_x=sym(ep.query_x), query_y=ep.query_y,
        unlabeled_x=sym(ep.unlabeled_x),
        support_g=ep.support_g, query_g=ep.query_g,
    )


def synth_episode(seed=0, ways=5, shots=1, queries=15, dim=16, spread=4.0, std=1.0,
                  unlabeled=0):
    spec = SyntheticSpec(input_dim=dim, class_spread=spread, within_std=std)
    ep, oracle = gen_synthetic(spec, ways, shots, queries, seed, unlabeled=unlabeled)
    return ep, oracle


class TestInitPrototypes:
    def test_one_shot_prototype_is_the_support_point(self):
        ep, _ = synth_episode(shots=1)
        protos = init_from_embeddings(encode_batch(None, ep.support_x, VIEWS[0]),
                                      ep.support_y, ep.ways)
        np.testing.assert_array_equal(protos, ep.support_x)

    def test_opposite_points_average_to_zero(self):
        a = np.array([[1.0, -2.0], [-1.0, 2.0]])
        protos = init_from_embeddings(a, [1, 1], ways=1)
        np.testing.assert_array_equal(protos, np.zeros((1, 2)))

    def test_collapsed_views_share_prototypes(self):
        ep, _ = synth_episode(dim=8)
        sym = palindromize(ep)
        protos = [init_from_embeddings(encode_batch(None, sym.support_x, v), sym.support_y, sym.ways)
                  for v in VIEWS]
        for other in protos[1:]:
            np.testing.assert_array_equal(other, protos[0])

    def test_multi_shot_mean(self):
        emb = np.array([[0.0, 0.0], [2.0, 4.0], [10.0, 0.0], [10.0, 2.0]])
        protos = init_from_embeddings(emb, [1, 1, 2, 2], ways=2)
        np.testing.assert_array_equal(protos, [[1.0, 2.0], [10.0, 1.0]])

    def test_missing_class_rejected(self):
        with pytest.raises(ContractError):
            init_from_embeddings(np.ones((2, 3)), [1, 1], ways=2)


class TestConfidence:
    def test_equidistant_prototypes_give_uniform(self):
        q = np.zeros((1, 2))
        protos = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        conf = confidence(q, protos, EUCLID)
        np.testing.assert_allclose(conf, np.full((1, 4), 0.25), rtol=0, atol=1e-15)

    def test_gap_closed_form(self):
        # query on P_1, the other C-1 prototypes at squared distance gap
        gap, C = 2.0, 4
        q = np.zeros((1, 3))
        protos = np.zeros((C, 3))
        for c in range(1, C):
            protos[c] = 0.0
            protos[c, c % 3] = np.sqrt(gap)
        conf = confidence(q, protos, EUCLID)
        expected = 1.0 / (1.0 + (C - 1) * np.exp(-gap))
        np.testing.assert_allclose(conf[0, 0], expected, rtol=1e-14)

    def test_two_class_log_two_gap(self):
        q = np.zeros((1, 2))
        protos = np.array([[0.0, 0.0], [np.sqrt(np.log(2.0)), 0.0]])
        conf = confidence(q, protos, EUCLID)
        np.testing.assert_allclose(conf[0], [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    @pytest.mark.parametrize("kind", ["euclid", "scaled"])
    def test_translated_rows_keep_the_difference_form_argmax(self, kind):
        # distances by expansion centre on the prototype mean, so an
        # offset far from the origin costs no precision
        metric = MetricSpec.scaled(7.5) if kind == "scaled" else EUCLID
        for seed in range(20):
            ep, _ = synth_episode(seed=seed)
            protos = init_from_embeddings(ep.support_x, ep.support_y, ep.ways)
            for offset in (0.0, 1e4, 1e6):
                q, p = ep.query_x + offset, protos + offset
                conf = confidence(q, p, metric)
                exact = nk.softmax_neg(pairwise(metric, q, p))
                assert np.array_equal(predict_labels(conf), predict_labels(exact))
                np.testing.assert_allclose(conf, exact, rtol=0, atol=1e-6)

    def test_rows_sum_to_one_under_learned_metric(self):
        rng = np.random.default_rng(0)
        conf = confidence(
            rng.normal(size=(40, 6)) + 0.1,
            rng.normal(size=(5, 6)) + 0.1,
            MetricSpec.instance(6, rng),
        )
        check_confidence(conf, 5)


class TestUpdatePrototypes:
    def test_zero_mass_keeps_support_mean(self):
        emb_s = np.array([[0.0, 0.0], [4.0, 2.0]])
        emb_q = np.array([[100.0, 100.0]])
        conf = np.array([[0.0, 0.0]])
        out = update_prototypes(emb_s, [1, 2], 2, emb_q, conf)
        np.testing.assert_array_equal(out, emb_s)

    def test_hard_assignment_limit(self):
        emb_s = np.array([[0.0], [10.0]])
        emb_q = np.array([[2.0], [8.0], [4.0]])
        conf = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        out = update_prototypes(emb_s, [1, 2], 2, emb_q, conf)
        np.testing.assert_allclose(out, [[2.0], [9.0]], rtol=1e-15)

    def test_half_confidence_closed_form(self):
        # one support at 0, one query at v with weight 1/2: (0 + v/2)/(3/2) = v/3
        v = np.array([3.0, -6.0, 9.0])
        out = update_prototypes(
            np.zeros((1, 3)), [1], 1, v[None, :], np.array([[0.5]])
        )
        np.testing.assert_allclose(out[0], v / 3.0, rtol=1e-15)

    def test_mass_pulls_prototype_toward_query(self):
        rng = np.random.default_rng(1)
        emb_s = rng.normal(size=(3, 4))
        emb_q = rng.normal(size=(6, 4))
        conf = np.abs(rng.normal(size=(6, 3)))
        conf /= conf.sum(axis=1, keepdims=True)
        base = update_prototypes(emb_s, [1, 2, 3], 3, emb_q, conf)
        bumped = conf.copy()
        bumped[2, 0] += 0.1
        moved = update_prototypes(emb_s, [1, 2, 3], 3, emb_q, bumped)
        direction = emb_q[2] - base[0]
        assert np.dot(moved[0] - base[0], direction) > 0.0

    def test_translation_equivariance(self):
        rng = np.random.default_rng(2)
        emb_s = rng.normal(size=(4, 5))
        emb_q = rng.normal(size=(7, 5))
        conf = np.abs(rng.normal(size=(7, 2)))
        conf /= conf.sum(axis=1, keepdims=True)
        v = np.array([3.0, -1.0, 0.5, 2.0, -2.0])
        base = update_prototypes(emb_s, [1, 1, 2, 2], 2, emb_q, conf)
        shifted = update_prototypes(emb_s + v, [1, 1, 2, 2], 2, emb_q + v, conf)
        np.testing.assert_allclose(shifted, base + v, rtol=0, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            update_prototypes(np.ones((2, 3)), [1, 2], 2, np.ones((4, 3)), np.ones((3, 2)))

    @pytest.mark.parametrize("rows", [1, 7])
    def test_untaped_stacks_give_each_slice_its_own_call(self, rows):
        # refine_batch's update is this arithmetic on (E, V) stacks, with
        # one set of weights shared by an episode's views
        rng = np.random.default_rng(rows)
        y, emb_s, emb_q = [1, 2, 2, 3], rng.normal(size=(5, 4, 6)), rng.normal(size=(5, rows, 6))
        conf = rng.dirichlet(np.ones(3), size=(5, rows))
        init = init_from_embeddings(emb_s, y, 3)
        updated = update_prototypes(emb_s, y, 3, emb_q, conf)
        assert init.shape == updated.shape == (5, 3, 6)
        for p in range(5):
            assert np.array_equal(init[p], init_from_embeddings(emb_s[p], y, 3))
            assert np.array_equal(updated[p], update_prototypes(emb_s[p], y, 3, emb_q[p], conf[p]))
        views = update_prototypes(np.stack([emb_s] * 2, axis=1), y, 3,
                                  np.stack([emb_q] * 2, axis=1), conf[:, None])
        assert views.shape == (5, 2, 3, 6)
        assert np.array_equal(views[:, 0], updated) and np.array_equal(views[:, 1], updated)


class TestSoftKmeans:
    def test_t_zero_is_inductive(self):
        ep, _ = synth_episode(seed=3)
        protos = init_from_embeddings(encode_batch(None, ep.support_x, VIEWS[0]),
                                      ep.support_y, ep.ways)
        direct = confidence(ep.query_x, protos, EUCLID)
        np.testing.assert_array_equal(refine_batch([ep], None, VIEWS[:1], EUCLID, 0)[0, -1], direct)

    def test_t_one_matches_manual_chain(self):
        ep, _ = synth_episode(seed=4)
        protos = init_from_embeddings(encode_batch(None, ep.support_x, VIEWS[0]),
                                      ep.support_y, ep.ways)
        q0 = confidence(ep.query_x, protos, EUCLID)
        p1 = update_prototypes(ep.support_x, ep.support_y, ep.ways, ep.query_x, q0)
        # every step's distances expand about the step-0 prototypes' mean
        q1 = centred_confidence(ep.query_x, p1, EUCLID, protos)
        np.testing.assert_array_equal(refine_batch([ep], None, VIEWS[:1], EUCLID, 1)[0, -1], q1)

    def test_negative_t_rejected(self):
        ep, _ = synth_episode()
        with pytest.raises(ContractError):
            refine_batch([ep], None, VIEWS[:1], EUCLID, -1)

    @settings(deadline=None, max_examples=15)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=0, max_value=10))
    def test_property_rows_sum_to_one_at_every_depth(self, seed, T):
        ep, _ = synth_episode(seed=seed, queries=6)
        conf = refine_batch([ep], None, VIEWS[:1], EUCLID, T)[0, -1]
        check_confidence(conf, ep.ways)


class TestMctInfer:
    def test_collapsed_views_match_single_view(self):
        ep, _ = synth_episode(seed=6, dim=8)
        sym = palindromize(ep)
        ens = refine_batch([sym], None, VIEWS, EUCLID, 10)[0, -1]
        solo = refine_batch([sym], None, VIEWS[:1], EUCLID, 10)[0, -1]
        np.testing.assert_allclose(ens, solo, rtol=0, atol=1e-12)

    def test_two_view_ensemble_is_exact_mean(self):
        ep, _ = synth_episode(seed=7, dim=8)
        views = (view_by_name("full"), view_by_name("aug"))
        ens = refine_batch([ep], None, views, EUCLID, 0)[0, -1]
        p = refine_batch([ep], None, views[:1], EUCLID, 0)[0, -1]
        r = refine_batch([ep], None, views[1:], EUCLID, 0)[0, -1]
        np.testing.assert_array_equal(ens, (p + r) / 2.0)

    def test_rows_sum_to_one(self):
        ep, _ = synth_episode(seed=8)
        check_confidence(refine_batch([ep], None, VIEWS, EUCLID, 10)[0, -1], ep.ways)

    def test_empty_views_rejected(self):
        ep, _ = synth_episode()
        with pytest.raises(ContractError):
            refine_batch([ep], None, (), EUCLID, 1)


class TestSemiInfer:
    def test_needs_unlabeled(self):
        ep, _ = synth_episode()
        with pytest.raises(ContractError):
            semi_infer(ep, None, EUCLID)

    def test_saturated_support_copy_is_fixed_point(self):
        # classes so far apart that soft assignments are exactly one-hot:
        # re-feeding the support leaves 1-shot prototypes exactly in place
        spec = SyntheticSpec(input_dim=4, class_spread=100.0, within_std=0.0)
        base, _ = gen_synthetic(spec, 3, 1, 2, rng_seed=9)
        ep = Episode(
            ways=3, shots=1,
            support_x=base.support_x, support_y=base.support_y,
            query_x=base.query_x, query_y=base.query_y,
            unlabeled_x=np.array(base.support_x),
        )
        protos, u_conf, q_conf = semi_infer(ep, None, EUCLID)
        np.testing.assert_array_equal(protos, ep.support_x)
        np.testing.assert_array_equal(u_conf, np.eye(3))

    @pytest.mark.parametrize("kind", METRIC_KINDS)
    def test_semi_scoring_rows_are_inductive_and_refined(self, kind):
        encoder, width = ENCODERS["init"]
        metric = metric_of(kind, width)
        ep, _ = synth_episode(seed=12, unlabeled=6)
        trace = refine_batch([ep], encoder, VIEWS[:1], metric, 1)[0]
        assert trace.shape == (2, ep.query_x.shape[0], ep.ways)
        assert np.array_equal(trace[0], refine_batch([ep], encoder, VIEWS[:1], metric, 0)[0, -1])
        assert np.array_equal(trace[1], semi_infer(ep, encoder, metric)[2])

    def test_refinement_moves_prototypes(self):
        ep, _ = synth_episode(seed=11, unlabeled=10)
        protos, _, q_conf = semi_infer(ep, None, EUCLID)
        init = init_from_embeddings(encode_batch(None, ep.support_x, VIEWS[0]),
                                    ep.support_y, ep.ways)
        assert np.abs(protos - init).max() > 1e-9
        check_confidence(q_conf, ep.ways)


class TestPredictLabels:
    def test_argmax_plus_one(self):
        conf = np.array([[0.1, 0.7, 0.2], [0.9, 0.05, 0.05]])
        np.testing.assert_array_equal(predict_labels(conf), [2, 1])

    def test_tie_goes_to_lowest_class(self):
        np.testing.assert_array_equal(predict_labels(np.array([[0.5, 0.5]])), [1])

    def test_transduction_beats_induction_on_one_friendly_seed(self):
        # a single spot check; the statistical version over 1000 episodes
        # lives in the acceptance suite
        ep, _ = synth_episode(seed=1234, queries=15)
        trace = refine_batch([ep], None, VIEWS[:1], EUCLID, 10)[0]
        t0 = np.mean(predict_labels(trace[0]) == ep.query_y)
        t10 = np.mean(predict_labels(trace[10]) == ep.query_y)
        assert t10 >= t0


# --------------------------------------------------------------------------
# The stacked refinement core against the per-view loop it replaced
# --------------------------------------------------------------------------


def per_view_soft_kmeans(episode, encoder, view, metric, T):
    """Single-view refinement, one step at a time (test oracle)."""
    emb_s = encode_batch(encoder, episode.support_x, view)
    emb_q = encode_batch(encoder, episode.query_x, view)
    protos0 = protos = init_from_embeddings(emb_s, episode.support_y, episode.ways)
    conf = confidence(emb_q, protos, metric)
    for _ in range(T):
        protos = update_prototypes(emb_s, episode.support_y, episode.ways, emb_q, conf)
        conf = centred_confidence(emb_q, protos, metric, protos0)
    return conf


def per_view_mct_infer(episode, encoder, views, metric, T):
    """Ensemble refinement with one prototype set per view, view by view (test oracle)."""
    emb_s = {v.name: encode_batch(encoder, episode.support_x, v) for v in views}
    emb_q = {v.name: encode_batch(encoder, episode.query_x, v) for v in views}
    protos0 = protos = {
        v.name: init_from_embeddings(emb_s[v.name], episode.support_y, episode.ways)
        for v in views
    }
    for t in range(T + 1):
        locals_ = [centred_confidence(emb_q[v.name], protos[v.name], metric, protos0[v.name])
                   for v in views]
        ensemble = sum(locals_) / len(views)
        if t == T:
            return ensemble
        protos = {
            v.name: update_prototypes(
                emb_s[v.name], episode.support_y, episode.ways, emb_q[v.name], ensemble,
            )
            for v in views
        }


ENCODERS = {
    "identity": (None, 16),
    "init": (EncoderParams.init(16, np.random.default_rng(5), hidden=32,
                                positions=2, channels=16), 32),
}
VIEW_SETS = (VIEWS[:1], VIEWS[1:3], VIEWS)


@pytest.fixture(scope="module")
def trained_state():
    """A 20-step instance model over the residual encoder."""
    pool = SyntheticSpec(input_dim=16, class_spread=4.0, within_std=1.0,
                         pool_classes=20, pool_seed=7)
    state, _ = train(pool, TrainConfig(steps=20, ways=4, shots=1, queries=3, seed=11))
    return state


class TestRefine:
    @pytest.mark.parametrize("kind", METRIC_KINDS)
    @pytest.mark.parametrize("encoder_name", sorted(ENCODERS))
    def test_bitwise_equal_to_per_view_loop(self, kind, encoder_name):
        encoder, width = ENCODERS[encoder_name]
        metric = metric_of(kind, width)
        episodes = [synth_episode(seed=s, shots=2, queries=7)[0] for s in (21, 22)]
        # one-row batches take other BLAS kernels than many-row ones
        episodes.append(synth_episode(seed=24, ways=1, queries=1)[0])
        episodes.append(synth_episode(seed=25, ways=2, queries=1)[0])
        for ep in episodes:
            for views in VIEW_SETS:
                inductive = per_view_mct_infer(ep, encoder, views, metric, 0)
                for T in (0, 1, 10):
                    trace = refine_batch([ep], encoder, views, metric, T)[0]
                    assert trace.shape == (T + 1, ep.query_x.shape[0], ep.ways)
                    assert np.array_equal(trace[0], inductive)
                    expected = per_view_mct_infer(ep, encoder, views, metric, T)
                    assert np.array_equal(trace[-1], expected), (len(views), T)
                    if len(views) == 1:
                        solo = per_view_soft_kmeans(ep, encoder, views[0], metric, T)
                        assert np.array_equal(trace[-1], solo)

    @pytest.mark.parametrize("kind", METRIC_KINDS)
    @pytest.mark.parametrize("encoder_name", ["identity", "trained"])
    def test_t_zero_is_each_views_confidence_and_their_mean(self, kind, encoder_name,
                                                            trained_state):
        # criterion 3's T=0 identity for every kind, view and encoder
        encoder, metric = None, metric_of(kind, 16)
        if encoder_name == "trained":
            encoder = trained_state.encoder
            metric = (trained_state.metric if kind == "instance"
                      else metric_of(kind, encoder.positions * encoder.channels))
        for seed in range(5):
            ep, _ = synth_episode(seed=40 + seed)
            locals_ = []
            for view in VIEWS:
                protos = init_from_embeddings(
                    encode_batch(encoder, ep.support_x, view), ep.support_y, ep.ways
                )
                local = confidence(encode_batch(encoder, ep.query_x, view), protos, metric)
                assert np.array_equal(refine_batch([ep], encoder, (view,), metric, 0)[0, 0], local)
                locals_.append(local)
            mean = (locals_[0] + locals_[1] + locals_[2] + locals_[3]) / 4
            assert np.array_equal(refine_batch([ep], encoder, VIEWS, metric, 0)[0, 0], mean)

    @pytest.mark.parametrize("kind", ["euclid", "scaled", "instance"])
    def test_translated_rows_keep_the_difference_chain(self, kind):
        # every step expands about the step-0 prototype mean, so rows far
        # from the origin cost no precision however far the prototypes move
        metric = MetricSpec.scaled(7.5) if kind == "scaled" else metric_of(kind, 16)
        for seed in range(20):
            base, _ = synth_episode(seed=seed)
            for offset in (0.0, 1e4, 1e6):
                ep = Episode(
                    ways=base.ways, shots=base.shots,
                    support_x=base.support_x + offset, support_y=base.support_y,
                    query_x=base.query_x + offset, query_y=base.query_y,
                )
                trace = refine_batch([ep], None, VIEWS[:1], metric, 10)[0]
                protos = init_from_embeddings(ep.support_x, ep.support_y, ep.ways)
                for t in range(11):
                    exact = nk.softmax_neg(pairwise(metric, ep.query_x, protos))
                    assert np.array_equal(predict_labels(trace[t]), predict_labels(exact))
                    np.testing.assert_allclose(trace[t], exact, rtol=0, atol=1e-6)
                    protos = update_prototypes(ep.support_x, ep.support_y, ep.ways,
                                               ep.query_x, exact)

    def test_trace_rows_are_the_shorter_runs(self):
        ep, _ = synth_episode(seed=23)
        trace = refine_batch([ep], None, VIEWS, EUCLID, 5)[0]
        for t in range(6):
            assert np.array_equal(trace[t], refine_batch([ep], None, VIEWS, EUCLID, t)[0, -1])

    @pytest.mark.parametrize("mode,ensemble", [
        ("transductive", True), ("transductive", False), ("inductive", True),
    ])
    def test_evaluate_records_match_two_pass_scoring(self, mode, ensemble):
        encoder, width = ENCODERS["init"]
        state = ModelState(metric=metric_of("instance", width, seed=3), encoder=encoder)
        source = SyntheticSpec(input_dim=16, class_spread=4.0, within_std=1.0)
        protocol = EvalProtocol(n_episodes=3, T=4, mode=mode, ensemble=ensemble, master_seed=9)
        views = VIEWS if ensemble else VIEWS[:1]
        report = evaluate(state, source, protocol)
        for i, record in enumerate(report.records):
            ep = sample_episode(source, 5, 1, 15, derive_seed(9, i))
            conf0 = per_view_mct_infer(ep, encoder, views, state.metric, 0)
            conf = conf0
            if mode == "transductive":
                conf = per_view_mct_infer(ep, encoder, views, state.metric, 4)
            accuracy = float(np.mean(predict_labels(conf) == ep.query_y))
            assert (record.accuracy, record.nll, record.nll_final) == (
                accuracy, nll(conf0, ep.query_y), nll(conf, ep.query_y)
            )


def batch_of(count, seed=30, **kw):
    return [synth_episode(seed=seed + i, **kw)[0] for i in range(count)]


class TestWaysMajor:
    """The engine's ways-major steps against the row-major ones (tests/oracles.py)."""

    @pytest.mark.parametrize("kind", METRIC_KINDS)
    @pytest.mark.parametrize("pooled", [False, True])
    def test_bitwise_the_row_major_steps_below_eight_ways(self, kind, pooled):
        encoder, width = ENCODERS["init"]
        metric = metric_of(kind, width)
        for ways in range(2, 8):
            episodes = batch_of(3, seed=70 + 3 * ways, ways=ways, queries=4,
                                unlabeled=5 if pooled else 0)
            for views in (VIEWS[:1], VIEWS):
                got = refine_batch(episodes, encoder, views, metric, 4)
                assert np.array_equal(got, row_major_refine(episodes, encoder, views, metric, 4))

    @pytest.mark.parametrize("kind", METRIC_KINDS)
    @pytest.mark.parametrize("ways", [8, 15])
    def test_last_bits_from_eight_ways(self, kind, ways):
        # numpy sums 8 or more classes of a row pairwise, and the ways-major
        # softmax sums them in order, so step 0 agrees to the last bits. The
        # learned kinds' bounded distances keep it there; the sharper
        # confidences over raw embeddings (euclid, scaled) amplify it step by
        # step, to at most 8.8e-13 by T=10 over 3 seeds, 2 encoders, 8-20 ways
        encoder, width = ENCODERS["init"]
        metric = metric_of(kind, width)
        bound = 1e-15 if kind in ("instance", "pair") else 5e-12
        for pooled in (False, True):
            episodes = batch_of(3, seed=90 + ways, ways=ways, queries=4,
                                unlabeled=5 if pooled else 0)
            for views in (VIEWS[:1], VIEWS):
                got = refine_batch(episodes, encoder, views, metric, 10)
                ref = row_major_refine(episodes, encoder, views, metric, 10)
                gap = np.abs(got - ref).max(axis=(0, 2, 3))
                assert gap[0] <= 1e-15 and np.max(gap) <= bound


class TestRefineBatch:
    @pytest.mark.parametrize("kind", METRIC_KINDS)
    @pytest.mark.parametrize("encoder_name", sorted(ENCODERS))
    def test_slices_equal_per_episode_refine(self, kind, encoder_name):
        encoder, width = ENCODERS[encoder_name]
        metric = metric_of(kind, width)
        episodes = batch_of(7, shots=2, queries=2)
        for views in (VIEWS[:1], VIEWS):
            for T in (0, 10):
                solo = [refine_batch([ep], encoder, views, metric, T)[0] for ep in episodes]
                for count in (1, 3, 4, 7):
                    batch = refine_batch(episodes[:count], encoder, views, metric, T)
                    assert batch.shape == (count, T + 1, 10, 5)
                    for i in range(count):
                        assert np.array_equal(batch[i], solo[i]), (len(views), T, count, i)

    def test_episodes_with_other_label_orders_do_not_mix(self):
        # support rows listed in another class order: the class sums use
        # each episode's own labels
        ep, _ = synth_episode(seed=40, shots=2, queries=2)
        order = np.argsort(-ep.support_y, kind="stable")
        flipped = Episode(
            ways=ep.ways, shots=ep.shots,
            support_x=ep.support_x[order], support_y=ep.support_y[order],
            query_x=ep.query_x, query_y=ep.query_y,
        )
        other, _ = synth_episode(seed=41, shots=2, queries=2)
        batch = refine_batch([flipped, other], None, VIEWS, EUCLID, 3)
        assert np.array_equal(batch[0], refine_batch([flipped], None, VIEWS, EUCLID, 3)[0])
        assert np.array_equal(batch[1], refine_batch([other], None, VIEWS, EUCLID, 3)[0])
        check_confidence(batch[0, -1], ep.ways)

    @pytest.mark.parametrize("kind", METRIC_KINDS)
    @pytest.mark.parametrize("encoder_name", sorted(ENCODERS))
    def test_pool_driven_rows_equal_semi_infer(self, kind, encoder_name):
        encoder, width = ENCODERS[encoder_name]
        metric = metric_of(kind, width)
        episodes = batch_of(5, seed=50, unlabeled=3)
        batch = refine_batch(episodes, encoder, VIEWS[:1], metric, 1)
        assert batch.shape == (5, 2, 75, 5)
        for ep, trace in zip(episodes, batch):
            assert np.array_equal(trace[0], refine_batch([ep], encoder, VIEWS[:1], metric, 0)[0, -1])
            assert np.array_equal(trace[1], semi_infer(ep, encoder, metric)[2])

    def test_pool_drives_every_step_and_view(self):
        # with a pool the queries only score: moving them changes no
        # prototype, so the other query rows keep their confidences
        ep = batch_of(1, seed=60, unlabeled=4)[0]
        moved = Episode(
            ways=ep.ways, shots=ep.shots,
            support_x=ep.support_x, support_y=ep.support_y,
            query_x=np.concatenate([ep.query_x[:1] + 50.0, ep.query_x[1:]]),
            query_y=ep.query_y, unlabeled_x=ep.unlabeled_x,
        )
        a = refine_batch([ep], None, VIEWS, EUCLID, 3)[0]
        b = refine_batch([moved], None, VIEWS, EUCLID, 3)[0]
        assert np.array_equal(a[:, 1:], b[:, 1:])
        no_pool = refine_batch([Episode(
            ways=ep.ways, shots=ep.shots, support_x=ep.support_x, support_y=ep.support_y,
            query_x=ep.query_x, query_y=ep.query_y,
        )], None, VIEWS, EUCLID, 3)[0]
        assert np.array_equal(a[0], no_pool[0])
        assert not np.array_equal(a[-1], no_pool[-1])

    @pytest.mark.parametrize("n_views", [1, 4])
    @pytest.mark.parametrize("kind,fault", [
        ("euclid", "far"), ("scaled", "far"), ("instance", "zero"), ("pair", "zero"),
    ])
    def test_non_finite_distances_raise_domain_error(self, kind, fault, n_views):
        # query rows whose squares overflow: the ways-major softmax still checks;
        # a zero row under a learned kind: the batch's unit rows raise nk.unit_rows' error
        ep, other = batch_of(2, seed=61)
        query_x = ep.query_x * 1e200
        message = "softmax_neg input must be finite"
        if fault == "zero":
            query_x = ep.query_x.copy()
            query_x[3] = 0.0
            with pytest.raises(DomainError) as caught:
                nk.unit_rows(query_x[3:4], _NORM_FLOOR)
            message = str(caught.value)
        bad = Episode(
            ways=ep.ways, shots=ep.shots, support_x=ep.support_x, support_y=ep.support_y,
            query_x=query_x, query_y=ep.query_y,
        )
        metric = metric_of(kind, 16)
        with np.errstate(all="ignore"):
            with pytest.raises(DomainError, match=re.escape(message)):
                refine_batch([other, bad], None, VIEWS[:n_views], metric, 3)
            with pytest.raises(DomainError, match=re.escape(message)):
                confidence(bad.query_x, ep.support_x, metric)

    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("kind", METRIC_KINDS)
    def test_inputs_are_left_untouched(self, kind, pooled):
        # the engine computes into temporaries of its own and in place:
        # no model tensor and no episode array may change
        for encoder_name in sorted(ENCODERS):
            encoder, width = ENCODERS[encoder_name]
            metric = metric_of(kind, width)
            episodes = batch_of(3, seed=80, unlabeled=4 if pooled else 0)
            named = {**metric.to_named(), **({} if encoder is None else encoder.to_named())}

            def arrays():
                yield from named.items()
                for i, ep in enumerate(episodes):
                    yield from ((f"episode {i} {k}", v) for k, v in vars(ep).items()
                                if isinstance(v, np.ndarray))

            before = {k: (v.dtype, v.shape, v.tobytes()) for k, v in arrays()}
            assert len(before) >= 3 * 4 + len(named)
            for n_views in (1, 4):
                refine_batch(episodes, encoder, VIEWS[:n_views], metric, 3)
                for k, v in arrays():
                    assert (v.dtype, v.shape, v.tobytes()) == before[k], (encoder_name, n_views, k)

    def test_mixed_ragged_and_empty_pools_rejected(self):
        with_pool = batch_of(1, seed=70, unlabeled=2)[0]
        without = batch_of(1, seed=70)[0]
        ragged = batch_of(1, seed=72, unlabeled=3)[0]
        empty = Episode(
            ways=without.ways, shots=without.shots,
            support_x=without.support_x, support_y=without.support_y,
            query_x=without.query_x, query_y=without.query_y,
            unlabeled_x=np.empty((0, without.dim)),
        )
        for batch in ([with_pool, without], [without, with_pool],
                      [with_pool, ragged], [empty], [empty, empty]):
            with pytest.raises(ContractError):
                refine_batch(batch, None, VIEWS, EUCLID, 1)

    @pytest.mark.parametrize("unlabeled", [0, 2])
    def test_query_less_episodes_rejected(self, unlabeled):
        batch = batch_of(2, queries=0, unlabeled=unlabeled)
        with pytest.raises(ContractError, match="at least one query"):
            refine_batch(batch, None, VIEWS, EUCLID, 1)

    @pytest.mark.parametrize("kind", METRIC_KINDS[1:])
    @pytest.mark.parametrize("sets", [2, 3])
    def test_stacked_metric_rejected(self, kind, sets):
        # 2 episodes of one view: 2 sets must not score slot i with set i,
        # and 3 must not fail inside numpy's broadcasting
        named = metric_of(kind, 16).to_named()
        metric = MetricSpec.from_named(kind, {k: np.stack([v] * sets) for k, v in named.items()})
        assert metric.stack == (sets,)
        with pytest.raises(ContractError, match="not a stack"):
            refine_batch(batch_of(2), None, VIEWS[:1], metric, 1)

    def test_mixed_shapes_and_empty_batches_rejected(self):
        a, b = batch_of(1)[0], batch_of(1, queries=10)[0]
        with pytest.raises(ContractError):
            refine_batch([a, b], None, VIEWS, EUCLID, 1)
        with pytest.raises(ContractError):
            refine_batch([a, batch_of(1, ways=4)[0]], None, VIEWS, EUCLID, 1)
        with pytest.raises(ContractError):
            refine_batch([], None, VIEWS, EUCLID, 1)
        with pytest.raises(ContractError):
            refine_batch([a], None, (), EUCLID, 1)
        with pytest.raises(ContractError):
            refine_batch([a], None, VIEWS, EUCLID, -1)
