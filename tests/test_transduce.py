"""Transduction math: closed forms, view-collapse identities, mass monotonicity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mct.checkpoint import ModelState
from mct.encoder import VIEWS, EncoderParams, encode_batch, view_by_name
from mct.episodes import Episode, SyntheticSpec, derive_seed, gen_synthetic, sample_episode
from mct.errors import ContractError
from mct.evalcli import EvalProtocol, evaluate, nll
from mct.metric import METRIC_KINDS, MetricSpec
from mct.transduce import (
    check_confidence,
    confidence,
    init_from_embeddings,
    init_prototypes,
    mct_infer,
    predict_labels,
    refine,
    refine_batch,
    semi_infer,
    soft_kmeans,
    update_prototypes,
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
        protos = init_prototypes(ep, None, (VIEWS[0],))
        np.testing.assert_array_equal(protos.by_view["full"], ep.support_x)
        assert protos.step == 0

    def test_opposite_points_average_to_zero(self):
        a = np.array([[1.0, -2.0], [-1.0, 2.0]])
        protos = init_from_embeddings(a, [1, 1], ways=1)
        np.testing.assert_array_equal(protos, np.zeros((1, 2)))

    def test_collapsed_views_share_prototypes(self):
        ep, _ = synth_episode(dim=8)
        protos = init_prototypes(palindromize(ep), None, VIEWS)
        base = protos.by_view["full"]
        for name in ("drop", "aug", "aug_drop"):
            np.testing.assert_array_equal(protos.by_view[name], base)

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


class TestSoftKmeans:
    def test_t_zero_is_inductive(self):
        ep, _ = synth_episode(seed=3)
        protos = init_prototypes(ep, None, (VIEWS[0],)).by_view["full"]
        direct = confidence(ep.query_x, protos, EUCLID)
        np.testing.assert_array_equal(soft_kmeans(ep, None, VIEWS[0], EUCLID, 0), direct)

    def test_t_one_matches_manual_chain(self):
        ep, _ = synth_episode(seed=4)
        protos = init_prototypes(ep, None, (VIEWS[0],)).by_view["full"]
        q0 = confidence(ep.query_x, protos, EUCLID)
        p1 = update_prototypes(ep.support_x, ep.support_y, ep.ways, ep.query_x, q0)
        q1 = confidence(ep.query_x, p1, EUCLID)
        np.testing.assert_array_equal(soft_kmeans(ep, None, VIEWS[0], EUCLID, 1), q1)

    def test_negative_t_rejected(self):
        ep, _ = synth_episode()
        with pytest.raises(ContractError):
            soft_kmeans(ep, None, VIEWS[0], EUCLID, -1)

    @settings(deadline=None, max_examples=15)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=0, max_value=10))
    def test_property_rows_sum_to_one_at_every_depth(self, seed, T):
        ep, _ = synth_episode(seed=seed, queries=6)
        conf = soft_kmeans(ep, None, VIEWS[0], EUCLID, T)
        check_confidence(conf, ep.ways)


class TestMctInfer:
    def test_singleton_view_is_soft_kmeans_bitwise(self):
        ep, _ = synth_episode(seed=5)
        for T in (0, 3):
            np.testing.assert_array_equal(
                mct_infer(ep, None, (VIEWS[0],), EUCLID, T),
                soft_kmeans(ep, None, VIEWS[0], EUCLID, T),
            )

    def test_collapsed_views_match_single_view(self):
        ep, _ = synth_episode(seed=6, dim=8)
        sym = palindromize(ep)
        ens = mct_infer(sym, None, VIEWS, EUCLID, 10)
        solo = soft_kmeans(sym, None, VIEWS[0], EUCLID, 10)
        np.testing.assert_allclose(ens, solo, rtol=0, atol=1e-12)

    def test_two_view_ensemble_is_exact_mean(self):
        ep, _ = synth_episode(seed=7, dim=8)
        views = (view_by_name("full"), view_by_name("aug"))
        ens = mct_infer(ep, None, views, EUCLID, 0)
        p = soft_kmeans(ep, None, views[0], EUCLID, 0)
        r = soft_kmeans(ep, None, views[1], EUCLID, 0)
        np.testing.assert_array_equal(ens, (p + r) / 2.0)

    def test_rows_sum_to_one(self):
        ep, _ = synth_episode(seed=8)
        check_confidence(mct_infer(ep, None, VIEWS, EUCLID, 10), ep.ways)

    def test_empty_views_rejected(self):
        ep, _ = synth_episode()
        with pytest.raises(ContractError):
            mct_infer(ep, None, (), EUCLID, 1)


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
        np.testing.assert_array_equal(protos.by_view["full"], ep.support_x)
        np.testing.assert_array_equal(u_conf, np.eye(3))
        assert protos.step == 1

    def test_floor_masking_all_keeps_initial_prototypes(self):
        ep, _ = synth_episode(seed=10, unlabeled=4)
        protos, u_conf, _ = semi_infer(ep, None, EUCLID, conf_floor=1.1)
        init = init_prototypes(ep, None, (VIEWS[0],)).by_view["full"]
        np.testing.assert_array_equal(protos.by_view["full"], init)
        check_confidence(u_conf, ep.ways)  # returned confidences stay soft

    @pytest.mark.parametrize("kind", METRIC_KINDS)
    def test_semi_scoring_rows_are_inductive_and_refined(self, kind):
        encoder, width = ENCODERS["init"]
        metric = metric_of(kind, width)
        ep, _ = synth_episode(seed=12, unlabeled=6)
        trace = refine(ep, encoder, VIEWS[:1], metric, 1)
        assert trace.shape == (2, ep.query_x.shape[0], ep.ways)
        assert np.array_equal(trace[0], soft_kmeans(ep, encoder, VIEWS[0], metric, 0))
        assert np.array_equal(trace[1], semi_infer(ep, encoder, metric)[2])

    def test_refinement_moves_prototypes(self):
        ep, _ = synth_episode(seed=11, unlabeled=10)
        protos, _, q_conf = semi_infer(ep, None, EUCLID)
        init = init_prototypes(ep, None, (VIEWS[0],)).by_view["full"]
        assert np.abs(protos.by_view["full"] - init).max() > 1e-9
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
        t0 = np.mean(predict_labels(soft_kmeans(ep, None, VIEWS[0], EUCLID, 0)) == ep.query_y)
        t10 = np.mean(predict_labels(soft_kmeans(ep, None, VIEWS[0], EUCLID, 10)) == ep.query_y)
        assert t10 >= t0


# --------------------------------------------------------------------------
# The stacked refinement core against the per-view loop it replaced
# --------------------------------------------------------------------------


def per_view_soft_kmeans(episode, encoder, view, metric, T):
    """Single-view refinement, one step at a time (test oracle)."""
    emb_s = encode_batch(encoder, episode.support_x, view)
    emb_q = encode_batch(encoder, episode.query_x, view)
    protos = init_from_embeddings(emb_s, episode.support_y, episode.ways)
    conf = confidence(emb_q, protos, metric)
    for _ in range(T):
        protos = update_prototypes(emb_s, episode.support_y, episode.ways, emb_q, conf)
        conf = confidence(emb_q, protos, metric)
    return conf


def per_view_mct_infer(episode, encoder, views, metric, T):
    """Ensemble refinement with one prototype set per view, view by view (test oracle)."""
    emb_s = {v.name: encode_batch(encoder, episode.support_x, v) for v in views}
    emb_q = {v.name: encode_batch(encoder, episode.query_x, v) for v in views}
    protos = {
        v.name: init_from_embeddings(emb_s[v.name], episode.support_y, episode.ways)
        for v in views
    }
    for t in range(T + 1):
        locals_ = [confidence(emb_q[v.name], protos[v.name], metric) for v in views]
        ensemble = sum(locals_) / len(views)
        if t == T:
            return ensemble
        protos = {
            v.name: update_prototypes(
                emb_s[v.name], episode.support_y, episode.ways, emb_q[v.name], ensemble,
            )
            for v in views
        }


def metric_of(kind, dim, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "euclid": MetricSpec.euclid,
        "scaled": lambda: MetricSpec.scaled(0.3),
        "instance": lambda: MetricSpec.instance(dim, rng),
        "pair": lambda: MetricSpec.pair(dim, rng),
    }[kind]()


ENCODERS = {
    "identity": (None, 16),
    "init": (EncoderParams.init(16, np.random.default_rng(5), hidden=32,
                                positions=2, channels=16), 32),
}
VIEW_SETS = (VIEWS[:1], VIEWS[1:3], VIEWS)


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
                    trace = refine(ep, encoder, views, metric, T)
                    assert trace.shape == (T + 1, ep.query_x.shape[0], ep.ways)
                    assert np.array_equal(trace[0], inductive)
                    expected = per_view_mct_infer(ep, encoder, views, metric, T)
                    assert np.array_equal(trace[-1], expected), (len(views), T)
                    assert np.array_equal(mct_infer(ep, encoder, views, metric, T), expected)
                    if len(views) == 1:
                        solo = per_view_soft_kmeans(ep, encoder, views[0], metric, T)
                        assert np.array_equal(soft_kmeans(ep, encoder, views[0], metric, T), solo)

    def test_trace_rows_are_the_shorter_runs(self):
        ep, _ = synth_episode(seed=23)
        trace = refine(ep, None, VIEWS, EUCLID, 5)
        for t in range(6):
            assert np.array_equal(trace[t], mct_infer(ep, None, VIEWS, EUCLID, t))

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


class TestRefineBatch:
    @pytest.mark.parametrize("kind", METRIC_KINDS)
    @pytest.mark.parametrize("encoder_name", sorted(ENCODERS))
    def test_slices_equal_per_episode_refine(self, kind, encoder_name):
        encoder, width = ENCODERS[encoder_name]
        metric = metric_of(kind, width)
        episodes = batch_of(7, shots=2, queries=2)
        for views in (VIEWS[:1], VIEWS):
            for T in (0, 10):
                solo = [refine(ep, encoder, views, metric, T) for ep in episodes]
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
        assert np.array_equal(batch[0], refine(flipped, None, VIEWS, EUCLID, 3))
        assert np.array_equal(batch[1], refine(other, None, VIEWS, EUCLID, 3))
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
            assert np.array_equal(trace[0], soft_kmeans(ep, encoder, VIEWS[0], metric, 0))
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
        a = refine(ep, None, VIEWS, EUCLID, 3)
        b = refine(moved, None, VIEWS, EUCLID, 3)
        assert np.array_equal(a[:, 1:], b[:, 1:])
        no_pool = refine(Episode(
            ways=ep.ways, shots=ep.shots, support_x=ep.support_x, support_y=ep.support_y,
            query_x=ep.query_x, query_y=ep.query_y,
        ), None, VIEWS, EUCLID, 3)
        assert np.array_equal(a[0], no_pool[0])
        assert not np.array_equal(a[-1], no_pool[-1])

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
