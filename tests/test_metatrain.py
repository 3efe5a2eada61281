"""Training-loop anchors: schedule, losses, optimizer algebra, determinism."""

import numpy as np
import pytest

from mct import numkit as nk
from mct.checkpoint import load_state
from mct.encoder import (
    EncoderParams, PerturbPolicy, VIEWS, encode_batch, per_position, perturb_input, view_by_name,
)
from mct.episodes import Episode, EmbeddingTable, SyntheticSpec, gen_synthetic, sample_episode
from mct.errors import ContractError, DomainError
from mct.metatrain import (
    GlobalClassifier,
    LrSchedule,
    StepReport,
    TrainConfig,
    TrainState,
    dimension_loss,
    instance_loss,
    lr_at,
    train,
    train_step,
    training_loss,
)
from mct.metric import MetricSpec
from mct.transduce import confidence, init_from_embeddings, update_prototypes

EUCLID = MetricSpec.euclid()

POOL_SPEC = SyntheticSpec(input_dim=16, class_spread=4.0, within_std=1.0,
                          pool_classes=20, pool_seed=7)


def tiny_config(**overrides):
    base = dict(steps=5, ways=4, shots=1, queries=3, seed=11)
    base.update(overrides)
    return TrainConfig(**base)


class TestLrSchedule:
    def test_reference_breakpoints(self):
        sched = LrSchedule()
        assert lr_at(0, sched) == 0.1
        assert lr_at(24999, sched) == 0.1
        assert lr_at(25000, sched) == 0.006
        assert lr_at(34999, sched) == 0.006
        assert lr_at(35000, sched) == 0.0012
        assert lr_at(10**6, sched) == 0.0012

    def test_desk_scaling_divides_breakpoints(self):
        sched = LrSchedule().scaled(50)
        assert sched.cuts == ((500, 0.006), (700, 0.0012))
        assert lr_at(499, sched) == 0.1
        assert lr_at(500, sched) == 0.006
        assert lr_at(700, sched) == 0.0012

    def test_validation(self):
        with pytest.raises(ContractError):
            LrSchedule(cuts=((100, 0.01), (50, 0.001)))
        with pytest.raises(DomainError):
            LrSchedule(initial=0.0)
        with pytest.raises(ContractError):
            lr_at(-1, LrSchedule())


class TestTrainConfig:
    def test_defaults_follow_reference_recipe(self):
        cfg = TrainConfig()
        assert cfg.lam == 0.5
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 5e-4
        assert cfg.ways == 15 and cfg.queries == 8
        assert cfg.t_train == 1
        assert cfg.schedule.cuts == ((500, 0.006), (700, 0.0012))

    def test_validation(self):
        with pytest.raises(DomainError):
            TrainConfig(lam=-0.1)
        with pytest.raises(DomainError):
            TrainConfig(t_train=0)
        with pytest.raises(ContractError):
            TrainConfig(views=("sideways",))
        with pytest.raises(ContractError):
            TrainConfig(checkpoint_every=10)


class TestInstanceLoss:
    def test_saturated_separation_gives_zero(self):
        # each query sits exactly on its class's only support point and the
        # classes are so far apart that every softmax saturates
        spec = SyntheticSpec(input_dim=4, class_spread=1000.0, within_std=0.0)
        ep, _ = gen_synthetic(spec, 3, 1, 1, rng_seed=0)
        loss = instance_loss(ep, None, VIEWS[0], EUCLID)
        assert float(nk.value_of(loss)) == 0.0

    def test_identical_prototypes_give_log_c(self):
        # all support points coincide: distances are class-independent at
        # every step, so the posterior stays uniform and the loss is ln C
        ways, d = 4, 3
        rng = np.random.default_rng(1)
        ep = Episode(
            ways=ways, shots=1,
            support_x=np.tile(np.array([1.0, 2.0, 3.0]), (ways, 1)),
            support_y=np.arange(1, ways + 1),
            query_x=rng.normal(size=(ways * 2, d)),
            query_y=np.repeat(np.arange(1, ways + 1), 2),
        )
        loss = float(nk.value_of(instance_loss(ep, None, VIEWS[0], EUCLID)))
        np.testing.assert_allclose(loss, np.log(ways), rtol=1e-12)

    def test_matches_negative_log_posterior(self):
        ep, _ = gen_synthetic(SyntheticSpec(input_dim=6), 5, 2, 4, rng_seed=3)
        loss = float(nk.value_of(instance_loss(ep, None, VIEWS[0], EUCLID)))
        protos = init_from_embeddings(ep.support_x, ep.support_y, ep.ways)
        q0 = confidence(ep.query_x, protos, EUCLID)
        p1 = update_prototypes(ep.support_x, ep.support_y, ep.ways, ep.query_x, q0)
        q1 = confidence(ep.query_x, p1, EUCLID)
        direct = -np.mean(np.log(q1[np.arange(len(ep.query_y)), ep.query_y - 1]))
        np.testing.assert_allclose(loss, direct, rtol=0, atol=1e-10)

    def test_confidence_view_changes_loss(self):
        # coordinate reversal is a Euclidean isometry, so only a metric
        # that reads raw coordinates (the scaler) can tell the views apart
        rng = np.random.default_rng(4)
        ep, _ = gen_synthetic(SyntheticSpec(input_dim=6), 5, 1, 4, rng_seed=4)
        spec = MetricSpec.instance(6, rng)
        full = float(nk.value_of(instance_loss(ep, None, VIEWS[0], spec)))
        aug = float(nk.value_of(instance_loss(ep, None, view_by_name("aug"), spec)))
        assert full != aug

    def test_reversal_invariant_metric_cannot_tell_views_apart(self):
        ep, _ = gen_synthetic(SyntheticSpec(input_dim=6), 5, 1, 4, rng_seed=4)
        full = float(nk.value_of(instance_loss(ep, None, VIEWS[0], EUCLID)))
        aug = float(nk.value_of(instance_loss(ep, None, view_by_name("aug"), EUCLID)))
        np.testing.assert_allclose(full, aug, rtol=1e-12)

    def test_scaler_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        ep, _ = gen_synthetic(SyntheticSpec(input_dim=4), 3, 1, 2, rng_seed=5)
        spec = MetricSpec.instance(4, rng)
        tape = nk.Tape()
        loss = instance_loss(ep, None, VIEWS[0], spec, tape)
        grads = nk.grad(tape, loss)
        named = tape.named_params
        base = spec.scaler.to_named()
        for key in ("metric.scaler.alpha", "metric.scaler.b2"):
            flat = np.atleast_1d(np.asarray(base[key], dtype=np.float64)).reshape(-1)
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                for sign in (+1, -1):
                    bumped = {k: np.array(v) for k, v in base.items()}
                    np.atleast_1d(bumped[key]).reshape(-1)[i] += sign * 1e-6
                    from mct.metric import ScalerParams

                    val = float(nk.value_of(instance_loss(
                        ep, None, VIEWS[0],
                        MetricSpec(kind="instance", scaler=ScalerParams.from_named(bumped)),
                    )))
                    fd[i] += sign * val / 2e-6
            an = np.atleast_1d(grads[named[key]]).reshape(-1)
            denom = np.maximum(np.maximum(np.abs(an), np.abs(fd)), 1e-4)
            assert np.max(np.abs(an - fd) / denom) < 1e-4


class TestDimensionLoss:
    def test_zero_weights_give_log_k(self):
        clf = GlobalClassifier(weight=np.zeros((4, 7)), classes=tuple(range(7)))
        emb = np.random.default_rng(0).normal(size=(6, 4))
        loss = dimension_loss(emb, [0, 1, 2], clf)
        np.testing.assert_allclose(float(nk.value_of(loss)), np.log(7), rtol=1e-15)

    def test_single_position_is_plain_cross_entropy(self):
        rng = np.random.default_rng(1)
        clf = GlobalClassifier(weight=rng.normal(size=(3, 5)), classes=tuple(range(5)))
        emb = rng.normal(size=(4, 3))
        labels = [0, 2, 4, 1]
        loss = float(nk.value_of(dimension_loss(emb, labels, clf)))
        logits = emb @ clf.weight
        lse = np.log(np.exp(logits).sum(axis=1))
        direct = np.mean(lse - logits[np.arange(4), labels])
        np.testing.assert_allclose(loss, direct, rtol=1e-12)

    def test_position_replication_invariance(self):
        rng = np.random.default_rng(2)
        clf = GlobalClassifier(weight=rng.normal(size=(3, 4)), classes=tuple(range(4)))
        item_maps = rng.normal(size=(5, 2, 3))  # 5 items, 2 positions
        labels = [0, 1, 2, 3, 0]
        once = dimension_loss(item_maps.reshape(10, 3), labels, clf)
        doubled = np.concatenate([item_maps, item_maps], axis=1).reshape(20, 3)
        twice = dimension_loss(doubled, labels, clf)
        np.testing.assert_allclose(
            float(nk.value_of(once)), float(nk.value_of(twice)), rtol=1e-14
        )

    def test_item_permutation_invariance(self):
        rng = np.random.default_rng(3)
        clf = GlobalClassifier(weight=rng.normal(size=(3, 4)), classes=tuple(range(4)))
        emb = rng.normal(size=(6, 3))
        labels = np.array([0, 1, 2, 3, 0, 1])
        perm = rng.permutation(6)
        a = float(nk.value_of(dimension_loss(emb, labels, clf)))
        b = float(nk.value_of(dimension_loss(emb[perm], labels[perm], clf)))
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_missing_labels_rejected(self):
        clf = GlobalClassifier(weight=np.zeros((3, 2)), classes=(0, 1))
        with pytest.raises(ContractError):
            dimension_loss(np.ones((2, 3)), None, clf)

    def test_unknown_global_id_rejected(self):
        clf = GlobalClassifier(weight=np.zeros((3, 2)), classes=(0, 1))
        with pytest.raises(ContractError):
            dimension_loss(np.ones((2, 3)), [0, 5], clf)


def encoded_model(seed):
    rng = np.random.default_rng(seed)
    encoder = EncoderParams.init(16, rng)
    metric = MetricSpec.instance(64, rng)
    clf = GlobalClassifier.init(encoder.channels, range(20), rng)
    return encoder, metric, clf


class TestTrainingLoss:
    @pytest.mark.parametrize("view", ["full", "aug_drop"])
    def test_train_step_reports_training_loss_bitwise(self, view):
        # replay train_step's rng draws by hand: the view pick, the weak and
        # strong perturbations, then the train-mode encodes inside the loss
        ep = sample_episode(POOL_SPEC, 4, 1, 3, rng_seed=21)
        encoder, metric, clf = encoded_model(8)
        cfg = tiny_config(views=(view,))
        rng = np.random.default_rng(9)
        rng.integers(1)
        perturbed = Episode(
            ways=ep.ways, shots=ep.shots,
            support_x=perturb_input(ep.support_x, "weak", rng, cfg.perturb),
            support_y=ep.support_y,
            query_x=perturb_input(ep.query_x, "strong", rng, cfg.perturb),
            query_y=ep.query_y, support_g=ep.support_g, query_g=ep.query_g,
        )
        loss, l_i, l_d = training_loss(
            perturbed, encoder, metric, clf, view_by_name(view), nk.Tape(),
            lam=cfg.lam, mode="train", rng=rng,
        )
        state = TrainState(metric=metric, encoder=encoder, classifier=clf)
        report = train_step(ep, state, cfg, np.random.default_rng(9), step_index=0)
        assert report.view == view
        assert report.loss == float(nk.value_of(loss))
        assert report.loss_instance == float(nk.value_of(l_i))
        assert report.loss_dimension == float(nk.value_of(l_d))

    @pytest.mark.parametrize("view", VIEWS, ids=lambda v: v.name)
    def test_instance_part_is_instance_loss_bitwise(self, view):
        ep = sample_episode(POOL_SPEC, 4, 2, 3, rng_seed=22)
        encoder, metric, clf = encoded_model(10)
        l_i = instance_loss(ep, encoder, view, metric)
        _, part, _ = training_loss(ep, encoder, metric, clf, view, lam=0.5)
        assert np.array_equal(nk.value_of(part), nk.value_of(l_i))

    def test_missing_global_labels_rejected(self):
        ep, _ = gen_synthetic(SyntheticSpec(input_dim=16), 4, 1, 3, rng_seed=0)
        assert ep.support_g is None
        encoder, metric, clf = encoded_model(12)
        with pytest.raises(ContractError, match="global class labels"):
            training_loss(ep, encoder, metric, clf, VIEWS[0], lam=0.5)


class TestTrainStep:
    def test_two_runs_bitwise_identical(self):
        s1, _ = train(POOL_SPEC, tiny_config())
        s2, _ = train(POOL_SPEC, tiny_config())
        for k, v in s1.encoder.to_named().items():
            np.testing.assert_array_equal(v, s2.encoder.to_named()[k])
        np.testing.assert_array_equal(s1.classifier.weight, s2.classifier.weight)
        for k, v in s1.metric.scaler.to_named().items():
            np.testing.assert_array_equal(v, s2.metric.scaler.to_named()[k])

    def test_seed_changes_outcome(self):
        s1, _ = train(POOL_SPEC, tiny_config())
        s2, _ = train(POOL_SPEC, tiny_config(seed=12))
        assert np.abs(s1.classifier.weight - s2.classifier.weight).max() > 0

    def test_plain_sgd_oracle_single_parameter_group(self):
        # identity encoder + euclid metric: the classifier is the only
        # parameter, so one step must move it by exactly -lr * gradient
        ep = sample_episode(POOL_SPEC, 4, 1, 3, rng_seed=99)
        clf = GlobalClassifier.init(16, range(20), np.random.default_rng(0))
        state = TrainState(metric=EUCLID, encoder=None, classifier=clf)
        cfg = tiny_config(momentum=0.0, weight_decay=0.0, weak_strong=False)
        rng = np.random.default_rng(1)

        tape = nk.Tape()
        emb = np.concatenate([ep.support_x, ep.query_x])
        labels = np.concatenate([ep.support_g, ep.query_g])
        manual_loss = dimension_loss(emb, labels, clf, tape)
        g = nk.grad(tape, manual_loss)[tape.named_params["classifier.w"]]

        train_step(ep, state, cfg, rng, step_index=0)
        np.testing.assert_array_equal(state.classifier.weight, clf.weight - 0.1 * g)

    def test_lambda_zero_zeroes_scaler_gradient(self):
        ep = sample_episode(POOL_SPEC, 4, 1, 3, rng_seed=5)
        rng = np.random.default_rng(2)
        metric = MetricSpec.instance(16, rng)
        clf = GlobalClassifier.init(16, range(20), rng)
        state = TrainState(metric=metric, encoder=None, classifier=clf)
        # momentum/decay off so a zero gradient means bitwise-unchanged params
        cfg = tiny_config(lam=0.0, momentum=0.0, weight_decay=0.0, weak_strong=False)
        before = metric.scaler.to_named()
        train_step(ep, state, cfg, np.random.default_rng(3), step_index=0)
        after = state.metric.scaler.to_named()
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])
        assert np.abs(state.classifier.weight - clf.weight).max() > 0

    def test_detach_confidence_changes_gradients(self):
        ep = sample_episode(POOL_SPEC, 4, 1, 3, rng_seed=6)

        def one(detach):
            rng = np.random.default_rng(4)
            metric = MetricSpec.instance(16, rng)
            clf = GlobalClassifier.init(16, range(20), rng)
            state = TrainState(metric=metric, encoder=None, classifier=clf)
            cfg = tiny_config(weak_strong=False, detach_confidence=detach)
            train_step(ep, state, cfg, np.random.default_rng(5), step_index=0)
            return state.metric.scaler.to_named()

        flowed = one(False)
        detached = one(True)
        diffs = [np.abs(flowed[k] - detached[k]).max() for k in flowed]
        assert max(diffs) > 0

    def test_report_fields(self):
        _, reports = train(POOL_SPEC, tiny_config())
        assert len(reports) == 5
        r = reports[0]
        assert isinstance(r, StepReport)
        assert r.lr == 0.1 and r.step == 0
        assert r.view in ("full", "drop", "aug", "aug_drop")
        np.testing.assert_allclose(r.loss, 0.5 * r.loss_instance + r.loss_dimension,
                                   rtol=1e-12)

    def test_views_are_sampled_uniformly_enough(self):
        _, reports = train(POOL_SPEC, tiny_config(steps=40))
        seen = {r.view for r in reports}
        assert len(seen) >= 3  # 40 draws of 4 views miss one with prob < 1e-4

    def test_missing_global_labels_rejected(self):
        bare = SyntheticSpec(input_dim=16)  # no pool: no global ids
        with pytest.raises(ContractError):
            train(bare, tiny_config())

    def test_non_finite_update_names_step_and_parameter(self):
        # identity encoder + euclid metric: the classifier is the only
        # parameter, and an infinite rate makes its update non-finite
        ep = sample_episode(POOL_SPEC, 4, 1, 3, rng_seed=99)
        clf = GlobalClassifier.init(16, range(20), np.random.default_rng(0))
        state = TrainState(metric=EUCLID, encoder=None, classifier=clf)
        cfg = tiny_config(schedule=LrSchedule(initial=float("inf")))
        with pytest.raises(DomainError, match="step 3 .*classifier.w"):
            train_step(ep, state, cfg, np.random.default_rng(1), step_index=3)
        assert state.classifier is clf and state.step == 0 and not state.velocities

    def test_diverging_run_names_its_step(self):
        cfg = tiny_config(steps=30, schedule=LrSchedule(initial=50.0))
        with pytest.raises(DomainError, match=r"^training diverged at step \d+: "):
            with np.errstate(all="ignore"):
                train(POOL_SPEC, cfg)

    def test_instance_loss_needs_a_transduction_step(self):
        ep, _ = gen_synthetic(POOL_SPEC, 3, 1, 2, 0)
        with pytest.raises(ContractError):
            instance_loss(ep, None, VIEWS[0], EUCLID, t_steps=0)

    def test_checkpointing_round_trip(self, tmp_path):
        path = tmp_path / "ck.mctp"
        cfg = tiny_config(steps=4, checkpoint_every=2, checkpoint_path=str(path))
        state, _ = train(POOL_SPEC, cfg)
        loaded = load_state(path)
        np.testing.assert_array_equal(loaded.classifier, state.classifier.weight)
        np.testing.assert_array_equal(loaded.encoder.w_in, state.encoder.w_in)
        assert loaded.metric.kind == "instance"

    def test_table_source_trains(self):
        rng = np.random.default_rng(7)
        table = EmbeddingTable(rng.normal(size=(60, 8)), np.repeat(np.arange(6), 10))
        state, reports = train(table, tiny_config(ways=3, queries=2))
        assert state.classifier.classes == tuple(range(6))
        assert all(np.isfinite(r.loss) for r in reports)

    def test_loss_decreases_over_short_run(self):
        cfg = TrainConfig(steps=150, ways=5, shots=1, queries=8, seed=3)
        _, reports = train(POOL_SPEC, cfg)
        first = np.mean([r.loss for r in reports[:20]])
        last = np.mean([r.loss for r in reports[-20:]])
        assert last < first
