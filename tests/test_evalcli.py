import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest

from mct import numkit as nk
from mct.checkpoint import ModelState, load_state, save_state
from mct.episodes import SyntheticSpec, derive_seed, load_embeddings, sample_episode
from mct.errors import ContractError, FormatError
from mct.evalcli import (
    EvalProtocol,
    GradcheckReport,
    Report,
    EpisodeRecord,
    evaluate,
    gradcheck,
    main,
    nll,
    render_jsonl,
    render_table,
    _gradcheck_fixture,
    _gradcheck_loss,
)
from mct import evalcli
from mct.metatrain import GlobalClassifier, TrainConfig, train, training_loss
from mct.metric import MetricSpec, ScalerParams
from mct.transduce import refine_batch
from mct.encoder import HIDDEN, VIEWS, EncoderParams
from oracles import collector_off, metric_of, record_tapes, semi_infer, sets_matrix_stacks

EUCLID = ModelState(metric=MetricSpec.euclid())

# zero within-class noise and a huge gap saturate the softmax exactly
ORACLE_SPEC = SyntheticSpec(input_dim=8, class_spread=100.0, within_std=0.0)
UNIFORM_SPEC = SyntheticSpec(input_dim=8, class_spread=0.0, within_std=0.0)
PLAIN_SPEC = SyntheticSpec(input_dim=16, class_spread=4.0, within_std=1.0)


class TestNll:
    def test_one_hot_correct_is_zero(self):
        conf = np.eye(3)
        assert nll(conf, [1, 2, 3]) == 0.0

    def test_uniform_five_way_is_log_five(self):
        conf = np.full((4, 5), 0.2)
        np.testing.assert_allclose(nll(conf, [1, 3, 5, 2]), np.log(5.0), rtol=1e-12)

    def test_zero_confidence_on_true_label_is_inf(self):
        conf = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert np.isinf(nll(conf, [2, 1]))

    def test_misaligned_labels_rejected(self):
        with pytest.raises(ContractError):
            nll(np.eye(3), [1, 2])
        with pytest.raises(ContractError):
            nll(np.full((2, 3, 4), 0.25), np.ones((3, 2), dtype=np.int64))
        # label 0 would read the last class through a negative index, and
        # ways + 1 raise a bare IndexError
        for labels in ([0], [4]):
            with pytest.raises(ContractError, match=r"labels must lie in 1\.\.3"):
                nll([[0.7, 0.2, 0.1]], labels)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0, 3)])
    def test_zero_rows_rejected(self, shape):
        # the mean of no rows has no value; numpy would warn and return nan
        with pytest.raises(ContractError, match="needs at least one row"):
            nll(np.zeros(shape), np.zeros(shape[:-1], dtype=np.int64))

    def test_stacks_are_each_sets_own_call_bitwise(self):
        # evaluation scores a batch's t=0 and t=T slices of its trace in one call each
        rng = np.random.default_rng(3)
        for lead, n, ways in (((6,), 15, 5), ((2, 3), 75, 20), ((4,), 7, 2)):
            trace = rng.dirichlet(np.ones(ways), size=(*lead, 3, n))
            labels = rng.integers(1, ways + 1, size=(*lead, n))
            first = (0,) * len(lead)
            trace[first][1, 0, labels[first][0] - 1] = 0.0  # one set with an infinite NLL
            conf = trace[..., 1, :, :]  # a strided slice, as a trace step is
            got = nll(conf, labels)
            assert isinstance(got, np.ndarray) and got.shape == lead
            assert np.isinf(got[first])
            for idx in np.ndindex(*lead):
                one = nll(conf[idx], labels[idx])
                assert isinstance(one, float) and got[idx] == one


class TestEvaluate:
    def test_saturated_source_scores_perfectly(self):
        rep = evaluate(EUCLID, ORACLE_SPEC, EvalProtocol(n_episodes=5, T=2))
        assert rep.mean_accuracy == 1.0
        assert rep.mean_nll == 0.0
        assert rep.mean_nll_final == 0.0
        assert rep.ci95 == 0.0

    def test_collapsed_source_is_uniform(self):
        # every confidence row is exactly 1/ways; argmax ties go to the
        # first class, so exactly the class-1 queries are scored correct
        rep = evaluate(EUCLID, UNIFORM_SPEC, EvalProtocol(n_episodes=4, T=1))
        np.testing.assert_allclose(rep.mean_accuracy, 0.2, atol=1e-12)
        np.testing.assert_allclose(rep.mean_nll, np.log(5.0), rtol=1e-12)
        np.testing.assert_allclose(rep.mean_nll_final, np.log(5.0), rtol=1e-12)

    def test_same_seed_renders_identical_bytes(self):
        proto = EvalProtocol(n_episodes=40, T=2, master_seed=9)
        a = evaluate(EUCLID, PLAIN_SPEC, proto)
        b = evaluate(EUCLID, PLAIN_SPEC, proto)
        assert render_jsonl(a) == render_jsonl(b)
        assert render_table(a) == render_table(b)

    def test_worker_count_does_not_change_bytes(self):
        base = evaluate(EUCLID, PLAIN_SPEC, EvalProtocol(n_episodes=24, T=2))
        threaded = evaluate(
            EUCLID, PLAIN_SPEC, EvalProtocol(n_episodes=24, T=2, workers=4)
        )
        assert render_jsonl(base) == render_jsonl(threaded)

    def test_ci95_matches_reference_formula(self):
        rep = evaluate(EUCLID, PLAIN_SPEC, EvalProtocol(n_episodes=30, T=1))
        acc = np.array([r.accuracy for r in rep.records])
        expected = 1.96 * acc.std(ddof=1) / np.sqrt(acc.size)
        np.testing.assert_allclose(rep.ci95, expected, atol=1e-12)

    def test_episode_seeds_derive_from_master(self):
        rep = evaluate(EUCLID, PLAIN_SPEC, EvalProtocol(n_episodes=6, T=0, master_seed=3))
        for r in rep.records:
            assert r.seed == derive_seed(3, r.index)

    def test_inductive_final_equals_initial(self):
        rep = evaluate(
            EUCLID, PLAIN_SPEC,
            EvalProtocol(n_episodes=8, T=7, mode="inductive"),
        )
        for r in rep.records:
            assert r.nll_final == r.nll

    def test_pre_transduction_nll_independent_of_T(self):
        short = evaluate(EUCLID, PLAIN_SPEC, EvalProtocol(n_episodes=10, T=0))
        long = evaluate(EUCLID, PLAIN_SPEC, EvalProtocol(n_episodes=10, T=8))
        assert short.mean_nll == long.mean_nll
        assert short.mean_nll_final != long.mean_nll_final

    def test_transduction_improves_easy_source_nll(self):
        rep = evaluate(EUCLID, PLAIN_SPEC, EvalProtocol(n_episodes=20, T=5))
        assert rep.mean_nll_final < rep.mean_nll

    def test_ensemble_off_uses_plain_view_only(self):
        off = evaluate(EUCLID, PLAIN_SPEC, EvalProtocol(n_episodes=6, T=2, ensemble=False))
        # identity encoder: manual single-view chain must agree bitwise
        for r in off.records:
            ep = sample_episode(PLAIN_SPEC, 5, 1, 15, r.seed)
            conf = refine_batch([ep], None, VIEWS[:1], MetricSpec.euclid(), 2)[0, -1]
            np.testing.assert_array_equal(
                nll(conf, ep.query_y), r.nll_final
            )

    def test_semi_mode_runs_and_scores(self):
        rep = evaluate(EUCLID, PLAIN_SPEC, EvalProtocol(n_episodes=4, mode="semi"))
        assert rep.mode == "semi"
        assert 0.0 <= rep.mean_accuracy <= 1.0
        assert np.isfinite(rep.mean_nll_final)

    def test_semi_unlabeled_default_tracks_shots(self):
        assert EvalProtocol(shots=1, mode="semi").unlabeled_count == 30
        assert EvalProtocol(shots=5, mode="semi").unlabeled_count == 50
        assert EvalProtocol(shots=1, mode="semi", unlabeled=12).unlabeled_count == 12

    def test_config_echo_carries_protocol(self):
        rep = evaluate(EUCLID, PLAIN_SPEC, EvalProtocol(n_episodes=2, T=4, shots=1))
        assert rep.config["T"] == 4
        assert rep.config["ways"] == 5
        assert rep.config["queries"] == 15

    def test_protocol_validation(self):
        with pytest.raises(ContractError):
            EvalProtocol(mode="oracle")
        with pytest.raises(ContractError):
            EvalProtocol(n_episodes=0)
        with pytest.raises(ContractError):
            EvalProtocol(unlabeled=0)
        with pytest.raises(ContractError):
            EvalProtocol(T=-1)

    @pytest.mark.parametrize("field,value", [
        ("shots", 0), ("queries", 0), ("queries", -2), ("master_seed", -1),
        ("n_episodes", 0), ("workers", 0), ("unlabeled", 0), ("T", -1), ("distractors", -1),
    ])
    def test_protocol_refuses_a_bad_count_at_construction_by_name(self, field, value):
        # the command line refuses the same values as usage errors
        with pytest.raises(ContractError, match=rf"^{field} must be >= \d"):
            EvalProtocol(**{field: value})

    def test_negative_distractors_are_a_contract_error(self):
        with pytest.raises(ContractError, match="distractors"):
            EvalProtocol(mode="semi", distractors=-1)
        assert EvalProtocol(mode="semi", distractors=0).distractors == 0

    @pytest.mark.parametrize("mode", ["inductive", "transductive", "semi"])
    def test_query_less_protocol_is_a_contract_error(self, mode):
        with pytest.raises(ContractError, match="at least one query"):
            evaluate(EUCLID, PLAIN_SPEC, EvalProtocol(queries=0, n_episodes=2, mode=mode))

    @pytest.mark.parametrize("ways", [1, 0, -3])
    def test_protocol_needs_two_ways(self, ways):
        with pytest.raises(ContractError, match="ways must be >= 2"):
            EvalProtocol(ways=ways)

    def test_inference_is_blind_to_query_labels(self):
        ep = sample_episode(PLAIN_SPEC, 5, 1, 15, rng_seed=77)
        shuffled = replace(ep, query_y=np.roll(ep.query_y, 7))
        a = refine_batch([ep], None, VIEWS[:1], MetricSpec.euclid(), 3)
        b = refine_batch([shuffled], None, VIEWS[:1], MetricSpec.euclid(), 3)
        np.testing.assert_array_equal(a, b)


def trained_like_state(kind):
    encoder = EncoderParams.init(16, np.random.default_rng(6), hidden=32, positions=2, channels=16)
    return ModelState(metric=metric_of(kind, 32, seed=7), encoder=encoder)


def per_episode_records(state, source, protocol):
    """One episode at a time through ``refine_batch`` (oracle)."""
    records = []
    for i in range(protocol.n_episodes):
        seed = derive_seed(protocol.master_seed, i)
        semi = protocol.mode == "semi"
        pool = dict(unlabeled=protocol.unlabeled_count, distractors=protocol.distractors)
        ep = sample_episode(source, protocol.ways, protocol.shots, protocol.queries, seed,
                            **(pool if semi else {}))
        views = VIEWS if protocol.ensemble else VIEWS[:1]
        steps = 0 if protocol.mode == "inductive" else protocol.T
        trace = refine_batch([ep], state.encoder, views, state.metric, steps)[0]
        records.append(record_of(i, seed, ep, trace[0], trace[-1]))
    return tuple(records)


def record_of(index, seed, ep, conf0, conf):
    return EpisodeRecord(
        index=index, seed=seed,
        accuracy=float(np.mean(np.argmax(conf, axis=1) + 1 == ep.query_y)),
        nll=nll(conf0, ep.query_y), nll_final=nll(conf, ep.query_y),
    )


class TestBatchedEvaluate:
    @pytest.mark.parametrize("kind", ["euclid", "scaled", "instance", "pair"])
    @pytest.mark.parametrize("n_episodes", [1, 5, 9])
    def test_bytes_equal_per_episode_scoring(self, kind, n_episodes, monkeypatch):
        state = trained_like_state(kind)
        for mode, ensemble in (("transductive", True), ("transductive", False),
                               ("inductive", True)):
            protocol = EvalProtocol(n_episodes=n_episodes, T=10, mode=mode,
                                    ensemble=ensemble, master_seed=5)
            batched = evaluate(state, PLAIN_SPEC, protocol)
            assert batched.records == per_episode_records(state, PLAIN_SPEC, protocol)
            with monkeypatch.context() as m:
                m.setattr(evalcli, "_BATCH", 1)
                one_by_one = render_jsonl(evaluate(state, PLAIN_SPEC, protocol))
            for workers in (1, 3):
                again = evaluate(state, PLAIN_SPEC, replace(protocol, workers=workers))
                assert render_jsonl(again) == one_by_one

    @pytest.mark.parametrize("kind", ["euclid", "scaled", "instance", "pair"])
    def test_semi_records_equal_two_pass_scoring(self, kind, monkeypatch):
        # one plain-view update from the pool: Ren et al.'s soft k-means baseline
        state = trained_like_state(kind)
        for n_episodes in (1, 5, 9):
            protocol = EvalProtocol(n_episodes=n_episodes, mode="semi", T=1, ensemble=False,
                                    unlabeled=4, distractors=1, master_seed=8)
            report = evaluate(state, PLAIN_SPEC, protocol)
            two_pass = []
            for r in report.records:
                ep = sample_episode(PLAIN_SPEC, 5, 1, 15, r.seed, unlabeled=4, distractors=1)
                conf0 = refine_batch([ep], state.encoder, VIEWS[:1], state.metric, 0)[0, -1]
                conf = semi_infer(ep, state.encoder, state.metric)[2]
                two_pass.append(record_of(r.index, r.seed, ep, conf0, conf))
            assert report.records == tuple(two_pass)
            with monkeypatch.context() as m:
                m.setattr(evalcli, "_BATCH", 1)
                one_by_one = render_jsonl(evaluate(state, PLAIN_SPEC, protocol))
            assert render_jsonl(report) == one_by_one, n_episodes

    @pytest.mark.parametrize("kind", ["euclid", "scaled", "instance", "pair"])
    def test_semi_records_equal_per_episode_refinement(self, kind):
        # the defaults: T=10 over the four views, every update weighted by the pool
        state = trained_like_state(kind)
        for n_episodes in (1, 5):
            protocol = EvalProtocol(n_episodes=n_episodes, mode="semi", unlabeled=4,
                                    distractors=1, master_seed=8)
            assert (protocol.T, protocol.ensemble) == (10, True)
            report = evaluate(state, PLAIN_SPEC, protocol)
            assert report.records == per_episode_records(state, PLAIN_SPEC, protocol)


class TestRendering:
    def test_jsonl_line_count_and_validity(self):
        rep = evaluate(EUCLID, PLAIN_SPEC, EvalProtocol(n_episodes=5, T=1))
        lines = render_jsonl(rep).strip().split("\n")
        assert len(lines) == 6
        parsed = [json.loads(ln) for ln in lines]
        assert [p["record"] for p in parsed] == ["episode"] * 5 + ["summary"]
        assert parsed[-1]["n_episodes"] == 5

    def test_infinite_nll_serializes_as_null_with_flag(self):
        rep = Report(
            mode="inductive", n_episodes=1, mean_accuracy=0.5, ci95=0.0,
            mean_nll=np.inf, mean_nll_final=np.inf, nll_infinite=True,
            records=(EpisodeRecord(0, 1, 0.5, np.inf, np.inf),),
        )
        parsed = [json.loads(ln) for ln in render_jsonl(rep).strip().split("\n")]
        assert parsed[0]["nll"] is None
        assert parsed[-1]["mean_nll"] is None
        assert parsed[-1]["nll_infinite"] is True
        assert "inf" in render_table(rep)

    def test_json_keys_are_the_record_fields(self):
        rep = evaluate(EUCLID, PLAIN_SPEC, EvalProtocol(n_episodes=3, T=1))
        *episodes, summary = [json.loads(ln) for ln in render_jsonl(rep).strip().split("\n")]
        assert [e.keys() - {"record"} for e in episodes] == [
            {f.name for f in fields(EpisodeRecord)}] * 3
        assert summary.keys() - {"record"} == {f.name for f in fields(Report)} - {"records"}
        assert episodes[1] == {"record": "episode", **vars(rep.records[1])}

        # a field added to a record reaches its JSON object with no change to the renderer
        @dataclass(frozen=True)
        class TracedRecord(EpisodeRecord):
            trajectory: tuple = (0.25, 0.5)

        traced = replace(rep, records=tuple(TracedRecord(**vars(r)) for r in rep.records))
        first = json.loads(render_jsonl(traced).split("\n")[0])
        assert first["trajectory"] == [0.25, 0.5] and first["seed"] == rep.records[0].seed

    def test_table_shows_mean_and_interval(self):
        rep = evaluate(EUCLID, ORACLE_SPEC, EvalProtocol(n_episodes=3, T=0))
        table = render_table(rep)
        assert "100.00 ± 0.00 %" in table
        assert "episodes" in table and "3" in table


def _oracle_central_diff(named, fixture, key: str, i: int, step: float) -> float:
    bumped = {k: np.array(v, dtype=np.float64) for k, v in named.items()}
    flat = bumped[key].reshape(-1)
    flat[i] += step
    hi = float(nk.value_of(_gradcheck_loss(bumped, fixture, None)))
    flat[i] -= 2 * step
    lo = float(nk.value_of(_gradcheck_loss(bumped, fixture, None)))
    return (hi - lo) / (2 * step)


def _oracle_gradcheck(trials: int, tolerance: float, seed: int) -> GradcheckReport:
    """gradcheck as a loop over entries: two unstacked losses per entry and step."""
    worst_err, worst_param = 0.0, "none"
    for trial in range(trials):
        named, fixture = _gradcheck_fixture(trial, seed)
        tape = nk.Tape()
        grads = nk.grad(tape, _gradcheck_loss(named, fixture, tape))
        by_name = {k: grads[v] for k, v in tape.named_params.items()}
        for key in sorted(named):
            an = np.asarray(by_name[key], dtype=np.float64).reshape(-1)
            for i in range(an.size):
                err = np.inf
                for step in (1e-5, 1e-6, 1e-7):
                    fd = _oracle_central_diff(named, fixture, key, i, step)
                    a = float(an[i])
                    err = abs(a - fd) / max(abs(a), abs(fd), 1e-4)
                    if err < tolerance:
                        break
                if err > worst_err:
                    worst_err, worst_param = err, f"{key}[{i}] (trial {trial})"
    return GradcheckReport(
        passed=worst_err < tolerance, trials=trials, tolerance=tolerance,
        worst_rel_err=worst_err, worst_param=worst_param,
    )


def _bumped_sets(named, entries, step=1e-5):
    """2k parameter sets for the k (key, index) ``entries`` of ``named``:
    set j raises entry j by ``step``, set k + j lowers it from there by
    2 * step, as gradcheck bumps them."""
    k = len(entries)
    stacked = {key: np.repeat(np.asarray(v, dtype=np.float64)[None], 2 * k, axis=0)
               for key, v in named.items()}
    for j, (key, i) in enumerate(entries):
        flat = stacked[key].reshape(2 * k, -1)
        flat[j, i] += step
        flat[k + j, i] = flat[j, i] - 2 * step
    return stacked


def _assert_sets_are_their_own_calls(stacked, fixture, subsets=()):
    """The stack's losses, and those of each subset of its sets, equal the
    unstacked loss of every set bitwise."""
    n_sets = len(next(iter(stacked.values())))
    alone = np.array([
        _gradcheck_loss({k: v[p] for k, v in stacked.items()}, fixture, None)
        for p in range(n_sets)
    ])
    for sets in [list(range(n_sets)), *subsets]:
        got = _gradcheck_loss({k: v[sets] for k, v in stacked.items()}, fixture, None)
        assert got.shape == (len(sets),)
        assert np.array_equal(got, alone[sets])


class TestStackedLoss:
    @pytest.mark.parametrize("trial", range(4))  # each metric kind, each view once
    def test_every_bumped_set_is_bitwise_its_own_call(self, trial):
        named, fixture = _gradcheck_fixture(trial, seed=0)
        entries = [(k, i) for k in sorted(named) for i in range(np.size(named[k]))]
        _assert_sets_are_their_own_calls(_bumped_sets(named, entries), fixture)

    @pytest.mark.parametrize("view", range(4))
    @pytest.mark.parametrize("trial", range(4))
    def test_every_kind_and_view_with_each_group_bumped(self, trial, view):
        named, (episode, model, _, lam) = _gradcheck_fixture(trial, seed=0)
        firsts = [(k, 0) for k in sorted(named)]
        k = len(firsts)
        pairs = [[j, k + j] for j in range(k)]
        _assert_sets_are_their_own_calls(
            _bumped_sets(named, firsts), (episode, model, VIEWS[view], lam),
            subsets=pairs + [[p] for p in range(2 * k)],
        )

    def test_tape_and_raw_inputs_reject_stacks(self):
        for trial in range(4):
            named, fixture = _gradcheck_fixture(trial, seed=0)
            episode, (_, _, classifier), _, lam = fixture
            for sets in (1, 2):
                stacked = {k: np.stack([v] * sets) for k, v in named.items()}
                with pytest.raises(ContractError):
                    _gradcheck_loss(stacked, fixture, nk.Tape())
                clf = GlobalClassifier(weight=np.zeros((sets, 4, 6)), classes=classifier.classes)
                with pytest.raises(ContractError):
                    training_loss(episode, None, MetricSpec.euclid(), clf, VIEWS[0], lam=lam)

    def test_mismatched_leading_axes_are_contract_errors(self):
        named, (episode, (enc0, metric0, clf0), _, lam) = _gradcheck_fixture(2, seed=0)  # instance
        shape, kind = {"positions": enc0.positions, "channels": enc0.channels}, metric0.kind
        two = {k: np.stack([v] * 2) for k, v in named.items()}
        three = {k: np.stack([v] * 3) for k, v in named.items()}

        def parts(enc, met, clf):
            return (
                EncoderParams.from_named(enc, dropout=0.0, **shape),
                MetricSpec.from_named(kind, met),
                GlobalClassifier(weight=clf["classifier.w"], classes=clf0.classes),
            )

        for enc, met, clf in ((two, three, two), (two, two, three), (named, two, two),
                              (two, two, named)):
            encoder, metric, classifier = parts(enc, met, clf)
            with pytest.raises(ContractError):
                training_loss(episode, encoder, metric, classifier, VIEWS[0], lam=lam)
        with pytest.raises(ContractError):
            EncoderParams.from_named({**two, "encoder.b_in": three["encoder.b_in"]}, **shape)
        with pytest.raises(ContractError):
            EncoderParams.from_named({**two, "encoder.block1.w2": three["encoder.block1.w2"]},
                                     **shape)
        for part in ("metric.scaler.b1", "metric.scaler.w2", "metric.scaler.b2"):
            with pytest.raises(ContractError):
                ScalerParams.from_named({**two, part: three[part]})
        with pytest.raises(ContractError):
            replace(MetricSpec.from_named(kind, two).scaler, alpha=np.zeros(3))
        with pytest.raises(ContractError):
            MetricSpec(kind="scaled", s=np.ones((2, 2)))

    def test_checkpoint_of_a_stack_is_a_format_error(self, tmp_path):
        named, (_, (encoder, metric, _), _, _) = _gradcheck_fixture(2, seed=0)
        state = ModelState(
            metric=MetricSpec.from_named(
                metric.kind, {k: np.stack([v] * 2) for k, v in named.items()}
            ),
            encoder=EncoderParams.from_named(named, positions=encoder.positions,
                                             channels=encoder.channels),
        )
        path = tmp_path / "stack.mctp"
        save_state(path, state)
        with pytest.raises(FormatError, match="one parameter set"):
            load_state(path)


class TestGradcheck:
    def test_two_kind_rotation_passes(self):
        rep = gradcheck(trials=8, tolerance=1e-4, seed=0)
        assert rep.passed
        assert rep.worst_rel_err < 1e-4
        assert rep.trials == 8

    def test_other_seed_passes(self):
        # with distances by uncentred expansion in its forward, this seed
        # fails at 1.09e-2; with the difference kernel the worst error
        # over seeds 0-11 is 8.4e-5
        rep = gradcheck(trials=20, tolerance=1e-4, seed=5)
        assert rep.passed, rep

    @pytest.mark.parametrize("trial", range(8))  # every metric kind and view twice
    def test_untaped_loss_is_the_taped_value_bitwise(self, trial):
        # finite differences and tape gradients must see one function
        named, fixture = _gradcheck_fixture(trial, seed=0)
        taped = _gradcheck_loss(named, fixture, nk.Tape())
        untaped = _gradcheck_loss(named, fixture, None)
        assert np.array_equal(nk.value_of(taped), untaped)

    def test_euclid_trial_has_no_scaler_parameters(self):
        named, fixture = _gradcheck_fixture(0, seed=0)
        assert fixture[1][1].kind == "euclid"
        assert not any(k.startswith("metric.") for k in named)
        tape = nk.Tape()
        _gradcheck_loss(named, fixture, tape)
        assert not any(k.startswith("metric.") for k in tape.named_params)

    def test_zero_tolerance_always_fails(self):
        rep = gradcheck(trials=1, tolerance=0.0, seed=0)
        assert not rep.passed

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0, -1e-12])
    def test_tolerance_must_be_finite_and_non_negative(self, tolerance):
        with pytest.raises(ContractError, match="tolerance must be finite and non-negative"):
            gradcheck(trials=1, tolerance=tolerance)

    def test_each_trial_tape_is_freed_before_its_differences(self, monkeypatch):
        tapes = record_tapes(monkeypatch)
        central_diffs = evalcli._central_diffs
        live_at_differences = []

        def checked(*args):
            live_at_differences.append(sum(ref() is not None for ref in tapes))
            return central_diffs(*args)

        monkeypatch.setattr(evalcli, "_central_diffs", checked)
        with collector_off():
            rep = gradcheck(trials=2, tolerance=1e-4, seed=0)
        assert rep.passed and len(tapes) == 2
        assert live_at_differences and not any(live_at_differences)
        assert all(ref() is None for ref in tapes)

    @pytest.mark.parametrize("trial", [0, 1, 2, 3])
    def test_per_key_stacks_equal_the_sets_matrix(self, trial):
        named, _ = _gradcheck_fixture(trial, seed=0)
        n = sum(np.size(v) for v in named.values())
        rng = np.random.default_rng(trial)
        subsets = [
            np.arange(n),
            np.sort(rng.choice(n, size=n // 3, replace=False)),
            np.array([0, n - 1]),
            np.arange(0),
        ]
        for todo in subsets:
            for step in (1e-5, 1e-7):
                got = evalcli._bumped_stacks(named, todo, step)
                want = sets_matrix_stacks(named, todo, step)
                assert got.keys() == want.keys()
                for key in want:
                    assert got[key].shape == want[key].shape
                    assert np.array_equal(got[key], want[key]), key

    def test_reports_worst_location(self):
        rep = gradcheck(trials=2, tolerance=1e-12, seed=0)
        assert not rep.passed
        assert "trial" in rep.worst_param

    def test_trial_count_validated(self):
        with pytest.raises(ContractError):
            gradcheck(trials=0)

    def test_negative_seed_is_a_contract_error(self):
        with pytest.raises(ContractError, match="seed >= 0"):
            gradcheck(trials=1, seed=-1)

    @pytest.mark.parametrize("trial", range(4))
    def test_loss_is_training_loss_of_rebuilt_model(self, trial):
        named, fixture = _gradcheck_fixture(trial, seed=0)
        episode, (enc0, met0, clf0), view, lam = fixture
        encoder = EncoderParams.from_named(
            named, dropout=0.0, positions=enc0.positions, channels=enc0.channels
        )
        metric = MetricSpec.from_named(met0.kind, named)
        clf = GlobalClassifier(weight=named["classifier.w"], classes=clf0.classes)
        loss, _, _ = training_loss(episode, encoder, metric, clf, view, lam=lam)
        assert np.array_equal(_gradcheck_loss(named, fixture, None), loss)

    @pytest.mark.parametrize("trials, seed", [(2, 278550621), (3, 880104451)])
    def test_fixture_seeds_that_once_degenerated_pass(self, trials, seed):
        # with zero encoder biases these seeds left a relu layer dead: one
        # put the loss on a kink (rel err 1.75), the other zeroed every
        # embedding so normalization raised
        rep = gradcheck(trials=trials, tolerance=1e-4, seed=seed)
        assert rep.passed, rep.worst_param

    @pytest.mark.parametrize("trial", [0, 1])
    def test_stacked_differences_are_the_entry_loops(self, trial):
        named, fixture = _gradcheck_fixture(trial, seed=0)
        keys = sorted(named)
        fd = evalcli._central_diffs(named, fixture, np.arange(sum(np.size(named[k]) for k in keys)), 1e-5)
        loop = [_oracle_central_diff(named, fixture, k, i, 1e-5)
                for k in keys for i in range(np.size(named[k]))]
        assert np.array_equal(fd, loop)

    @pytest.mark.parametrize("trials, tolerance, seed", [
        (4, 1e-4, 0),  # every entry settles at the first step
        (2, 1e-12, 0),  # every entry runs the whole ladder
        (2, 1e-4, 278550621),
        (3, 1e-4, 880104451),
    ])
    def test_stacked_ladder_reports_what_the_entry_loop_reports(self, trials, tolerance, seed):
        assert gradcheck(trials, tolerance, seed) == _oracle_gradcheck(trials, tolerance, seed)


@pytest.fixture()
def table_file(tmp_path):
    path = tmp_path / "t.mcte"
    code = main([
        "make-synth", "--out", str(path), "--dim", "8",
        "--classes", "8", "--per-class", "24", "--seed", "3",
    ])
    assert code == 0
    return path


def fresh_env():
    """Environment for a fresh interpreter that imports this package, default warning filters."""
    src = Path(evalcli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )}
    env.pop("PYTHONWARNINGS", None)
    return env


REPORT_TO_STDOUT = [sys.executable, "-m", "mct", "eval", "--episodes", "2",
                    "--transduction-steps", "0", "--report", "/dev/stdout"]


class TestCli:
    def test_make_synth_emits_loadable_table(self, table_file):
        table = load_embeddings(table_file)
        assert table.rows.shape == (192, 8)
        assert len(table.classes) == 8

    def test_eval_writes_report_and_exits_zero(self, table_file, tmp_path, capsys):
        report = tmp_path / "rep.jsonl"
        code = main([
            "eval", "--source", str(table_file), "--episodes", "6",
            "--transduction-steps", "2", "--report", str(report),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "±" in out
        lines = report.read_text().strip().split("\n")
        assert len(lines) == 7
        assert json.loads(lines[-1])["record"] == "summary"

    def test_flagless_eval_is_the_library_default(self, tmp_path):
        path = tmp_path / "r.jsonl"
        assert main(["eval", "--episodes", "3", "--report", str(path)]) == 0
        expected = evaluate(ModelState(metric=MetricSpec.euclid()), SyntheticSpec(input_dim=16),
                            EvalProtocol(n_episodes=3))
        assert path.read_bytes() == render_jsonl(expected).encode("utf-8")

    def test_flagless_train_is_the_library_default(self, tmp_path):
        path, expected = tmp_path / "cli.mctp", tmp_path / "lib.mctp"
        assert main(["train", "--steps", "3", "--out", str(path)]) == 0
        # the metric the command line draws for train's default --metric instance
        metric = MetricSpec.instance(HIDDEN, np.random.default_rng(derive_seed(0, 41201)))
        state, _ = train(SyntheticSpec(input_dim=16, pool_classes=20), TrainConfig(steps=3),
                         metric=metric)
        save_state(expected, state.to_model_state())
        assert path.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("command", ["train", "eval", "gradcheck", "make-synth"])
    def test_help_renders(self, command, capsys):
        assert main([command, "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert out.startswith(f"usage: mct {command}")
        if command == "eval":
            assert f"refinement steps T; inductive mode makes none (default {EvalProtocol().T})" in out
        # every flag that has a default shows it: the library's, or the command line's own
        synth = SyntheticSpec(input_dim=16, pool_classes=20)
        unlabeled = (f"{EvalProtocol(shots=1).unlabeled_count} at 1 shot,"
                     f" else {EvalProtocol(shots=2).unlabeled_count}")
        shown = {"--seed": 0, **({} if command == "gradcheck" else {
            "--dim": synth.dim, "--spread": synth.class_spread, "--std": synth.within_std})}
        shown.update({
            "train": {"--pool-classes": synth.pool_classes, "--metric": "instance",
                      "--encoder": "auto"},
            "eval": {"--unlabeled": unlabeled},
            "make-synth": {"--classes": synth.pool_classes, "--per-class": 50},
        }.get(command, {}))
        for flag, default in shown.items():
            # the flag's help: from its option line to the next option
            text = re.search(rf" {flag} (.*?)(?= -|$)", out).group(1)
            assert f"default {default}" in text, (flag, text)

    def test_eval_reruns_are_byte_identical(self, table_file, tmp_path):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            p = tmp_path / name
            assert main([
                "eval", "--source", str(table_file), "--episodes", "5",
                "--transduction-steps", "1", "--seed", "4",
                "--report", str(p),
            ]) == 0
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_train_then_eval_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "m.mctp"
        code = main([
            "train", "--source", "synth", "--dim", "6", "--pool-classes", "10",
            "--steps", "4", "--ways", "3", "--shots", "1", "--queries", "2",
            "--out", str(ckpt), "--seed", "2",
        ])
        assert code == 0
        state = load_state(ckpt)
        assert state.encoder is not None
        assert state.metric.kind == "instance"
        code = main([
            "eval", "--source", "synth", "--dim", "6",
            "--checkpoint", str(ckpt), "--episodes", "2",
            "--transduction-steps", "1", "--ways", "3", "--queries", "4",
        ])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_diverging_train_names_step_and_writes_nothing(self, tmp_path, capsys):
        ckpt = tmp_path / "m.mctp"
        with np.errstate(all="ignore"):
            code = main(["train", "--lr", "50", "--steps", "30", "--out", str(ckpt)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: training diverged at step ")
        assert not ckpt.exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--lambda", "nan", "lam"), ("--lambda", "inf", "lam"),
        ("--lr", "nan", "initial learning rate"), ("--lr", "inf", "initial learning rate"),
    ])
    def test_non_finite_hyperparameter_is_a_domain_error(
        self, tmp_path, capsys, flag, value, field
    ):
        ckpt = tmp_path / "m.mctp"
        assert main(["train", flag, value, "--steps", "1", "--out", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} ") and err.count("\n") == 1
        assert "must be finite and " in err and "diverged" not in err
        assert not ckpt.exists()

    def test_diverging_train_prints_one_line(self, tmp_path):
        # a fresh interpreter with default warning filters, as a user runs it
        ckpt = tmp_path / "m.mctp"
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from mct.evalcli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "train", "--lr", "50", "--steps", "30", "--out", str(ckpt)],
            capture_output=True, text=True, env=fresh_env(), timeout=300,
        )
        assert run.returncode == 1
        assert run.stderr == (
            "error: training diverged at step 4: softmax_neg input must be finite\n"
        )
        assert not ckpt.exists()

    def test_gradcheck_exit_codes(self, capsys):
        assert main(["gradcheck", "--trials", "1", "--tolerance", "0"]) == 3
        assert "FAIL" in capsys.readouterr().out
        assert main(["gradcheck", "--trials", "2", "--tolerance", "1e-4"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "-inf", "abc"])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_bad_tolerance_is_a_usage_error(self, tmp_path, capsys, value, from_config):
        args = ["gradcheck", "--trials", "1"]
        if from_config:
            cfg = tmp_path / "mct.cfg"
            cfg.write_text(f"tolerance={value}\n")
            args += ["--config", str(cfg)]
        else:
            args += [f"--tolerance={value}"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("error:") == 1
        assert (f"argument --tolerance: expected a finite non-negative number, got '{value}'"
                in captured.err)

    @pytest.mark.parametrize("value", ["1", "0", "-2"])
    def test_fewer_than_two_ways_is_a_usage_error(self, tmp_path, capsys, value):
        report = tmp_path / "r.jsonl"
        assert main(["eval", "--episodes", "2", f"--ways={value}", "--report", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("error:") == 1
        assert f"argument --ways: expected an integer of at least 2, got '{value}'" in captured.err
        assert not report.exists()

    def test_corrupt_source_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.mcte"
        bad.write_bytes(b"nope")
        code = main(["eval", "--source", str(bad), "--episodes", "2"])
        assert code == 2
        assert "byte offset" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["eval", "--checkpoint", "{missing}", "--episodes", "2"],
        ["eval", "--source", "{missing}", "--episodes", "2"],
        ["train", "--source", "{missing}", "--steps", "1", "--out", "{out}"],
        ["eval", "--config", "{missing}"],
    ])
    def test_missing_input_file_exits_two(self, args, tmp_path, capsys):
        missing = str(tmp_path / "missing.bin")
        out = str(tmp_path / "m.mctp")
        code = main([a.format(missing=missing, out=out) for a in args])
        assert code == 2
        assert f"error: cannot read {missing}: " in capsys.readouterr().err
        assert not (tmp_path / "m.mctp").exists()

    def test_unwritable_report_exits_two(self, tmp_path, capsys):
        # and every other output: train's checkpoint and make-synth's table
        out = str(tmp_path / "no-such-dir" / "r.bin")
        for args in (
            ["eval", "--episodes", "1", "--transduction-steps", "0", "--report", out],
            ["train", "--steps", "1", "--ways", "3", "--queries", "2", "--out", out],
            ["make-synth", "--classes", "2", "--per-class", "2", "--out", out],
        ):
            assert main(args) == 2, args
            err = capsys.readouterr().err
            assert err == f"error: cannot write {out}: No such file or directory\n", args
        assert list(tmp_path.iterdir()) == []

    def test_failed_report_write_keeps_previous_report(self, tmp_path, monkeypatch, capsys):
        import builtins
        import errno

        report = tmp_path / "r.jsonl"
        args = ["eval", "--episodes", "2", "--transduction-steps", "0", "--report", str(report)]
        assert main(args) == 0
        before = report.read_bytes()
        real_open = builtins.open

        class TornFile:
            """Writes half of what it is given, then reports a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(builtins, "open", lambda f, m, **kw: TornFile(real_open(f, m, **kw)))
        capsys.readouterr()
        code = main(args + ["--seed", "5"])
        monkeypatch.undo()
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write {report}: No space left on device\n"
        assert report.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.jsonl"]

    def test_report_to_dev_stdout_is_written_in_place(self):
        # stdout is a pipe here, so /dev/stdout names that pipe
        run = subprocess.run(REPORT_TO_STDOUT, capture_output=True, text=True,
                             env=fresh_env(), timeout=120)
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert [json.loads(line)["record"] for line in lines[:3]] == ["episode", "episode", "summary"]
        assert "accuracy" in run.stdout.split("\n", 3)[3]

    def test_report_to_stdout_redirected_to_a_file_keeps_the_table(self, tmp_path):
        # /dev/stdout names out.txt here: replacing that file would send
        # the table to an unlinked inode
        piped = subprocess.run(REPORT_TO_STDOUT, capture_output=True, env=fresh_env(), timeout=120)
        out = tmp_path / "out.txt"
        with open(out, "wb") as fh:
            run = subprocess.run(REPORT_TO_STDOUT, stdout=fh, stderr=subprocess.PIPE,
                                 env=fresh_env(), timeout=120)
        assert run.returncode == 0, run.stderr
        assert out.read_bytes() == piped.stdout

    def test_config_file_supplies_defaults(self, table_file, tmp_path):
        cfg = tmp_path / "mct.cfg"
        cfg.write_text("episodes=4\ntransduction-steps=1  # comment\n\n")
        report = tmp_path / "r.jsonl"
        assert main([
            "eval", "--config", str(cfg), "--source", str(table_file),
            "--report", str(report),
        ]) == 0
        summary = json.loads(report.read_text().strip().split("\n")[-1])
        assert summary["n_episodes"] == 4
        assert summary["config"]["T"] == 1

    def test_explicit_flag_beats_config_file(self, table_file, tmp_path):
        cfg = tmp_path / "mct.cfg"
        cfg.write_text("episodes=9\n")
        report = tmp_path / "r.jsonl"
        assert main([
            "eval", "--config", str(cfg), "--source", str(table_file),
            "--episodes", "3", "--transduction-steps", "0",
            "--report", str(report),
        ]) == 0
        summary = json.loads(report.read_text().strip().split("\n")[-1])
        assert summary["n_episodes"] == 3

    def test_unknown_config_key_exits_two(self, tmp_path):
        cfg = tmp_path / "mct.cfg"
        cfg.write_text("warp_factor=9\n")
        assert main(["eval", "--config", str(cfg), "--episodes", "2"]) == 2

    def test_malformed_config_line_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "mct.cfg"
        cfg.write_text("episodes\n")
        assert main(["eval", "--config", str(cfg)]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_metric_flag_without_checkpoint(self, table_file, capsys):
        code = main([
            "eval", "--source", str(table_file), "--metric", "instance",
            "--episodes", "2", "--transduction-steps", "1", "--seed", "1",
        ])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["euclid", "scaled", "pair"])
    def test_metric_flag_replaces_the_checkpoint_metric(self, table_file, tmp_path, kind):
        # a fresh metric of the given kind over the checkpoint's encoder
        checkpoint = tmp_path / "m.mctp"
        encoder = EncoderParams.init(8, np.random.default_rng(6), hidden=32, positions=2,
                                     channels=16)
        save_state(checkpoint, ModelState(metric=metric_of("instance", 32), encoder=encoder))
        reports = []
        for name, flags in (("own", []), ("a", ["--metric", kind]), ("b", ["--metric", kind])):
            report = tmp_path / f"{name}.jsonl"
            assert main(["eval", "--source", str(table_file), "--checkpoint", str(checkpoint),
                         "--episodes", "3", "--transduction-steps", "2", "--seed", "5",
                         "--report", str(report), *flags]) == 0
            reports.append(report.read_bytes())
        own, swapped, rerun = reports
        assert swapped == rerun
        assert swapped != own
        if kind != "pair":  # the kinds without a drawn scaler
            protocol = EvalProtocol(n_episodes=3, T=2, master_seed=5)
            metric = MetricSpec.euclid() if kind == "euclid" else MetricSpec.scaled(7.5)
            state = ModelState(metric=metric, encoder=encoder)
            assert swapped.decode() == render_jsonl(
                evaluate(state, load_embeddings(table_file), protocol))

    def test_python_dash_m_runs_without_warning(self, tmp_path):
        out = tmp_path / "t.mcte"
        run = subprocess.run(
            [sys.executable, "-m", "mct", "make-synth", "--out", str(out)],
            capture_output=True, text=True, env=fresh_env(), timeout=120,
        )
        assert run.returncode == 0
        assert "RuntimeWarning" not in run.stderr
        assert load_embeddings(out).rows.shape == (1000, 16)

    @pytest.mark.parametrize("flags,config", [
        (["--transduction-steps", "10"], ""),
        (["--transduction-steps", "1"], ""),
        (["--ensemble", "on"], ""),
        (["--ensemble", "off"], ""),
        (["--ensemble", "off", "--transduction-steps", "2"], ""),
        ([], "transduction-steps=10\n"),
        ([], "ensemble=on\n"),
    ])
    def test_semi_mode_honours_steps_and_ensemble(self, table_file, tmp_path, flags, config):
        # an encoder, so that the four views differ
        checkpoint = tmp_path / "m.mctp"
        encoder = EncoderParams.init(8, np.random.default_rng(6), hidden=32, positions=2,
                                     channels=16)
        save_state(checkpoint, ModelState(metric=metric_of("instance", 32), encoder=encoder))
        report = tmp_path / "r.jsonl"
        args = ["eval", "--source", str(table_file), "--checkpoint", str(checkpoint),
                "--mode", "semi", "--queries", "4", "--unlabeled", "4", "--episodes", "2",
                "--report", str(report), *flags]
        given = dict(zip(flags[::2], flags[1::2]))
        if config:
            cfg = tmp_path / "mct.cfg"
            cfg.write_text(config)
            args += ["--config", str(cfg)]
            key, value = config.strip().split("=")
            given["--" + key] = value
        assert main(args) == 0
        defaults = EvalProtocol(queries=4, n_episodes=2, mode="semi", unlabeled=4)
        protocol = replace(defaults, T=int(given.get("--transduction-steps", 10)),
                           ensemble=given.get("--ensemble", "on") == "on")

        def rendered(protocol):
            return render_jsonl(evaluate(load_state(checkpoint), load_embeddings(table_file),
                                         protocol))

        assert report.read_text() == rendered(protocol)
        if (protocol.T, protocol.ensemble) != (10, True):
            assert report.read_text() != rendered(defaults)
        summary = json.loads(report.read_text().strip().split("\n")[-1])
        assert (summary["config"]["T"], summary["config"]["ensemble"]) == (
            protocol.T, protocol.ensemble)

    @pytest.mark.parametrize("command", [
        (["gradcheck", "--trials", "1"], "seed", "-1"),
        (["eval", "--episodes", "1", "--report", "{out}"], "seed", "-1"),
        (["train", "--steps", "1", "--out", "{out}"], "seed", "-1"),
        (["make-synth", "--out", "{out}"], "seed", "-1"),
        (["eval", "--mode", "semi", "--episodes", "1", "--report", "{out}"], "unlabeled", "0"),
        (["eval", "--mode", "semi", "--episodes", "1", "--report", "{out}"], "unlabeled", "-3"),
        (["eval", "--episodes", "1", "--report", "{out}"], "transduction-steps", "-1"),
        (["eval", "--episodes", "1", "--report", "{out}"], "queries", "0"),
        (["eval", "--episodes", "1", "--report", "{out}"], "queries", "-3"),
        (["eval", "--report", "{out}"], "episodes", "0"),
        (["eval", "--episodes", "1", "--report", "{out}"], "shots", "0"),
        (["eval", "--episodes", "1", "--report", "{out}"], "workers", "0"),
        (["eval", "--episodes", "1", "--report", "{out}"], "dim", "0"),
        (["gradcheck"], "trials", "0"),
        (["train", "--out", "{out}"], "steps", "0"),
        (["train", "--steps", "1", "--out", "{out}"], "dim", "0"),
        (["train", "--steps", "1", "--out", "{out}"], "pool-classes", "0"),
        (["train", "--steps", "1", "--out", "{out}"], "ways", "1"),
        (["train", "--steps", "1", "--out", "{out}"], "shots", "0"),
        (["train", "--steps", "1", "--out", "{out}"], "queries", "0"),
        (["make-synth", "--out", "{out}"], "classes", "0"),
        (["make-synth", "--out", "{out}"], "per-class", "0"),
        (["make-synth", "--out", "{out}"], "dim", "0"),
    ])
    @pytest.mark.parametrize("from_config", [False, True])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command, from_config):
        # and the other count flags: --seed, --transduction-steps and --distractors
        # count from 0, --ways from 2, the rest from 1
        command, key, value = command
        expected = ("a non-negative integer" if key in ("seed", "transduction-steps") else
                    "an integer of at least 2" if key == "ways" else "a positive integer")
        out = tmp_path / "out.bin"
        args = [a.format(out=out) for a in command]
        if from_config:
            cfg = tmp_path / "mct.cfg"
            cfg.write_text(f"{key}={value}\n")
            args += ["--config", str(cfg)]
        else:
            args += [f"--{key}", value]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert f"argument --{key}: expected {expected}, got '{value}'" in err
        assert not out.exists()

    def test_semi_mode_runs_without_those_flags(self, table_file, tmp_path):
        report = tmp_path / "r.jsonl"
        assert main(["eval", "--source", str(table_file), "--mode", "semi", "--queries", "4",
                     "--unlabeled", "4", "--episodes", "2", "--report", str(report)]) == 0
        summary = json.loads(report.read_text().strip().split("\n")[-1])
        assert summary["config"]["T"] == 10 and summary["config"]["ensemble"] is True

    @pytest.mark.parametrize("mode", ["transductive", "inductive"])
    def test_explicit_defaults_leave_reports_unchanged(self, table_file, tmp_path, mode):
        reports = []
        for name, extra in (("a", []), ("b", ["--transduction-steps", "10", "--ensemble", "on"])):
            path = tmp_path / f"{name}.jsonl"
            assert main(["eval", "--source", str(table_file), "--mode", mode,
                         "--episodes", "3", "--report", str(path), *extra]) == 0
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("mode", ["transductive", "inductive"])
    @pytest.mark.parametrize("flags,config", [
        (["--unlabeled", "4"], ""),
        (["--distractors", "2"], ""),
        (["--distractors", "0"], ""),
        (["--unlabeled", "4", "--distractors", "1"], ""),
        ([], "unlabeled=4\n"),
        ([], "distractors=1\n"),
    ])
    def test_pool_flags_outside_semi_mode_are_usage_errors(
        self, table_file, tmp_path, capsys, mode, flags, config
    ):
        args = ["eval", "--source", str(table_file), "--mode", mode, "--episodes", "2",
                "--report", str(tmp_path / "r.jsonl"), *flags]
        if config:
            cfg = tmp_path / "mct.cfg"
            cfg.write_text(config)
            args += ["--config", str(cfg)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {mode} mode") and err.count("\n") == 1
        named = [f for f in flags if f.startswith("--")] or ["--" + config.split("=")[0]]
        assert all(f in err for f in named)
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("command,flags,config", [
        (["eval", "--episodes", "2", "--report", "{out}"], ["--spread", "nan"], ""),
        (["eval", "--episodes", "2", "--report", "{out}"], ["--dim", "8", "--std", "2"], ""),
        (["eval", "--episodes", "2", "--report", "{out}"], [], "std=0.5\n"),
        (["train", "--steps", "1", "--out", "{out}"], ["--pool-classes", "5"], ""),
        (["train", "--steps", "1", "--out", "{out}"], ["--dim", "8", "--spread", "1"], ""),
        (["train", "--steps", "1", "--out", "{out}"], [], "pool_classes=5\n"),
    ])
    def test_synthetic_flags_with_a_table_source_are_usage_errors(
        self, table_file, tmp_path, capsys, command, flags, config
    ):
        out = tmp_path / "out.bin"
        args = [a.format(out=out) for a in command] + ["--source", str(table_file), *flags]
        if config:
            cfg = tmp_path / "mct.cfg"
            cfg.write_text(config)
            args += ["--config", str(cfg)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a table source takes no") and err.count("\n") == 1
        named = [f for f in flags if f.startswith("--")] or [
            "--" + config.split("=")[0].replace("_", "-")]
        assert all(f in err for f in named)
        assert not out.exists()

    def test_synthetic_flags_at_their_defaults_leave_synthetic_runs_unchanged(self, tmp_path):
        explicit = {"eval": ["--dim", "16", "--spread", "4", "--std", "1"],
                    "train": ["--dim", "16", "--spread", "4", "--std", "1",
                              "--pool-classes", "20"]}
        for command, out_flag, extra in (
            ("eval", "--report", ["--episodes", "2", "--ways", "3", "--queries", "2"]),
            ("train", "--out", ["--steps", "2", "--ways", "3", "--encoder", "none"]),
        ):
            outputs = []
            for name, flags in (("a", []), ("b", explicit[command])):
                path = tmp_path / f"{command}-{name}.bin"
                assert main([command, *extra, out_flag, str(path), *flags]) == 0
                outputs.append(path.read_bytes())
            assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("from_config", [False, True])
    def test_negative_distractors_is_a_usage_error(self, table_file, tmp_path, capsys,
                                                   from_config):
        report = tmp_path / "r.jsonl"
        args = ["eval", "--source", str(table_file), "--mode", "semi", "--queries", "4",
                "--unlabeled", "4", "--episodes", "2", "--report", str(report)]
        if from_config:
            cfg = tmp_path / "mct.cfg"
            cfg.write_text("distractors=-1\n")
            args += ["--config", str(cfg)]
        else:
            args += ["--distractors", "-1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "argument --distractors: expected a non-negative integer, got '-1'" in err
        assert not report.exists()

    def test_semi_reports_with_explicit_zero_distractors_are_unchanged(self, table_file,
                                                                      tmp_path):
        reports = []
        for name, extra in (("a", []), ("b", ["--distractors", "0"])):
            path = tmp_path / f"{name}.jsonl"
            assert main(["eval", "--source", str(table_file), "--mode", "semi", "--queries", "4",
                         "--unlabeled", "4", "--episodes", "3", "--report", str(path),
                         *extra]) == 0
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]
