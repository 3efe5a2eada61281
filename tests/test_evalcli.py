import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mct import numkit as nk
from mct.checkpoint import ModelState, load_state
from mct.episodes import SyntheticSpec, derive_seed, load_embeddings, sample_episode
from mct.errors import ContractError
from mct.evalcli import (
    EvalProtocol,
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
from mct.metatrain import GlobalClassifier, training_loss
from mct.metric import MetricSpec
from mct.transduce import refine, semi_infer, soft_kmeans
from mct.encoder import VIEWS, EncoderParams

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
            conf = soft_kmeans(ep, None, VIEWS[0], MetricSpec.euclid(), 2)
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

    def test_inference_is_blind_to_query_labels(self):
        ep = sample_episode(PLAIN_SPEC, 5, 1, 15, rng_seed=77)
        shuffled = replace(ep, query_y=np.roll(ep.query_y, 7))
        a = soft_kmeans(ep, None, VIEWS[0], MetricSpec.euclid(), 3)
        b = soft_kmeans(shuffled, None, VIEWS[0], MetricSpec.euclid(), 3)
        np.testing.assert_array_equal(a, b)


def trained_like_state(kind):
    encoder = EncoderParams.init(16, np.random.default_rng(6), hidden=32, positions=2, channels=16)
    rng = np.random.default_rng(7)
    metric = {
        "euclid": MetricSpec.euclid,
        "scaled": lambda: MetricSpec.scaled(0.3),
        "instance": lambda: MetricSpec.instance(32, rng),
        "pair": lambda: MetricSpec.pair(32, rng),
    }[kind]()
    return ModelState(metric=metric, encoder=encoder)


def per_episode_records(state, source, protocol):
    """One episode at a time through ``refine`` or ``soft_kmeans``/``semi_infer`` (oracle)."""
    records = []
    for i in range(protocol.n_episodes):
        seed = derive_seed(protocol.master_seed, i)
        if protocol.mode == "semi":
            ep = sample_episode(source, protocol.ways, protocol.shots, protocol.queries, seed,
                                unlabeled=protocol.unlabeled_count,
                                distractors=protocol.distractors)
            conf0 = soft_kmeans(ep, state.encoder, VIEWS[0], state.metric, 0)
            conf = semi_infer(ep, state.encoder, state.metric)[2]
        else:
            ep = sample_episode(source, protocol.ways, protocol.shots, protocol.queries, seed)
            views = VIEWS if protocol.ensemble else VIEWS[:1]
            steps = protocol.T if protocol.mode == "transductive" else 0
            trace = refine(ep, state.encoder, views, state.metric, steps)
            conf0, conf = trace[0], trace[-1]
        records.append(EpisodeRecord(
            index=i, seed=seed,
            accuracy=float(np.mean(np.argmax(conf, axis=1) + 1 == ep.query_y)),
            nll=nll(conf0, ep.query_y), nll_final=nll(conf, ep.query_y),
        ))
    return tuple(records)


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
        state = trained_like_state(kind)
        for n_episodes in (1, 5, 9):
            protocol = EvalProtocol(n_episodes=n_episodes, mode="semi", unlabeled=4,
                                    distractors=1, master_seed=8)
            report = evaluate(state, PLAIN_SPEC, protocol)
            assert report.records == per_episode_records(state, PLAIN_SPEC, protocol)
            with monkeypatch.context() as m:
                m.setattr(evalcli, "_BATCH", 1)
                one_by_one = render_jsonl(evaluate(state, PLAIN_SPEC, protocol))
            assert render_jsonl(report) == one_by_one, n_episodes


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

    def test_table_shows_mean_and_interval(self):
        rep = evaluate(EUCLID, ORACLE_SPEC, EvalProtocol(n_episodes=3, T=0))
        table = render_table(rep)
        assert "100.00 ± 0.00 %" in table
        assert "episodes" in table and "3" in table


class TestGradcheck:
    def test_two_kind_rotation_passes(self):
        rep = gradcheck(trials=8, tolerance=1e-4, seed=0)
        assert rep.passed
        assert rep.worst_rel_err < 1e-4
        assert rep.trials == 8

    def test_euclid_trial_has_no_scaler_parameters(self):
        named, fixture = _gradcheck_fixture(0, seed=0)
        assert fixture[1] == "euclid"
        assert not any(k.startswith("metric.") for k in named)
        tape = nk.Tape()
        _gradcheck_loss(named, fixture, tape)
        assert not any(k.startswith("metric.") for k in tape.named_params)

    def test_zero_tolerance_always_fails(self):
        rep = gradcheck(trials=1, tolerance=0.0, seed=0)
        assert not rep.passed

    def test_reports_worst_location(self):
        rep = gradcheck(trials=2, tolerance=1e-12, seed=0)
        assert not rep.passed
        assert "trial" in rep.worst_param

    def test_trial_count_validated(self):
        with pytest.raises(ContractError):
            gradcheck(trials=0)

    @pytest.mark.parametrize("trial", range(4))
    def test_loss_is_training_loss_of_rebuilt_model(self, trial):
        named, fixture = _gradcheck_fixture(trial, seed=0)
        episode, kind, lam, shape = fixture
        encoder = EncoderParams.from_named(
            named, dropout=0.0, positions=shape["positions"], channels=shape["channels"]
        )
        metric = MetricSpec.from_named(kind, named)
        clf = GlobalClassifier(weight=named["classifier.w"], classes=shape["classes"])
        loss, _, _ = training_loss(
            episode, encoder, metric, clf, VIEWS[shape["view"]], lam=lam
        )
        assert np.array_equal(_gradcheck_loss(named, fixture, None), loss)

    @pytest.mark.parametrize("trials, seed", [(2, 278550621), (3, 880104451)])
    def test_fixture_seeds_that_once_degenerated_pass(self, trials, seed):
        # with zero encoder biases these seeds left a relu layer dead: one
        # put the loss on a kink (rel err 1.75), the other zeroed every
        # embedding so normalization raised
        rep = gradcheck(trials=trials, tolerance=1e-4, seed=seed)
        assert rep.passed, rep.worst_param


@pytest.fixture()
def table_file(tmp_path):
    path = tmp_path / "t.mcte"
    code = main([
        "make-synth", "--out", str(path), "--dim", "8",
        "--classes", "8", "--per-class", "24", "--seed", "3",
    ])
    assert code == 0
    return path


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

    def test_diverging_train_prints_one_line(self, tmp_path):
        # a fresh interpreter with default warning filters, as a user runs it
        src = Path(evalcli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        )}
        env.pop("PYTHONWARNINGS", None)
        ckpt = tmp_path / "m.mctp"
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from mct.evalcli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "train", "--lr", "50", "--steps", "30", "--out", str(ckpt)],
            capture_output=True, text=True, env=env, timeout=300,
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
        report = str(tmp_path / "no-such-dir" / "r.jsonl")
        code = main(["eval", "--episodes", "1", "--transduction-steps", "0",
                     "--report", report])
        assert code == 2
        assert f"error: cannot write {report}: " in capsys.readouterr().err

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
