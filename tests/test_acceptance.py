"""Acceptance suite: nine numbered criteria, one test and verdict line each.

Frozen constants below were fixed by calibration runs before this suite
was written; they are inputs to the tests, not tuned to them.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from mct.checkpoint import ModelState
from mct.encoder import VIEWS, EncoderParams, encode_batch
from mct.episodes import (
    EmbeddingTable,
    SyntheticSpec,
    derive_seed,
    sample_episode,
    save_embeddings,
)
from mct.evalcli import EvalProtocol, evaluate, gradcheck, main, nll
from mct.metatrain import TrainConfig, train
from mct.metric import MetricSpec, ScalerParams
from mct.transduce import init_from_embeddings, refine_batch, update_prototypes
from oracles import confidence

_MODULE_T0 = time.perf_counter()

# calibration run, 1000 episodes on the frozen spec below: gain 0.1873,
# paired stderr 0.0026; the margin leaves five sigma of headroom
GAIN_MARGIN = 0.15

# calibration run: four-view minus single-view NLL -0.178 (std 0.150),
# so non-inferiority within this slack is a loose bound
NONINF_DELTA = 0.02

FROZEN_SPEC = SyntheticSpec(input_dim=16, class_spread=4.0, within_std=1.0)
TRAIN_SOURCE = SyntheticSpec(
    input_dim=16, class_spread=4.0, within_std=1.0, pool_classes=20, pool_seed=0
)
TRAIN_SEED = 101
EVAL_SEED = 7


def _verdict(criterion: int, ok: bool, detail: str):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def four_view_model() -> ModelState:
    state, _ = train(TRAIN_SOURCE, TrainConfig(steps=500, seed=TRAIN_SEED))
    return state.to_model_state()


@pytest.fixture(scope="module")
def single_view_model() -> ModelState:
    state, _ = train(
        TRAIN_SOURCE, TrainConfig(steps=500, seed=TRAIN_SEED, views=("full",))
    )
    return state.to_model_state()


@pytest.fixture(scope="module")
def heldout_instance(four_view_model):
    proto = EvalProtocol(n_episodes=1000, T=10, master_seed=EVAL_SEED)
    return evaluate(four_view_model, FROZEN_SPEC, proto)


@pytest.fixture(scope="module")
def heldout_euclid(four_view_model):
    swapped = replace(four_view_model, metric=MetricSpec.euclid())
    proto = EvalProtocol(n_episodes=1000, T=10, master_seed=EVAL_SEED)
    return evaluate(swapped, FROZEN_SPEC, proto)


@pytest.fixture(scope="module")
def heldout_single(single_view_model):
    proto = EvalProtocol(n_episodes=1000, T=10, master_seed=EVAL_SEED, ensemble=False)
    return evaluate(single_view_model, FROZEN_SPEC, proto)


def test_criterion_1_confidence_rows_normalize():
    """10,000 random (episode, metric, step) triples; every row sums to 1."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    kinds = ("euclid", "scaled", "instance", "pair")
    failures = 0
    for _ in range(10_000):
        ways = int(rng.integers(2, 7))
        shots = int(rng.integers(1, 4))
        queries = int(rng.integers(1, 9))
        dim = int(rng.integers(2, 13))
        spec = SyntheticSpec(
            input_dim=dim,
            class_spread=float(rng.uniform(0.5, 8.0)),
            within_std=float(rng.uniform(0.2, 2.0)),
        )
        kind = kinds[int(rng.integers(4))]
        if kind == "euclid":
            metric = MetricSpec.euclid()
        elif kind == "scaled":
            metric = MetricSpec.scaled(float(rng.uniform(0.5, 20.0)))
        elif kind == "instance":
            metric = MetricSpec(kind="instance", scaler=ScalerParams.init(dim, rng, hidden=4))
        else:
            metric = MetricSpec(kind="pair", scaler=ScalerParams.init(2 * dim, rng, hidden=4))
        steps = int(rng.integers(0, 4))
        episode = sample_episode(spec, ways, shots, queries, int(rng.integers(2**32)))
        conf = refine_batch([episode], None, VIEWS[:1], metric, steps)[0, -1]
        if np.max(np.abs(conf.sum(axis=1) - 1.0)) > 1e-9:
            failures += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        failures == 0 and elapsed < 30.0,
        f"{failures} failures over 10000 triples in {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_2_gradients_match_finite_differences():
    """20 gradcheck trials across all four metric kinds, rel err < 1e-4."""
    t0 = time.perf_counter()
    report = gradcheck(trials=20, tolerance=1e-4, seed=0)
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        report.passed and elapsed < 60.0,
        f"worst rel err {report.worst_rel_err:.2e} at {report.worst_param}"
        f" in {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_3_algorithm_equivalences():
    """Collapsed-view ensemble == single-view chain; mean and T=0 identities."""
    rng = np.random.default_rng(31)
    encoder = EncoderParams.init(16, rng, hidden=8, n_blocks=2, positions=2, channels=4)
    last = encoder.blocks[-1]
    collapsed = replace(
        encoder,
        blocks=encoder.blocks[:-1] + ((last[0], last[1], np.zeros_like(last[2]), np.zeros_like(last[3])),),
    )
    metric = MetricSpec.euclid()
    worst = 0.0
    for i in range(100):
        ep = sample_episode(FROZEN_SPEC, 5, 1, 15, derive_seed(31, i))
        # zeroed last branch plus no augmented views: both views encode
        # identically, so the ensemble must retrace the plain chain
        a = refine_batch([ep], collapsed, VIEWS[:2], metric, 3)[0, -1]
        b = refine_batch([ep], collapsed, VIEWS[:1], metric, 3)[0, -1]
        worst = max(worst, float(np.max(np.abs(a - b))))
    ok_a = worst < 1e-12

    ep = sample_episode(FROZEN_SPEC, 5, 1, 15, derive_seed(32, 0))
    locals_ = [confidence_of(ep, v, metric) for v in VIEWS]
    expected = sum(locals_) / len(locals_)
    ensembled = refine_batch([ep], None, VIEWS, metric, 0)[0, -1]
    ok_b = np.array_equal(expected, ensembled)

    ok_c = True
    for i in range(20):
        ep = sample_episode(FROZEN_SPEC, 5, 1, 15, derive_seed(33, i))
        inductive = confidence_of(ep, VIEWS[0], metric)
        if not np.array_equal(refine_batch([ep], None, VIEWS[:1], metric, 0)[0, -1], inductive):
            ok_c = False
    _verdict(
        3,
        ok_a and ok_b and ok_c,
        f"collapsed-view max diff {worst:.1e}; mean identity {ok_b}; T=0 identity {ok_c}",
    )


def confidence_of(ep, view, metric):
    protos = init_from_embeddings(encode_batch(None, ep.support_x, view), ep.support_y, ep.ways)
    return confidence(encode_batch(None, ep.query_x, view), protos, metric)


def test_criterion_4_closed_forms():
    """Hand-computed prototype, softmax, and NLL cases, exact to 1e-12."""
    support = np.zeros((1, 3))
    v = np.array([[2.0, -4.0, 6.0]])
    conf = np.array([[0.5]])
    protos = update_prototypes(support, np.array([1]), 1, v, conf)
    ok_proto = np.allclose(protos, v / 3.0, rtol=0, atol=1e-12)

    from mct import numkit as nk

    soft = nk.softmax_neg(np.array([[0.0, np.log(2.0)]]))
    ok_soft = np.allclose(soft, [[2.0 / 3.0, 1.0 / 3.0]], rtol=0, atol=1e-12)

    uniform = np.full((6, 4), 0.25)
    ok_nll = abs(nll(uniform, [1, 2, 3, 4, 1, 2]) - np.log(4.0)) < 1e-12
    _verdict(
        4,
        ok_proto and ok_soft and ok_nll,
        f"prototype {ok_proto}, softmax {ok_soft}, uniform NLL {ok_nll}",
    )


def test_criterion_5_transduction_gain():
    """T=10 beats T=0 by the frozen margin on 1000 seeded episodes."""
    t0 = time.perf_counter()
    euclid = MetricSpec.euclid()
    acc0 = np.zeros(1000)
    acc10 = np.zeros(1000)
    from mct.transduce import predict_labels

    for i in range(1000):
        ep = sample_episode(FROZEN_SPEC, 5, 1, 15, derive_seed(0, i))
        trace = refine_batch([ep], None, VIEWS[:1], euclid, 10)[0]
        acc0[i] = np.mean(predict_labels(trace[0]) == ep.query_y)
        acc10[i] = np.mean(predict_labels(trace[10]) == ep.query_y)
    gain = float((acc10 - acc0).mean())
    _, p = stats.ttest_rel(acc10, acc0, alternative="greater")
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        gain >= GAIN_MARGIN and p < 0.01 and elapsed < 120.0,
        f"gain {gain:.4f} (margin {GAIN_MARGIN}), paired p {p:.1e},"
        f" {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_6_learned_metric_ordering(heldout_instance, heldout_euclid):
    """Trained instance metric >= plain Euclidean, paired on 1000 episodes."""
    acc_i = np.array([r.accuracy for r in heldout_instance.records])
    acc_e = np.array([r.accuracy for r in heldout_euclid.records])
    diff = float((acc_i - acc_e).mean())
    _, p = stats.ttest_rel(acc_i, acc_e, alternative="greater")
    _verdict(
        6,
        diff >= 0.0,
        f"instance {acc_i.mean():.4f} vs euclid {acc_e.mean():.4f},"
        f" diff {diff:+.4f}, paired p {p:.1e} (direction only)",
    )


def test_criterion_7_view_training_calibration(heldout_instance, heldout_single):
    """Four-view training is non-inferior on pre-transduction NLL."""
    nll_four = np.array([r.nll for r in heldout_instance.records])
    nll_one = np.array([r.nll for r in heldout_single.records])
    _, p = stats.ttest_rel(nll_four, nll_one - NONINF_DELTA, alternative="less")
    _verdict(
        7,
        p < 0.05,
        f"four-view nll {nll_four.mean():.4f} vs single-view {nll_one.mean():.4f},"
        f" non-inferiority (delta {NONINF_DELTA}) p {p:.1e}",
    )


def test_criterion_8_embedding_file_protocol(tmp_path):
    """Full 5-way 15-query 1000-episode runs on an embedding file are
    byte-reproducible across repeat runs and worker counts, at 1 and 5
    shots, through the command line."""
    rng = np.random.default_rng(88)
    means = rng.normal(0.0, 4.0, (20, 8))
    rows = means.repeat(30, axis=0) + rng.standard_normal((600, 8))
    table_path = tmp_path / "bench.mcte"
    save_embeddings(table_path, EmbeddingTable(rows, np.repeat(np.arange(20), 30)))

    ok = True
    details = []
    for shots in (1, 5):
        renders = []
        for tag, workers in (("a", 1), ("b", 1), ("c", 3)):
            out = tmp_path / f"s{shots}{tag}.jsonl"
            code = main([
                "eval", "--source", str(table_path), "--episodes", "1000",
                "--shots", str(shots), "--workers", str(workers),
                "--seed", "12", "--report", str(out),
            ])
            ok = ok and code == 0
            renders.append(out.read_bytes())
        ok = ok and renders[0] == renders[1] == renders[2]
        summary = json.loads(renders[0].decode().strip().split("\n")[-1])
        ok = ok and summary["n_episodes"] == 1000
        ok = ok and summary["config"] == {
            "T": 10, "ensemble": True, "master_seed": 12,
            "queries": 15, "shots": shots, "ways": 5,
        }
        per_ep = np.array([
            json.loads(ln)["accuracy"]
            for ln in renders[0].decode().strip().split("\n")[:-1]
        ])
        ref_ci = 1.96 * per_ep.std(ddof=1) / np.sqrt(per_ep.size)
        ok = ok and abs(summary["ci95"] - ref_ci) < 1e-12
        details.append(f"{shots}-shot acc {summary['mean_accuracy']:.4f} ± {summary['ci95']:.4f}")
    _verdict(8, ok, "; ".join(details) + "; identical bytes over reruns and workers")


def test_criterion_9_suite_runtime():
    """This module, which carries all the heavy runs, fits the wall-clock
    budget with room for the fast unit modules around it."""
    elapsed = time.perf_counter() - _MODULE_T0
    _verdict(9, elapsed < 240.0, f"acceptance module {elapsed:.1f}s (budget 240s of 300s total)")
