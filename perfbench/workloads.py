"""The three benchmark workloads: inputs, set-up, and timed passes.

Each workload is closed-loop: one client calls the library back to back.
A pass is one kind of call (an evaluation protocol, a training run, a
gradient check); a round runs a fixed number of chunks of every pass in
turn, so that drift in the machine's speed hits every pass alike. Chunk
i of a pass derives its inputs from (workload seed, i), so a rerun of a
chunk must reproduce its output byte for byte.

Why these workloads:

- ``mct_eval`` is the paper's headline path. A trained model's T=10
  refinement loop over four perturbed views, the input-adaptive metric
  and per-view encoding do almost all of the work; sampling is under 2%.
- ``table_semi`` scores user-supplied embeddings of 1000 classes with the
  identity encoder and the euclid metric. Sampling from the table and
  file IO dominate and refinement is one update, so a change to the
  refinement loop or the encoder should leave it unchanged.
- ``metatrain`` runs the same encoder, metric and refinement code on the
  autodiff tape, writes parameters and checkpoints, and checks tape
  gradients against finite differences. Tape backward dominates, so a
  change that speeds up evaluation at the taped path's cost shows here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import mct


def sub_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the workload seed and a path of ints."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


@dataclass
class Chunk:
    """What one timed call produced."""

    units: int
    failed: int
    output: str  # byte-stable rendering compared by the identity checks
    summary: dict  # numbers compared with the recorded default-seed values
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    """One kind of timed call; ``run(chunk index, workers)`` returns its chunk."""

    name: str  # the end-to-end figure it feeds, as units per second
    unit: str
    units: int  # units in one chunk
    run: Callable[[int, int], Chunk]
    same_as: str | None = None  # pass whose output this one must reproduce
    per_round: int = 1  # chunks per round


def same_state(a: mct.ModelState, b: mct.ModelState) -> bool:
    na, nb = a.to_named(), b.to_named()
    return na.keys() == nb.keys() and all(np.array_equal(na[k], nb[k]) for k in na)


def _training_source(seed):
    """Synthetic Gaussian classes with a 20-class pool: the CLI's default training data."""
    return mct.SyntheticSpec(
        input_dim=16, class_spread=4.0, within_std=1.0,
        pool_classes=20, pool_seed=sub_seed(seed, 1),
    )


def _eval_chunk(state, source, protocol: mct.EvalProtocol) -> Chunk:
    report = mct.evaluate(state, source, protocol)
    bad = sum(
        not (np.isfinite(r.nll) and np.isfinite(r.nll_final)) for r in report.records
    )
    return Chunk(
        units=report.n_episodes,
        failed=bad,
        output=mct.render_jsonl(report),
        summary={
            "mean_accuracy": report.mean_accuracy,
            "mean_nll": report.mean_nll,
            "mean_nll_final": report.mean_nll_final,
        },
    )


def _eval_pass(name, state, source, seed, size, *, pin_workers=None, same_as=None, **proto):
    def run(index: int, workers: int) -> Chunk:
        protocol = mct.EvalProtocol(
            ways=5, shots=1, queries=15, n_episodes=size["chunk"],
            master_seed=sub_seed(seed, 100, index),
            workers=pin_workers or workers, **proto,
        )
        return _eval_chunk(state, source, protocol)

    return Pass(name, "episode", size["chunk"], run, same_as)


class MctEval:
    name = "mct_eval"
    sizes = {
        "full": {"train_steps": 40, "chunk": 4, "setups": 5, "trace_rounds": 20},
        "tiny": {"train_steps": 4, "chunk": 2, "setups": 1, "trace_rounds": 1},
    }
    primary, secondary = "trans_ens_eps", "trans_single_eps"

    def inputs(self, seed, size):
        return _training_source(seed)

    def setup(self, source, seed, size, workdir: Path) -> tuple[mct.ModelState, list[str]]:
        """Meta-train a model, write it, read it back."""
        state, _ = mct.train(
            source, mct.TrainConfig(steps=size["train_steps"], seed=sub_seed(seed, 2))
        )
        path = workdir / "model.mctp"
        trained = state.to_model_state()
        mct.save_state(path, trained)
        loaded = mct.load_state(path)
        return loaded, [] if same_state(trained, loaded) else ["model checkpoint read back differs"]

    def passes(self, state, seed, size, workdir: Path):
        heldout = mct.SyntheticSpec(input_dim=16, class_spread=4.0, within_std=1.0)
        args = (state, heldout, seed, size)
        return [
            _eval_pass("trans_ens_eps", *args, mode="transductive", ensemble=True, T=10),
            _eval_pass("trans_single_eps", *args, mode="transductive", ensemble=False, T=10),
            _eval_pass("ind_ens_eps", *args, mode="inductive", ensemble=True, T=10),
            _eval_pass("trans_ens_w2_eps", *args, mode="transductive", ensemble=True, T=10,
                       pin_workers=2, same_as="trans_ens_eps"),
        ]


class TableSemi:
    name = "table_semi"
    sizes = {
        "full": {"classes": 1000, "chunk": 4, "setups": 9, "trace_rounds": 20},
        "tiny": {"classes": 40, "chunk": 2, "setups": 1, "trace_rounds": 1},
    }
    primary, secondary = "semi_eps", "table_ind_eps"
    per_class, dim = 60, 64

    def inputs(self, seed, size):
        rng = np.random.default_rng(sub_seed(seed, 1))
        classes = size["classes"]
        means = 0.5 * rng.standard_normal((classes, self.dim))
        rows = np.repeat(means, self.per_class, axis=0)
        rows += rng.standard_normal(rows.shape)
        return rows, np.repeat(np.arange(classes), self.per_class)

    def setup(self, data, seed, size, workdir: Path):
        """Build the table, write it as .mcte, read it back."""
        rows, labels = data
        table = mct.EmbeddingTable(rows, labels)
        path = workdir / "table.mcte"
        mct.save_embeddings(path, table)
        loaded = mct.load_embeddings(path)
        same = np.array_equal(table.rows, loaded.rows) and np.array_equal(table.labels, loaded.labels)
        return loaded, [] if same else ["embedding table read back differs"]

    def passes(self, table, seed, size, workdir: Path):
        args = (mct.ModelState(metric=mct.MetricSpec.euclid()), table, seed, size)
        return [
            # semi mode makes one update from the unlabeled pool, single view
            _eval_pass("semi_eps", *args, mode="semi", distractors=5, ensemble=False, T=1),
            _eval_pass("table_ind_eps", *args, mode="inductive", ensemble=False, T=0),
        ]


class Metatrain:
    name = "metatrain"
    sizes = {
        "full": {"steps": 20, "per_round": 2, "trials": 2, "setups": 9, "trace_rounds": 2},
        "tiny": {"steps": 4, "per_round": 1, "trials": 1, "setups": 1, "trace_rounds": 1},
    }
    primary, secondary = "train_steps_per_s", "gradcheck_trials_per_s"

    def inputs(self, seed, size):
        return _training_source(seed)

    def setup(self, source, seed, size, workdir: Path):
        """Initialize a model through a one-step training run."""
        mct.train(source, mct.TrainConfig(steps=1, seed=sub_seed(seed, 2)))
        return source, []

    def passes(self, source, seed, size, workdir: Path):
        steps, trials = size["steps"], size["trials"]

        def train_run(index: int, workers: int) -> Chunk:
            path = workdir / f"chunk{index}.mctp"
            config = mct.TrainConfig(
                steps=steps, seed=sub_seed(seed, 200, index),
                checkpoint_every=steps, checkpoint_path=str(path),
            )
            state, reports = mct.train(source, config)
            losses = [r.loss for r in reports]
            problems = []
            try:
                if not same_state(state.to_model_state(), mct.load_state(path)):
                    problems.append(f"{path.name} reads back different tensors")
            except (mct.MctError, OSError) as exc:
                problems.append(f"{path.name} does not read back: {exc}")
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"
            return Chunk(
                units=steps,
                failed=sum(not np.isfinite(x) for x in losses),
                output=json.dumps(losses) + " " + digest,
                summary={"losses": losses},
                problems=problems,
            )

        def gradcheck_run(index: int, workers: int) -> Chunk:
            # gradcheck's own seed stays at its default: some other seeds build
            # fixtures with all-zero embeddings, where the loss has an exact
            # relu kink or cannot be normalized, and the check fails or raises
            rep = mct.gradcheck(trials=trials, tolerance=1e-4)
            problems = [] if rep.passed else [
                f"gradcheck failed: {rep.worst_rel_err:.3e} at {rep.worst_param}"
            ]
            return Chunk(
                units=trials,
                failed=0 if rep.passed else trials,
                output=repr((rep.passed, rep.worst_rel_err, rep.worst_param)),
                summary={"passed": rep.passed},
                problems=problems,
            )

        return [
            Pass("train_steps_per_s", "step", steps, train_run, per_round=size["per_round"]),
            Pass("gradcheck_trials_per_s", "trial", trials, gradcheck_run),
        ]


WORKLOADS = {w.name: w for w in (MctEval(), TableSemi(), Metatrain())}
