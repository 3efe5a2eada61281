"""Evaluation harness and command line.

``evaluate`` scores a model over a batch of seeded episodes and returns
a :class:`Report` with mean accuracy, a normal-approximation 95%
confidence interval (1.96 * sample std / sqrt(n)), and negative
log-likelihood both before the first transductive step and at the final
step. Reports render as JSON lines (one record per episode plus a
summary) and as a plain-text table; both renderings are byte-stable
given (model, seed, protocol); the worker count is accepted for
compatibility and changes nothing. Every mode refines a few same-shape
episodes at a time through ``transduce.refine_batch``, with the four
views or the plain one as ``ensemble`` says, over 0 steps in inductive
mode and ``T`` otherwise; semi mode only adds each episode's unlabeled
pool, which then weights the updates in place of the queries.

``gradcheck`` rebuilds a small model from flat parameters as
``train_step`` does, drives ``metatrain.training_loss`` with it on
small random episodes, and compares every
tape gradient entry against central finite differences; the CLI wires
a failure to exit code 3 so CI can gate on it. Each step size of its
ladder evaluates all the parameter sets it bumps as one stacked,
untaped forward pass of that same loss.

Subcommands: train, eval, gradcheck, make-synth. A flag for a field of
``TrainConfig``, ``EvalProtocol``, ``SyntheticSpec`` or ``gradcheck``
defaults to it; a key=value config file overrides that; flags win.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import numkit as nk
from .checkpoint import ModelState, _replace_whole, load_state, save_state
from .encoder import HIDDEN, VIEWS, EncoderParams, embedding_dim
from .episodes import (
    EmbeddingTable,
    SyntheticSpec,
    derive_seed,
    load_embeddings,
    sample_episode,
    save_embeddings,
)
from .errors import ContractError, FormatError, MctError
from .metatrain import (
    GlobalClassifier,
    TrainConfig,
    _model_from_named,
    train,
    training_loss,
)
from .metric import METRIC_KINDS, MetricSpec
from .transduce import predict_labels, refine_batch

__all__ = [
    "EpisodeRecord",
    "Report",
    "EvalProtocol",
    "nll",
    "evaluate",
    "render_jsonl",
    "render_table",
    "GradcheckReport",
    "gradcheck",
    "main",
]

MODES = ("inductive", "transductive", "semi")


def nll(conf, labels) -> float | np.ndarray:
    """Mean over rows of -log(confidence of the true class).

    (n, ways) confidences with n labels give a float. Stacks, (..., n,
    ways) confidences with (..., n) labels, give the (...) array of
    per-set means, each bitwise its own set's call. A row with zero
    confidence on its true class yields +inf; callers flag it rather
    than clamp it away. A label outside 1..ways is a :class:`ContractError`,
    and so are zero rows, whose mean has no value.
    """
    cv = np.asarray(conf, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if cv.ndim < 2 or cv.shape[:-1] != y.shape:
        raise ContractError("confidence rows must align with labels")
    if cv.shape[-2] == 0:
        raise ContractError("nll needs at least one row")
    if y.size and (y.min() < 1 or y.max() > cv.shape[-1]):
        raise ContractError(f"labels must lie in 1..{cv.shape[-1]}")
    q_true = np.take_along_axis(cv, y[..., None] - 1, axis=-1)[..., 0]
    with np.errstate(divide="ignore"):
        means = np.mean(-np.log(q_true), axis=-1)
    return float(means) if cv.ndim == 2 else means


@dataclass(frozen=True)
class EpisodeRecord:
    index: int
    seed: int
    accuracy: float
    nll: float
    nll_final: float


@dataclass(frozen=True)
class EvalProtocol:
    """Evaluation settings; defaults follow the standard test protocol."""

    ways: int = 5
    shots: int = 1
    queries: int = 15
    n_episodes: int = 1000
    T: int = 10
    mode: str = "transductive"
    ensemble: bool = True
    master_seed: int = 0
    unlabeled: int | None = None
    distractors: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ContractError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.ways < 2:
            raise ContractError(f"ways must be >= 2, got {self.ways}: one class measures nothing")
        if self.queries < 1:
            raise ContractError(f"queries must be >= 1 (at least one query), got {self.queries}")
        for name, least in (("shots", 1), ("n_episodes", 1), ("workers", 1), ("unlabeled", 1),
                            ("T", 0), ("master_seed", 0), ("distractors", 0)):
            value = getattr(self, name)  # unlabeled is None until given
            if value is not None and value < least:
                raise ContractError(f"{name} must be >= {least}, got {value}")

    @property
    def unlabeled_count(self) -> int:
        """Per-class unlabeled pool for semi mode: 30 at 1-shot, else 50."""
        if self.unlabeled is not None:
            return self.unlabeled
        return 30 if self.shots == 1 else 50


@dataclass(frozen=True)
class Report:
    mode: str
    n_episodes: int
    mean_accuracy: float
    ci95: float
    mean_nll: float
    mean_nll_final: float
    nll_infinite: bool
    records: tuple[EpisodeRecord, ...]
    config: dict = field(default_factory=dict)


# Episodes per refine_batch call. Larger batches stop paying off once the
# per-op Python cost is amortized and the stacks outgrow the caches.
_BATCH = 4


def _score_batch(state: ModelState, source, protocol: EvalProtocol, indices):
    seeds = [derive_seed(protocol.master_seed, i) for i in indices]
    semi = protocol.mode == "semi"
    pool = dict(unlabeled=protocol.unlabeled_count, distractors=protocol.distractors) if semi else {}
    views = VIEWS if protocol.ensemble else VIEWS[:1]
    steps = 0 if protocol.mode == "inductive" else protocol.T
    episodes = [
        sample_episode(source, protocol.ways, protocol.shots, protocol.queries, seed, **pool)
        for seed in seeds
    ]
    traces = refine_batch(episodes, state.encoder, views, state.metric, steps)
    labels = np.stack([ep.query_y for ep in episodes])
    accuracy = np.mean(predict_labels(traces[:, -1]) == labels, axis=-1)
    nll0, nll_t = nll(traces[:, 0], labels), nll(traces[:, -1], labels)
    return [
        EpisodeRecord(index=i, seed=seed, accuracy=float(acc), nll=float(n0), nll_final=float(nt))
        for i, seed, acc, n0, nt in zip(indices, seeds, accuracy, nll0, nll_t)
    ]


def evaluate(state: ModelState, source, protocol: EvalProtocol) -> Report:
    """Score ``protocol.n_episodes`` seeded episodes; order-deterministic.

    ``mean_nll`` comes from the confidences before the first
    transductive step, ``mean_nll_final`` from the returned step-T
    confidences. Episode i is seeded from (master_seed, i). Episodes of
    every mode are sampled in index order and refined a few at a time
    through one ``refine_batch`` call, in this process. Semi-mode
    episodes carry an unlabeled pool that drives every update.
    ``protocol.workers`` is validated but changes neither the
    computation nor the result.
    """
    n = protocol.n_episodes
    records = []
    for start in range(0, n, _BATCH):
        batch = range(start, min(start + _BATCH, n))
        records += _score_batch(state, source, protocol, batch)
    acc = np.array([r.accuracy for r in records])
    nll0 = np.array([r.nll for r in records])
    nll_t = np.array([r.nll_final for r in records])
    ci95 = float(1.96 * acc.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return Report(
        mode=protocol.mode,
        n_episodes=n,
        mean_accuracy=float(acc.mean()),
        ci95=ci95,
        mean_nll=float(nll0.mean()),
        mean_nll_final=float(nll_t.mean()),
        nll_infinite=bool(np.isinf(nll0).any() or np.isinf(nll_t).any()),
        records=tuple(records),
        config={
            "ways": protocol.ways,
            "shots": protocol.shots,
            "queries": protocol.queries,
            "T": protocol.T,
            "ensemble": protocol.ensemble,
            "master_seed": protocol.master_seed,
        },
    )


def _json_line(record: str, fields: dict) -> str:
    """One JSON object: ``record`` names its kind; ``fields`` follow, non-finite floats as null."""
    return json.dumps({"record": record, **{
        k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in fields.items()
    }}, sort_keys=True)


def render_jsonl(report: Report) -> str:
    """One JSON object per episode, then a summary object.

    Each object holds its record's fields (the summary all of the
    report's but ``records``). Non-finite negative log-likelihoods
    serialize as null; the summary carries an ``nll_infinite`` flag so
    the condition stays visible.
    """
    lines = [_json_line("episode", vars(r)) for r in report.records]
    summary = {k: v for k, v in vars(report).items() if k != "records"}
    return "\n".join([*lines, _json_line("summary", summary)]) + "\n"


def render_table(report: Report) -> str:
    """Plain-text summary in the familiar mean ± ci style."""
    def pct(x):
        return f"{100.0 * x:.2f}"

    def num(x):
        return "inf" if not np.isfinite(x) else f"{x:.4f}"

    rows = [
        ("mode", report.mode),
        ("episodes", str(report.n_episodes)),
        ("accuracy", f"{pct(report.mean_accuracy)} ± {pct(report.ci95)} %"),
        ("nll (pre-transduction)", num(report.mean_nll)),
        ("nll (final)", num(report.mean_nll_final)),
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"


# --------------------------------------------------------------------------
# Gradient checking
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GradcheckReport:
    passed: bool
    trials: int
    tolerance: float
    worst_rel_err: float
    worst_param: str


def _gradcheck_loss(named: dict[str, np.ndarray], fixture, tape: nk.Tape | None):
    """The training loss of the fixture's model with every tensor taken from ``named``."""
    episode, model, view, lam = fixture
    return training_loss(episode, *_model_from_named(model, named), view, tape, lam=lam)[0]


def _fresh_metric(kind: str, dim: int, rng, **init) -> MetricSpec:
    """A fresh ``kind`` metric over ``dim``-wide embeddings at the library's defaults; a
    learned kind's scaler draws from ``rng``, a Generator or its seed, and gets ``init``."""
    rng = np.random.default_rng(rng)
    if kind == "instance":
        return MetricSpec.instance(dim, rng, **init)
    if kind == "pair":
        return MetricSpec.pair(dim, rng, **init)
    return MetricSpec.scaled() if kind == "scaled" else MetricSpec.euclid()


def _gradcheck_fixture(trial: int, seed: int):
    """One trial's flat parameters and (episode, model, view, lam) holding those tensors."""
    rng = np.random.default_rng(derive_seed(seed, trial))
    dim, hidden, positions, channels = 4, 8, 2, 4
    spec = SyntheticSpec(
        input_dim=dim, class_spread=3.0, within_std=0.8,
        pool_classes=6, pool_seed=trial,
    )
    episode = sample_episode(spec, 3, 1, 2, rng_seed=derive_seed(seed, 1000 + trial))
    encoder = EncoderParams.init(
        dim, rng, hidden=hidden, n_blocks=2,
        positions=positions, channels=channels, dropout=0.0,
    )
    # zero biases can leave a relu layer dead, which puts the loss on a
    # kink or makes every embedding zero; small random biases avoid both
    def bias():
        return 0.1 * rng.standard_normal(hidden)

    encoder = replace(encoder, b_in=bias(), blocks=tuple(
        (w1, bias(), w2, bias()) for w1, _, w2, _ in encoder.blocks
    ))
    metric = _fresh_metric(METRIC_KINDS[trial % len(METRIC_KINDS)], hidden, rng, hidden=8)
    classifier = GlobalClassifier.init(channels, range(6), rng)
    named = {**encoder.to_named(), **metric.to_named(), "classifier.w": classifier.weight}
    model = (encoder, metric, classifier)
    return named, (episode, model, VIEWS[trial % len(VIEWS)], 0.5)


def _tape_gradient(named, fixture) -> np.ndarray:
    """The tape gradient of the fixture's loss, flattened in sorted key order.

    The tape dies when this returns, before any finite difference runs.
    """
    tape = nk.Tape()
    grads = nk.grad(tape, _gradcheck_loss(named, fixture, tape))
    by_name = {k: grads[v] for k, v in tape.named_params.items()}
    return np.concatenate([by_name[k].reshape(-1) for k in sorted(named)])


def _bumped_stacks(named, todo: np.ndarray, step: float) -> dict[str, np.ndarray]:
    """Every parameter of ``named`` as a stack of 2k sets, k = len(todo).

    ``todo`` indexes, in ascending order, the entries of all parameters
    flattened in sorted key order. Set j raises entry todo[j] to
    v + step, set k + j lowers it from there by 2 * step, and every
    other entry of every set keeps its value. Each key's stack repeats
    its own value and writes only the entries of todo that fall in it.
    """
    k = todo.size
    stacked, start = {}, 0
    for key in sorted(named):
        value = np.asarray(named[key], dtype=np.float64)
        end = start + value.size
        rows = np.arange(*np.searchsorted(todo, (start, end)))
        cols = todo[rows] - start
        block = np.repeat(value.reshape(1, -1), 2 * k, axis=0)
        hi = value.reshape(-1)[cols] + step
        block[rows, cols] = hi
        block[k + rows, cols] = hi - 2 * step
        stacked[key] = block.reshape(2 * k, *value.shape)
        start = end
    return stacked


def _central_diffs(named, fixture, todo: np.ndarray, step: float):
    """Central differences for the flat entries ``todo``, as one stacked pass of the loss."""
    k = todo.size
    losses = _gradcheck_loss(_bumped_stacks(named, todo, step), fixture, None)
    return (losses[:k] - losses[k:]) / (2 * step)


def _rel_err(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)


def gradcheck(trials: int = 20, tolerance: float = 1e-4, seed: int = 0) -> GradcheckReport:
    """Compare tape gradients of the full loss to central differences.

    Every entry of every parameter group is perturbed on every trial;
    trials rotate through the four metric kinds and the four views. The
    base step is 1e-5; an entry that disagrees there is re-measured at
    smaller steps, since a relu kink inside the step interval poisons
    the difference quotient while the loss stays differentiable at the
    point itself. A genuinely wrong gradient fails at every step. Each
    step is one stacked forward pass over the bumped parameter sets of
    the entries still in question; every loss in it is bitwise the one
    that set gives alone. The relative error uses a floored denominator
    so near-zero entries are judged on absolute scale. The worst entry
    is the first, in (sorted key, index) order, to exceed every earlier
    error strictly, and passing requires it to beat the tolerance
    strictly, so a tolerance of zero can never pass.
    """
    if trials < 1 or seed < 0:
        raise ContractError(f"trials must be >= 1 and seed >= 0, got trials={trials}, seed={seed}")
    if not 0.0 <= tolerance < np.inf:
        raise ContractError(f"tolerance must be finite and non-negative, got {tolerance}")
    worst_err = 0.0
    worst_param = "none"
    for trial in range(trials):
        named, fixture = _gradcheck_fixture(trial, seed)
        an = _tape_gradient(named, fixture)
        entries = [f"{k}[{i}]" for k in sorted(named) for i in range(np.size(named[k]))]
        err = np.full(an.size, np.inf)
        todo = np.arange(an.size)
        for step in (1e-5, 1e-6, 1e-7):
            err[todo] = _rel_err(an[todo], _central_diffs(named, fixture, todo, step))
            todo = todo[~(err[todo] < tolerance)]
            if not todo.size:
                break
        # a nan error never counts as worse, as a strict comparison would have it
        j = int(np.argmax(np.where(np.isnan(err), -np.inf, err)))
        if err[j] > worst_err:
            worst_err, worst_param = float(err[j]), f"{entries[j]} (trial {trial})"
    return GradcheckReport(
        passed=worst_err < tolerance,
        trials=trials,
        tolerance=tolerance,
        worst_rel_err=worst_err,
        worst_param=worst_param,
    )


# --------------------------------------------------------------------------
# Command line
# --------------------------------------------------------------------------


def _read_config_file(path) -> dict[str, str]:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"config line {ln}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _count(text: str, least: int = 0) -> int:
    if not text.strip().isdecimal() or int(text) < least:
        what = {0: "a non-negative integer", 1: "a positive integer"}.get(
            least, f"an integer of at least {least}")
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return int(text)


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"expected a finite non-negative number, got {text!r}")
    return value


# each synthetic-source flag's SyntheticSpec field; a table source takes none of them
_SYNTH_FIELDS = {"dim": "input_dim", "spread": "class_spread", "std": "within_std",
                 "pool_classes": "pool_classes"}
# the command line's synthetic source is SyntheticSpec's defaults but for these two:
_SYNTH_WIDTH = 16  # its input width
_SYNTH_POOL = 20  # train's pool classes, and the classes make-synth writes
_METRIC_STREAM = 41201  # the seed stream of the command line's fresh metrics


class _UsageError(Exception):
    """A flag the command cannot honour: exit 2 with one ``error:`` line."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mct",
        description="Few-shot evaluation with confidence-weighted transduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config, protocol = TrainConfig(), EvalProtocol()
    checks = {k: p.default for k, p in inspect.signature(gradcheck).parameters.items()}
    shown = "default %(default)s"
    synth = {f.name: f.default for f in fields(SyntheticSpec)}
    synth.update(input_dim=_SYNTH_WIDTH, pool_classes=_SYNTH_POOL)

    def synth_help(key):
        return f"synthetic source only (default {synth[_SYNTH_FIELDS[key]]})"

    def at_least(least):
        return lambda text: _count(text, least)

    def add_common(p):
        p.add_argument("--config", help="key=value file; explicit flags override it")
        p.add_argument("--seed", type=_count, default=0, help=shown)

    def add_synth(p):  # None until given, so that a table source can refuse them
        p.add_argument("--dim", type=at_least(1), help=synth_help("dim"))
        p.add_argument("--spread", type=float, help=synth_help("spread"))
        p.add_argument("--std", type=float, help=synth_help("std"))

    def add_source(p):
        p.add_argument("--source", default="synth",
                       help="'synth' or a path to an .mcte embedding table")
        add_synth(p)

    p_train = sub.add_parser("train", help="meta-train encoder, metric, classifier")
    add_common(p_train)
    add_source(p_train)
    p_train.add_argument("--pool-classes", type=at_least(1), help=synth_help("pool_classes"))
    p_train.add_argument("--steps", type=at_least(1), default=config.steps, help=shown)
    p_train.add_argument("--ways", type=at_least(2), default=config.ways, help=shown)
    p_train.add_argument("--shots", type=at_least(1), default=config.shots, help=shown)
    p_train.add_argument("--queries", type=at_least(1), default=config.queries, help=shown)
    p_train.add_argument("--lambda", dest="lam", type=float, default=config.lam, help=shown)
    p_train.add_argument("--lr", type=float, default=config.schedule.initial, help=shown)
    p_train.add_argument("--metric", choices=METRIC_KINDS, default="instance", help=shown)
    p_train.add_argument("--encoder", choices=("auto", "none"), default="auto", help=shown)
    p_train.add_argument("--views", default=",".join(config.views),
                         help=f"comma-separated view names to sample from ({shown})")
    p_train.add_argument("--out", required=True, help="checkpoint path (.mctp)")

    p_eval = sub.add_parser("eval", help="score a model over seeded episodes")
    add_common(p_eval)
    p_eval.add_argument("--checkpoint", help=".mctp file; omit to score raw embeddings")
    add_source(p_eval)
    p_eval.add_argument("--mode", choices=MODES, default=protocol.mode, help=shown)
    p_eval.add_argument("--transduction-steps", type=_count, default=protocol.T,
                        help=f"refinement steps T; inductive mode makes none ({shown})")
    p_eval.add_argument("--metric", choices=METRIC_KINDS, default=None,
                        help="override the checkpoint metric (fresh seeded init)")
    p_eval.add_argument("--ensemble", choices=("on", "off"),
                        default="on" if protocol.ensemble else "off",
                        help=f"average the four views, or score the plain view alone ({shown})")
    p_eval.add_argument("--episodes", type=at_least(1), default=protocol.n_episodes, help=shown)
    p_eval.add_argument("--ways", type=at_least(2), default=protocol.ways, help=shown)
    p_eval.add_argument("--shots", type=at_least(1), default=protocol.shots, help=shown)
    p_eval.add_argument("--queries", type=at_least(1), default=protocol.queries, help=shown)
    p_eval.add_argument("--unlabeled", type=at_least(1),
                        help="semi mode: unlabeled items per class (default "
                             f"{EvalProtocol(shots=1).unlabeled_count} at 1 shot, "
                             f"else {EvalProtocol(shots=2).unlabeled_count})")
    p_eval.add_argument("--distractors", type=_count,
                        help=f"semi mode: distractor classes (default {protocol.distractors})")
    p_eval.add_argument("--workers", type=at_least(1), default=protocol.workers, help=shown)
    p_eval.add_argument("--report", help="write JSON-lines records to this path")

    p_grad = sub.add_parser("gradcheck", help="tape gradients vs finite differences")
    add_common(p_grad)
    p_grad.add_argument("--trials", type=at_least(1), default=checks["trials"], help=shown)
    p_grad.add_argument("--tolerance", type=_tolerance, default=checks["tolerance"], help=shown)

    p_synth = sub.add_parser("make-synth", help="write a synthetic .mcte table")
    add_common(p_synth)
    p_synth.add_argument("--out", required=True)
    add_synth(p_synth)
    p_synth.add_argument("--classes", type=at_least(1), default=_SYNTH_POOL, help=shown)
    p_synth.add_argument("--per-class", type=at_least(1), default=50, help=shown)
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv with config-file values as overridable defaults.

    File values are spliced in right after the subcommand, each as one
    ``--key=value`` argument so that a value may start with a dash, and
    explicit flags, parsed later, win. Unknown keys fail the parse.
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    found, _ = probe.parse_known_args(argv)
    if not found.config or not argv:
        return parser.parse_args(argv)
    merged = []
    for key, value in _read_config_file(found.config).items():
        merged.append(f"--{key.replace('_', '-')}={value}")
    return parser.parse_args([argv[0], *merged, *argv[1:]])


def _given(args, keys) -> dict:
    """The values of the flags ``keys`` that the command line or ``--config`` set (not None)."""
    return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}


def _refuse(given: dict, what: str) -> None:
    """A usage error that names each flag of ``given`` after ``what``, if there is one."""
    if given:
        raise _UsageError(f"{what} {' or '.join('--' + key.replace('_', '-') for key in given)}")


def _make_source(args, pool: int | None = None):
    """The .mcte table ``--source`` names, or a SyntheticSpec of the given flags at its
    own defaults otherwise, save a width of ``_SYNTH_WIDTH`` and ``pool`` pool classes."""
    synth = _given(args, _SYNTH_FIELDS)
    if getattr(args, "source", "synth") != "synth":
        _refuse(synth, "a table source takes no")
        return load_embeddings(args.source)
    given = {_SYNTH_FIELDS[key]: value for key, value in synth.items()}
    return SyntheticSpec(**{"input_dim": _SYNTH_WIDTH, "pool_classes": pool, **given},
                         pool_seed=args.seed)


def _cmd_train(args) -> int:
    source = _make_source(args, pool=_SYNTH_POOL)
    views = tuple(v.strip() for v in args.views.split(",") if v.strip())
    config = TrainConfig(
        steps=args.steps, lam=args.lam, ways=args.ways, shots=args.shots,
        queries=args.queries, seed=args.seed, views=views,
        schedule=replace(TrainConfig().schedule, initial=args.lr),
    )
    encoder = "auto" if args.encoder == "auto" else None
    metric = _fresh_metric(args.metric, HIDDEN if encoder else source.dim,
                           derive_seed(args.seed, _METRIC_STREAM))
    state, reports = train(source, config, metric=metric, encoder=encoder)
    save_state(args.out, state.to_model_state())
    tail = max(1, len(reports) // 10)
    first = float(np.mean([r.loss for r in reports[:tail]]))
    last = float(np.mean([r.loss for r in reports[-tail:]]))
    print(f"trained {config.steps} steps: loss {first:.4f} -> {last:.4f}")
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    pool = _given(args, ("unlabeled", "distractors"))
    if args.mode != "semi":
        _refuse(pool, f"{args.mode} mode draws no unlabeled pool and takes no")
    source = _make_source(args)
    state = load_state(args.checkpoint) if args.checkpoint else ModelState(MetricSpec.euclid())
    if args.metric is not None and args.metric != state.metric.kind:
        emb_dim = embedding_dim(state.encoder, source.dim)
        metric = _fresh_metric(args.metric, emb_dim, derive_seed(args.seed, _METRIC_STREAM))
        state = replace(state, metric=metric)
    protocol = EvalProtocol(
        ways=args.ways, shots=args.shots, queries=args.queries,
        n_episodes=args.episodes, T=args.transduction_steps,
        mode=args.mode, ensemble=args.ensemble == "on",
        master_seed=args.seed, workers=args.workers, **pool,
    )
    report = evaluate(state, source, protocol)
    if args.report and _is_stdout(args.report):
        sys.stdout.write(render_jsonl(report))
    elif args.report:
        _replace_whole(args.report, (render_jsonl(report).encode("utf-8"),))
    sys.stdout.write(render_table(report))
    return 0


def _is_stdout(path) -> bool:
    """Whether ``path`` is the file that stdout already writes (``> FILE``, ``/dev/stdout``).

    Replacing that file would leave the rest of stdout on an unlinked inode.
    """
    try:
        here, out = os.stat(path), os.fstat(sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):  # no such file, or a stdout without an fd
        return False
    return (here.st_dev, here.st_ino) == (out.st_dev, out.st_ino)


def _cmd_gradcheck(args) -> int:
    report = gradcheck(trials=args.trials, tolerance=args.tolerance, seed=args.seed)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"gradcheck {status}: worst rel err {report.worst_rel_err:.3e}"
        f" at {report.worst_param} over {report.trials} trials"
        f" (tolerance {report.tolerance:.1e})"
    )
    return 0 if report.passed else 3


def _cmd_make_synth(args) -> int:
    spec = _make_source(args, pool=args.classes)
    rng = np.random.default_rng(derive_seed(args.seed, 1))
    rows = spec.pool_means().repeat(args.per_class, axis=0)
    rows = rows + spec.within_std * rng.standard_normal(rows.shape)
    labels = np.repeat(np.arange(args.classes), args.per_class)
    save_embeddings(args.out, EmbeddingTable(rows, labels))
    print(f"wrote {args.classes * args.per_class} rows ({args.classes} classes) to {args.out}")
    return 0


def _file_error(exc: OSError, outputs=()) -> int:
    verb = "write" if exc.filename in outputs else "read"
    print(f"error: cannot {verb} {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = None
    try:
        args = _apply_config_file(parser, argv)
        handler = {
            "train": _cmd_train,
            "eval": _cmd_eval,
            "gradcheck": _cmd_gradcheck,
            "make-synth": _cmd_make_synth,
        }[args.command]
        return handler(args)
    except SystemExit as exc:  # argparse usage errors already exit with 2
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if args is None:  # the config file is the only file parsing opens
            return _file_error(exc)
        return _file_error(exc, (getattr(args, "out", None), getattr(args, "report", None)))
    except MctError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
