"""Evaluation harness and command line.

``evaluate`` scores a model over a batch of seeded episodes and returns
a :class:`Report` with mean accuracy, a normal-approximation 95%
confidence interval (1.96 * sample std / sqrt(n)), and negative
log-likelihood both before the first transductive step and at the final
step. Reports render as JSON lines (one record per episode plus a
summary) and as a plain-text table; both renderings are byte-stable
given (model, seed, protocol); the worker count is accepted for
compatibility and changes nothing. Every mode, semi included, refines
a few same-shape episodes at a time through ``transduce.refine_batch``.

``gradcheck`` drives ``metatrain.training_loss``, the objective that
training differentiates, on small random episodes and compares every
tape gradient entry against central finite differences; the CLI wires
a failure to exit code 3 so CI can gate on it.

Subcommands: train, eval, gradcheck, make-synth. A config file of
key=value lines supplies defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import numkit as nk
from .checkpoint import ModelState, load_state, save_state
from .encoder import VIEWS, EncoderParams, embedding_dim
from .episodes import (
    EmbeddingTable,
    SyntheticSpec,
    derive_seed,
    gen_synthetic,
    load_embeddings,
    sample_episode,
    save_embeddings,
)
from .errors import ContractError, FormatError, MctError
from .metatrain import (
    GlobalClassifier,
    LrSchedule,
    TrainConfig,
    train,
    training_loss,
)
from .metric import METRIC_KINDS, MetricSpec, ScalerParams
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


def nll(conf, labels) -> float:
    """Mean over rows of -log(confidence of the true class).

    A row with zero confidence on its true class yields +inf; callers
    flag it rather than clamp it away.
    """
    cv = np.asarray(conf, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if cv.ndim != 2 or cv.shape[0] != y.shape[0]:
        raise ContractError("confidence rows must align with labels")
    q_true = cv[np.arange(y.size), y - 1]
    with np.errstate(divide="ignore"):
        return float(np.mean(-np.log(q_true)))


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
        if self.n_episodes < 1 or self.workers < 1 or self.T < 0:
            raise ContractError("n_episodes and workers must be >= 1, T >= 0")
        if self.unlabeled is not None and self.unlabeled < 1:
            raise ContractError("unlabeled must be >= 1 when given")

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
    # semi mode's fixed protocol: one update driven by the pool, plain view only
    pool = dict(unlabeled=protocol.unlabeled_count, distractors=protocol.distractors) if semi else {}
    views = VIEWS if protocol.ensemble and not semi else VIEWS[:1]
    steps = {"inductive": 0, "transductive": protocol.T, "semi": 1}[protocol.mode]
    episodes = [
        sample_episode(source, protocol.ways, protocol.shots, protocol.queries, seed, **pool)
        for seed in seeds
    ]
    traces = refine_batch(episodes, state.encoder, views, state.metric, steps)
    return [
        EpisodeRecord(
            index=i, seed=seed,
            accuracy=float(np.mean(predict_labels(trace[-1]) == ep.query_y)),
            nll=nll(trace[0], ep.query_y), nll_final=nll(trace[-1], ep.query_y),
        )
        for i, seed, ep, trace in zip(indices, seeds, episodes, traces)
    ]


def evaluate(state: ModelState, source, protocol: EvalProtocol) -> Report:
    """Score ``protocol.n_episodes`` seeded episodes; order-deterministic.

    ``mean_nll`` comes from the confidences before the first
    transductive step, ``mean_nll_final`` from the returned step-T
    confidences. Episode i is seeded from (master_seed, i). Episodes of
    every mode are sampled in index order and refined a few at a time
    through one ``refine_batch`` call, in this process. Semi-mode
    episodes carry an unlabeled pool that drives one update in the plain
    view, whatever ``T`` and ``ensemble`` say. ``protocol.workers`` is
    validated but changes neither the computation nor the result.
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


def _json_float(x: float):
    return None if not np.isfinite(x) else x


def render_jsonl(report: Report) -> str:
    """One JSON object per episode, then a summary object.

    Non-finite negative log-likelihoods serialize as null; the summary
    carries an ``nll_infinite`` flag so the condition stays visible.
    """
    lines = []
    for r in report.records:
        lines.append(json.dumps(
            {
                "record": "episode",
                "index": r.index,
                "seed": r.seed,
                "accuracy": r.accuracy,
                "nll": _json_float(r.nll),
                "nll_final": _json_float(r.nll_final),
            },
            sort_keys=True,
        ))
    lines.append(json.dumps(
        {
            "record": "summary",
            "mode": report.mode,
            "n_episodes": report.n_episodes,
            "mean_accuracy": report.mean_accuracy,
            "ci95": report.ci95,
            "mean_nll": _json_float(report.mean_nll),
            "mean_nll_final": _json_float(report.mean_nll_final),
            "nll_infinite": report.nll_infinite,
            "config": report.config,
        },
        sort_keys=True,
    ))
    return "\n".join(lines) + "\n"


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
    """The training loss, rebuilt from flat parameter arrays."""
    episode, kind, lam, shape = fixture
    encoder = EncoderParams.from_named(
        named, dropout=0.0, positions=shape["positions"], channels=shape["channels"]
    )
    metric = MetricSpec.from_named(kind, named)
    classifier = GlobalClassifier(weight=named["classifier.w"], classes=shape["classes"])
    return training_loss(
        episode, encoder, metric, classifier, VIEWS[shape["view"]], tape, lam=lam
    )[0]


def _gradcheck_fixture(trial: int, seed: int):
    rng = np.random.default_rng(derive_seed(seed, trial))
    dim, hidden, positions, channels = 4, 8, 2, 4
    spec = SyntheticSpec(
        input_dim=dim, class_spread=3.0, within_std=0.8,
        pool_classes=6, pool_seed=trial,
    )
    episode, _ = gen_synthetic(spec, 3, 1, 2, rng_seed=derive_seed(seed, 1000 + trial))
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
    kind = METRIC_KINDS[trial % len(METRIC_KINDS)]
    if kind == "instance":
        metric = MetricSpec(kind="instance", scaler=ScalerParams.init(hidden, rng, hidden=8))
    elif kind == "pair":
        metric = MetricSpec(kind="pair", scaler=ScalerParams.init(2 * hidden, rng, hidden=8))
    elif kind == "scaled":
        metric = MetricSpec.scaled(7.5)
    else:
        metric = MetricSpec.euclid()
    classifier = GlobalClassifier.init(channels, range(6), rng)
    named = dict(encoder.to_named())
    named.update(metric.to_named())
    named["classifier.w"] = classifier.weight
    shape = {
        "positions": positions,
        "channels": channels,
        "classes": classifier.classes,
        "view": trial % len(VIEWS),
    }
    return named, (episode, kind, 0.5, shape)


def _central_diff(named, fixture, key: str, i: int, step: float) -> float:
    bumped = {k: np.array(v, dtype=np.float64) for k, v in named.items()}
    flat = bumped[key].reshape(-1)
    flat[i] += step
    hi = float(nk.value_of(_gradcheck_loss(bumped, fixture, None)))
    flat[i] -= 2 * step
    lo = float(nk.value_of(_gradcheck_loss(bumped, fixture, None)))
    return (hi - lo) / (2 * step)


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-4)


def gradcheck(trials: int = 20, tolerance: float = 1e-4, seed: int = 0) -> GradcheckReport:
    """Compare tape gradients of the full loss to central differences.

    Every entry of every parameter group is perturbed on every trial;
    trials rotate through the four metric kinds and the four views. The
    base step is 1e-5; an entry that disagrees there is re-measured at
    smaller steps, since a relu kink inside the step interval poisons
    the difference quotient while the loss stays differentiable at the
    point itself. A genuinely wrong gradient fails at every step. The
    relative error uses a floored denominator so near-zero entries are
    judged on absolute scale, and passing requires the worst error to
    beat the tolerance strictly, so a tolerance of zero can never pass.
    """
    if trials < 1:
        raise ContractError("trials must be >= 1")
    worst_err = 0.0
    worst_param = "none"
    for trial in range(trials):
        named, fixture = _gradcheck_fixture(trial, seed)
        tape = nk.Tape()
        loss = _gradcheck_loss(named, fixture, tape)
        grads = nk.grad(tape, loss)
        by_name = {k: grads[v] for k, v in tape.named_params.items()}
        for key in sorted(named):
            an = np.asarray(by_name[key], dtype=np.float64).reshape(-1)
            for i in range(an.size):
                err = np.inf
                for step in (1e-5, 1e-6, 1e-7):
                    fd = _central_diff(named, fixture, key, i, step)
                    err = _rel_err(float(an[i]), fd)
                    if err < tolerance:
                        break
                if err > worst_err:
                    worst_err, worst_param = err, f"{key}[{i}] (trial {trial})"
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mct",
        description="Few-shot evaluation with confidence-weighted transduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value file; explicit flags override it")
        p.add_argument("--seed", type=int, default=0)

    p_train = sub.add_parser("train", help="meta-train encoder, metric, classifier")
    add_common(p_train)
    p_train.add_argument("--source", default="synth",
                         help="'synth' or a path to an .mcte embedding table")
    p_train.add_argument("--dim", type=int, default=16)
    p_train.add_argument("--spread", type=float, default=4.0)
    p_train.add_argument("--std", type=float, default=1.0)
    p_train.add_argument("--pool-classes", type=int, default=20)
    p_train.add_argument("--steps", type=int, default=500)
    p_train.add_argument("--ways", type=int, default=15)
    p_train.add_argument("--shots", type=int, default=1)
    p_train.add_argument("--queries", type=int, default=8)
    p_train.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p_train.add_argument("--lr", type=float, default=0.1)
    p_train.add_argument("--metric", choices=METRIC_KINDS, default="instance")
    p_train.add_argument("--encoder", choices=("auto", "none"), default="auto")
    p_train.add_argument("--views", default="full,drop,aug,aug_drop",
                         help="comma-separated view names to sample from")
    p_train.add_argument("--out", required=True, help="checkpoint path (.mctp)")

    p_eval = sub.add_parser("eval", help="score a model over seeded episodes")
    add_common(p_eval)
    p_eval.add_argument("--checkpoint", help=".mctp file; omit to score raw embeddings")
    p_eval.add_argument("--source", default="synth",
                        help="'synth' or a path to an .mcte embedding table")
    p_eval.add_argument("--dim", type=int, default=16)
    p_eval.add_argument("--spread", type=float, default=4.0)
    p_eval.add_argument("--std", type=float, default=1.0)
    p_eval.add_argument("--mode", choices=MODES, default="transductive")
    p_eval.add_argument("--transduction-steps", type=int, default=10)
    p_eval.add_argument("--metric", choices=METRIC_KINDS, default=None,
                        help="override the checkpoint metric (fresh seeded init)")
    p_eval.add_argument("--ensemble", choices=("on", "off"), default="on")
    p_eval.add_argument("--episodes", type=int, default=1000)
    p_eval.add_argument("--ways", type=int, default=5)
    p_eval.add_argument("--shots", type=int, default=1)
    p_eval.add_argument("--queries", type=int, default=15)
    p_eval.add_argument("--unlabeled", type=int, default=None,
                        help="semi mode: unlabeled items per class (default 30/50)")
    p_eval.add_argument("--distractors", type=int, default=0)
    p_eval.add_argument("--workers", type=int, default=1)
    p_eval.add_argument("--report", help="write JSON-lines records to this path")

    p_grad = sub.add_parser("gradcheck", help="tape gradients vs finite differences")
    add_common(p_grad)
    p_grad.add_argument("--trials", type=int, default=20)
    p_grad.add_argument("--tolerance", type=float, default=1e-4)

    p_synth = sub.add_parser("make-synth", help="write a synthetic .mcte table")
    add_common(p_synth)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--dim", type=int, default=16)
    p_synth.add_argument("--classes", type=int, default=20)
    p_synth.add_argument("--per-class", type=int, default=50)
    p_synth.add_argument("--spread", type=float, default=4.0)
    p_synth.add_argument("--std", type=float, default=1.0)
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv with config-file values as overridable defaults.

    File values are spliced in right after the subcommand so that
    explicit flags, parsed later, win. Unknown keys fail the parse.
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    found, _ = probe.parse_known_args(argv)
    if not found.config or not argv:
        return parser.parse_args(argv)
    merged = []
    for key, value in _read_config_file(found.config).items():
        merged.extend([f"--{key.replace('_', '-')}", value])
    return parser.parse_args([argv[0], *merged, *argv[1:]])


def _make_source(args):
    if args.source == "synth":
        return SyntheticSpec(
            input_dim=args.dim, class_spread=args.spread, within_std=args.std,
            pool_classes=getattr(args, "pool_classes", None), pool_seed=args.seed,
        )
    return load_embeddings(args.source)


def _source_dim(source) -> int:
    return source.dim if isinstance(source, EmbeddingTable) else int(source.input_dim)


def _fresh_metric(kind: str, dim: int, seed: int) -> MetricSpec:
    rng = np.random.default_rng(derive_seed(seed, 41201))
    if kind == "euclid":
        return MetricSpec.euclid()
    if kind == "scaled":
        return MetricSpec.scaled(7.5)
    if kind == "instance":
        return MetricSpec.instance(dim, rng)
    return MetricSpec.pair(dim, rng)


def _cmd_train(args) -> int:
    source = _make_source(args)
    views = tuple(v.strip() for v in args.views.split(",") if v.strip())
    config = TrainConfig(
        steps=args.steps, lam=args.lam, ways=args.ways, shots=args.shots,
        queries=args.queries, seed=args.seed, views=views,
        schedule=LrSchedule(initial=args.lr).scaled(50),
    )
    encoder = "auto" if args.encoder == "auto" else None
    emb_dim = 64 if encoder == "auto" else _source_dim(source)
    metric = _fresh_metric(args.metric, emb_dim, args.seed)
    state, reports = train(source, config, metric=metric, encoder=encoder)
    save_state(args.out, state.to_model_state())
    tail = max(1, len(reports) // 10)
    first = float(np.mean([r.loss for r in reports[:tail]]))
    last = float(np.mean([r.loss for r in reports[-tail:]]))
    print(f"trained {config.steps} steps: loss {first:.4f} -> {last:.4f}")
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    source = _make_source(args)
    if args.checkpoint:
        state = load_state(args.checkpoint)
        if args.metric is not None and args.metric != state.metric.kind:
            emb_dim = embedding_dim(state.encoder, _source_dim(source))
            state = replace(state, metric=_fresh_metric(args.metric, emb_dim, args.seed))
    else:
        kind = args.metric if args.metric is not None else "euclid"
        state = ModelState(metric=_fresh_metric(kind, _source_dim(source), args.seed))
    protocol = EvalProtocol(
        ways=args.ways, shots=args.shots, queries=args.queries,
        n_episodes=args.episodes, T=args.transduction_steps,
        mode=args.mode, ensemble=args.ensemble == "on",
        master_seed=args.seed, unlabeled=args.unlabeled,
        distractors=args.distractors, workers=args.workers,
    )
    report = evaluate(state, source, protocol)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(render_jsonl(report))
    sys.stdout.write(render_table(report))
    return 0


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
    if args.classes < 1 or args.per_class < 1:
        raise ContractError("classes and per-class must be positive")
    spec = SyntheticSpec(
        input_dim=args.dim, class_spread=args.spread, within_std=args.std,
        pool_classes=args.classes, pool_seed=args.seed,
    )
    rng = np.random.default_rng(derive_seed(args.seed, 1))
    rows = spec.pool_means().repeat(args.per_class, axis=0)
    rows = rows + args.std * rng.standard_normal(rows.shape)
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
    try:
        args = _apply_config_file(parser, argv)
    except SystemExit as exc:  # argparse usage errors already exit with 2
        return int(exc.code or 0)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        return _file_error(exc)
    handler = {
        "train": _cmd_train,
        "eval": _cmd_eval,
        "gradcheck": _cmd_gradcheck,
        "make-synth": _cmd_make_synth,
    }[args.command]
    try:
        return handler(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        return _file_error(exc, (getattr(args, "out", None), getattr(args, "report", None)))
    except MctError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
