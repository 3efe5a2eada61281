"""Meta-training: view-sampled transductive loss plus dense classification.

Each step samples one confidence view h uniformly, simulates one
transduction step with confidences computed in h's embedding space,
updates prototypes in the full-path space with those confidences, and
scores the instance loss there. That one step is what the paper
meta-learns the confidence through; refinement over T steps is
``transduce.refine_batch``'s alone. The dimension loss classifies every
position of the flattened feature map against the item's global class.
:func:`training_loss` builds the total L = lambda * L_I + L_D, which both
:func:`train_step` and ``evalcli.gradcheck`` differentiate. It trains
encoder, metric, and classifier jointly by SGD with Nesterov momentum
and weight decay, on a piecewise-constant learning-rate schedule.

Everything is deterministic given the config seed: episode draws, view
selection, input perturbation, and dropout all derive from it. A source
is what ``episodes`` draws from; only its ``dim`` and ``classes`` are read here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import numkit as nk
from .checkpoint import ModelState, save_state
from .encoder import (
    VIEWS,
    EncoderParams,
    PerturbPolicy,
    ViewSpec,
    embedding_dim,
    encode_batch,
    per_position,
    perturb_input,
    view_by_name,
)
from .episodes import Episode, derive_seed, sample_episode
from .errors import ContractError, DomainError
from .metric import MetricSpec, pairwise
from .transduce import init_from_embeddings, one_hot, update_prototypes

__all__ = [
    "LrSchedule",
    "lr_at",
    "TrainConfig",
    "GlobalClassifier",
    "TrainState",
    "StepReport",
    "dimension_loss",
    "training_loss",
    "train_step",
    "train",
]


@dataclass(frozen=True)
class LrSchedule:
    """Piecewise-constant learning rate; each cut applies at its step."""

    initial: float = 0.1
    cuts: tuple[tuple[int, float], ...] = ((25000, 0.006), (35000, 0.0012))

    def __post_init__(self):
        rates = [("initial learning rate", self.initial)]
        rates += [(f"learning rate cut at step {s}", lr) for s, lr in self.cuts]
        for what, lr in rates:
            if not (np.isfinite(lr) and lr > 0):
                raise DomainError(f"{what} must be finite and positive, got {lr}")
        steps = [s for s, _ in self.cuts]
        if steps != sorted(steps):
            raise ContractError("cut points must be increasing")

    def scaled(self, divisor: int) -> "LrSchedule":
        """Same rates with breakpoints divided by ``divisor`` (short runs)."""
        if divisor < 1:
            raise ContractError(f"schedule divisor must be at least 1, got {divisor}")
        return LrSchedule(
            initial=self.initial,
            cuts=tuple((s // divisor, lr) for s, lr in self.cuts),
        )


def lr_at(step_index: int, schedule: LrSchedule) -> float:
    if step_index < 0:
        raise ContractError("step index must be non-negative")
    lr = schedule.initial
    for cut_step, cut_lr in schedule.cuts:
        if step_index >= cut_step:
            lr = cut_lr
    return lr


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the training loop."""

    steps: int = 500
    lam: float = 0.5
    schedule: LrSchedule = field(default_factory=lambda: LrSchedule().scaled(50))
    momentum: float = 0.9
    weight_decay: float = 5e-4
    ways: int = 15
    shots: int = 1
    queries: int = 8
    weak_strong: bool = True
    perturb: PerturbPolicy = field(default_factory=PerturbPolicy)
    detach_confidence: bool = False
    views: tuple[str, ...] = ("full", "drop", "aug", "aug_drop")
    seed: int = 0
    checkpoint_every: int = 0
    checkpoint_path: str | None = None

    def __post_init__(self):
        for name, value in (("lam (lambda)", self.lam), ("weight_decay", self.weight_decay)):
            if not (np.isfinite(value) and value >= 0):
                raise DomainError(f"{name} must be finite and non-negative, got {value}")
        if not 0.0 <= self.momentum < 1.0:
            raise DomainError("momentum must lie in [0, 1)")
        if self.steps < 1 or self.ways < 2 or self.shots < 1 or self.queries < 1:
            raise DomainError("steps, ways, shots, queries must be positive (ways ≥ 2)")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if not self.views:
            raise ContractError("need at least one view name")
        for name in self.views:
            view_by_name(name)
        if self.checkpoint_every < 0:
            raise DomainError("checkpoint_every must be non-negative")
        if self.checkpoint_every and not self.checkpoint_path:
            raise ContractError("checkpoint_every without checkpoint_path")


@dataclass(frozen=True)
class GlobalClassifier:
    """Linear classifier over channel vectors for the dimension loss.

    One column per global training class; ``classes`` maps column order
    to the original class ids. ``weight`` may carry a leading axis of P
    parameter sets (see :attr:`stack`).
    """

    weight: np.ndarray
    classes: tuple[int, ...]

    def __post_init__(self):
        if self.weight.ndim not in (2, 3) or self.weight.shape[-1] != len(self.classes):
            raise ContractError("classifier needs one column per global class")
        if len(set(self.classes)) != len(self.classes):
            raise ContractError("global class ids must be unique")

    @property
    def stack(self) -> tuple[int, ...]:
        """Leading shape of the parameter sets: () for one set, (P,) for P."""
        return self.weight.shape[:-2]

    @staticmethod
    def init(
        channels: int, classes, rng: np.random.Generator, scale: float = 0.01
    ) -> "GlobalClassifier":
        classes = tuple(int(c) for c in classes)
        return GlobalClassifier(
            weight=scale * rng.standard_normal((channels, len(classes))),
            classes=classes,
        )

    def columns_for(self, global_labels) -> np.ndarray:
        lookup = {c: i for i, c in enumerate(self.classes)}
        try:
            return np.array([lookup[int(g)] for g in np.asarray(global_labels)])
        except KeyError as exc:
            raise ContractError(f"global class id {exc.args[0]} unknown to classifier") from None


@dataclass
class TrainState:
    """Mutable bundle the optimizer advances step by step."""

    metric: MetricSpec
    encoder: EncoderParams | None
    classifier: GlobalClassifier
    velocities: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0

    def to_model_state(self) -> ModelState:
        return ModelState(
            metric=self.metric,
            encoder=self.encoder,
            classifier=self.classifier.weight,
        )


@dataclass(frozen=True)
class StepReport:
    step: int
    view: str
    loss: float
    loss_instance: float
    loss_dimension: float
    lr: float


def _instance_loss_from_embeddings(
    episode, metric, emb_s_full, emb_q_full, emb_s_h, emb_q_h, tape, detach: bool,
):
    """One transduction step: confidences from h-space weight one full-space update."""
    protos_h = init_from_embeddings(emb_s_h, episode.support_y, episode.ways)
    conf = nk.softmax_neg(pairwise(metric, emb_q_h, protos_h, tape))
    if detach:
        conf = nk.value_of(conf)
    protos = update_prototypes(emb_s_full, episode.support_y, episode.ways, emb_q_full, conf)
    d = pairwise(metric, emb_q_full, protos, tape)
    return nk.cross_entropy(nk.neg(d), one_hot(episode.query_y, episode.ways))


def _embed(episode, encoder, view, tape, mode, rng):
    """Full-path support and query embeddings, then ``view``'s (reused if full)."""
    emb_s_full = encode_batch(encoder, episode.support_x, VIEWS[0], mode, tape, rng)
    emb_q_full = encode_batch(encoder, episode.query_x, VIEWS[0], mode, tape, rng)
    if view.name == "full":
        return emb_s_full, emb_q_full, emb_s_full, emb_q_full
    emb_s_h = encode_batch(encoder, episode.support_x, view, mode, tape, rng)
    emb_q_h = encode_batch(encoder, episode.query_x, view, mode, tape, rng)
    return emb_s_full, emb_q_full, emb_s_h, emb_q_h


def training_loss(
    episode: Episode,
    encoder: EncoderParams | None,
    metric: MetricSpec,
    classifier: GlobalClassifier,
    view: ViewSpec,
    tape: nk.Tape | None = None,
    *,
    lam: float,
    detach_confidence: bool = False,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
):
    """The training objective L = lam * L_I + L_D, as ``(L, L_I, L_D)``.

    L_I is the negative log-likelihood of the true query classes after
    one transduction step: confidences from ``view``'s embedding space
    weight the update of the full-path prototypes, which the queries are
    scored against. L_D is :func:`dimension_loss` over the full-path
    embeddings L_I scores.

    Untaped, the encoder, metric and classifier may hold P parameter
    sets under one shared leading axis (their ``stack``); every part of
    the result is then a (P,) array whose entry p is bitwise the loss of
    set p alone. The encoder must be present then, so that every set
    scores its own embeddings; a tape differentiates one set only.
    """
    if episode.support_g is None or episode.query_g is None:
        raise ContractError("training requires global class labels on every episode")
    stacks = {p.stack for p in (encoder, metric, classifier) if p is not None} - {None}
    if len(stacks) > 1:
        raise ContractError(f"parameter sets must share one leading axis, got {sorted(stacks)}")
    if any(stacks) and (tape is not None or encoder is None):
        raise ContractError("only untaped calls with an encoder take a stack of parameter sets")
    embs = _embed(episode, encoder, view, tape, mode, rng)
    l_i = _instance_loss_from_embeddings(episode, metric, *embs, tape, detach_confidence)
    if encoder is None:
        positions, channels = 1, episode.dim
    else:
        positions, channels = encoder.positions, encoder.channels
    l_d = dimension_loss(
        per_position(nk.concat(embs[:2], axis=-2), positions, channels),
        np.concatenate([episode.support_g, episode.query_g]), classifier, tape,
    )
    return nk.add(nk.mul(lam, l_i), l_d), l_i, l_d


def dimension_loss(
    per_pos_emb,
    global_labels,
    classifier: GlobalClassifier,
    tape: nk.Tape | None = None,
):
    """Mean cross-entropy of every feature-map position in the batch.

    ``per_pos_emb`` holds (items * positions, channels) rows, position
    within item fastest; each item's global label applies to all its
    positions. Untaped, a stack (P, rows, channels) against a stacked
    classifier gives P losses.
    """
    if global_labels is None:
        raise ContractError("dimension loss needs global class labels")
    labels = np.asarray(global_labels)
    rows = nk.value_of(per_pos_emb).shape[-2]
    if labels.size == 0 or rows % labels.size != 0:
        raise ContractError("per-position rows must be a multiple of the item count")
    positions = rows // labels.size
    cols = classifier.columns_for(labels)
    targets = one_hot(np.repeat(cols, positions) + 1, len(classifier.classes))
    w = nk.leaves({"classifier.w": classifier.weight}, tape)["classifier.w"]
    return nk.cross_entropy(nk.matmul(per_pos_emb, w), targets)


def _model_from_named(model, named: dict[str, np.ndarray]):
    """``model``, an (encoder, metric, classifier) triple, with every tensor from ``named``.

    The rest stays: dropout, positions, channels, metric kind, class ids.
    """
    encoder, metric, classifier = model
    if encoder is not None:
        encoder = EncoderParams.from_named(
            named, dropout=encoder.dropout,
            positions=encoder.positions, channels=encoder.channels,
        )
    return (
        encoder,
        MetricSpec.from_named(metric.kind, named),
        replace(classifier, weight=named["classifier.w"]),
    )


def _nesterov_update(
    name: str,
    value: np.ndarray,
    grad: np.ndarray,
    velocities: dict[str, np.ndarray],
    lr: float,
    momentum: float,
    weight_decay: float,
) -> np.ndarray:
    d = grad + weight_decay * value
    prev = velocities.get(name)
    if prev is None:
        prev = np.zeros_like(value)
    v = momentum * prev + d
    velocities[name] = v
    return value - lr * (d + momentum * v)


def _step_rng(seed: int, step: int) -> np.random.Generator:
    # stream 1: model-side randomness (episode draws use stream 0 via derive_seed)
    return np.random.default_rng(np.random.SeedSequence([seed, step, 1]))


# a diverging step's overflow is reported, with the step, by the finite checks
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_step(
    episode: Episode,
    state: TrainState,
    config: TrainConfig,
    rng: np.random.Generator,
    step_index: int,
) -> StepReport:
    """One optimization step; mutates ``state`` in place unless it diverges."""
    h = view_by_name(config.views[int(rng.integers(len(config.views)))])
    if config.weak_strong:
        episode = replace(
            episode,
            support_x=perturb_input(episode.support_x, "weak", rng, config.perturb),
            query_x=perturb_input(episode.query_x, "strong", rng, config.perturb),
        )
    tape = nk.Tape()
    model = (state.encoder, state.metric, state.classifier)
    loss, l_i, l_d = training_loss(
        episode, *model, h, tape,
        lam=config.lam, detach_confidence=config.detach_confidence, mode="train", rng=rng,
    )
    grads = nk.grad(tape, loss)
    lr = lr_at(step_index, config.schedule)
    velocities = dict(state.velocities)
    updated = {
        name: _nesterov_update(
            name, var.value, grads[var], velocities,
            lr, config.momentum, config.weight_decay,
        )
        for name, var in tape.named_params.items()
    }
    for name, value in updated.items():
        if not np.isfinite(value).all():
            raise DomainError(f"update at step {step_index} made {name} non-finite")
    state.velocities = velocities
    state.encoder, state.metric, state.classifier = _model_from_named(model, updated)
    state.step = step_index + 1
    return StepReport(
        step=step_index,
        view=h.name,
        loss=float(nk.value_of(loss)),
        loss_instance=float(nk.value_of(l_i)),
        loss_dimension=float(nk.value_of(l_d)),
        lr=lr,
    )


def train(
    source,
    config: TrainConfig,
    *,
    metric: MetricSpec | None = None,
    encoder: EncoderParams | None | str = "auto",
) -> tuple[TrainState, list[StepReport]]:
    """Run the full loop; returns the final state and per-step reports.

    ``source`` is anything :func:`~mct.episodes.sample_episode` draws
    from, and nothing else of it is read but its width ``dim`` and its
    global class ids ``classes``. ``encoder="auto"`` builds the default
    residual encoder for that width; ``encoder=None`` trains metric and
    classifier over raw inputs. The default metric is the instance-scaled kind.
    """

    def draw(step: int) -> Episode:
        return sample_episode(
            source, config.ways, config.shots, config.queries, derive_seed(config.seed, step)
        )

    episode = draw(0)  # refuses an unsupported source before its width is read
    input_dim = source.dim
    init_rng = np.random.default_rng(config.seed)
    if encoder == "auto":
        encoder = EncoderParams.init(input_dim, init_rng)
    elif encoder is not None and not isinstance(encoder, EncoderParams):
        raise ContractError("encoder must be 'auto', None, or EncoderParams")
    emb_dim = embedding_dim(encoder, input_dim)
    if metric is None:
        metric = MetricSpec.instance(emb_dim, init_rng)
    channels = input_dim if encoder is None else encoder.channels
    classifier = GlobalClassifier.init(channels, source.classes, init_rng)
    state = TrainState(metric=metric, encoder=encoder, classifier=classifier)
    reports = []
    for step in range(config.steps):
        episode = draw(step) if step else episode
        try:
            report = train_step(episode, state, config, _step_rng(config.seed, step), step)
        except DomainError as exc:
            raise DomainError(f"training diverged at step {step}: {exc}") from exc
        reports.append(report)
        if config.checkpoint_every and (step + 1) % config.checkpoint_every == 0:
            save_state(config.checkpoint_path, state.to_model_state())
    return state, reports
