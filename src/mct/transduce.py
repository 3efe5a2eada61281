"""Transductive inference: soft k-means refinement and the view ensemble.

Queries are classified by softmax over negative distances to class
prototypes. Transduction feeds the resulting confidences back: each
unlabeled item contributes its confidence in class c as a fractional
weight to that class's prototype, while every support item keeps weight
exactly 1, and the process repeats for T steps. The multi-view variant
runs one prototype set per encoder view, averages the per-view
confidences into a single ensemble at every step, and updates all views
with that shared ensemble, each in its own embedding space. Inference
runs through :func:`refine_batch`, which refines a batch of same-shape
episodes at once and returns the ensemble at every step; :func:`refine`
is its one-episode form, and ``soft_kmeans`` (one view) and
``mct_infer`` keep its last step.

Confidence matrices are plain (n, ways) float64 arrays whose rows sum
to one; prototype matrices are (ways, embed_dim), row c-1 for class c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .encoder import VIEWS, ViewSpec, encode_batch
from .episodes import Episode
from .errors import ContractError
from .metric import MetricSpec, pairwise, query_terms

__all__ = [
    "Prototypes",
    "one_hot",
    "class_counts",
    "init_from_embeddings",
    "init_prototypes",
    "confidence",
    "update_prototypes",
    "refine_batch",
    "refine",
    "soft_kmeans",
    "mct_infer",
    "semi_infer",
    "predict_labels",
    "check_confidence",
]


@dataclass(frozen=True)
class Prototypes:
    """Per-view prototype matrices at transduction step ``step``."""

    by_view: dict[str, np.ndarray]
    step: int

    def __post_init__(self):
        if not self.by_view:
            raise ContractError("need at least one view")
        shapes = {v.shape for v in self.by_view.values()}
        if len(shapes) != 1:
            raise ContractError("views must share one prototype shape")


def one_hot(labels, ways: int) -> np.ndarray:
    """(n, ways) indicator rows for labels in {1..ways}."""
    y = np.asarray(labels, dtype=np.int64)
    if y.size and (y.min() < 1 or y.max() > ways):
        raise ContractError(f"labels must lie in 1..{ways}")
    out = np.zeros((y.size, ways))
    out[np.arange(y.size), y - 1] = 1.0
    return out


def class_counts(labels, ways: int) -> np.ndarray:
    counts = np.bincount(np.asarray(labels, dtype=np.int64), minlength=ways + 1)[1:]
    if np.any(counts == 0):
        raise ContractError("every class needs at least one support item")
    return counts.astype(np.float64)


def init_from_embeddings(support_emb, support_y, ways: int):
    """Initial prototypes: the plain per-class mean of support embeddings."""
    y_t = one_hot(support_y, ways).T
    counts = class_counts(support_y, ways)
    return nk.div(nk.matmul(y_t, support_emb), counts[:, None])


def init_prototypes(
    episode: Episode,
    encoder,
    views: tuple[ViewSpec, ...] = VIEWS,
) -> Prototypes:
    """Per-view initial prototypes from the episode's support set."""
    by_view = {}
    for v in views:
        emb = encode_batch(encoder, episode.support_x, v)
        by_view[v.name] = init_from_embeddings(emb, episode.support_y, episode.ways)
    return Prototypes(by_view=by_view, step=0)


def confidence(query_emb, protos, metric: MetricSpec, tape: nk.Tape | None = None):
    """Rows of class confidences: softmax over negative distances."""
    return nk.softmax_neg(pairwise(metric, query_emb, protos, tape))


def update_prototypes(
    support_emb,
    support_y,
    ways: int,
    query_emb,
    conf,
    tape: nk.Tape | None = None,
):
    """Confidence-weighted prototype update.

    Support items contribute weight exactly 1 each; item x̃ contributes
    weight conf[x̃, c] to class c. Each prototype is the weighted mean
    of both pools.
    """
    cv = nk.value_of(conf)
    qv = nk.value_of(query_emb)
    if cv.shape != (qv.shape[0], ways):
        raise ContractError(
            f"confidence shape {cv.shape} does not match {qv.shape[0]} items x {ways} classes"
        )
    y_t = one_hot(support_y, ways).T
    counts = class_counts(support_y, ways)[:, None]
    num = nk.add(nk.matmul(y_t, support_emb), nk.matmul(nk.transpose(conf), query_emb))
    mass = nk.reshape(nk.asum(conf, axis=0), (ways, 1))
    return nk.div(num, nk.add(counts, mass))


def refine_batch(
    episodes,
    encoder,
    views: tuple[ViewSpec, ...],
    metric: MetricSpec,
    T: int,
) -> np.ndarray:
    """Multi-view ensemble transduction over a batch of episodes.

    At every step each view scores the queries against its own
    prototypes; the ensemble confidence is the exact arithmetic mean of
    those local confidences, and every view's prototypes are then
    updated with the shared ensemble weights in the view's own
    embedding space. Episodes never mix. Returns an
    (E, T+1, n_query, ways) array whose entry [i, t] is episode i's
    ensemble at step t, so [i, 0] is plain inductive inference.

    Untaped. The E episodes must share one shape (ways, support and
    query sizes). Each view encodes all support sets in one call and
    all query sets in another; the embeddings of every (episode, view)
    pair are carried as one (E*V, n, l) stack, so each step makes one
    distance call, one softmax and one prototype update for the whole
    batch, and the support class sums and query-side metric terms are
    computed once. Every value is bitwise equal to running the
    episodes and views one by one.
    """
    if T < 0:
        raise ContractError("T must be non-negative")
    if len(views) < 1:
        raise ContractError("need at least one view")
    if len(episodes) < 1:
        raise ContractError("need at least one episode")
    first = episodes[0]
    ways = first.ways
    shape = (ways, first.support_x.shape, first.query_x.shape)
    if any((ep.ways, ep.support_x.shape, ep.query_x.shape) != shape for ep in episodes):
        raise ContractError("episodes of one batch must share one shape")
    n_ev, n_q = len(episodes) * len(views), first.query_x.shape[0]
    support_x = np.stack([ep.support_x for ep in episodes])
    query_x = np.stack([ep.query_x for ep in episodes])
    # (E, V, n, l): episode-major, so each episode's views are adjacent
    emb_s = np.stack([encode_batch(encoder, support_x, v) for v in views], axis=1)
    emb_q = np.stack([encode_batch(encoder, query_x, v) for v in views], axis=1)
    flat_q = emb_q.reshape(n_ev, n_q, -1)
    counts = np.stack([class_counts(ep.support_y, ways) for ep in episodes])[:, None, :, None]
    indicator = np.stack([one_hot(ep.support_y, ways).T for ep in episodes])[:, None]
    class_sums = np.matmul(indicator, emb_s)
    protos = class_sums / counts
    q_terms = query_terms(metric, flat_q)
    trace = np.empty((len(episodes), T + 1, n_q, ways))
    for t in range(T + 1):
        local = nk.softmax_neg(pairwise(
            metric, flat_q, protos.reshape(n_ev, ways, -1), query=q_terms
        )).reshape(len(episodes), len(views), n_q, ways)
        ensemble = local[:, 0]
        for v in range(1, len(views)):
            ensemble = ensemble + local[:, v]
        ensemble = ensemble / len(views)
        trace[:, t] = ensemble
        if t < T:
            weights = np.ascontiguousarray(ensemble.transpose(0, 2, 1))[:, None]
            mass = ensemble.sum(axis=1)[:, None, :, None]
            protos = (class_sums + np.matmul(weights, emb_q)) / (counts + mass)
    return trace


def refine(
    episode: Episode,
    encoder,
    views: tuple[ViewSpec, ...],
    metric: MetricSpec,
    T: int,
) -> np.ndarray:
    """One episode's ensemble trace, (T+1, n_query, ways); see :func:`refine_batch`."""
    return refine_batch([episode], encoder, views, metric, T)[0]


def soft_kmeans(
    episode: Episode,
    encoder,
    view: ViewSpec,
    metric: MetricSpec,
    T: int,
) -> np.ndarray:
    """Single-view transduction; T = 0 is plain inductive inference."""
    return refine(episode, encoder, (view,), metric, T)[-1]


def mct_infer(
    episode: Episode,
    encoder,
    views: tuple[ViewSpec, ...],
    metric: MetricSpec,
    T: int,
) -> np.ndarray:
    """Multi-view ensemble transduction; the ensemble at step T of :func:`refine`."""
    return refine(episode, encoder, views, metric, T)[-1]


def _semi_update(episode: Episode, encoder, metric: MetricSpec, conf_floor: float | None):
    """Full-view query embeddings, initial and refined prototypes, unlabeled confidences."""
    if episode.unlabeled_x is None or episode.unlabeled_x.shape[0] == 0:
        raise ContractError("semi_infer needs a nonempty unlabeled set")
    full = VIEWS[0]
    emb_s = encode_batch(encoder, episode.support_x, full)
    emb_u = encode_batch(encoder, episode.unlabeled_x, full)
    emb_q = encode_batch(encoder, episode.query_x, full)
    protos = init_from_embeddings(emb_s, episode.support_y, episode.ways)
    u_conf = confidence(emb_u, protos, metric)
    mass = u_conf
    if conf_floor is not None:
        keep = u_conf.max(axis=1) >= conf_floor
        mass = u_conf * keep[:, None]
    refined = update_prototypes(
        emb_s, episode.support_y, episode.ways, emb_u, mass
    )
    return emb_q, protos, refined, u_conf


def semi_infer(
    episode: Episode,
    encoder,
    metric: MetricSpec,
    conf_floor: float | None = None,
) -> tuple[Prototypes, np.ndarray, np.ndarray]:
    """Semi-supervised refinement: one update step driven by unlabeled items.

    Confidences are computed over the unlabeled set against the initial
    full-view prototypes, the prototypes take one confidence-weighted
    update, and queries are then classified inductively against the
    refined prototypes. ``conf_floor`` optionally drops unlabeled items
    whose best confidence falls below the threshold (their rows
    contribute no mass); by default every item contributes.

    Returns (refined prototypes, unlabeled confidences, query confidences).
    """
    emb_q, _, refined, u_conf = _semi_update(episode, encoder, metric, conf_floor)
    q_conf = confidence(emb_q, refined, metric)
    return Prototypes(by_view={VIEWS[0].name: refined}, step=1), u_conf, q_conf


def _semi_refine(episode: Episode, encoder, metric: MetricSpec) -> np.ndarray:
    """Query confidences of :func:`semi_infer` before and after its update.

    A (2, n_query, ways) array: row 0 scores the queries against the
    initial full-view prototypes (plain inductive inference, bitwise
    what ``soft_kmeans(…, T=0)`` returns), row 1 against the refined
    ones. Each set is encoded once.
    """
    emb_q, protos, refined, _ = _semi_update(episode, encoder, metric, None)
    return np.stack([confidence(emb_q, protos, metric), confidence(emb_q, refined, metric)])


def predict_labels(conf) -> np.ndarray:
    """Most confident class per row, in {1..ways}; ties go to the lowest."""
    return np.argmax(nk.value_of(conf), axis=1) + 1


def check_confidence(conf, ways: int, tol: float = 1e-9) -> np.ndarray:
    """Validate a confidence matrix; returns it unchanged."""
    cv = np.asarray(conf, dtype=np.float64)
    if cv.ndim != 2 or cv.shape[1] != ways:
        raise ContractError(f"expected (n, {ways}) confidences, got {cv.shape}")
    if np.any(cv < 0.0) or np.any(cv > 1.0):
        raise ContractError("confidences must lie in [0, 1]")
    if np.any(np.abs(cv.sum(axis=1) - 1.0) > tol):
        raise ContractError("confidence rows must sum to 1")
    return cv
