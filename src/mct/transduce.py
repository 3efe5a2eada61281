"""Transductive inference: soft k-means refinement and the view ensemble.

Queries are classified by softmax over negative distances to class
prototypes. Transduction feeds the resulting confidences back: each
unlabeled item contributes its confidence in class c as a fractional
weight to that class's prototype, while every support item keeps weight
exactly 1, and the process repeats for T steps. The multi-view variant
runs one prototype set per encoder view, averages the per-view
confidences into a single ensemble at every step, and updates all views
with that shared ensemble, each in its own embedding space; an
episode's unlabeled pool, if it has one, drives the update in place of
the queries. :func:`refine_batch` runs it for a batch of same-shape
episodes and returns the query ensemble at every step; :func:`refine`
is its one-episode form, ``soft_kmeans`` and ``mct_infer`` keep its
last step, and :func:`semi_infer` is the pooled one-update reference.

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
    those local confidences. Every view's prototypes are then updated in
    its own embedding space with the ensemble weights of the episode's
    unlabeled pool, scored the same way, or else of its queries.
    Episodes never mix. Returns an (E, T+1, n_query, ways) array whose
    entry [i, t] is episode i's query ensemble at step t, so [i, 0] is
    plain inductive inference.

    Untaped. The E episodes must share one shape (ways, support, query
    and pool sizes; a pool must not be empty). Each row set of the batch
    is encoded in one call per view and carried as an (E*V, n, l) stack,
    so a step makes one distance call and one softmax per scored set and
    one prototype update; class sums and query-side metric terms are
    computed once. Queries and pool never share a stack: the row count
    changes BLAS rounding. Every value is bitwise equal to running the
    episodes and views one by one.
    """
    if T < 0:
        raise ContractError("T must be non-negative")
    if len(views) < 1:
        raise ContractError("need at least one view")
    if len(episodes) < 1:
        raise ContractError("need at least one episode")
    # np.shape(None) is (), unlike the shape of any pool
    if len({(ep.ways, ep.support_x.shape, ep.query_x.shape, np.shape(ep.unlabeled_x))
            for ep in episodes}) != 1:
        raise ContractError("episodes of one batch must share one shape")
    first = episodes[0]
    pooled = first.unlabeled_x is not None
    if pooled and first.unlabeled_x.shape[0] == 0:
        raise ContractError("an unlabeled pool must not be empty")
    ways, n_e, n_v = first.ways, len(episodes), len(views)

    def embed(rows):
        # (E, V, n, l): episode-major, so each episode's views are adjacent
        x = np.stack(rows)
        return np.stack([encode_batch(encoder, x, v) for v in views], axis=1)

    def flat(emb):
        return emb.reshape(n_e * n_v, emb.shape[2], -1)

    def ensemble(emb, terms, protos):
        """(E, n, ways): the mean over views of one row set's confidences."""
        local = nk.softmax_neg(pairwise(
            metric, flat(emb), protos.reshape(n_e * n_v, ways, -1), query=terms
        )).reshape(*emb.shape[:3], ways)
        out = local[:, 0]
        for v in range(1, n_v):
            out = out + local[:, v]
        return out / n_v

    emb_s = embed([ep.support_x for ep in episodes])
    emb_q = embed([ep.query_x for ep in episodes])
    q_terms = query_terms(metric, flat(emb_q))
    # the rows whose confidences weight each update: the pool, else the queries
    emb_d, d_terms = emb_q, q_terms
    if pooled:
        emb_d = embed([ep.unlabeled_x for ep in episodes])
        d_terms = query_terms(metric, flat(emb_d))
    counts = np.stack([class_counts(ep.support_y, ways) for ep in episodes])[:, None, :, None]
    indicator = np.stack([one_hot(ep.support_y, ways).T for ep in episodes])[:, None]
    class_sums = np.matmul(indicator, emb_s)
    protos = class_sums / counts
    trace = np.empty((n_e, T + 1, first.query_x.shape[0], ways))
    for t in range(T + 1):
        conf = ensemble(emb_q, q_terms, protos)
        trace[:, t] = conf
        if t < T:
            if pooled:
                conf = ensemble(emb_d, d_terms, protos)
            weights = np.ascontiguousarray(conf.transpose(0, 2, 1))[:, None]
            mass = conf.sum(axis=1)[:, None, :, None]
            protos = (class_sums + np.matmul(weights, emb_d)) / (counts + mass)
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
    if episode.unlabeled_x is None or episode.unlabeled_x.shape[0] == 0:
        raise ContractError("semi_infer needs a nonempty unlabeled set")
    full = VIEWS[0]
    emb_s = encode_batch(encoder, episode.support_x, full)
    emb_u = encode_batch(encoder, episode.unlabeled_x, full)
    protos = init_from_embeddings(emb_s, episode.support_y, episode.ways)
    u_conf = confidence(emb_u, protos, metric)
    mass = u_conf
    if conf_floor is not None:
        mass = u_conf * (u_conf.max(axis=1) >= conf_floor)[:, None]
    refined = update_prototypes(emb_s, episode.support_y, episode.ways, emb_u, mass)
    q_conf = confidence(encode_batch(encoder, episode.query_x, full), refined, metric)
    return Prototypes(by_view={VIEWS[0].name: refined}, step=1), u_conf, q_conf


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
