"""Transductive inference: soft k-means refinement and the view ensemble.

Queries are classified by softmax over negative distances to class
prototypes. Transduction feeds the resulting confidences back: each
unlabeled item contributes its confidence in class c as a fractional
weight to that class's prototype, while every support item keeps weight
exactly 1, and the process repeats for T steps. The multi-view variant
runs one prototype set per encoder view, averages the per-view
confidences into a single ensemble at every step, and updates all views
with that shared ensemble, each in its own embedding space. An
episode's unlabeled pool, if it has one, drives the update in place of
the queries: semi-supervised evaluation is this same refinement with a
pool. :func:`refine_batch` runs it for a batch of same-shape episodes
and returns the query ensemble at every step (one episode is a batch of
one, one view is plain soft k-means), and its update is the arithmetic
of :func:`update_prototypes`, made in place.

Confidence matrices are plain (n, ways) float64 arrays whose rows sum
to one; prototype matrices are (ways, embed_dim), row c-1 for class c.
"""

from __future__ import annotations

import numpy as np

from . import numkit as nk
from .encoder import ViewSpec, _encode_views
from .errors import ContractError
from .metric import MetricSpec, _compared, _distances, _terms

__all__ = [
    "one_hot",
    "init_from_embeddings",
    "update_prototypes",
    "refine_batch",
    "predict_labels",
]


def one_hot(labels, ways: int) -> np.ndarray:
    """(n, ways) indicator rows for labels in {1..ways}."""
    y = np.asarray(labels, dtype=np.int64)
    if y.size and (y.min() < 1 or y.max() > ways):
        raise ContractError(f"labels must lie in 1..{ways}")
    out = np.zeros((y.size, ways))
    out[np.arange(y.size), y - 1] = 1.0
    return out


def _class_counts(labels, ways: int) -> np.ndarray:
    counts = np.bincount(np.asarray(labels, dtype=np.int64), minlength=ways + 1)[1:]
    if np.any(counts == 0):
        raise ContractError("every class needs at least one support item")
    return counts.astype(np.float64)


def init_from_embeddings(support_emb, support_y, ways: int):
    """Initial prototypes: the plain per-class mean of support embeddings.

    Untaped calls also take a stack (P, n, l) of embeddings of one
    support set and return (P, ways, l).
    """
    y_t = one_hot(support_y, ways).T
    counts = _class_counts(support_y, ways)
    return nk.div(nk.matmul(y_t, support_emb), counts[:, None])


def update_prototypes(support_emb, support_y, ways: int, query_emb, conf):
    """Confidence-weighted prototype update.

    Support items contribute weight exactly 1 each; item x̃ contributes
    weight conf[x̃, c] to class c. Each prototype is the weighted mean
    of both pools. Untaped calls also take stacks, (P, n, l) embeddings
    and (P, n, ways) confidences, and return (P, ways, l).
    """
    cv = nk.value_of(conf)
    qv = nk.value_of(query_emb)
    if cv.shape[-2:] != (qv.shape[-2], ways):
        raise ContractError(
            f"confidence shape {cv.shape} does not match {qv.shape[-2]} items x {ways} classes"
        )
    class_sums = nk.matmul(one_hot(support_y, ways).T, support_emb)
    # the weights ways-major, (..., ways, n), and their mass summed item by
    # item over the row-major (..., n, ways) confidences
    weights = nk.transpose(conf)
    mass = nk.reshape(nk.asum(conf, axis=-2), (*cv.shape[:-2], ways, 1))
    counts = _class_counts(support_y, ways)[:, None]
    return nk.div(nk.add(class_sums, nk.matmul(weights, query_emb)), nk.add(counts, mass))


def refine_batch(
    episodes,
    encoder,
    views: tuple[ViewSpec, ...],
    metric: MetricSpec,
    T: int,
) -> np.ndarray:
    """Multi-view ensemble transduction over a batch of episodes.

    At every step each view scores the queries against its own
    prototypes; the ensemble confidence is the mean of those local
    confidences. Every view's prototypes are then updated in its own
    embedding space with the ensemble weights of the episode's unlabeled
    pool, scored the same way, or else of its queries. Episodes never
    mix. Returns an (E, T+1, n_query, ways) array whose entry [i, t] is
    episode i's query ensemble at step t, so [i, 0] is plain inductive
    inference.

    Untaped. The E episodes must share one shape (ways, support, query
    and pool sizes), and neither the queries nor a pool may be empty;
    that, a negative T, no view or episode, or a metric of stacked
    parameter sets is a :class:`ContractError`. Each scored set's
    distances expand about one fixed centre, the mean of its step-0
    prototypes (see ``metric._terms``). Every value is bitwise equal to
    running the episodes and views one by one with the same centres
    and, for fewer than 8 ways, to the same steps laid out row-major.

    Plain arrays from start to finish, on numkit's value kernels with no
    tape and no recorder in between: the views' embeddings are stacked
    (E, V, n, l), and every step writes its distances, softmax, view
    mean and update into buffers made once per call. No input is
    written to, and nothing outlives the call.
    """
    if T < 0:
        raise ContractError("T must be non-negative")
    if len(views) < 1:
        raise ContractError("need at least one view")
    if len(episodes) < 1:
        raise ContractError("need at least one episode")
    if metric.stack:
        raise ContractError("refinement takes one metric parameter set, not a stack")
    # np.shape(None) is (), unlike the shape of any pool
    if len({(ep.ways, ep.support_x.shape, ep.query_x.shape, np.shape(ep.unlabeled_x))
            for ep in episodes}) != 1:
        raise ContractError("episodes of one batch must share one shape")
    first = episodes[0]
    if first.query_x.shape[0] == 0:
        raise ContractError("episodes need at least one query")
    pooled = first.unlabeled_x is not None
    if pooled and first.unlabeled_x.shape[0] == 0:
        raise ContractError("an unlabeled pool must not be empty")
    ways, n_e, n_v = first.ways, len(episodes), len(views)
    n_q = first.query_x.shape[0]

    def embed(rows):
        # (E, V, n, l): episode-major, so each episode's views are adjacent
        return np.stack(_encode_views(encoder, np.stack(rows), views), axis=1)

    def flat(x):
        return x.reshape(n_e * n_v, x.shape[2], -1)

    def ensemble(terms, d, out):
        """One row set's ways-major confidences averaged over views, into ``out`` (E, ways, n).

        ``d`` (E*V, ways, n) takes the distances, then the local confidences.
        """
        _distances(metric, terms, flat(protos), compared, out=d)
        nk._softmax_neg_value(d, -2, out=d).reshape(n_e, n_v, ways, -1).sum(axis=1, out=out)
        out /= n_v
        return out

    emb_s = embed([ep.support_x for ep in episodes])
    counts = np.stack([_class_counts(ep.support_y, ways) for ep in episodes])[:, None, :, None]
    indicator = np.stack([one_hot(ep.support_y, ways).T for ep in episodes])[:, None]
    class_sums = np.matmul(indicator, emb_s)
    protos = class_sums / counts
    compared = _compared(metric, flat(protos))
    emb_q = embed([ep.query_x for ep in episodes])
    q_terms = _terms(metric, flat(emb_q), compared)
    # the rows whose confidences weight each update: the pool, else the queries
    emb_d, d_terms = emb_q, q_terms
    if pooled:
        # never stacked with the queries: the row count changes BLAS rounding
        emb_d = embed([ep.unlabeled_x for ep in episodes])
        d_terms = _terms(metric, flat(emb_d), compared)
    # every step's temporaries, made once: distances and ensembles of each
    # scored row set, and the pool's ensemble row-major
    dist_q, conf_q = np.empty((n_e * n_v, ways, n_q)), np.empty((n_e, ways, n_q))
    dist_d, conf_d, rows_d = dist_q, conf_q, None
    if pooled:
        n_d = emb_d.shape[2]
        dist_d, conf_d = np.empty((n_e * n_v, ways, n_d)), np.empty((n_e, ways, n_d))
        rows_d = np.empty((n_e, n_d, ways))
    trace = np.empty((n_e, T + 1, n_q, ways))
    for t in range(T + 1):
        if t:
            compared = _compared(metric, flat(protos))
        trace[:, t] = np.swapaxes(ensemble(q_terms, dist_q, conf_q), -1, -2)
        if t < T:
            if pooled:
                np.copyto(rows_d, np.swapaxes(ensemble(d_terms, dist_d, conf_d), -1, -2))
            # summed item by item over row-major confidences, as update_prototypes sums it
            mass = (rows_d if pooled else trace[:, t]).sum(axis=-2).reshape(n_e, 1, ways, 1)
            mass += counts
            # update_prototypes' arithmetic, written over the last prototypes
            np.matmul(conf_d[:, None], emb_d, out=protos)
            protos += class_sums
            protos /= mass
    return trace


def predict_labels(conf) -> np.ndarray:
    """Most confident class per row, in {1..ways}; ties go to the lowest.

    Takes (n, ways) rows or stacks of them, (..., n, ways).
    """
    return np.argmax(nk.value_of(conf), axis=-1) + 1
