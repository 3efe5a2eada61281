"""One-item and one-episode reference forms of what the package batches, and shared helpers."""

import gc
import weakref
from contextlib import contextmanager

import numpy as np

from mct import numkit as nk
from mct.encoder import VIEWS, encode_batch
from mct.errors import ContractError
from mct.metric import MetricSpec, pairwise, query_terms
from mct.transduce import confidence, init_from_embeddings, update_prototypes


def metric_of(kind, dim, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "euclid": MetricSpec.euclid,
        "scaled": lambda: MetricSpec.scaled(0.3),
        "instance": lambda: MetricSpec.instance(dim, rng),
        "pair": lambda: MetricSpec.pair(dim, rng),
    }[kind]()


def encode(params, x, view=VIEWS[0]):
    """One input vector's (positions, channels) feature map, as a one-row batch."""
    return encode_batch(params, x[None, :], view).reshape(params.positions, params.channels)


def distance(spec, a1, a2):
    """d(a1, a2) for two single embeddings: the one entry of a 1 x 1 ``pairwise``."""
    return pairwise(spec, np.reshape(a1, (1, -1)), np.reshape(a2, (1, -1)))[0, 0]


def check_confidence(conf, ways: int):
    """Assert that ``conf`` holds (n, ways) probabilities whose rows sum to one within 1e-9."""
    cv = np.asarray(conf, dtype=np.float64)
    assert cv.ndim == 2 and cv.shape[1] == ways, cv.shape
    assert np.all((cv >= 0.0) & (cv <= 1.0))
    assert np.all(np.abs(cv.sum(axis=1) - 1.0) <= 1e-9)


def centred_confidence(query_emb, protos, metric, protos0):
    """``confidence`` of ``query_emb`` against ``protos``, expanded about ``protos0``'s centre.

    The refinement engine prepares each scored set's terms once, about
    its step-0 prototypes; with ``protos0 is protos`` this is ``confidence``.
    """
    terms = query_terms(metric, query_emb, protos0)
    return nk.softmax_neg(pairwise(metric, query_emb, protos, query=terms))


def semi_infer(episode, encoder, metric):
    """One plain-view update weighted by the pool's confidences, then the queries scored.

    Both scored sets centre on the initial prototypes, as in the engine.
    Returns (refined prototypes, pool confidences, query confidences).
    """
    if episode.unlabeled_x is None or episode.unlabeled_x.shape[0] == 0:
        raise ContractError("semi_infer needs a nonempty unlabeled set")
    emb_s = encode_batch(encoder, episode.support_x)
    emb_u = encode_batch(encoder, episode.unlabeled_x)
    protos = init_from_embeddings(emb_s, episode.support_y, episode.ways)
    u_conf = confidence(emb_u, protos, metric)
    refined = update_prototypes(emb_s, episode.support_y, episode.ways, emb_u, u_conf)
    q_conf = centred_confidence(encode_batch(encoder, episode.query_x), refined, metric, protos)
    return refined, u_conf, q_conf


def sets_matrix_stacks(named, todo, step):
    """gradcheck's bumped parameter stacks cut from one (2k, n_params) matrix.

    Every parameter is flattened in sorted key order into one row theta,
    repeated 2k times (k = len(todo)); set j raises theta[todo[j]] by
    ``step`` and set k + j lowers it from there by 2 * step. Each key's
    stack is its column block of that matrix.
    """
    keys = sorted(named)
    theta = np.concatenate([np.asarray(named[key], dtype=np.float64).reshape(-1) for key in keys])
    k = todo.size
    sets = np.repeat(theta[None], 2 * k, axis=0)
    hi = theta[todo] + step
    sets[np.arange(k), todo] = hi
    sets[np.arange(k, 2 * k), todo] = hi - 2 * step
    stacked, start = {}, 0
    for key in keys:
        end = start + np.size(named[key])
        block = np.ascontiguousarray(sets[:, start:end])
        stacked[key] = block.reshape(2 * k, *np.shape(named[key]))
        start = end
    return stacked


def record_tapes(monkeypatch):
    """Make every ``nk.Tape()`` built from now on append a weak reference to itself to the returned list."""
    refs = []

    class RecordingTape(nk.Tape):
        def __init__(self):
            super().__init__()
            refs.append(weakref.ref(self))

    monkeypatch.setattr(nk, "Tape", RecordingTape)
    return refs


@contextmanager
def collector_off():
    """Run the block with the cyclic garbage collector disabled, so only reference counting frees."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
