"""One-item and one-episode reference forms of what the package batches, and shared helpers."""

import gc
import weakref
from contextlib import contextmanager

import numpy as np

from mct import numkit as nk
from mct.encoder import VIEWS, PerturbPolicy, _encode_views, encode_batch
from mct.episodes import BayesOracle, Episode, _means_in_ball
from mct.errors import ContractError, DomainError
from mct.metatrain import _embed, _instance_loss_from_embeddings
from mct.metric import MetricSpec, _compared, _distances, _terms, pairwise, scaler_eval
from mct.transduce import _class_counts, init_from_embeddings, one_hot, update_prototypes


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


def query_terms(metric, a, protos):
    """The engine's query terms of rows ``a``, prepared about the compared rows of ``protos``."""
    av, pv = nk.value_of(a), nk.value_of(protos)
    return _terms(metric, av, _compared(metric, pv))


def prepared_distances(metric, terms, protos):
    """The engine's ways-major distances, (..., m, n), from prepared ``terms`` to ``protos``."""
    pv = nk.value_of(protos)
    return _distances(metric, terms, pv, _compared(metric, pv))


def confidence(query_emb, protos, metric):
    """One view's (n, ways) query confidences: ``refine_batch``'s step 0 for one episode.

    Untaped. The distances expand about the mean of the compared rows of
    ``protos`` and are laid out ways-major, as the engine lays them out;
    the confidences come back row-major.
    """
    terms = query_terms(metric, query_emb, protos)
    conf = nk._softmax_neg_value(prepared_distances(metric, terms, protos), -2)
    return nk.transpose(conf)


def instance_loss(episode, encoder, view, metric, tape=None, *,
                  detach_confidence=False, mode="eval", rng=None):
    """``training_loss``'s L_I alone: query NLL after one transduction step.

    Confidences come from ``view``'s embedding space; the scored
    prototypes live in the full-path space. Equals the mean over queries
    of d(x, P_y) plus log-sum-exp over classes of -d(x, P_c). Needs no
    global labels.
    """
    embs = _embed(episode, encoder, view, tape, mode, rng)
    return _instance_loss_from_embeddings(episode, metric, *embs, tape, detach_confidence)


# Elementary tape ops that no package module composes. They are the
# references the fused nodes (cross_entropy, unit_rows, calibrated_sigmoid,
# pair_rows) must equal bit for bit, built on numkit's own private helpers.


def repeat_rows(x, k: int):
    """Repeat each row of a 2-D array ``k`` times (row i -> rows i*k..i*k+k-1).

    Untaped calls also take a stack of matrices and repeat the rows of each.
    """
    tape = nk._tape_of(x)
    xv = nk.value_of(x)
    nk._matrices("repeat_rows", tape, xv)

    def backward(g):
        n, d = xv.shape
        return (g.reshape(n, k, d).sum(axis=1),)

    return nk._apply(np.repeat(xv, k, axis=-2), (x,), backward, tape)


def tile_rows(x, k: int):
    """Stack ``k`` copies of a 2-D array vertically.

    Untaped calls also take a stack of matrices and tile each.
    """
    tape = nk._tape_of(x)
    xv = nk.value_of(x)
    nk._matrices("tile_rows", tape, xv)

    def backward(g):
        n, d = xv.shape
        return (g.reshape(k, n, d).sum(axis=0),)

    return nk._apply(np.tile(xv, (k, 1)), (x,), backward, tape)


def sub(a, b):
    return nk._binary(a, b, np.subtract, lambda av, bv, out: (
        lambda g: (nk._unbroadcast(g, av.shape), nk._unbroadcast(-g, bv.shape))
    ))


def sigmoid(x):
    return nk._unary(x, nk._sigmoid_value, lambda xv, out: (lambda g: (g * out * (1.0 - out),)))


def exp(x):
    return nk._unary(x, np.exp, lambda xv, out: (lambda g: (g * out,)))


def log(x):
    return nk._unary(x, np.log, lambda xv, out: (lambda g: (g / xv,)))


def sqrt(x):
    return nk._unary(x, np.sqrt, lambda xv, out: (lambda g: (g * 0.5 / out,)))


def mean(x, axis=None, keepdims=False):
    """Arithmetic mean over ``axis`` (all axes when None)."""
    tape = nk._tape_of(x)
    xv = nk.value_of(x)
    out = xv.mean(axis=axis, keepdims=keepdims)
    if tape is None:
        return out
    count = xv.size if axis is None else xv.size // out.size

    def backward(g):
        return (nk._expand_reduced(g, xv.shape, axis, keepdims) / count,)

    return nk._apply(out, (nk._as_var(x, tape),), backward, tape)


def logsumexp(x, axis=-1, keepdims=False):
    """log(sum(exp(x))) along ``axis``, stabilized by max subtraction.

    Exact for a single element. An empty reduction axis is a
    ContractError, non-finite input a DomainError.
    """
    tape = nk._tape_of(x)
    xv = nk.value_of(x)
    if xv.ndim == 0 or xv.shape[axis] == 0:
        raise ContractError("logsumexp needs at least one element")
    if not np.all(np.isfinite(xv)):
        raise DomainError("logsumexp input must be finite")
    m = xv.max(axis=axis, keepdims=True)
    shifted = np.exp(xv - m)
    total = shifted.sum(axis=axis, keepdims=True)
    out_keep = m + np.log(total)
    out = out_keep if keepdims else np.squeeze(out_keep, axis=axis)
    if tape is None:
        return out
    softmax = shifted / total

    def backward(g):
        return (nk._expand_reduced(g, xv.shape, axis, keepdims) * softmax,)

    return nk._apply(out, (nk._as_var(x, tape),), backward, tape)


def row_major_softmax_neg(d):
    """``nk.softmax_neg`` along the last axis with every reduction taken row by row.

    The reference for the class-major layout numkit uses below 8
    classes: minimum, shift, exp, sum and divide as numpy runs them
    along the rows.
    """
    d = np.asarray(d, dtype=np.float64)
    out = np.exp(d.min(axis=-1, keepdims=True) - d)
    return out / out.sum(axis=-1, keepdims=True)


def check_confidence(conf, ways: int):
    """Assert that ``conf`` holds (n, ways) probabilities whose rows sum to one within 1e-9."""
    cv = np.asarray(conf, dtype=np.float64)
    assert cv.ndim == 2 and cv.shape[1] == ways, cv.shape
    assert np.all((cv >= 0.0) & (cv <= 1.0))
    assert np.all(np.abs(cv.sum(axis=1) - 1.0) <= 1e-9)


def row_major_distances(metric, terms, protos):
    """``prepared_distances`` laid out row-major, (..., n, m): the reference for its layout.

    The same expansion about the terms' centre, with the query rows as
    the outer axis: the product of the query rows against the
    transposed prototypes, and the pair kind's g read off the pair rows
    of the concat/repeat/tile composition.
    """
    pv = np.asarray(protos, dtype=np.float64)
    b_c = np.subtract(_compared(metric, pv), terms.centre, order="C")
    d = nk.expand_centred(terms.rows, terms.sq_norms, b_c)
    if metric.kind == "scaled":
        s = np.asarray(metric.s, dtype=np.float64)
        return (s[:, None, None] if metric.stack else s) * d
    if metric.kind == "pair":
        n, m = terms.rows.shape[-2], pv.shape[-2]
        pairs = nk.concat([repeat_rows(terms.raw, m), tile_rows(pv, n)], axis=-1)
        g = scaler_eval(metric.scaler, pairs).reshape(*pv.shape[:-2], n, m)
        return d / (g * g)
    return d


def centred_confidence(query_emb, protos, metric, protos0):
    """``confidence`` of ``query_emb`` against ``protos``, expanded about ``protos0``'s centre.

    The refinement engine prepares each scored set's terms once, about
    its step-0 prototypes; with ``protos0 is protos`` this is
    ``confidence``. Laid out row-major, with the softmax on the last axis.
    """
    terms = query_terms(metric, query_emb, protos0)
    return nk.softmax_neg(row_major_distances(metric, terms, protos))


def row_major_refine(episodes, encoder, views, metric, T):
    """``refine_batch`` with every step laid out row-major, (E*V, n, ways): the reference.

    Distances by :func:`row_major_distances`, the softmax on the last
    axis, the view mean on that layout, and the update through the
    transposed copy of the ensemble, with the class mass summed over its
    rows, as :func:`update_prototypes` makes it.
    """
    first = episodes[0]
    ways, n_e, n_v = first.ways, len(episodes), len(views)

    def embed(rows):
        return np.stack(_encode_views(encoder, np.stack(rows), views), axis=1)

    def flat(x):
        return x.reshape(n_e * n_v, x.shape[2], -1)

    def ensemble(emb, terms, protos):
        local = nk.softmax_neg(row_major_distances(metric, terms, flat(protos)))
        local = local.reshape(*emb.shape[:3], ways)
        out = local[:, 0]
        for v in range(1, n_v):
            out = out + local[:, v]
        return out / n_v

    emb_s = embed([ep.support_x for ep in episodes])
    counts = np.stack([_class_counts(ep.support_y, ways) for ep in episodes])[:, None, :, None]
    class_sums = np.stack([one_hot(ep.support_y, ways).T for ep in episodes])[:, None] @ emb_s
    protos = class_sums / counts
    emb_q = embed([ep.query_x for ep in episodes])
    q_terms = query_terms(metric, flat(emb_q), flat(protos))
    emb_d, d_terms = emb_q, q_terms
    if first.unlabeled_x is not None:
        emb_d = embed([ep.unlabeled_x for ep in episodes])
        d_terms = query_terms(metric, flat(emb_d), flat(protos))
    trace = np.empty((n_e, T + 1, first.query_x.shape[0], ways))
    for t in range(T + 1):
        conf = trace[:, t] = ensemble(emb_q, q_terms, protos)
        if t < T:
            if first.unlabeled_x is not None:
                conf = ensemble(emb_d, d_terms, protos)
            weights = conf[:, None]
            mass = weights.sum(axis=-2).reshape(n_e, 1, ways, 1)
            protos = (class_sums + nk.transpose(weights) @ emb_d) / (counts + mass)
    return trace


def per_row_perturb_input(x, strength, rng, policy=PerturbPolicy()):
    """``perturb_input`` with one ``rng.choice(dim, size=k, replace=False)`` call per row: the reference.

    Flips, noise and masks as the package makes them, for valid input;
    each strong row's mask is its own ``choice`` draw.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    out = (arr[None, :] if single else arr).copy()
    n, dim = out.shape
    flips = rng.random(n) < policy.flip_prob
    out[flips] = out[flips, ::-1]
    sigma = policy.sigma_weak if strength == "weak" else policy.sigma_strong
    if sigma > 0.0:
        out = out + sigma * rng.standard_normal((n, dim))
    if strength == "strong" and policy.mask_frac > 0.0:
        k = int(round(policy.mask_frac * dim))
        for i in range(n):
            out[i, rng.choice(dim, size=k, replace=False)] = 0.0
    return out[0] if single else out


def per_part_gen_synthetic(spec, ways, shots, queries, rng_seed, *, unlabeled=0, distractors=0):
    """``gen_synthetic`` with one ``standard_normal`` draw per part: the reference.

    Support, query and pool noise come from three draws in that order,
    and the episode is built field by field, for valid sizes.
    """
    rng = np.random.default_rng(rng_seed)
    dim = int(spec.input_dim)
    total_classes = ways + distractors
    if spec.pool_classes is not None:
        picks = rng.choice(int(spec.pool_classes), size=total_classes, replace=False)
        means = spec.pool_means()[picks]
        global_ids = picks[:ways]
    else:
        means = _means_in_ball(rng, total_classes, dim, spec.class_spread)
        global_ids = None
    std = float(spec.within_std)
    sup = means[:ways].repeat(shots, axis=0) + std * rng.standard_normal((ways * shots, dim))
    qry = means[:ways].repeat(queries, axis=0) + std * rng.standard_normal((ways * queries, dim))
    unl = None
    if unlabeled:
        unl = means.repeat(unlabeled, axis=0) + std * rng.standard_normal(
            (total_classes * unlabeled, dim)
        )
    episode = Episode(
        ways=ways,
        shots=shots,
        support_x=sup,
        support_y=np.repeat(np.arange(1, ways + 1), shots),
        query_x=qry,
        query_y=np.repeat(np.arange(1, ways + 1), queries),
        unlabeled_x=unl,
        support_g=None if global_ids is None else np.repeat(global_ids, shots),
        query_g=None if global_ids is None else np.repeat(global_ids, queries),
    )
    return episode, BayesOracle(means=means[:ways], within_std=std)


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
