"""Distance metrics over embeddings, including meta-learned scaling.

Four kinds are supported. ``euclid`` is the squared Euclidean distance
and ``scaled`` multiplies it by a learnable temperature s. The two
learned kinds first project both embeddings onto the unit sphere and
then divide by the output of a small calibrated network g: ``instance``
evaluates g once per embedding (each side scaled by its own g), while
``pair`` evaluates one shared g on the concatenated (query, prototype)
pair. g ends in a sigmoid that is scaled by exp(alpha) and shifted by
exp(beta), so it is positive for every parameter setting and starts in
(1, 2) at the fresh alpha = beta = 0 point.

Every kind computes its distances one way: the compared rows (the rows
themselves, or unit rows, divided by g for ``instance``) expanded about
the mean of the prototype side's, times s for ``scaled`` and over g
squared for ``pair``, whose g reads every (query, prototype) row of
``nk.pair_rows``. Off the tape that is one path on plain arrays and
numkit's value kernels, which read the spec's own arrays: ``_terms``
prepares the query rows and ``_distances`` lays their distances out
ways-major, (m, n) with the prototypes outermost. Refinement calls them
directly, once per batch and step. :func:`pairwise`, the one public
distance entry, lays distances out (n, m): on a tape it records the
nodes, and off it it is the transposed private path. A spec of P
parameter sets scores a (P, n, l) stack of row sets and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numkit as nk
from .errors import ContractError, DomainError

__all__ = [
    "ScalerParams",
    "MetricSpec",
    "scaler_eval",
    "pairwise",
    "METRIC_KINDS",
]

METRIC_KINDS = ("euclid", "scaled", "instance", "pair")

_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class ScalerParams:
    """Weights of the scaling network g.

    Two affine maps with a rectifier between them, a final sigmoid, and
    the positivity calibration exp(alpha)*sigmoid(h) + exp(beta). Both
    alpha and beta start at zero. Every array may carry one shared
    leading axis of P parameter sets (see :attr:`stack`), which only
    untaped calls evaluate.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        if self.w1.ndim not in (2, 3) or self.b1.shape != (*self.stack, self.w1.shape[-1]):
            raise ContractError("scaler first layer shapes are inconsistent")
        stack, hidden = self.stack, self.w1.shape[-1]
        if self.w2.shape != (*stack, hidden, 1) or self.b2.shape != (*stack, 1):
            raise ContractError("scaler second layer shapes are inconsistent")
        if np.shape(self.alpha) != self.stack or np.shape(self.beta) != self.stack:
            raise ContractError("alpha and beta must be scalars, one per parameter set")

    @property
    def stack(self) -> tuple[int, ...]:
        """Leading shape of the parameter sets: () for one set, (P,) for P."""
        return self.w1.shape[:-2]

    @staticmethod
    def init(in_dim: int, rng: np.random.Generator, *, hidden: int = 32) -> "ScalerParams":
        return ScalerParams(
            w1=rng.standard_normal((in_dim, hidden)) * np.sqrt(2.0 / in_dim),
            b1=np.zeros(hidden),
            w2=rng.standard_normal((hidden, 1)) * np.sqrt(2.0 / hidden),
            b2=np.zeros(1),
            alpha=np.asarray(0.0),
            beta=np.asarray(0.0),
        )

    def to_named(self) -> dict[str, np.ndarray]:
        return {
            "metric.scaler.w1": self.w1,
            "metric.scaler.b1": self.b1,
            "metric.scaler.w2": self.w2,
            "metric.scaler.b2": self.b2,
            "metric.scaler.alpha": np.asarray(self.alpha, dtype=np.float64),
            "metric.scaler.beta": np.asarray(self.beta, dtype=np.float64),
        }

    @staticmethod
    def from_named(named: dict[str, np.ndarray]) -> "ScalerParams":
        w1 = named["metric.scaler.w1"]
        stack = np.shape(w1)[:-2]
        return ScalerParams(
            w1=w1,
            b1=named["metric.scaler.b1"],
            w2=named["metric.scaler.w2"],
            b2=named["metric.scaler.b2"],
            alpha=np.asarray(named["metric.scaler.alpha"]).reshape(stack),
            beta=np.asarray(named["metric.scaler.beta"]).reshape(stack),
        )


def _check_stack(stack: tuple[int, ...] | None, *rows: np.ndarray) -> None:
    bad = [r.shape for r in rows if stack and r.shape[:-2] != stack]
    if bad:
        raise ContractError(f"{stack[0]} parameter sets score a ({stack[0]}, n, l) stack, got {bad[0]}")


def _check_features(w1, fv: np.ndarray) -> None:
    _check_stack(w1.shape[:-2], fv)
    in_dim = w1.shape[-2]
    if fv.ndim not in (2, 3) or fv.shape[-1] != in_dim:
        raise ContractError(f"scaler expects rows of width {in_dim}, got {fv.shape}")


def _g(scaler: ScalerParams, fv: np.ndarray) -> np.ndarray:
    """g of plain rows (n, l) or (V, n, l), as (..., n, 1), on numkit's value kernels."""
    _check_features(scaler.w1, fv)
    ea, eb = np.exp(nk.value_of(scaler.alpha)), np.exp(nk.value_of(scaler.beta))
    if scaler.stack:
        ea, eb = ea[:, None, None], eb[:, None, None]
    h = nk._affine_value(fv, scaler.w1, scaler.b1)
    np.maximum(h, 0.0, out=h)  # relu
    h = nk._affine_value(h, scaler.w2, scaler.b2)
    return nk._calibrated_sigmoid_value(h, ea, eb, out=h)[0]


def scaler_eval(scaler: ScalerParams, features, tape: nk.Tape | None = None):
    """g(features): strictly positive, in (exp(beta), exp(alpha)+exp(beta)).

    Accepts one feature vector (returns a scalar) or a batch of rows
    (returns an (n, 1) column). Untaped calls also take a stack of V row
    sets (V, n, l) and return (V, n, 1). Each set goes to a matrix
    product of its own, so every slice is bitwise its own call's; one
    (V*n, l) batch is not, since BLAS sums a row's products in an order
    that depends on the number of rows. A stacked scaler of P parameter
    sets takes a (P, n, l) stack and scores row set p with set p.
    Untaped calls run numkit's value kernels on plain arrays; taped
    ones record the nodes that call those kernels.
    """
    fv = nk.value_of(features)
    single = fv.ndim == 1
    if single:
        features = nk.reshape(features, (1, fv.shape[0]))
        fv = nk.value_of(features)
    if tape is None:
        g = _g(scaler, fv)
    else:
        _check_features(scaler.w1, fv)
        p = nk.leaves(scaler.to_named(), tape)
        h = nk.relu(nk.affine(features, p["metric.scaler.w1"], p["metric.scaler.b1"]))
        h = nk.affine(h, p["metric.scaler.w2"], p["metric.scaler.b2"])
        g = nk.calibrated_sigmoid(h, p["metric.scaler.alpha"], p["metric.scaler.beta"])
    return nk.reshape(g, ()) if single else g


@dataclass(frozen=True)
class MetricSpec:
    """A distance kind with exactly the parameters that kind needs.

    ``s`` is a float, or a (P,) array for P parameter sets; a stacked
    scaler likewise holds P sets (see :attr:`stack`).
    """

    kind: str
    s: float | np.ndarray | None = None
    scaler: ScalerParams | None = None

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ContractError(f"unknown metric kind {self.kind!r}")
        if self.kind == "scaled":
            if self.s is None or self.scaler is not None:
                raise ContractError("scaled kind takes s and nothing else")
            if np.ndim(self.s) > 1:
                raise ContractError("s must be a scalar, or one per parameter set")
            if not np.all(np.isfinite(self.s)):
                raise DomainError("s must be finite")
        elif self.kind in ("instance", "pair"):
            if self.scaler is None or self.s is not None:
                raise ContractError(f"{self.kind} kind takes a scaler and nothing else")
        elif self.s is not None or self.scaler is not None:
            raise ContractError("euclid kind takes no parameters")

    @property
    def stack(self) -> tuple[int, ...] | None:
        """Leading shape of the parameter sets; None for euclid, which has none."""
        if self.kind == "scaled":
            return np.shape(self.s)
        return None if self.scaler is None else self.scaler.stack

    @staticmethod
    def euclid() -> "MetricSpec":
        return MetricSpec(kind="euclid")

    @staticmethod
    def scaled(s: float = 7.5) -> "MetricSpec":
        return MetricSpec(kind="scaled", s=float(s))

    @staticmethod
    def instance(dim: int, rng: np.random.Generator, **init) -> "MetricSpec":
        return MetricSpec(kind="instance", scaler=ScalerParams.init(dim, rng, **init))

    @staticmethod
    def pair(dim: int, rng: np.random.Generator, **init) -> "MetricSpec":
        return MetricSpec(kind="pair", scaler=ScalerParams.init(2 * dim, rng, **init))

    def to_named(self) -> dict[str, np.ndarray]:
        if self.kind == "scaled":
            return {"metric.s": np.asarray(self.s, dtype=np.float64)}
        if self.scaler is not None:
            return self.scaler.to_named()
        return {}

    @staticmethod
    def from_named(kind: str, named: dict[str, np.ndarray]) -> "MetricSpec":
        if kind == "euclid":
            return MetricSpec.euclid()
        if kind == "scaled":
            s = np.asarray(named["metric.s"], dtype=np.float64)
            return MetricSpec(kind="scaled", s=float(s) if s.ndim == 0 else s)
        return MetricSpec(kind=kind, scaler=ScalerParams.from_named(named))


class _QueryTerms(NamedTuple):
    """A query row set prepared for distances by expansion about ``centre``.

    ``rows`` are the compared query rows minus the centre, C-ordered;
    ``sq_norms`` are their squared norms; ``centre`` is the mean of the
    compared prototype rows the terms were prepared about, (..., 1, l);
    ``raw`` are the query rows as given, which the pair kind's g reads.
    """

    rows: np.ndarray
    sq_norms: np.ndarray
    centre: np.ndarray
    raw: np.ndarray


def _compared(spec: MetricSpec, x: np.ndarray) -> np.ndarray:
    """The rows that ``spec`` compares in place of plain rows ``x``: the rows
    themselves for ``euclid``/``scaled``, the unit rows divided by g for
    ``instance``, the unit rows for ``pair``, whose g sees whole pairs."""
    if spec.kind == "instance":
        return nk._unit_rows_value(x, _NORM_FLOOR)[0] / _g(spec.scaler, x)
    if spec.kind == "pair":
        return nk._unit_rows_value(x, _NORM_FLOOR)[0]
    return x


def _compared_rows(spec: MetricSpec, x, tape: nk.Tape):
    """:func:`_compared`'s rows of ``x`` recorded on ``tape``."""
    if spec.kind == "instance":
        return nk.div(nk.unit_rows(x, _NORM_FLOOR), scaler_eval(spec.scaler, x, tape))
    if spec.kind == "pair":
        return nk.unit_rows(x, _NORM_FLOOR)
    return x


def _terms(spec: MetricSpec, a: np.ndarray, compared: np.ndarray) -> _QueryTerms:
    """The query side of ``spec``'s distances: plain rows ``a`` prepared about
    c, the mean of the ``compared`` prototype rows.

    The terms hold the compared rows of ``a`` (see :func:`_compared`)
    centred on c, with their squared norms. A refinement loop prepares
    them once per row set about its step-0 prototypes, which the support
    set alone determines, and every step's :func:`_distances` expands
    about that fixed c. Later prototypes, weighted means of the same
    rows, stay near c, and no query row enters it, so each query row's
    distances are independent of the others. The compared rows are an
    argument of the subtraction alone, so numpy frees them before the
    squares are made.
    """
    centre = nk._centre(compared)
    rows = np.subtract(_compared(spec, a), centre, order="C")
    return _QueryTerms(rows, np.square(rows).sum(axis=-1), centre, a)


def _distances(spec: MetricSpec, terms: _QueryTerms, pv: np.ndarray, compared: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Distances from prepared query rows to plain prototype rows ``pv``, ways-major.

    Entry (..., j, i) is d(a_i, b_j) for the query rows a that ``terms``
    were prepared from: (..., m, n) for (..., m, l) ``pv``, whose compared
    rows are ``compared``, expanded about the terms' centre (see
    :func:`numkit.expand_centred`). ``out`` (C-ordered, (..., m, n))
    receives them.
    """
    b_c = np.subtract(compared, terms.centre, order="C")
    d = nk.expand_centred(terms.rows, terms.sq_norms, b_c, b_major=True, out=out)
    if spec.kind == "scaled":
        d *= np.reshape(spec.s, (-1, 1, 1)) if spec.stack else spec.s
    elif spec.kind == "pair":
        # g row-major, as taped pairwise records it, then transposed
        n, k = terms.rows.shape[-2], pv.shape[-2]
        g = _g(spec.scaler, nk._pair_rows_value(terms.raw, pv)).reshape(*pv.shape[:-2], n, k)
        d /= np.swapaxes(np.multiply(g, g, out=g), -1, -2)
    return d


def pairwise(spec: MetricSpec, a, b, tape: nk.Tape | None = None):
    """Distance matrix between row sets: entry (i, j) = d(a_i, b_j).

    ``a`` is the query side and ``b`` the prototype side; the pair kind
    consumes concatenations in exactly that order. Untaped, this is the
    C-ordered transpose of ``_distances``, the ways-major distances
    refinement computes. It takes stacks, (V, n, l) against (V, m, l),
    every slice bitwise its own call, and a spec of P sets scores row
    set p with set p. On a tape it records the same values for (n, l)
    row sets and one parameter set. Identical rows map to a tiny
    non-negative number. Other shapes are a :class:`ContractError`.
    """
    av, bv = nk.value_of(a), nk.value_of(b)
    if (av.ndim not in (2, 3) or bv.ndim != av.ndim
            or av.shape[:-2] != bv.shape[:-2] or av.shape[-1] != bv.shape[-1]):
        raise ContractError("pairwise expects row sets of one embedding width")
    if tape is None:
        _check_stack(spec.stack, av, bv)
        compared = _compared(spec, bv)
        d = _distances(spec, _terms(spec, av, compared), bv, compared)
        return np.ascontiguousarray(np.swapaxes(d, -1, -2))
    if av.ndim != 2 or spec.stack:
        raise ContractError("only plain (n, l) row sets and one parameter set are differentiated")

    rows_a, rows_b = _compared_rows(spec, a, tape), _compared_rows(spec, b, tape)
    if spec.kind == "pair":
        # one g per (query, prototype) combination, recorded before the distance
        g = nk.reshape(scaler_eval(spec.scaler, nk.pair_rows(a, b), tape), (av.shape[0], bv.shape[0]))
        return nk.div(nk.expanded_sq_dist(rows_a, rows_b), nk.mul(g, g))
    d = nk.expanded_sq_dist(rows_a, rows_b)
    if spec.kind == "scaled":
        d = nk.mul(nk.leaves(spec.to_named(), tape)["metric.s"], d)
    return d
