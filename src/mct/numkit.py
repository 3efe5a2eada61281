"""Dense float64 kernels and a reverse-mode differentiation tape.

Everything here operates on plain numpy arrays. Differentiation is
define-by-run: a :class:`Tape` records one entry per primitive applied to
a tracked :class:`Var`, and :func:`grad` replays the records in reverse
exactly once. Every primitive returns through one recorder,
:func:`_apply`: untaped it hands back the plain result, and on a tape
it appends the primitive's one record, so forward code is written once
and runs in both modes. One shape rule holds for the matrix primitives:
2-D operands on a tape, and untaped also stacks of them.

Graphs stay small because the primitives are batched (whole support or
query sets per call), so the tape is rebuilt for every loss evaluation
rather than cached. A Var lives only as long as its tape: the tape's
records hold their Vars and a Var refers to its tape weakly, so a tape
and all it recorded are freed by reference counting the moment its
caller drops it, with no cycle for the garbage collector to find.

Five fused primitives each record one node for a group the model's hot
path would otherwise build from several: :func:`cross_entropy`,
:func:`affine` (x @ w + b), :func:`unit_rows` (row normalization),
:func:`calibrated_sigmoid` (exp(alpha) * sigmoid(h) + exp(beta)) and
:func:`pair_rows` (every pair of rows of two sets, concatenated). Each
runs the numpy operations of that group in the group's order, forward
and backward, so its value and gradients are bitwise those of the
composition; the tests build that composition from elementary tape ops
and compare against it.

Evaluation runs on plain arrays, off the tape and past the recorder.
The forward arithmetic it shares with the tape is written once, as value
kernels on plain arrays that the taped nodes call in turn:
:func:`_affine_value`, :func:`_unit_rows_value` with its norm-floor
check, :func:`_calibrated_sigmoid_value` over :func:`_sigmoid_value`,
:func:`_softmax_neg_value` with its checks, :func:`_pair_rows_value`,
and the expansion's :func:`_centre` and :func:`expand_centred`. Each
raises its node's errors with its node's text, and the ones a hot loop
calls take ``out=``, so that a caller can compute into temporaries it
made once, or in place.

One more node, :func:`expanded_sq_dist`, is *not* bitwise a composition.
It is the tape's all-pairs squared distance: expansion about the mean of
the compared rows, one matrix product forward and two backward, so its
values and gradients match the difference composition only to rounding,
and identical rows may map to a tiny non-negative number. Off the tape,
evaluation runs its kernels ways-major, every entry bitwise the
transposed row-major one, and :func:`_softmax_neg_value` on that layout.

The class axis follows one layout rule. numpy sums an axis of fewer
than 8 entries one entry after another in any layout, and a contiguous
last axis pairwise from 8 on. So :func:`cross_entropy` and
:func:`softmax_neg` lay a last class axis of fewer than 8 entries
outermost: the maximum or minimum, the shift, exp, the class sums and
the divide each become one vectorized pass over every row instead of a
short loop per row, and every bit is the row-major code's. They hand
back C-ordered row-major arrays, since a matrix product downstream
rounds by its operands' layout. From 8 classes on, a last class axis
keeps the row-major code.

Bitwise equality also needs the adjoint order kept. :func:`grad` sums
the contributions to a Var as ``prev + gi`` in the order it meets them,
and float addition is not associative. So a fused node gives each input
as many contributions, in the same order, as the group did: an input
that entered the group twice is listed twice among the node's inputs,
as ``mul(x, x)`` lists x. No backward writes into an array saved from
the forward pass, since ``grad`` may run more than once on one tape.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable

import numpy as np

from .errors import ContractError, DomainError

# numpy sums a contiguous axis of fewer entries than this one entry after
# another, and from this many on pairwise; a property of numpy, not a knob
_SEQUENTIAL_BELOW = 8

__all__ = [
    "Tape",
    "Var",
    "grad",
    "leaves",
    "value_of",
    "add",
    "mul",
    "div",
    "neg",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "relu",
    "asum",
    "flip_last",
    "softmax_neg",
    "expand_centred",
    "expanded_sq_dist",
    "pair_rows",
    "cross_entropy",
    "affine",
    "unit_rows",
    "calibrated_sigmoid",
]


# --------------------------------------------------------------------------
# Tape and tracked variables
# --------------------------------------------------------------------------

# One record per primitive: (output, inputs that are Vars, backward closure).
# The closure maps the output adjoint to one adjoint per recorded input.
_Record = tuple["Var", tuple["Var", ...], Callable[[np.ndarray], tuple]]


class Var:
    """A value tracked on a :class:`Tape`.

    A Var lives only as long as its tape. It holds the tape through a
    weak reference, while the tape's records hold their Vars, so a tape
    and everything recorded on it are freed as soon as the caller drops
    the tape, with no cycle left for the garbage collector. Using a Var
    whose tape is gone is a :class:`ContractError`; ``value`` stays
    readable.

    A Var has no arithmetic operators: the functions of this module are
    the one way to combine values, tracked or plain. ``__array_ufunc__``
    is disabled so that ``ndarray * Var`` raises ``TypeError`` as
    ``Var * ndarray`` does, instead of numpy building an object array.
    """

    __slots__ = ("value", "_tape")
    __array_ufunc__ = None

    def __init__(self, value: np.ndarray, tape: "Tape"):
        self.value = value
        self._tape = tape._ref

    @property
    def tape(self) -> "Tape":
        return _live(self._tape)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Var(shape={self.value.shape})"


class Tape:
    """Reverse-mode record of the primitives applied to tracked values.

    Records are appended in execution order, so every node's inputs
    precede it and a single reverse sweep visits each node exactly once.
    A tape is single-threaded; concurrent training needs one per worker.
    """

    def __init__(self):
        self._ref = weakref.ref(self)
        self._records: list[_Record] = []
        self._params: list[Var] = []
        self._named: dict[str, Var] = {}

    def param(self, value, name: str | None = None) -> Var:
        """Track ``value`` as a parameter leaf (a gradient target).

        A ``name`` makes the leaf shared: asking again for the same name
        returns the same Var, so a parameter used by several forward
        passes on one tape accumulates one gradient. The value must
        match on reuse; the very array the leaf holds matches without a
        comparison.
        """
        if name is not None and name in self._named:
            existing = self._named[name]
            if value is not existing.value and not np.array_equal(
                existing.value, np.asarray(value, dtype=np.float64)
            ):
                raise ContractError(f"param {name!r} reused with a different value")
            return existing
        v = Var(np.asarray(value, dtype=np.float64), self)
        self._params.append(v)
        if name is not None:
            self._named[name] = v
        return v

    @property
    def named_params(self) -> dict[str, Var]:
        return dict(self._named)

    def __len__(self) -> int:
        return len(self._records)


def grad(tape: Tape, loss) -> dict[Var, np.ndarray]:
    """Gradients of a scalar ``loss`` for every parameter leaf of ``tape``.

    Parameters that the loss does not depend on get exact zeros. The loss
    must be a tracked scalar (size one) on this tape.
    """
    if not isinstance(loss, Var) or loss._tape is not tape._ref:
        raise ContractError("loss must be a Var recorded on this tape")
    if loss.value.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.value.shape}")
    adjoints: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.value)}
    for out, inputs, backward in reversed(tape._records):
        g = adjoints.pop(id(out), None)
        if g is None:
            continue
        for v, gi in zip(inputs, backward(g)):
            prev = adjoints.get(id(v))
            adjoints[id(v)] = gi if prev is None else prev + gi
    return {
        p: adjoints[id(p)] if id(p) in adjoints else np.zeros_like(p.value)
        for p in tape._params
    }


def leaves(named: dict[str, np.ndarray], tape: Tape | None) -> dict:
    """A parameter group's tensors as one forward pass reads them.

    ``named`` is the group's ``to_named()`` dict. Untaped, it comes back
    as it is; on a tape, each array becomes the tape's shared leaf of
    its name (see :meth:`Tape.param`), so every pass that reads the group
    on one tape feeds one gradient per tensor.
    """
    if tape is None:
        return named
    return {name: tape.param(value, name=name) for name, value in named.items()}


# --------------------------------------------------------------------------
# Primitive plumbing
# --------------------------------------------------------------------------


def value_of(x) -> np.ndarray:
    """The ndarray behind ``x``, whether tracked or plain."""
    if isinstance(x, Var):
        return x.value
    return np.asarray(x, dtype=np.float64)


def _live(ref: weakref.ref) -> Tape:
    tape = ref()
    if tape is None:
        raise ContractError("a Var lives only as long as its tape, and this one's tape is gone")
    return tape


def _tape_of(*args) -> Tape | None:
    ref = None
    for a in args:
        if isinstance(a, Var):
            if ref is None:
                ref = a._tape
            elif a._tape is not ref:
                raise ContractError("operands belong to different tapes")
    return None if ref is None else _live(ref)


def _as_var(x, tape: Tape) -> Var:
    if isinstance(x, Var):
        return x
    return Var(np.asarray(x, dtype=np.float64), tape)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _apply(out_value, inputs, backward, tape: Tape | None):
    """The one exit of every primitive: ``out_value`` untaped, else its recorded Var.

    On a tape, ``inputs`` become Vars (plain ones constant leaves) in the
    order ``backward`` returns their adjoints. An empty tape is falsy.
    """
    if tape is None:
        return out_value
    out = Var(out_value, tape)
    tape._records.append((out, tuple(_as_var(x, tape) for x in inputs), backward))
    return out


def _matrices(name: str, tape: Tape | None, *values: np.ndarray) -> None:
    """The shape rule: 2-D operands on a tape; untaped, stacks of them too."""
    for v in values:
        if v.ndim < 2 or (tape is not None and v.ndim != 2):
            raise ContractError(f"{name} expects a 2-D operand (or, untaped, a stack of them)")


def _unary(x, fwd, make_backward):
    tape = _tape_of(x)
    xv = value_of(x)
    out = fwd(xv)
    return _apply(out, (x,), make_backward(xv, out), tape)


def _binary(a, b, fwd, make_backward):
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    out = fwd(av, bv)
    return _apply(out, (a, b), make_backward(av, bv, out), tape)


# --------------------------------------------------------------------------
# Arithmetic
# --------------------------------------------------------------------------


def add(a, b):
    return _binary(a, b, np.add, lambda av, bv, out: (
        lambda g: (_unbroadcast(g, av.shape), _unbroadcast(g, bv.shape))
    ))


def mul(a, b):
    return _binary(a, b, np.multiply, lambda av, bv, out: (
        lambda g: (_unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape))
    ))


def div(a, b):
    return _binary(a, b, np.divide, lambda av, bv, out: (
        lambda g: (
            _unbroadcast(g / bv, av.shape),
            _unbroadcast(-g * av / (bv * bv), bv.shape),
        )
    ))


def neg(x):
    return _unary(x, lambda v: -v, lambda xv, out: (lambda g: (-g,)))


def matmul(a, b):
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    _matrices("matmul", tape, av, bv)

    def backward(g):
        return g @ bv.T, av.T @ g

    return _apply(av @ bv, (a, b), backward, tape)


def transpose(x):
    """Swap the last two axes; untaped calls also take stacks of matrices."""
    tape = _tape_of(x)
    xv = value_of(x)
    _matrices("transpose", tape, xv)
    return _apply(np.ascontiguousarray(np.swapaxes(xv, -1, -2)), (x,), lambda g: (g.T,), tape)


def reshape(x, shape):
    tape = _tape_of(x)
    xv = value_of(x)
    return _apply(xv.reshape(shape), (x,), lambda g: (g.reshape(xv.shape),), tape)


def concat(parts: Iterable, axis: int = -1):
    parts = list(parts)
    tape = _tape_of(*parts)
    values = [value_of(p) for p in parts]

    def backward(g):
        splits = np.cumsum([v.shape[axis] for v in values])[:-1]
        return tuple(np.split(g, splits, axis=axis))

    return _apply(np.concatenate(values, axis=axis), parts, backward, tape)


def flip_last(x):
    """Reverse along the last axis (its own inverse)."""
    return _unary(
        x,
        lambda v: np.flip(v, axis=-1),
        lambda xv, out: (lambda g: (np.flip(g, axis=-1),)),
    )


# --------------------------------------------------------------------------
# Elementwise nonlinearities
# --------------------------------------------------------------------------


def relu(x):
    return _unary(
        x,
        lambda v: np.maximum(v, 0.0),
        lambda xv, out: (lambda g: (g * (xv > 0.0),)),
    )


def _sigmoid_value(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so no exp overflows.

    Both branches read e = exp(min(x, -x)), which is exp(-x) or exp(x)
    on its side, and share the denominator 1 + e; ``where`` picks the
    numerator, 1 or e, per entry: no boolean mask, no gather and no
    scatter, and the bits of a masked evaluation of the two forms, for
    ±0, ±inf and nan of either sign too (``minimum`` passes its first
    nan on, where -|x| would flip a nan's sign).
    """
    e = np.negative(x, out=np.empty_like(x))
    np.exp(np.minimum(x, e, out=e), out=e)
    top = np.where(x >= 0, 1.0, e)
    e += 1.0
    return np.divide(top, e, out=top)


# --------------------------------------------------------------------------
# Reductions
# --------------------------------------------------------------------------


def _expand_reduced(g: np.ndarray, shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    if not keepdims:
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape)


def asum(x, axis=None, keepdims: bool = False):
    """Sum over ``axis`` (all axes when None)."""
    tape = _tape_of(x)
    xv = value_of(x)

    def backward(g):
        return (_expand_reduced(g, xv.shape, axis, keepdims).copy(),)

    return _apply(xv.sum(axis=axis, keepdims=keepdims), (x,), backward, tape)


def _classes_first(x: np.ndarray) -> np.ndarray:
    """A C-ordered copy of ``x`` with its last (class) axis moved outermost.

    Only for fewer than ``_SEQUENTIAL_BELOW`` classes, where numpy adds
    the entries of a class axis one after another in either layout, so
    every reduction over axis 0 of the copy is bitwise the row-major
    one along the last axis, as one vectorized pass per class instead
    of a short inner loop per row. :func:`_classes_last` undoes it.
    Always a copy, even where the moved view is contiguous already (a
    length-1 axis), so callers may overwrite it.
    """
    return np.moveaxis(x, -1, 0).copy()


def _classes_last(x: np.ndarray) -> np.ndarray:
    """The C-ordered row-major array of a :func:`_classes_first` layout.

    A view in the moved layout would keep the values but not the bits
    downstream: a matrix product's rounding depends on its operands'
    memory layout.
    """
    return np.ascontiguousarray(np.moveaxis(x, 0, -1))


def _softmax_neg_value(d: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`softmax_neg`'s checks and arithmetic on a plain array, along ``axis``.

    Evaluation runs it ways-major, ``axis=-2``: for fewer than 8 classes
    that is bitwise the transposed last-axis result, and from 8 on, where
    numpy sums a last axis pairwise, equal to the last bits only.
    ``out`` receives the probabilities along any axis but a short last
    one, whose class-major copy (see :func:`_classes_first`) holds them
    instead; it may be ``d`` itself, which is then spent.
    """
    if d.ndim == 0 or d.shape[axis] == 0:
        raise ContractError("softmax_neg needs at least one entry")
    if not np.isfinite(d).all():
        raise DomainError("softmax_neg input must be finite")
    last = axis % d.ndim == d.ndim - 1
    short = last and d.shape[-1] < _SEQUENTIAL_BELOW
    if short:
        # below 8 classes, the ways-major path on a class-major copy ours to overwrite
        d = out = _classes_first(d)
        axis = 0
    # the shift is the row minimum m of d: m - d is (-d) - max(-d) bit for bit
    if last and not short:
        ways = d.shape[-1]
        m = np.minimum.reduce(d.reshape(-1, ways).T.copy(), axis=0)
        m = m.reshape(*d.shape[:-1], 1)
    else:
        m = np.minimum.reduce(d, axis=axis, keepdims=True)
    out = np.subtract(m, d, out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return _classes_last(out) if short else out


def softmax_neg(distances):
    """Probabilities exp(-d_c) / sum_c' exp(-d_c') along the last axis, the class axis.

    Shifted by the row minimum, so adding a constant to every entry of a
    row leaves the output bit-identical, and the exponents are bitwise
    -d - max(-d). Rows sum to one. Fewer than 8 classes are computed
    class-major (see :func:`_classes_first`) and returned as a C-ordered
    row-major array with the row-major bits.
    An empty class axis is a :class:`ContractError`, non-finite input
    a :class:`DomainError`. The arithmetic is :func:`_softmax_neg_value`,
    which evaluation calls on its own ways-major distances in place.
    """
    tape = _tape_of(distances)
    out = _softmax_neg_value(value_of(distances))

    def backward(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (-out * (g - inner),)

    return _apply(out, (distances,), backward, tape)


# --------------------------------------------------------------------------
# Fused primitives: one node each for a group of the primitives above
# --------------------------------------------------------------------------


def _centre(b: np.ndarray) -> np.ndarray:
    """Every expansion's centre c, (..., 1, l): the mean of ``b``'s rows. No rows
    centre on the origin, since their mean would warn and its nan reach the gradients."""
    return b.mean(axis=-2, keepdims=True) if b.shape[-2] else np.zeros((*b.shape[:-2], 1, b.shape[-1]))


def expand_centred(
    a_c: np.ndarray, a_sq: np.ndarray, b_c: np.ndarray, *, b_major: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """All-pairs squared distances from rows centred about one c.

    ``|a - c|^2 + |b - c|^2 - 2 (a - c)(b - c)^T``, clamped at 0, with
    one matrix product per row set. ``a_c`` and ``b_c`` are the rows
    minus c as fresh C-ordered arrays (``np.subtract(x, c,
    order="C")``), so a view with negative strides, or a column-major
    one, gives the bits of its contiguous copy, and every row set of a
    stack those of its own call; ``a_sq`` is ``np.square(a_c).sum(-1)``.
    ``b_c`` is spent, squared in place once the product has read it.
    Centring makes the rounding scale with the spread of the rows about
    c, eps * (|a - c|^2 + |b - c|^2), not with their distance from the
    origin.

    The result is (..., n, m), or with ``b_major`` (..., m, n), b's rows
    outermost: the product is then ``b_c`` against a transposed view of
    ``a_c`` (a contiguous transposed copy takes another BLAS kernel and
    other bits), and every entry adds a's square before b's, so it is
    bitwise the (..., n, m) one's. ``out``, C-ordered and of the
    result's shape, receives the distances in place of a new array.
    """
    if b_major:
        d = np.matmul(b_c, np.swapaxes(a_c, -1, -2), out=out)
        a_sq = a_sq[..., None, :]
    else:
        d = np.matmul(a_c, np.swapaxes(b_c, -1, -2), out=out)
        a_sq = a_sq[..., :, None]
    d *= -2.0
    d += a_sq
    b_sq = np.square(b_c, out=b_c).sum(axis=-1)
    d += b_sq[..., :, None] if b_major else b_sq[..., None, :]
    return np.maximum(d, 0.0, out=d)


def expanded_sq_dist(a, b):
    """All-pairs squared distances by expansion about c, the mean of ``b``'s rows.

    ``out[..., i, j] = |a_i - b_j|^2`` by :func:`_centre` and
    :func:`expand_centred`, the kernels untaped distances run; not
    bitwise any composition (see the module docstring). ``a`` is
    (..., n, l) and ``b`` (..., m, l), one centre per row set; taped
    calls take plain (n, l) row sets, and every slice of an untaped
    stack is bitwise its own call. Taking c from ``b`` alone keeps each
    row of ``a`` independent of the others. No rows in ``b`` give an
    (..., n, 0) result.

    The exact distance does not depend on c, so the backward holds c
    constant: ``ga = 2 (rowsum(g) (a - c) - g (b - c))`` and
    ``gb = 2 (colsum(g) (b - c) - g^T (a - c))``, two matrix products
    and no (n, m, l) array.
    """
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    _matrices("expanded_sq_dist", tape, av, bv)
    if av.shape[-1] != bv.shape[-1]:
        raise ContractError(f"expanded_sq_dist needs rows of one width, got {av.shape} and {bv.shape}")
    centre = _centre(bv)
    a_c, b_c = np.subtract(av, centre, order="C"), np.subtract(bv, centre, order="C")
    # expand_centred spends its b_c, and the backward reads b_c
    out = expand_centred(a_c, np.square(a_c).sum(axis=-1), b_c.copy())

    def backward(g):
        gb = g.sum(axis=0)[:, None] * b_c
        gb -= g.T @ a_c
        gb *= 2.0
        ga = g.sum(axis=1)[:, None] * a_c
        ga -= g @ b_c
        ga *= 2.0
        return gb, ga

    # b first, the order in which the difference composition's adjoints arrive
    return _apply(out, (b, a), backward, tape)


def _pair_rows_value(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`pair_rows` on plain arrays: one broadcast fill of every (a_i, b_j) row."""
    lead, (n, la), (m, lb) = a.shape[:-2], a.shape[-2:], b.shape[-2:]
    out = np.empty((*lead, n, m, la + lb))
    out[..., :la] = a[..., :, None, :]
    out[..., la:] = b[..., None, :, :]
    return out.reshape(*lead, n * m, la + lb)


def pair_rows(a, b):
    """Every pair of rows, concatenated: row i*m + j is a's row i followed by b's row j.

    ``a`` is (n, la) and ``b`` (m, lb); untaped calls also take stacks of
    them, every slice bitwise its own call. One node for the concat of
    ``a``'s rows each repeated m times and n stacked copies of ``b``, with
    that composition's value and gradients: b's adjoint, the copies
    summed, comes back before a's, the repeats summed.
    """
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    _matrices("pair_rows", tape, av, bv)

    def backward(g):
        (n, la), (m, lb) = av.shape, bv.shape
        return g[:, la:].reshape(n, m, lb).sum(axis=0), g[:, :la].reshape(n, m, la).sum(axis=1)

    return _apply(_pair_rows_value(av, bv), (b, a), backward, tape)


def cross_entropy(logits, targets):
    """Mean over rows of ``logsumexp(logits_i) - <logits_i, targets_i>``.

    ``targets`` is a constant (n, c) array, one-hot rows for the usual
    classification loss. Replaces mul, asum, logsumexp, sub and mean.
    The logits enter that group twice, so the node lists them twice:
    logsumexp's adjoint first, then the product's. An empty class axis
    is a :class:`ContractError`, and so is an empty row axis, whose mean
    has no value; non-finite logits are a :class:`DomainError`.
    Untaped calls also take a stack of P logit sets, (P, n, c) against
    the same (n, c) targets, and return the P losses, each bitwise its
    own call's. Fewer than 8 classes run class-major (see
    :func:`_classes_first`): one copy of the logits and one buffer for
    the products and then the shifted exponentials, with the row-major
    bits, since numpy adds so few entries in order in either layout.
    """
    if isinstance(targets, Var):
        raise ContractError("cross_entropy targets must be constant")
    tape = _tape_of(logits)
    lv, tv = value_of(logits), value_of(targets)
    if (lv.ndim not in (2, 3) or (tape is not None and lv.ndim != 2)
            or tv.shape != lv.shape[-2:]):
        raise ContractError(
            f"cross_entropy expects (n, c) logits and targets, got {lv.shape} and {tv.shape}"
        )
    if lv.shape[-1] == 0:
        raise ContractError("cross_entropy needs at least one class")
    if lv.shape[-2] == 0:
        raise ContractError("cross_entropy needs at least one row")
    if not np.all(np.isfinite(lv)):
        raise DomainError("cross_entropy logits must be finite")
    if lv.shape[-1] < _SEQUENTIAL_BELOW:
        x, axis = _classes_first(lv), 0
        # one buffer holds the products, then the shifted exponentials
        shifted = np.multiply(x, tv.T if lv.ndim == 2 else tv.T[:, None, :])
        true_logit = shifted.sum(axis=0)
        m = x.max(axis=0, keepdims=True)
        np.exp(np.subtract(x, m, out=shifted), out=shifted)
    else:
        axis = -1
        true_logit = (lv * tv).sum(axis=-1)
        m = lv.max(axis=-1, keepdims=True)
        shifted = np.exp(lv - m)
    total = shifted.sum(axis=axis, keepdims=True)
    lse = np.squeeze(m + np.log(total), axis=axis)
    out = (lse - true_logit).mean(axis=-1)
    if tape is None:  # the saved softmax is taped-only work
        return out
    softmax = shifted / total
    if axis == 0:
        softmax = _classes_last(softmax)

    def backward(g):
        g_rows = np.broadcast_to(g, lse.shape) / lse.size
        return g_rows[:, None] * softmax, -g_rows[:, None] * tv

    return _apply(out, (logits, logits), backward, tape)


def _affine_value(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`affine`'s arithmetic on plain arrays: ``x @ w``, then ``b`` added in place."""
    out = x @ w
    out += b if w.ndim == 2 else b[..., None, :]
    return out


def affine(x, w, b):
    """``x @ w + b``: one node for a matmul and its bias add.

    ``w`` is 2-D and ``b`` broadcasts over the rows. Untaped calls also
    take a stack of row sets, as :func:`matmul` does, and a stack of P
    weight sets, (P, d, h) with (P, h) biases: row set p (or the one
    shared row set) meets weight set p in a matrix product of its own.
    """
    tape = _tape_of(x, w, b)
    xv, wv, bv = value_of(x), value_of(w), value_of(b)
    _matrices("affine", tape, xv, wv)
    out = _affine_value(xv, wv, bv)

    def backward(g):
        return _unbroadcast(g, bv.shape), g @ wv.T, xv.T @ g

    # the add's adjoint reached b before the matmul's reached x and w
    return _apply(out, (b, x, w), backward, tape)


def _unit_rows_value(x: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`unit_rows`' arithmetic on a plain array: the unit rows and the norms.

    The norms are computed once, for the floor check and the division;
    a norm below ``floor`` is a :class:`DomainError`.
    """
    norms = np.multiply(x, x).sum(axis=-1, keepdims=True)
    np.sqrt(norms, out=norms)
    if (norms < floor).any():
        raise DomainError(f"cannot normalize rows with norm below {floor}")
    return x / norms, norms


def unit_rows(x, floor: float):
    """Rows of ``x`` (along the last axis) scaled to unit Euclidean norm.

    A row whose norm is below ``floor`` is a :class:`DomainError`; the
    norms are computed once, for that check and the division. Replaces
    mul(x, x), asum, sqrt and div. x enters that group three times, so
    the node lists it three times: the dividend's adjoint first, then
    the square's two.
    """
    tape = _tape_of(x)
    xv = value_of(x)
    out, norms = _unit_rows_value(xv, floor)

    def backward(g):
        g_norms = _unbroadcast(-g * xv / (norms * norms), norms.shape)
        square = _expand_reduced(g_norms * 0.5 / norms, xv.shape, -1, True) * xv
        return g / norms, square, square

    return _apply(out, (x, x, x), backward, tape)


def _calibrated_sigmoid_value(
    h: np.ndarray, ea: np.ndarray, eb: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`calibrated_sigmoid`'s arithmetic from ``ea = exp(alpha)`` and ``eb = exp(beta)``.

    Returns the value and sigmoid(h). ``out`` receives the value and may
    be ``h`` itself, since the sigmoid is a new array.
    """
    sig = _sigmoid_value(h)
    out = np.multiply(ea, sig, out=out)
    out += eb
    return out, sig


def calibrated_sigmoid(h, alpha, beta):
    """``exp(alpha) * sigmoid(h) + exp(beta)`` for scalar ``alpha``, ``beta``.

    Strictly positive for every parameter setting. Replaces exp, sigmoid,
    mul, exp and add.
    """
    tape = _tape_of(h, alpha, beta)
    hv, av, bv = value_of(h), value_of(alpha), value_of(beta)
    ea, eb = np.exp(av), np.exp(bv)
    out, sig = _calibrated_sigmoid_value(hv, ea, eb)

    def backward(g):
        return (
            _unbroadcast(g, bv.shape) * eb,
            g * ea * sig * (1.0 - sig),
            _unbroadcast(g * sig, av.shape) * ea,
        )

    # the group's backward reached beta's exp, then the sigmoid, then alpha's exp
    return _apply(out, (beta, h, alpha), backward, tape)
