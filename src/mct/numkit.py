"""Dense float64 kernels and a reverse-mode differentiation tape.

Everything here operates on plain numpy arrays. Differentiation is
define-by-run: a :class:`Tape` records one entry per primitive applied to
a tracked :class:`Var`, and :func:`grad` replays the records in reverse
exactly once. When no tape is involved the same primitives fall through
to raw numpy, so forward code is written once and runs in both modes.

Graphs stay small because the primitives are batched (whole support or
query sets per call), so the tape is rebuilt for every loss evaluation
rather than cached.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import ContractError, DomainError

__all__ = [
    "Tape",
    "Var",
    "grad",
    "value_of",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "relu",
    "sigmoid",
    "exp",
    "log",
    "sqrt",
    "asum",
    "mean",
    "flip_last",
    "repeat_rows",
    "tile_rows",
    "logsumexp",
    "softmax_neg",
]


# --------------------------------------------------------------------------
# Tape and tracked variables
# --------------------------------------------------------------------------

# One record per primitive: (output, inputs that are Vars, backward closure).
# The closure maps the output adjoint to one adjoint per recorded input.
_Record = tuple["Var", tuple["Var", ...], Callable[[np.ndarray], tuple]]


class Var:
    """A value tracked on a :class:`Tape`.

    Arithmetic on a Var records onto its tape and yields new Vars;
    arithmetic on plain arrays stays plain numpy. ``__array_ufunc__`` is
    disabled so that ``ndarray <op> Var`` defers to the reflected
    operators here instead of numpy broadcasting over the object.
    """

    __slots__ = ("value", "tape")
    __array_ufunc__ = None

    def __init__(self, value: np.ndarray, tape: "Tape"):
        self.value = value
        self.tape = tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Var(shape={self.value.shape})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)


class Tape:
    """Reverse-mode record of the primitives applied to tracked values.

    Records are appended in execution order, so every node's inputs
    precede it and a single reverse sweep visits each node exactly once.
    A tape is single-threaded; concurrent training needs one per worker.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._params: list[Var] = []
        self._named: dict[str, Var] = {}

    def param(self, value, name: str | None = None) -> Var:
        """Track ``value`` as a parameter leaf (a gradient target).

        A ``name`` makes the leaf shared: asking again for the same name
        returns the same Var, so a parameter used by several forward
        passes on one tape accumulates one gradient. The value must
        match on reuse.
        """
        if name is not None and name in self._named:
            existing = self._named[name]
            if not np.array_equal(existing.value, np.asarray(value, dtype=np.float64)):
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

    def _record(self, out: Var, inputs: tuple[Var, ...], backward) -> None:
        self._records.append((out, inputs, backward))


def grad(tape: Tape, loss) -> dict[Var, np.ndarray]:
    """Gradients of a scalar ``loss`` for every parameter leaf of ``tape``.

    Parameters that the loss does not depend on get exact zeros. The loss
    must be a tracked scalar (size one) on this tape.
    """
    if not isinstance(loss, Var) or loss.tape is not tape:
        raise ContractError("loss must be a Var recorded on this tape")
    if loss.value.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.value.shape}")
    adjoints: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.value)}
    for out, inputs, backward in reversed(tape._records):
        g = adjoints.pop(id(out), None)
        if g is None:
            continue
        for v, gi in zip(inputs, backward(g)):
            if gi is None:
                continue
            prev = adjoints.get(id(v))
            adjoints[id(v)] = gi if prev is None else prev + gi
    return {
        p: adjoints.get(id(p), np.zeros_like(p.value)) for p in tape._params
    }


# --------------------------------------------------------------------------
# Primitive plumbing
# --------------------------------------------------------------------------


def value_of(x) -> np.ndarray:
    """The ndarray behind ``x``, whether tracked or plain."""
    if isinstance(x, Var):
        return x.value
    return np.asarray(x, dtype=np.float64)


def _tape_of(*args) -> Tape | None:
    tape = None
    for a in args:
        if isinstance(a, Var):
            if tape is None:
                tape = a.tape
            elif a.tape is not tape:
                raise ContractError("operands belong to different tapes")
    return tape


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


def _apply(out_value, var_inputs: tuple[Var, ...], backward, tape: Tape | None):
    if tape is None:
        return out_value
    out = Var(out_value, tape)
    tape._record(out, var_inputs, backward)
    return out


def _unary(x, fwd, make_backward):
    tape = _tape_of(x)
    xv = value_of(x)
    out = fwd(xv)
    if tape is None:
        return out
    v = _as_var(x, tape)
    return _apply(out, (v,), make_backward(xv, out), tape)


# --------------------------------------------------------------------------
# Arithmetic
# --------------------------------------------------------------------------


def add(a, b):
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    out = av + bv
    if tape is None:
        return out
    va, vb = _as_var(a, tape), _as_var(b, tape)

    def backward(g):
        return _unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)

    return _apply(out, (va, vb), backward, tape)


def sub(a, b):
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    out = av - bv
    if tape is None:
        return out
    va, vb = _as_var(a, tape), _as_var(b, tape)

    def backward(g):
        return _unbroadcast(g, av.shape), _unbroadcast(-g, bv.shape)

    return _apply(out, (va, vb), backward, tape)


def mul(a, b):
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    out = av * bv
    if tape is None:
        return out
    va, vb = _as_var(a, tape), _as_var(b, tape)

    def backward(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return _apply(out, (va, vb), backward, tape)


def div(a, b):
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    out = av / bv
    if tape is None:
        return out
    va, vb = _as_var(a, tape), _as_var(b, tape)

    def backward(g):
        return (
            _unbroadcast(g / bv, av.shape),
            _unbroadcast(-g * av / (bv * bv), bv.shape),
        )

    return _apply(out, (va, vb), backward, tape)


def neg(x):
    return _unary(x, lambda v: -v, lambda xv, out: (lambda g: (-g,)))


def matmul(a, b):
    tape = _tape_of(a, b)
    av, bv = value_of(a), value_of(b)
    if av.ndim < 2 or bv.ndim < 2 or (tape is not None and (av.ndim, bv.ndim) != (2, 2)):
        raise ContractError("matmul expects 2-D operands (or, untaped, stacks of them)")
    out = av @ bv
    if tape is None:
        return out
    va, vb = _as_var(a, tape), _as_var(b, tape)

    def backward(g):
        return g @ bv.T, av.T @ g

    return _apply(out, (va, vb), backward, tape)


def transpose(x):
    tape = _tape_of(x)
    xv = value_of(x)
    if xv.ndim != 2:
        raise ContractError("transpose expects a 2-D operand")
    out = np.ascontiguousarray(xv.T)
    if tape is None:
        return out
    return _apply(out, (_as_var(x, tape),), lambda g: (g.T,), tape)


def reshape(x, shape):
    tape = _tape_of(x)
    xv = value_of(x)
    out = xv.reshape(shape)
    if tape is None:
        return out
    orig = xv.shape
    return _apply(out, (_as_var(x, tape),), lambda g: (g.reshape(orig),), tape)


def concat(parts: Iterable, axis: int = -1):
    parts = list(parts)
    tape = _tape_of(*parts)
    values = [value_of(p) for p in parts]
    out = np.concatenate(values, axis=axis)
    if tape is None:
        return out
    sizes = [v.shape[axis] for v in values]
    splits = np.cumsum(sizes)[:-1]
    vars_ = tuple(_as_var(p, tape) for p in parts)

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _apply(out, vars_, backward, tape)


def flip_last(x):
    """Reverse along the last axis (its own inverse)."""
    return _unary(
        x,
        lambda v: np.flip(v, axis=-1),
        lambda xv, out: (lambda g: (np.flip(g, axis=-1),)),
    )


def repeat_rows(x, k: int):
    """Repeat each row of a 2-D array ``k`` times (row i -> rows i*k..i*k+k-1)."""
    tape = _tape_of(x)
    xv = value_of(x)
    if xv.ndim != 2:
        raise ContractError("repeat_rows expects a 2-D operand")
    out = np.repeat(xv, k, axis=0)
    if tape is None:
        return out
    n, d = xv.shape

    def backward(g):
        return (g.reshape(n, k, d).sum(axis=1),)

    return _apply(out, (_as_var(x, tape),), backward, tape)


def tile_rows(x, k: int):
    """Stack ``k`` copies of a 2-D array vertically."""
    tape = _tape_of(x)
    xv = value_of(x)
    if xv.ndim != 2:
        raise ContractError("tile_rows expects a 2-D operand")
    out = np.tile(xv, (k, 1))
    if tape is None:
        return out
    n, d = xv.shape

    def backward(g):
        return (g.reshape(k, n, d).sum(axis=0),)

    return _apply(out, (_as_var(x, tape),), backward, tape)


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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x):
    return _unary(
        x,
        _sigmoid_value,
        lambda xv, out: (lambda g: (g * out * (1.0 - out),)),
    )


def exp(x):
    return _unary(x, np.exp, lambda xv, out: (lambda g: (g * out,)))


def log(x):
    return _unary(x, np.log, lambda xv, out: (lambda g: (g / xv,)))


def sqrt(x):
    return _unary(x, np.sqrt, lambda xv, out: (lambda g: (g * 0.5 / out,)))


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
    out = xv.sum(axis=axis, keepdims=keepdims)
    if tape is None:
        return out
    shape = xv.shape

    def backward(g):
        return (_expand_reduced(g, shape, axis, keepdims).copy(),)

    return _apply(out, (_as_var(x, tape),), backward, tape)


def mean(x, axis=None, keepdims: bool = False):
    """Arithmetic mean over ``axis`` (all axes when None)."""
    tape = _tape_of(x)
    xv = value_of(x)
    out = xv.mean(axis=axis, keepdims=keepdims)
    if tape is None:
        return out
    shape = xv.shape
    count = xv.size if axis is None else xv.size // out.size

    def backward(g):
        return (_expand_reduced(g, shape, axis, keepdims) / count,)

    return _apply(out, (_as_var(x, tape),), backward, tape)


def logsumexp(x, axis: int = -1, keepdims: bool = False):
    """log(sum(exp(x))) along ``axis``, stabilized by max subtraction.

    Exact for a single element. An empty reduction axis is a
    :class:`ContractError`, non-finite input a :class:`DomainError`.
    """
    tape = _tape_of(x)
    xv = value_of(x)
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
    shape = xv.shape

    def backward(g):
        return (_expand_reduced(g, shape, axis, keepdims) * softmax,)

    return _apply(out, (_as_var(x, tape),), backward, tape)


def softmax_neg(distances):
    """Probabilities exp(-d_c) / sum_c' exp(-d_c') along the last axis.

    Computed with the max-shift trick, so adding a constant to every
    entry of a row leaves the output bit-identical. Rows sum to one.
    The row maximum is one reduction over a class-major copy: a maximum
    is exact in any order, and numpy then runs one vectorized pass per
    class instead of one short reduction per row.
    """
    tape = _tape_of(distances)
    dv = value_of(distances)
    if dv.ndim == 0 or dv.shape[-1] == 0:
        raise ContractError("softmax_neg needs at least one entry")
    if not np.all(np.isfinite(dv)):
        raise DomainError("softmax_neg input must be finite")
    z = -dv
    ways = z.shape[-1]
    m = np.maximum.reduce(z.reshape(-1, ways).T.copy(), axis=0)
    m = m.reshape(*z.shape[:-1], 1)
    e = np.exp(z - m)
    out = e / e.sum(axis=-1, keepdims=True)
    if tape is None:
        return out

    def backward(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (-out * (g - inner),)

    return _apply(out, (_as_var(distances, tape),), backward, tape)
