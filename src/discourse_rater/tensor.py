"""Dense tensors with reverse-mode automatic differentiation.

Every numeric operation the models perform is built from the primitives in
this module.  Each primitive records a closure that propagates gradients to
its inputs, so the gradient of any composite can be verified against central
finite differences with :func:`grad_check`.

Two float widths are supported: float32 for training runs and float64 for
gradient checking.  The width is a process-global setting (see
:func:`set_dtype` / :func:`precision`) and must not change while a graph is
alive.  Tensors are never mutated in place once they participate in a graph;
every operation allocates a fresh output.

A graph is single-use: :meth:`Tensor.backward` consumes it as it goes, so
each intermediate's gradient and the forward activations its closure holds
are freed as soon as they have been used, and a training step's peak memory
stays close to the size of its forward graph.

A gradient is written where it will be read.  A tensor with a
``grad_slot`` (a parameter carved from a ``blocks.ParamArena``, whose
gradient buffer ``train.AdamW`` steps) takes its first gradient of a step
in that slot: matmul writes its weight gradient there directly,
any other primitive by one copy.  So ``.grad`` of a parameter of a built or
loaded model is its arena slot, and the next backward after ``.grad`` is
reset overwrites it: copy a gradient to keep it.  Elsewhere a first gradient that its
primitive has just computed becomes ``.grad`` as it is, and one that passes
through unchanged or as a view (add, sub, reshape, concat, permute,
transpose) is copied, so no two tensors ever share a gradient array.

A node keeps only what its backward reads.  :func:`matmul` adds an optional
bias into its fresh GEMM output, so a projection holds one array, not two.
:func:`attention` is the whole multi-head core of a block in one node: it
runs each sequence on its own rows, pads nothing, and keeps only each
sequence's softmax weights ``P``; its backward reads Q, K and V from its
inputs.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericsError, ShapeError, UsageError

_DTYPE: type = np.float32
_GRAD_ENABLED: bool = True


def set_dtype(name: str) -> None:
    """Select the global float width: ``"float32"`` or ``"float64"``."""
    global _DTYPE
    if name == "float32":
        _DTYPE = np.float32
    elif name == "float64":
        _DTYPE = np.float64
    else:
        raise UsageError(f"unknown dtype {name!r}; use 'float32' or 'float64'")


def current_dtype() -> np.dtype:
    return np.dtype(_DTYPE)


@contextlib.contextmanager
def precision(name: str):
    """Temporarily switch the global float width."""
    global _DTYPE
    previous = _DTYPE
    set_dtype(name)
    try:
        yield
    finally:
        _DTYPE = previous


@contextlib.contextmanager
def no_grad():
    """Skip graph construction inside the block (cheap inference)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Tensor:
    """A dense array plus the bookkeeping reverse mode needs.

    ``_parents`` holds the tensors this one was computed from and
    ``_backward`` the closure that routes an incoming gradient to them.  The
    graph is therefore the set of tensors reachable from a loss through
    parent links; construction order is topological by definition because an
    operation's inputs exist before its output.
    """

    __slots__ = ("data", "requires_grad", "grad", "grad_slot", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data: np.ndarray = np.asarray(data, dtype=_DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        # Where a first gradient goes instead of a new array (see ``_accum``).
        self.grad_slot: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- autodiff --------------------------------------------------------

    def backward(self) -> None:
        """Run reverse mode from this scalar, consuming the graph.

        Gradients accumulate into ``.grad`` of every reachable leaf (a tensor
        with ``requires_grad`` and no closure, such as a parameter).  A leaf
        that does not lie on any path to the loss keeps ``grad is None``,
        which readers must treat as zero.

        The graph is single-use.  Nodes are popped off the topological order,
        and once a node's closure has run its ``.grad``, its closure (which
        holds the forward activations) and its parent links are dropped, so
        memory is freed while backward runs and nothing of the graph but the
        leaves' gradients and this loss's ``.data`` outlives it.  A second
        backward through a consumed node raises ``UsageError``.
        """
        if self.data.size != 1:
            raise UsageError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        if self.grad is None:
            self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = _consumed
            node._parents = ()

    # -- operators -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None) -> "Tensor":
        return tsum(self, axis=axis)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _op(data: np.ndarray, parents: tuple[Tensor, ...],
        backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = out.grad_slot = None
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _consumed(g: np.ndarray) -> None:
    raise UsageError("backward already ran through this graph; "
                     "a graph is single-use, so run the forward pass again")


def _accum(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` into ``t.grad``.

    A first gradient is copied into ``t.grad_slot`` when there is one, and
    that slot becomes ``t.grad``, so a later first gradient overwrites what
    an earlier one left there.  Else
    it is adopted as it is when ``owned`` (the caller has just computed it and
    nothing else holds it) and it has ``t.data``'s dtype and shape and, like
    ``t.data``, C order; otherwise it is one copy in ``t.data``'s layout.
    """
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif t.grad_slot is not None:
        np.copyto(t.grad_slot, g)
        t.grad = t.grad_slot
    elif owned and g.dtype == t.data.dtype and g.shape == t.data.shape \
            and g.flags.c_contiguous and t.data.flags.c_contiguous:
        t.grad = g
    else:
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum the broadcast axes of ``g`` away so it matches ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise primitives ------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _op(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape), owned=True)

    return _op(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape), owned=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape), owned=True)

    return _op(data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    data = -a.data

    def backward(g):
        _accum(a, -g, owned=True)

    return _op(data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0)

    def backward(g):
        _accum(a, g * (a.data > 0), owned=True)

    return _op(data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    data = np.empty_like(x)
    pos = x >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    data[~pos] = ex / (1.0 + ex)

    def backward(g):
        _accum(a, g * data * (1.0 - data), owned=True)

    return _op(data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward(g):
        _accum(a, g * (1.0 - data * data), owned=True)

    return _op(data, (a,), backward)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def backward(g):
        _accum(a, g / a.data, owned=True)

    return _op(data, (a,), backward)


def absolute(a: Tensor) -> Tensor:
    data = np.abs(a.data)

    def backward(g):
        _accum(a, g * np.sign(a.data), owned=True)

    return _op(data, (a,), backward)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor) elementwise; gradient is zero where the floor binds."""
    data = np.maximum(a.data, floor)

    def backward(g):
        _accum(a, g * (a.data > floor), owned=True)

    return _op(data, (a,), backward)


# -- shape primitives --------------------------------------------------------


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``[M, K] @ [K, N] (+ bias[N]) -> [M, N]``.

    A first weight gradient of a right operand with a ``grad_slot`` is that
    GEMM's output, written in the slot.  A ``bias`` is added in place to
    the GEMM's fresh output, so the node keeps one array where ``matmul``
    then ``add`` keep two; its gradient is the same reduction ``add`` makes.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul requires rank-2 operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}"
        )
    if bias is not None and bias.data.shape != b.data.shape[1:]:
        raise ShapeError(f"matmul bias must be {b.data.shape[1:]}, got {bias.data.shape}")
    data = a.data @ b.data
    if bias is not None:
        data += bias.data

    def backward(g):
        if bias is not None and bias.requires_grad:
            _accum(bias, _unbroadcast(g, bias.data.shape), owned=True)
        if a.requires_grad:
            _accum(a, g @ b.data.T, owned=True)
        if b.requires_grad:
            if b.grad is None and b.grad_slot is not None:
                b.grad = np.matmul(a.data.T, g, out=b.grad_slot)
            else:
                _accum(b, a.data.T @ g, owned=True)

    return _op(data, (a, b) if bias is None else (a, b, bias), backward)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose requires a rank-2 tensor, got {a.data.shape}")
    data = a.data.T.copy()

    def backward(g):
        _accum(a, g.T)

    return _op(data, (a,), backward)


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"axes {axes} do not permute a rank-{a.data.ndim} tensor")
    inverse = np.argsort(axes)
    data = np.transpose(a.data, axes).copy()

    def backward(g):
        _accum(a, np.transpose(g, inverse))

    return _op(data, (a,), backward)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over matching leading dimensions."""
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise ShapeError(f"bmm requires rank-3 operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[0] != b.data.shape[0] or a.data.shape[2] != b.data.shape[1]:
        raise ShapeError(f"bmm dimensions disagree: {a.data.shape} x {b.data.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, g @ b.data.swapaxes(-1, -2), owned=True)
        if b.requires_grad:
            _accum(b, a.data.swapaxes(-1, -2) @ g, owned=True)

    return _op(data, (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return _op(data, (a,), backward)


def take(a: Tensor, key) -> Tensor:
    """Indexing by ints, slices and integer arrays that name each position once.

    The gradient is written back by assignment, so a key that names a
    position twice would keep only one of its gradients; such a key raises
    ``UsageError``, and a gather that repeats rows is ``embedding_lookup``.
    An integer array must be the key's only array, after ints and slices
    alone, so that the axis it indexes is known.
    """
    parts = key if isinstance(key, tuple) else (key,)
    arrays = [(axis, np.asarray(part)) for axis, part in enumerate(parts)
              if isinstance(part, (list, np.ndarray))]
    if any(index.dtype.kind in "iu" for _, index in arrays):
        (axis, index), *others = arrays
        if others or any(part is None or part is Ellipsis for part in parts[:axis]):
            raise UsageError("take accepts one integer array, after ints and slices "
                             "alone; gather with embedding_lookup")
        if np.unique(index % a.data.shape[axis]).size != index.size:
            raise UsageError("take key repeats a position, whose gradients would not "
                             "add up; gather repeated rows with embedding_lookup")
    data = a.data[key]
    if np.isscalar(data) or data.ndim == 0:
        data = np.asarray(data, dtype=a.data.dtype)

    def backward(g):
        full = np.zeros_like(a.data)
        full[key] = g
        _accum(a, full, owned=True)

    return _op(data, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise UsageError("concat requires at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                _accum(t, piece)

    return _op(data, tuple(tensors), backward)


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axis) -> np.ndarray:
    if axis is not None:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def tsum(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)
    data = np.asarray(data, dtype=a.data.dtype)

    def backward(g):
        _accum(a, _expand_reduced(g, a.data.shape, axis).copy(), owned=True)

    return _op(data, (a,), backward)


def tmean(a: Tensor, axis=None) -> Tensor:
    data = a.data.mean(axis=axis)
    data = np.asarray(data, dtype=a.data.dtype)
    count = a.data.size if axis is None else a.data.shape[axis]

    def backward(g):
        _accum(a, _expand_reduced(g, a.data.shape, axis) / count, owned=True)

    return _op(data, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis`` (max-subtraction before exponentials)."""
    if not np.isfinite(a.data).all():
        raise NumericsError("softmax input contains non-finite values")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        _accum(a, data * (g - inner), owned=True)

    return _op(data, (a,), backward)


def masked_fill(a: Tensor, fill_mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where ``fill_mask`` is true; their gradient is zero."""
    mask = np.broadcast_to(np.asarray(fill_mask, dtype=bool), a.data.shape)
    data = np.where(mask, np.asarray(value, dtype=a.data.dtype), a.data)

    def backward(g):
        _accum(a, np.where(mask, 0.0, g), owned=True)

    return _op(data, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (+1e-5), then scale+shift."""
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mu) * inv
    data = xhat * gain.data + bias.data
    lead = tuple(range(x.ndim - 1))

    def backward(g):
        if gain.requires_grad:
            _accum(gain, (g * xhat).sum(axis=lead), owned=True)
        if bias.requires_grad:
            _accum(bias, g.sum(axis=lead), owned=True)
        if a.requires_grad:
            dxhat = g * gain.data
            term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            _accum(a, inv * term, owned=True)

    return _op(data, (a, gain, bias), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, q_lengths, kv_lengths, num_heads: int,
              lead: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """Multi-head scaled dot-product attention of packed rows, as one node.

    ``q`` holds the query rows ``[rows, D]`` of ``B`` sequences back to back,
    ``q_lengths[i]`` rows each; ``k`` and ``v`` hold their key and value
    rows, ``kv_lengths[i]`` each, likewise.  ``lead``, a key and a value
    tensor of ``[n, D]`` rows, leads every sequence's keys and values.  Each
    sequence attends within its own keys, on its own rows: nothing is
    padded.  Returns the packed outputs ``[rows, D]``.

    Per sequence, Q, K and V are head-major views of the packed rows (a
    lead joins K and V by one copy), and the weights ``P`` ``[H, Lq, Lk]``
    are all the node keeps; its backward reads Q, K and V from the inputs
    again.  It is ``dV = Pᵀ dO``, ``dP = dO Vᵀ``, ``dS = P ⊙ (dP −
    rowsum(dP ⊙ P))``, scaled, then ``dQ = dS K`` and ``dK = dSᵀ Q``; a
    lead row sums its gradients in sequence order.  Non-finite scores raise
    ``NumericsError``; a sequence with no key raises ``UsageError``.
    """
    q_lengths = np.asarray(q_lengths, dtype=np.int64).reshape(-1)
    kv_lengths = np.asarray(kv_lengths, dtype=np.int64).reshape(-1)
    n_lead = 0 if lead is None else lead[0].data.shape[0]
    if (q.data.shape[-1] % num_heads or k.data.shape != v.data.shape
            or q_lengths.shape != kv_lengths.shape
            or q.data.shape != (q_lengths.sum(), k.data.shape[-1])
            or k.data.shape[0] != kv_lengths.sum()):
        raise ShapeError(f"attention over {num_heads} heads needs query rows {q.data.shape}, "
                         f"key rows {k.data.shape} and value rows {v.data.shape} that fill "
                         f"lengths {q_lengths.tolist()} and {kv_lengths.tolist()}")
    if not n_lead and not kv_lengths.all():
        raise UsageError(f"attention needs at least one key per sequence; sequence "
                         f"{int(np.argmin(kv_lengths))} has none")
    head_dim = q.data.shape[-1] // num_heads
    q_ends, kv_ends = np.cumsum(q_lengths), np.cumsum(kv_lengths)
    spans = list(zip(q_ends - q_lengths, q_ends, kv_ends - kv_lengths, kv_ends))
    scale = np.asarray(1.0 / math.sqrt(head_dim), dtype=q.data.dtype)
    lead_k, lead_v = (None, None) if lead is None else lead

    def heads(rows: np.ndarray) -> np.ndarray:
        """``[L, D]`` rows as a head-major ``[H, L, dh]`` view."""
        return rows.reshape(rows.shape[0], num_heads, head_dim).transpose(1, 0, 2)

    def joined(rows: np.ndarray, shared: Tensor | None) -> np.ndarray:
        return heads(rows if shared is None else np.concatenate([shared.data, rows]))

    data = np.empty_like(q.data)
    probs = []
    for qa, qb, ka, kb in spans:
        p = heads(q.data[qa:qb]) @ joined(k.data[ka:kb], lead_k).transpose(0, 2, 1)
        p *= scale
        if not np.isfinite(p).all():
            raise NumericsError("attention softmax input contains non-finite values")
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(p, joined(v.data[ka:kb], lead_v), out=heads(data[qa:qb]))
        probs.append(p)

    def backward(g):
        dq, dk, dv = np.empty_like(q.data), np.empty_like(k.data), np.empty_like(v.data)
        d_lead = [np.zeros_like(t.data) for t in lead or ()]
        for (qa, qb, ka, kb), p in zip(spans, probs):
            d_out = heads(g[qa:qb])
            ds = d_out @ joined(v.data[ka:kb], lead_v).transpose(0, 2, 1)
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= scale
            np.matmul(ds, joined(k.data[ka:kb], lead_k), out=heads(dq[qa:qb]))
            for site, (left, right, rows) in enumerate(((ds, heads(q.data[qa:qb]), dk),
                                                        (p, d_out, dv))):
                if lead is None:
                    np.matmul(left.transpose(0, 2, 1), right, out=heads(rows[ka:kb]))
                else:
                    grad = left.transpose(0, 2, 1) @ right
                    heads(rows[ka:kb])[...] = grad[:, n_lead:]
                    lead_rows = heads(d_lead[site])
                    lead_rows += grad[:, :n_lead]
        for t, grad in zip((q, k, v) + (lead or ()), [dq, dk, dv] + d_lead):
            _accum(t, grad, owned=True)

    return _op(data, (q, k, v) + (lead or ()), backward)


def embedding_lookup(table: Tensor, indices) -> Tensor:
    """Gather rows of ``table``; the gradient scatter-adds back into them.

    A row gathered once takes its gradient by assignment; each row gathered
    more than once sums its gradients in one reduction, so the backward costs
    a copy plus one pass per repeated row rather than ``np.add.at``'s
    per-index loop.
    """
    idx = np.asarray(indices, dtype=np.int64)
    data = table.data[idx]

    def backward(g):
        flat = idx.reshape(-1) % table.data.shape[0]
        g_rows = g.reshape((flat.size,) + table.data.shape[1:])
        counts = np.bincount(flat, minlength=table.data.shape[0])
        once = counts[flat] == 1
        full = np.zeros_like(table.data)
        full[flat[once]] = g_rows[once]
        for row in np.flatnonzero(counts > 1):
            full[row] = g_rows[flat == row].sum(axis=0)
        _accum(table, full, owned=True)

    return _op(data, (table,), backward)


# -- gradient checking -------------------------------------------------------


@dataclass
class GradCheckReport:
    """Outcome of one finite-difference comparison."""

    name: str
    max_rel_err: float
    tol: float
    passed: bool
    per_input: tuple[float, ...]

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.name:<32s} max_rel_err={self.max_rel_err:.3e}  {status}"


def grad_check(fn: Callable[..., Tensor], inputs: Sequence[Tensor],
               tol: float, seed: int = 0, name: str = "fn") -> GradCheckReport:
    """Compare reverse-mode gradients of ``fn`` against central differences.

    ``fn`` must be deterministic and is evaluated in the current global
    dtype, which must be float64.  Non-scalar outputs are reduced through a
    fixed random projection so a single scalar is differentiated.  Inputs
    with more than 64 entries are probed at a random coordinate subset of
    that size, each with a central-difference step of 1e-5.  Failures are
    reported, never raised.
    """
    if current_dtype() != np.float64:
        raise UsageError("grad_check requires the float64 mode; wrap in precision('float64')")
    for inp in inputs:
        if inp.data.dtype != np.float64:
            raise UsageError("grad_check inputs must be float64 tensors")

    step, max_coords = 1e-5, 64
    rng = np.random.default_rng(seed)
    probe = fn(*inputs)
    if probe.data.size == 1:
        proj = None
    else:
        proj = Tensor(rng.standard_normal(probe.data.shape) / math.sqrt(probe.data.size))

    def scalar_loss() -> Tensor:
        out = fn(*inputs)
        if proj is not None:
            out = (out * proj).sum()
        elif out.data.ndim > 0:
            out = out.sum()
        return out

    for inp in inputs:
        inp.grad = None
    loss = scalar_loss()
    loss.backward()
    analytic = [np.zeros_like(i.data) if i.grad is None else i.grad.copy() for i in inputs]

    def value() -> float:
        with no_grad():
            return float(scalar_loss().data)

    per_input: list[float] = []
    for inp, ana in zip(inputs, analytic):
        if not inp.requires_grad:
            per_input.append(0.0)
            continue
        flat = inp.data.reshape(-1)
        n = flat.size
        if n > max_coords:
            coords = np.sort(rng.choice(n, size=max_coords, replace=False))
        else:
            coords = np.arange(n)
        worst = 0.0
        for c in coords:
            orig = flat[c]
            flat[c] = orig + step
            f_plus = value()
            flat[c] = orig - step
            f_minus = value()
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = ana.reshape(-1)[c]
            rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-3)
            worst = max(worst, rel)
        per_input.append(worst)

    max_rel = max(per_input) if per_input else 0.0
    return GradCheckReport(name=name, max_rel_err=max_rel, tol=tol,
                           passed=max_rel < tol, per_input=tuple(per_input))
