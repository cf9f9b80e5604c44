"""Minimal reverse-mode automatic differentiation over numpy float64 arrays.

Just enough machinery for small recurrent models: a `Tensor` wraps an
ndarray, elementary ops record their parents and a backward closure, and
`Tensor.backward()` walks the graph in reverse topological order.  No
framework, no GPU, all math in double precision.  Graph recording is
skipped inside `no_grad()` and for subgraphs that touch no parameter.

The op set: `add`, `mul` and `matmul` (also as `+ - * @`); elementwise
`tanh`, `sigmoid`, `softplus`, `log` and `clip`; `tsum`, `transpose` and
`reshape`; `take` (also as `x[idx]`), the one indexing op, for an int, a
slice, a tuple of them or an integer list; `cat`, the one concatenation
op, along an existing axis, and `stack` along a new leading one;
`scatter` into exact zeros along the last axis; `softmax`; and `custom`
for fused ops with analytic gradients.
"""

from __future__ import annotations

import numpy as np

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph recording (decode/eval paths)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate grads of this (scalar) node's value w.r.t. the graph."""
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.grad is not None})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _node(value: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(value)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # a copy: g may be a view of another node's grad or a read-only
        # broadcast, and this grad is later updated in place
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce grad `g` back to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# -- arithmetic ---------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    val = a.data + b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(val, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    val = a.data * b.data

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(val, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    val = a.data @ b.data

    def bwd(g):
        ad, bd = a.data, b.data
        if ad.ndim == 2 and bd.ndim == 2:
            _accum(a, g @ bd.T)
            _accum(b, ad.T @ g)
        elif ad.ndim == 2 and bd.ndim == 1:
            _accum(a, np.outer(g, bd))
            _accum(b, ad.T @ g)
        elif ad.ndim == 1 and bd.ndim == 2:
            _accum(a, bd @ g)
            _accum(b, np.outer(ad, g))
        elif ad.ndim == 1 and bd.ndim == 1:
            _accum(a, g * bd)
            _accum(b, g * ad)
        else:
            raise ValueError(f"unsupported matmul ranks {ad.ndim}@{bd.ndim}")

    return _node(val, (a, b), bwd)


# -- elementwise nonlinearities -----------------------------------------

def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) without overflow for large |x|."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)),
                    np.exp(x) / (1.0 + np.exp(x)))


def tanh(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    val = np.tanh(x.data)

    def bwd(g):
        _accum(x, g * (1.0 - val * val))

    return _node(val, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    val = _logistic(x.data)

    def bwd(g):
        _accum(x, g * val * (1.0 - val))

    return _node(val, (x,), bwd)


def softplus(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    val = np.logaddexp(0.0, x.data)

    def bwd(g):
        _accum(x, g * _logistic(x.data))

    return _node(val, (x,), bwd)


def log(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    val = np.log(x.data)

    def bwd(g):
        _accum(x, g / x.data)

    return _node(val, (x,), bwd)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp; gradient passes through only where lo < x < hi."""
    x = _as_tensor(x)
    val = np.clip(x.data, lo, hi)
    mask = (x.data > lo) & (x.data < hi)

    def bwd(g):
        _accum(x, g * mask)

    return _node(val, (x,), bwd)


# -- reductions and reshaping -------------------------------------------

def tsum(x: Tensor, axis=None) -> Tensor:
    x = _as_tensor(x)
    val = x.data.sum(axis=axis)

    def bwd(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.data.shape))
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape))

    return _node(val, (x,), bwd)


def cat(parts: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors of equal rank along an existing axis."""
    parts = [_as_tensor(p) for p in parts]
    val = np.concatenate([p.data for p in parts], axis=axis)
    axis %= val.ndim
    lead = (slice(None),) * axis

    def bwd(g):
        off = 0
        for p in parts:
            n = p.data.shape[axis]
            _accum(p, g[lead + (slice(off, off + n),)])
            off += n

    return _node(val, tuple(parts), bwd)


def stack(rows: list[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    rows = [_as_tensor(r) for r in rows]
    val = np.stack([r.data for r in rows])

    def bwd(g):
        for i, r in enumerate(rows):
            _accum(r, g[i])

    return _node(val, tuple(rows), bwd)


def transpose(x: Tensor) -> Tensor:
    x = _as_tensor(x)

    def bwd(g):
        _accum(x, g.T)

    return _node(x.data.T, (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)

    def bwd(g):
        _accum(x, g.reshape(x.data.shape))

    return _node(x.data.reshape(shape), (x,), bwd)


def take(x: Tensor, idx) -> Tensor:
    """x[idx] for an int, a slice, a tuple of them, or an integer list.

    Backward adds the output grad into x.grad[idx]; only an integer list,
    whose entries may repeat, needs the slower unbuffered np.add.at.
    """
    x = _as_tensor(x)
    fancy = isinstance(idx, (list, np.ndarray))
    if fancy:
        idx = np.asarray(idx, dtype=np.intp)
    val = x.data[idx]

    def bwd(g):
        if not x.requires_grad:
            return
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        if fancy:
            np.add.at(x.grad, idx, g)
        else:
            x.grad[idx] += g

    return _node(val, (x,), bwd)


Tensor.__getitem__ = take


def scatter(values: Tensor, idx, size: int) -> Tensor:
    """Place (..., k) `values` at positions `idx` along the last axis of a
    (..., size) zero tensor.  Positions outside `idx` are exactly zero,
    which is how masked attention keeps hard zeros off its support set.
    """
    values = _as_tensor(values)
    idx = np.asarray(idx, dtype=np.intp)
    val = np.zeros(values.data.shape[:-1] + (size,), dtype=np.float64)
    val[..., idx] = values.data

    def bwd(g):
        _accum(values, g[..., idx])

    return _node(val, (values,), bwd)


# -- softmax family ------------------------------------------------------

def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    val = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * val).sum(axis=axis, keepdims=True)
        _accum(x, val * (g - inner))

    return _node(val, (x,), bwd)


def custom(value, parents: tuple[Tensor, ...], grad_fns) -> Tensor:
    """Node with caller-supplied local gradients.

    `grad_fns[i](g)` must return the gradient contribution to parents[i]
    given the output gradient g.  Used for fused ops (e.g. the transducer
    forward recursion) whose backward is computed analytically.
    """

    def bwd(g):
        for p, fn in zip(parents, grad_fns):
            _accum(p, fn(g))

    return _node(np.asarray(value, dtype=np.float64), parents, bwd)
