"""Finite-difference checks for every op in the autodiff engine."""

import ast
from pathlib import Path

import numpy as np
import pytest

from tcpgen import autodiff as ad
from tcpgen.autodiff import Tensor
from tcpgen.rng import Stream

FD_STEP = 1e-6
FD_TOL = 1e-6


def fd_check(build, leaves, stream, tol=FD_TOL):
    """Compare analytic grads of scalar build(*leaves) with central FD."""
    out = build(*leaves)
    assert out.data.shape == ()
    out.backward()
    for leaf in leaves:
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        flat = leaf.data.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + FD_STEP
            hi = build(*leaves).data
            flat[k] = orig - FD_STEP
            lo = build(*leaves).data
            flat[k] = orig
            num = (hi - lo) / (2 * FD_STEP)
            got = analytic.reshape(-1)[k]
            assert got == pytest.approx(num, rel=tol, abs=tol), \
                f"leaf grad[{k}]: analytic {got} vs fd {num}"
        leaf.zero_grad()


def leaf(stream, shape, scale=1.0):
    return ad.parameter(stream.gauss_array(shape, scale=scale))


def test_add_mul_broadcast():
    s = Stream(1)
    a, b, c = leaf(s, (3, 4)), leaf(s, (4,)), leaf(s, ())
    fd_check(lambda a, b, c: ad.tsum((a + b) * c), [a, b, c], s)


def test_matmul_all_rank_combos():
    s = Stream(2)
    m, n, k = 3, 4, 2
    A, B = leaf(s, (m, n)), leaf(s, (n, k))
    fd_check(lambda A, B: ad.tsum(A @ B), [A, B], s)
    A, v = leaf(s, (m, n)), leaf(s, (n,))
    fd_check(lambda A, v: ad.tsum(A @ v), [A, v], s)
    u, B = leaf(s, (n,)), leaf(s, (n, k))
    fd_check(lambda u, B: ad.tsum(u @ B), [u, B], s)
    u, v = leaf(s, (n,)), leaf(s, (n,))
    fd_check(lambda u, v: u @ v, [u, v], s)


def test_nonlinearities():
    s = Stream(3)
    x = leaf(s, (5,))
    fd_check(lambda x: ad.tsum(ad.tanh(x)), [x], s)
    fd_check(lambda x: ad.tsum(ad.sigmoid(x)), [x], s)
    y = ad.parameter(np.abs(Stream(4).gauss_array((5,))) + 0.5)
    fd_check(lambda y: ad.tsum(ad.log(y)), [y], s)


def test_softmax():
    s = Stream(5)
    x = leaf(s, (6,))
    w = Stream(6).gauss_array((6,))
    fd_check(lambda x: ad.tsum(ad.softmax(x) * w), [x], s)
    m = leaf(s, (3, 4))
    wm = Stream(7).gauss_array((3, 4))
    fd_check(lambda m: ad.tsum(ad.softmax(m, axis=-1) * wm), [m], s)


def test_take_cat_stack_reshape():
    s = Stream(8)
    m = leaf(s, (4, 3))
    w2 = Stream(10).gauss_array((2, 3))
    fd_check(lambda m: ad.tsum(m[[1, 3]] * w2), [m], s)
    fd_check(lambda m: ad.tsum(m[2]), [m], s)
    fd_check(lambda m: ad.tsum(m[:, 1]), [m], s)
    fd_check(lambda m: ad.tsum(m[:, 0:2]), [m], s)
    fd_check(lambda m: ad.tsum(m[1:3, 0:2] * w2[:, :2]), [m], s)
    v = leaf(s, (6,))
    fd_check(lambda v: ad.tsum(v[1:4]), [v], s)
    a, b = leaf(s, (3,)), leaf(s, (2,))
    w = Stream(9).gauss_array((5,))
    fd_check(lambda a, b: ad.tsum(ad.cat([a, b]) * w), [a, b], s)
    r1, r2 = leaf(s, (1, 3)), leaf(s, (2, 3))
    w3 = Stream(16).gauss_array((3, 3))
    fd_check(lambda r1, r2: ad.tsum(ad.cat([r1, r2]) * w3), [r1, r2], s)
    fd_check(lambda m, r2: ad.tsum(ad.cat([ad.transpose(m), r2], axis=1)),
             [m, leaf(s, (3, 2))], s)
    fd_check(lambda a, b: ad.tsum(ad.stack([a, b]) * w3[:2]),
             [a, leaf(s, (3,))], s)
    fd_check(lambda m: ad.tsum(ad.transpose(m) @ leaf(Stream(11), (4,))), [m], s)
    fd_check(lambda v: ad.tsum(ad.reshape(v, (2, 3))), [v], s)
    w25 = Stream(17).gauss_array((2, 5))
    fd_check(lambda a, b: ad.tsum(ad.cat([a, b], axis=-1) * w25),
             [leaf(s, (2, 3)), leaf(s, (2, 2))], s)


def test_take_repeated_indices_accumulate():
    m = ad.parameter(np.arange(6.0).reshape(3, 2))
    out = ad.tsum(m[[1, 1, 2]])
    out.backward()
    assert np.array_equal(m.grad, [[0, 0], [2, 2], [1, 1]])


def test_grad_of_repeated_input_does_not_alias_consumer_grad():
    """A node consumed twice by one op gets its grad from two views of the
    consumer's grad; adding the second must not write through the first."""
    x = ad.parameter(np.array([1.0, 2.0, 3.0]))
    w = np.array([0.5, -1.0, 2.0])
    c = np.array([1.0, 10.0, 100.0, 1000.0, 1e4, 1e5])
    y = x * w
    z = y + y
    ad.tsum(z * c[:3]).backward()
    assert np.array_equal(z.grad, c[:3])
    assert np.array_equal(x.grad, 2.0 * w * c[:3])
    x.zero_grad()
    y = x * w
    z = ad.cat([y, y])
    ad.tsum(z * c).backward()
    assert np.array_equal(z.grad, c)
    assert np.array_equal(x.grad, w * (c[:3] + c[3:]))


def test_scatter_exact_zeros_and_grad():
    s = Stream(12)
    v = leaf(s, (3,))
    out = ad.scatter(v, [0, 2, 5], 7)
    assert out.data[1] == 0.0 and out.data[3] == 0.0
    w = Stream(13).gauss_array((7,))
    fd_check(lambda v: ad.tsum(ad.scatter(v, [0, 2, 5], 7) * w), [v], s)
    m = leaf(s, (2, 3))
    w2 = Stream(14).gauss_array((2, 7))
    fd_check(lambda m: ad.tsum(ad.scatter(m, [1, 4, 6], 7) * w2), [m], s)


def test_element_and_clip():
    s = Stream(15)
    m = leaf(s, (3, 4))
    fd_check(lambda m: m[1, 2], [m], s)
    x = ad.parameter(np.array([-2.0, -0.5, 0.5, 2.0]))
    out = ad.tsum(ad.clip(x, -1.0, 1.0))
    out.backward()
    assert np.array_equal(x.grad, [0.0, 1.0, 1.0, 0.0])


def test_diamond_graph_accumulates():
    x = ad.parameter(np.array(2.0))
    y = x * x + x * 3.0    # dy/dx = 2x + 3 = 7
    y.backward()
    assert x.grad == pytest.approx(7.0)


def test_no_grad_blocks_recording():
    x = ad.parameter(np.ones(3))
    with ad.no_grad():
        y = ad.tsum(x * 2.0)
    assert y._backward is None and not y.requires_grad


def test_constant_subgraphs_not_recorded():
    a = Tensor(np.ones(3))
    b = Tensor(np.ones(3))
    c = a + b
    assert c._backward is None


def test_custom_op_injects_gradient():
    x = ad.parameter(np.array([1.0, 2.0]))
    y = ad.custom(5.0, (x,), (lambda g: g * np.array([10.0, 20.0]),))
    y.backward()
    assert np.array_equal(x.grad, [10.0, 20.0])


def _package_sources() -> dict[str, ast.Module]:
    package = Path(ad.__file__).parent
    return {str(path.relative_to(package)): ast.parse(path.read_text())
            for path in sorted(package.rglob("*.py"))}


def _public_defs(tree: ast.Module):
    """(qualified name, def node, is method) of each public function and
    public method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item, True


def _references(tree: ast.Module):
    """(line, name, via attribute) of every name a module reads, bare or as
    an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.lineno, node.id, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.lineno, node.attr, True


def _imported_names(tree: ast.Module):
    """(line, bound name) of every import, `from __future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield node.lineno, a.asname or a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield node.lineno, a.asname or a.name


def test_every_public_function_has_a_package_caller():
    """No API that only tests call: every public function and public method
    in the package is looked up by package code outside its own definition
    (a method only as an attribute, so a local variable of the same name
    does not count), and no module imports a name it never uses (package
    `__init__` files re-export, so they are exempt from the import check)."""
    sources = _package_sources()
    refs: dict[str, list[tuple[str, int, bool]]] = {}
    for mod, tree in sources.items():
        for line, name, via_attr in _references(tree):
            refs.setdefault(name, []).append((mod, line, via_attr))
    uncalled, checked = [], set()
    for mod, tree in sources.items():
        for qualname, fn, is_method in _public_defs(tree):
            checked.add(f"{mod}:{qualname}")
            if not any((other != mod or not fn.lineno <= line <= fn.end_lineno)
                       and (via_attr or not is_method)
                       for other, line, via_attr in refs.get(fn.name, ())):
                uncalled.append(f"{mod}:{qualname}")
    assert {"autodiff.py:take", "autodiff.py:cat",
            "toy_models.py:ToyAED.step", "harness/cli.py:main"} <= checked
    unused = []
    for mod, tree in sources.items():
        if mod.endswith("__init__.py"):
            continue
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{mod}:{line} {name}"
                   for line, name in _imported_names(tree) if name not in loaded]
    assert (uncalled, unused) == ([], [])
