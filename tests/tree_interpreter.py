"""The tree-walking interpreter that evaluated expressions before they were
compiled into kernels, kept as the reference the kernels are tested against.

field_eval, field_eval_dual2, field_value_grad, structure_at and
structure_grad_at are the evaluation methods of ScalarField and
AffgebroidModel as they were written on top of _eval; they take the field or
the model as their first argument, so a test can also patch them onto the
classes in place of the compiled methods.  compile_trees stands in for
expressions.compile_trees, so that every kernel, the fused field kernels
included, can be run by the interpreter instead.
"""

import math

import numpy as np

from affgebroid.errors import DomainError
from affgebroid.expressions import (
    _CONSTANTS,
    _FLOAT_FNS,
    Bin,
    Derivatives,
    Neg,
    Num,
    Var,
    _float_pow,
    to_source,
)
from affgebroid.model import StructureValues


def _eval(node, env):
    t = type(node)
    if t is Num:
        return node.value
    if t is Var:
        return env[node.name]
    if t is Neg:
        return -_eval(node.arg, env)
    if t is Bin:
        a = _eval(node.left, env)
        b = _eval(node.right, env)
        op = node.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0.0:
                raise DomainError("division by zero")
            return a / b
        return _float_pow(a, b)
    # t is Call
    return _FLOAT_FNS[node.fn](_eval(node.arg, env))


def compile_trees(outputs, variables, steps=()):
    """A kernel with the signature and errors of the compiled one that walks
    the trees: the steps in order, a checked step with a non-finite value
    raising DomainError, then the outputs."""
    variables = tuple(variables)

    def kernel(*values):
        env = dict(_CONSTANTS)
        env.update(zip(variables, values))
        for tree, checked in steps:
            v = _eval(tree, env)
            if checked and not math.isfinite(v):
                raise DomainError("non-finite result %r from %r" % (v, to_source(tree)))
        return tuple(_eval(tree, env) for tree in outputs)

    return kernel


def _env(field, values):
    if len(values) != len(field.variables):
        raise ValueError(
            "expected %d values for %s, got %d"
            % (len(field.variables), field.variables, len(values))
        )
    env = dict(_CONSTANTS)
    for name, v in zip(field.variables, values):
        env[name] = v
    return env


def _value(field, env):
    out = _eval(field.ast, env)
    if not math.isfinite(out):
        raise DomainError("non-finite result %r from %r" % (out, field.source))
    return out


def field_eval(field, values):
    return _value(field, _env(field, [float(v) for v in values]))


def _derivatives(field, values, second):
    env = _env(field, [float(v) for v in values])
    val = _value(field, env)
    k = len(field.variables)
    firsts = [field._partial(j) for j in range(k)]
    grad = np.array([_eval(d.ast, env) for d in firsts], dtype=float)
    if not second:
        return Derivatives(val, grad, None)
    hess = np.empty((k, k))
    for s1, d in enumerate(firsts):
        for s2 in range(s1, k):
            hess[s1, s2] = hess[s2, s1] = _eval(d._partial(s2).ast, env)
    return Derivatives(val, grad, hess)


def field_eval_dual2(field, values):
    return _derivatives(field, values, True)


def field_value_grad(field, values):
    d = _derivatives(field, values, False)
    return d.val, d.grad


def structure_at(model, x):
    if model._const and model._cache is not None:
        return model._cache
    m, n = model.chart.dim_base, model.chart.fibre_dim
    x = np.asarray(x, dtype=float)
    rho0 = np.array([field_eval(f, x) for f in model.rho0])
    rho = np.array([[field_eval(f, x) for f in row] for row in model.rho]).reshape(n, m)
    c0 = np.array([[field_eval(f, x) for f in row] for row in model.c0]).reshape(n, n)
    c = np.zeros((n, n, n))
    for (a, b), row in model.c.items():
        vals = np.array([field_eval(f, x) for f in row])
        c[a - 1, b - 1, :] = vals
        c[b - 1, a - 1, :] = -vals
    out = StructureValues(rho0, rho, c0, c)
    if model._const:
        for arr in (rho0, rho, c0, c):
            arr.flags.writeable = False
        model._cache = out
    return out


def structure_grad_at(model, x):
    """d/dx of the structure in the layout of structure_at with a trailing
    axis over the base, field by field in declaration order; constant
    fields give zeros, and C_ba^g the negation of the C_ab^g partials."""
    m, n = model.chart.dim_base, model.chart.fibre_dim
    x = np.asarray(x, dtype=float)
    rho0, rho = np.zeros((m, m)), np.zeros((n, m, m))
    c0, c = np.zeros((n, n, m)), np.zeros((n, n, n, m))

    def grad(f):
        return np.zeros(m) if f.is_constant() else field_value_grad(f, x)[1]

    for j, f in enumerate(model.rho0):
        rho0[j] = grad(f)
    for a, row in enumerate(model.rho):
        for j, f in enumerate(row):
            rho[a, j] = grad(f)
    for a, row in enumerate(model.c0):
        for g, f in enumerate(row):
            c0[a, g] = grad(f)
    for (a, b), row in model.c.items():
        for g, f in enumerate(row):
            c[a - 1, b - 1, g] = grad(f)
            c[b - 1, a - 1, g] = -c[a - 1, b - 1, g]
    return StructureValues(rho0, rho, c0, c)


def outcome(fn, *args):
    """fn(*args) as ("ok", shapes and bytes of the result) or ("raised",
    error class and message), so that two evaluation paths can be compared
    bit for bit."""
    try:
        out = fn(*args)
    except Exception as e:  # noqa: BLE001 - the error is the outcome
        return "raised", type(e), str(e)
    if isinstance(out, StructureValues):
        parts = (out.rho0, out.rho, out.c0, out.c)
    else:
        parts = out if isinstance(out, tuple) else (out,)
    arrays = [None if p is None else np.asarray(p, dtype=float) for p in parts]
    return "ok", tuple(None if a is None else (a.shape, a.tobytes()) for a in arrays)
