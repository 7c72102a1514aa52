"""Scalar fields on a chart: expression parsing, evaluation, and derivatives.

Grammar (infix, left associative except '^'):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | atom ('^' factor)?
    atom    := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Unary minus binds looser than '^', so -x^2 means -(x^2).  Builtin functions:
sin cos tan exp log sqrt abs.  Constants: pi, e (reserved, cannot be variables).

Derivatives are exact and symbolic: derive_field differentiates the tree and
folds constants, each field caches its partials (and their partials for the
Hessian), and the same float evaluator runs the value and derivative trees.
Central finite differences (fd_grad / fd_hess) stay as the independent check.
"""

import math
from collections import namedtuple

import numpy as np

from .errors import (
    DomainError,
    ParseError,
    UnknownFunctionError,
    UnknownVariableError,
)

_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")
_CONSTANTS = {"pi": math.pi, "e": math.e}
_RESERVED = set(_FUNCTIONS) | set(_CONSTANTS)


# ---------------------------------------------------------------------------
# tokens

_T_NUM = 0
_T_NAME = 1
_T_OP = 2
_T_END = 3

_OPS = set("+-*/^()")


def _tokenize(source):
    toks = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _OPS:
            toks.append((_T_OP, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
                # otherwise the e/E starts a name token, e.g. "2e" in "2*e"
            toks.append((_T_NUM, source[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            toks.append((_T_NAME, source[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r at position %d" % (ch, i))
    toks.append((_T_END, "", n))
    return toks


# ---------------------------------------------------------------------------
# syntax tree

class Num:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def __eq__(self, other):
        return type(other) is Num and other.value == self.value

    def __hash__(self):
        return hash(("num", self.value))

    def __repr__(self):
        return "Num(%r)" % self.value


class Var:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        return type(other) is Var and other.name == self.name

    def __hash__(self):
        return hash(("var", self.name))

    def __repr__(self):
        return "Var(%r)" % self.name


class Neg:
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg

    def __eq__(self, other):
        return type(other) is Neg and other.arg == self.arg

    def __hash__(self):
        return hash(("neg", self.arg))

    def __repr__(self):
        return "Neg(%r)" % (self.arg,)


class Bin:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right

    def __eq__(self, other):
        return (
            type(other) is Bin
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self):
        return hash(("bin", self.op, self.left, self.right))

    def __repr__(self):
        return "Bin(%r, %r, %r)" % (self.op, self.left, self.right)


class Call:
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        self.fn = fn
        self.arg = arg

    def __eq__(self, other):
        return type(other) is Call and other.fn == self.fn and other.arg == self.arg

    def __hash__(self):
        return hash(("call", self.fn, self.arg))

    def __repr__(self):
        return "Call(%r, %r)" % (self.fn, self.arg)


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, ch):
        kind, text, pos = self.take()
        if kind != _T_OP or text != ch:
            raise ParseError(
                "expected %r at position %d, got %r" % (ch, pos, text or "end of input")
            )

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == _T_OP and text in "+-":
                self.take()
                rhs = self.term()
                node = Bin(text, node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == _T_OP and text in "*/":
                self.take()
                rhs = self.factor()
                node = Bin(text, node, rhs)
            else:
                return node

    def factor(self):
        kind, text, _ = self.peek()
        if kind == _T_OP and text == "-":
            self.take()
            return Neg(self.factor())
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == _T_OP and text == "^":
            self.take()
            return Bin("^", node, self.factor())
        return node

    def atom(self):
        kind, text, pos = self.take()
        if kind == _T_NUM:
            return Num(float(text))
        if kind == _T_NAME:
            k2, t2, _ = self.peek()
            if k2 == _T_OP and t2 == "(":
                if text not in _FUNCTIONS:
                    raise UnknownFunctionError(
                        "unknown function %r at position %d" % (text, pos)
                    )
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            return Var(text)
        if kind == _T_OP and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(
            "unexpected %r at position %d" % (text or "end of input", pos)
        )


def _parse_source(source):
    p = _Parser(_tokenize(source))
    node = p.expr()
    kind, text, pos = p.peek()
    if kind != _T_END:
        raise ParseError("trailing input %r at position %d" % (text, pos))
    return node


# ---------------------------------------------------------------------------
# pretty printer
#
# Precedences chosen so that printing then reparsing gives back the identical
# tree: +,- get 2, *,/ get 4, unary minus 5, ^ 6, atoms 8.  '^' is right
# associative and its base must be an atom; unary minus under '^' needs parens.

def _num_text(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_source(node, min_prec=0):
    if type(node) is Num:
        return _num_text(node.value)
    if type(node) is Var:
        return node.name
    if type(node) is Call:
        return "%s(%s)" % (node.fn, to_source(node.arg, 0))
    if type(node) is Neg:
        body = "-" + to_source(node.arg, 6)
        return body if min_prec <= 5 else "(" + body + ")"
    if type(node) is Bin:
        if node.op in "+-":
            prec, lp, rp = 2, 2, 3
        elif node.op in "*/":
            prec, lp, rp = 4, 4, 5
        else:
            prec, lp, rp = 6, 7, 6
        body = to_source(node.left, lp) + node.op + to_source(node.right, rp)
        return body if min_prec <= prec else "(" + body + ")"
    raise TypeError("not a syntax node: %r" % (node,))


# ---------------------------------------------------------------------------
# evaluation

def _float_fn(name, v):
    if name == "sin":
        return math.sin(v)
    if name == "cos":
        return math.cos(v)
    if name == "tan":
        return math.tan(v)
    if name == "exp":
        try:
            return math.exp(v)
        except OverflowError:
            raise DomainError("exp overflow at %r" % v) from None
    if name == "log":
        if v <= 0.0:
            raise DomainError("log needs a positive argument, got %r" % v)
        return math.log(v)
    if name == "sqrt":
        if v < 0.0:
            raise DomainError("sqrt of negative %r" % v)
        return math.sqrt(v)
    if name == "abs":
        return abs(v)
    raise UnknownFunctionError(name)


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
    return _float_fn(node.fn, _eval(node.arg, env))


def _float_pow(a, b):
    if float(b).is_integer():
        k = int(b)
        if k < 0 and a == 0.0:
            raise DomainError("0 raised to a negative power")
        try:
            return math.pow(a, b)
        except OverflowError:
            raise DomainError("pow overflow: %r^%r" % (a, b)) from None
    if a < 0.0:
        raise DomainError("%r^%r undefined for negative base" % (a, b))
    if a == 0.0 and b < 0.0:
        raise DomainError("0 raised to a negative power")
    try:
        return math.pow(a, b)
    except OverflowError:
        raise DomainError("pow overflow: %r^%r" % (a, b)) from None


def _collect_vars(node, out):
    t = type(node)
    if t is Var:
        out.add(node.name)
    elif t is Neg:
        _collect_vars(node.arg, out)
    elif t is Bin:
        _collect_vars(node.left, out)
        _collect_vars(node.right, out)
    elif t is Call:
        _collect_vars(node.arg, out)


Derivatives = namedtuple("Derivatives", "val grad hess")


class ScalarField:
    """A parsed expression bound to an ordered variable list."""

    __slots__ = ("ast", "variables", "_source", "_partials")

    def __init__(self, ast, variables):
        self.ast = ast
        self.variables = tuple(variables)
        self._source = None
        self._partials = [None] * len(self.variables)

    @property
    def source(self):
        if self._source is None:
            self._source = to_source(self.ast)
        return self._source

    def _env(self, values):
        if len(values) != len(self.variables):
            raise ValueError(
                "expected %d values for %s, got %d"
                % (len(self.variables), self.variables, len(values))
            )
        env = dict(_CONSTANTS)
        for name, v in zip(self.variables, values):
            env[name] = v
        return env

    def _value(self, env):
        out = _eval(self.ast, env)
        if not math.isfinite(out):
            raise DomainError("non-finite result %r from %r" % (out, self.source))
        return out

    def eval(self, values):
        return self._value(self._env([float(v) for v in values]))

    def __call__(self, *values):
        return self.eval(values)

    def _active_indices(self, active):
        if active is None:
            return list(range(len(self.variables)))
        idx = []
        for a in active:
            if isinstance(a, str):
                idx.append(self.variables.index(a))
            else:
                idx.append(int(a))
        return idx

    def _partial(self, j):
        """d(self)/d(variables[j]), built by derive_field on first use."""
        d = self._partials[j]
        if d is None:
            d = self._partials[j] = derive_field(self, self.variables[j])
        return d

    def _derivatives(self, values, active, second):
        # one environment for the value tree and every derivative tree; the
        # Hessian is read from the upper triangle and mirrored, so it is
        # exactly symmetric
        env = self._env([float(v) for v in values])
        val = self._value(env)
        idx = self._active_indices(active)
        firsts = [self._partial(j) for j in idx]
        grad = np.array([_eval(d.ast, env) for d in firsts], dtype=float)
        if not second:
            return Derivatives(val, grad, None)
        k = len(idx)
        hess = np.empty((k, k))
        for s1, d in enumerate(firsts):
            for s2 in range(s1, k):
                hess[s1, s2] = hess[s2, s1] = _eval(d._partial(idx[s2]).ast, env)
        return Derivatives(val, grad, hess)

    def eval_dual2(self, values, active=None):
        """Value, gradient and Hessian with respect to the active variables
        (all of them by default), as a Derivatives triple (val, grad, hess)."""
        return self._derivatives(values, active, True)

    def value_grad(self, values, active=None):
        """Value and gradient only; returns (value, gradient array)."""
        d = self._derivatives(values, active, False)
        return d.val, d.grad

    def fd_grad(self, values, active=None, step=1e-5):
        """Central finite-difference gradient, the independent check on the
        symbolic derivatives."""
        base = [float(v) for v in values]
        idx = self._active_indices(active)
        g = np.zeros(len(idx))
        for slot, j in enumerate(idx):
            up = list(base)
            dn = list(base)
            up[j] += step
            dn[j] -= step
            g[slot] = (self.eval(up) - self.eval(dn)) / (2.0 * step)
        return g

    def fd_hess(self, values, active=None, step=1e-4):
        base = [float(v) for v in values]
        idx = self._active_indices(active)
        k = len(idx)
        h = np.zeros((k, k))
        f0 = self.eval(base)
        for s1, j1 in enumerate(idx):
            up = list(base)
            dn = list(base)
            up[j1] += step
            dn[j1] -= step
            h[s1, s1] = (self.eval(up) - 2.0 * f0 + self.eval(dn)) / (step * step)
            for s2 in range(s1 + 1, k):
                j2 = idx[s2]
                pp = list(base)
                pm = list(base)
                mp = list(base)
                mm = list(base)
                pp[j1] += step
                pp[j2] += step
                pm[j1] += step
                pm[j2] -= step
                mp[j1] -= step
                mp[j2] += step
                mm[j1] -= step
                mm[j2] -= step
                v = (self.eval(pp) - self.eval(pm) - self.eval(mp) + self.eval(mm)) / (
                    4.0 * step * step
                )
                h[s1, s2] = v
                h[s2, s1] = v
        return h

    def is_constant(self):
        used = set()
        _collect_vars(self.ast, used)
        return not used

    def __repr__(self):
        return "ScalarField(%r, vars=%r)" % (self.source, list(self.variables))


def parse(source, variables):
    """Parse an expression over the given ordered variable names.

    Raises ParseError for syntax problems, UnknownVariableError for names
    outside the list, UnknownFunctionError for calls outside the builtin table.
    """
    variables = tuple(variables)
    for name in variables:
        if name in _RESERVED:
            raise ValueError("%r is reserved and cannot be a variable" % name)
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names in %r" % (variables,))
    ast = _parse_source(source)
    used = set()
    _collect_vars(ast, used)
    unknown = sorted(used - set(variables) - set(_CONSTANTS))
    if unknown:
        raise UnknownVariableError(
            "unknown variable%s %s (declared: %s)"
            % ("s" if len(unknown) > 1 else "", ", ".join(unknown), ", ".join(variables))
        )
    return ScalarField(ast, variables)


def constant_field(value, variables):
    return ScalarField(Num(float(value)), tuple(variables))


# ---------------------------------------------------------------------------
# symbolic derivative with constant folding
#
# The one derivative engine: ScalarField caches the partials built here for
# its gradients and Hessians, and the bundle-reduction builder emits them as
# first-class fields (parsed-grade ASTs, derivatives and pretty printing).
# Parsed user input is never simplified; folding applies only to trees built
# here.

def _fold(node):
    t = type(node)
    if t is Neg:
        a = _fold(node.arg)
        if type(a) is Num:
            return _norm_const(-a.value)
        if type(a) is Neg:
            return a.arg
        return Neg(a)
    if t is Call:
        a = _fold(node.arg)
        if type(a) is Num:
            try:
                v = _float_fn(node.fn, a.value)
            except DomainError:
                return Call(node.fn, a)
            if math.isfinite(v):
                return _norm_const(v)
        return Call(node.fn, a)
    if t is not Bin:
        return node
    a = _fold(node.left)
    b = _fold(node.right)
    op = node.op
    na, nb = type(a) is Num, type(b) is Num
    if na and nb:
        try:
            if op == "^":
                v = _float_pow(a.value, b.value)
            elif op == "/":
                if b.value == 0.0:
                    return Bin(op, a, b)
                v = a.value / b.value
            elif op == "+":
                v = a.value + b.value
            elif op == "-":
                v = a.value - b.value
            else:
                v = a.value * b.value
        except DomainError:
            return Bin(op, a, b)
        if math.isfinite(v):
            return _norm_const(v)
        return Bin(op, a, b)
    if op == "+":
        if na and a.value == 0.0:
            return b
        if nb and b.value == 0.0:
            return a
    elif op == "-":
        if nb and b.value == 0.0:
            return a
        if na and a.value == 0.0:
            return Neg(b) if type(b) is not Neg else b.arg
    elif op == "*":
        if (na and a.value == 0.0) or (nb and b.value == 0.0):
            return Num(0.0)
        if na and a.value == 1.0:
            return b
        if nb and b.value == 1.0:
            return a
        if na and a.value == -1.0:
            return Neg(b) if type(b) is not Neg else b.arg
        if nb and b.value == -1.0:
            return Neg(a) if type(a) is not Neg else a.arg
    elif op == "/":
        if na and a.value == 0.0 and not (nb and b.value == 0.0):
            return Num(0.0)
        if nb and b.value == 1.0:
            return a
    elif op == "^":
        if nb and b.value == 1.0:
            return a
        if nb and b.value == 0.0:
            return Num(1.0)
    return Bin(op, a, b)


def _is_zero(node):
    return type(node) is Num and node.value == 0.0


def _norm_const(v):
    # negative literals print as unary minus so folded trees stay reparseable
    if v < 0.0:
        return Neg(Num(-v))
    return Num(v)


def _diff(node, name):
    t = type(node)
    if t is Num:
        return Num(0.0)
    if t is Var:
        return Num(1.0) if node.name == name else Num(0.0)
    if t is Neg:
        return Neg(_diff(node.arg, name))
    if t is Bin:
        a, b = node.left, node.right
        da, db = _diff(a, name), _diff(b, name)
        op = node.op
        if op == "+":
            return Bin("+", da, db)
        if op == "-":
            return Bin("-", da, db)
        if op == "*":
            return Bin("+", Bin("*", da, b), Bin("*", a, db))
        if op == "/":
            num = Bin("-", Bin("*", da, b), Bin("*", a, db))
            return Bin("/", num, Bin("^", b, Num(2.0)))
        # power rule while the exponent does not vary with name, which keeps
        # integer powers of a non-positive base differentiable; otherwise
        # through a^b = exp(b log a)
        if _is_zero(_fold(db)):
            bm1 = Num(b.value - 1.0) if type(b) is Num else Bin("-", b, Num(1.0))
            return Bin("*", Bin("*", b, Bin("^", a, bm1)), da)
        term1 = Bin("*", db, Call("log", a))
        term2 = Bin("/", Bin("*", b, da), a)
        return Bin("*", node, Bin("+", term1, term2))
    if t is Call:
        inner = _diff(node.arg, name)
        a = node.arg
        fn = node.fn
        if fn == "sin":
            outer = Call("cos", a)
        elif fn == "cos":
            outer = Neg(Call("sin", a))
        elif fn == "tan":
            outer = Bin("/", Num(1.0), Bin("^", Call("cos", a), Num(2.0)))
        elif fn == "exp":
            outer = Call("exp", a)
        elif fn == "log":
            outer = Bin("/", Num(1.0), a)
        elif fn == "sqrt":
            outer = Bin("/", Num(0.5), Call("sqrt", a))
        else:  # abs
            outer = Bin("/", a, Call("abs", a))
        return Bin("*", outer, inner)
    raise TypeError("not a syntax node: %r" % (node,))


def derive_field(field, name):
    """d(field)/d(name) as a new ScalarField over the same variables, with
    constant folding applied to the derivative tree."""
    if name not in field.variables:
        raise ValueError("%r is not a variable of %r" % (name, field))
    return ScalarField(_fold(_diff(field.ast, name)), field.variables)
