"""Scalar fields on a chart: expression parsing, evaluation, and derivatives.

Grammar (infix, left associative except '^'):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | atom ('^' factor)?
    atom    := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Unary minus binds looser than '^', so -x^2 means -(x^2).  Builtin functions:
sin cos tan exp log sqrt abs.  Constants: pi, e (reserved, cannot be variables).
A NUMBER beyond the float range is a ParseError.

Evaluation is compiled, not interpreted: compile_trees turns a list of trees
into one generated Python function of straight-line code with shared
subexpressions, keeping the float helpers' domain errors.  A field compiles
one kernel per derivative order, the value (0), with the gradient (1) and
with the Hessian (2), on first use and keeps them.  Derivatives are exact
and symbolic: derive_field differentiates the tree, each field caches its
partials (and their partials for the Hessian), and the value and
derivative trees go into one kernel.
The tests keep central finite differences as the independent check on them.

Every tree the package builds, rather than parses, goes through one set of
folding constructors: tree_num, tree_op, tree_negate, tree_call and
tree_sum.  The derivatives, the dynamics kernels and the reduced bracket
functions are all built with them, and parsed input is never simplified for
evaluation.
"""

import math
import operator
from collections import namedtuple
from dataclasses import dataclass

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
# str.isdigit also takes other scripts' digits and superscripts, which float()
# refuses or reads as other numbers
_DIGITS = set("0123456789")


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
        if ch in _DIGITS or (ch == "." and i + 1 < n and source[i + 1] in _DIGITS):
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j] in _DIGITS:
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k] in _DIGITS:
                    j = k
                    while j < n and source[j] in _DIGITS:
                        j += 1
                # otherwise the e/E starts a name token, e.g. "2e" in "2*e"
            text = source[i:j]
            if math.isinf(float(text)):
                raise ParseError("number %r out of range at position %d" % (text, i))
            toks.append((_T_NUM, text, i))
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
#
# Nodes compare structurally; the generated __eq__ also checks the class.
# A Num holds a float, since compile_trees calls .is_integer() on literals.

@dataclass(slots=True)
class Num:
    value: float


@dataclass(slots=True)
class Var:
    name: str


@dataclass(slots=True)
class Neg:
    arg: object


@dataclass(slots=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(slots=True)
class Call:
    fn: str
    arg: object


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

def _exp(v):
    try:
        return math.exp(v)
    except OverflowError:
        raise DomainError("exp overflow at %r" % v) from None


def _log(v):
    if v <= 0.0:
        raise DomainError("log needs a positive argument, got %r" % v)
    return math.log(v)


def _sqrt(v):
    if v < 0.0:
        raise DomainError("sqrt of negative %r" % v)
    return math.sqrt(v)


_FLOAT_FNS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": _exp,
    "log": _log,
    "sqrt": _sqrt,
    "abs": abs,
}


def _float_pow(a, b):
    if a == 0.0 and b < 0.0:
        raise DomainError("0 raised to a negative power")
    if a < 0.0 and not b.is_integer():
        raise DomainError("%r^%r undefined for negative base" % (a, b))
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


# ---------------------------------------------------------------------------
# compilation
#
# A kernel is one generated Python function of straight-line code over a
# list of trees.  Variables are its positional arguments and every distinct
# subtree is one assignment to a temporary.  Statements follow the
# left-to-right post-order of a tree walk, tree after tree, and a subtree
# already assigned is not evaluated again, so the first error a kernel raises
# is the one a walk of the same trees in the same order would raise.

def _pow_overflow(a, b):
    return DomainError("pow overflow: %r^%r" % (a, b))


_KERNEL_GLOBALS = {
    "_pow": _float_pow,
    "_mpow": math.pow,
    "_overflow": _pow_overflow,
    "_isfinite": math.isfinite,
    "DomainError": DomainError,
    "inf": math.inf,
    "nan": math.nan,
}
_KERNEL_GLOBALS.update(("_" + name, fn) for name, fn in _FLOAT_FNS.items())


def _literal(v):
    # repr round-trips a float and keeps the sign of -0.0
    text = repr(v)
    return "(%s)" % text if text.startswith("-") else text


def compile_trees(outputs, variables, steps=()):
    """One function f(*values) -> tuple of the values of the output trees,
    over the ordered variable names.

    steps is a sequence of (tree, checked) pairs evaluated first and in
    order, so that the error a kernel raises is the one evaluating them one
    by one would raise; a checked step whose value is not finite raises
    DomainError as ScalarField.eval does.  '/' raises DomainError on a zero
    divisor, '^' goes through _float_pow and calls through the float helpers;
    a power with a literal exponent that is a whole number >= 0 calls
    math.pow directly, which is what _float_pow does for it.
    Equal subtrees share one temporary: a subtree is keyed by its operator
    and the temporaries of its operands, which is structural equality except
    that the literals 0 and -0 stay apart.
    """
    operand = {("var", name): "v%d" % i for i, name in enumerate(variables)}
    operand.update((("var", name), _literal(v)) for name, v in _CONSTANTS.items())
    lines = []
    divides = False
    walked = {}  # id -> (node, operand) of each node walked, kept alive

    def emit(node):
        # a node met again, as a shared subtree is, is not walked again
        hit = walked.get(id(node))
        if hit is None:
            hit = walked[id(node)] = node, walk(node)
        return hit[1]

    def walk(node):
        nonlocal divides
        whole_power = False
        t = type(node)
        if t is Num:
            return _literal(node.value)
        if t is Var:
            return operand[("var", node.name)]
        if t is Neg:
            a = emit(node.arg)
            key, expr = ("neg", a), "-" + a
        elif t is Bin:
            a, b = emit(node.left), emit(node.right)
            key = ("bin", node.op, a, b)
            if node.op == "^":
                e = literal_value(node.right)
                whole_power = e is not None and e >= 0.0 and e.is_integer()
                expr = "_pow(%s, %s)" % (a, b)
            else:
                expr = "%s %s %s" % (a, node.op, b)
                divides = divides or node.op == "/"
        elif t is Call:
            if node.fn not in _FLOAT_FNS:
                raise UnknownFunctionError(node.fn)
            a = emit(node.arg)
            key, expr = ("call", node.fn, a), "_%s(%s)" % (node.fn, a)
        else:
            raise TypeError("not a syntax node: %r" % (node,))
        name = operand.get(key)
        if name is None:
            name = operand[key] = "t%d" % len(lines)
            if whole_power:
                lines.append("try: %s = _mpow(%s, %s)" % (name, a, b))
                lines.append("except OverflowError: raise _overflow(%s, %s) from None" % (a, b))
            else:
                lines.append("%s = %s" % (name, expr))
        return name

    for i, (tree, checked) in enumerate(steps):
        out = emit(tree)
        value = literal_value(tree)
        if checked and not (value is not None and math.isfinite(value)):
            lines.append("if not _isfinite(%s): raise _nonfinite(%s, %d)" % (out, out, i))
    outs = [emit(tree) for tree in outputs]
    emit = walk = None  # they call each other: a cycle that would keep walked
    lines.append("return (%s)" % "".join(o + ", " for o in outs))
    if divides:
        # Python's float division raises ZeroDivisionError exactly where the
        # divisor == 0.0 test would, and nothing else in a kernel raises it
        lines = ["try:"] + ["    " + ln for ln in lines] + [
            "except ZeroDivisionError:",
            '    raise DomainError("division by zero") from None',
        ]
    source = "def kernel(%s):\n%s\n" % (
        ", ".join("v%d" % i for i in range(len(variables))),
        "\n".join("    " + ln for ln in lines),
    )

    def nonfinite(v, i):
        return DomainError("non-finite result %r from %r" % (v, to_source(steps[i][0])))

    namespace = dict(_KERNEL_GLOBALS, _nonfinite=nonfinite)
    exec(compile(source, "<kernel>", "exec"), namespace)
    # popped, so that the kernel and its globals form no reference cycle
    return namespace.pop("kernel")


# ---------------------------------------------------------------------------
# building trees
#
# The one rule table.  Each constructor folds as it builds, on operands built
# through it: an operation on literals becomes its value when that is finite
# and computing it raises no DomainError and does not divide by zero; an
# operand 0 of + and -, 1 or -1 of *, and 1 of / and ^ drops out; a factor
# or numerator 0 gives 0 and an exponent 0 gives 1; a double negation
# cancels; a + -b becomes a - b; a negative value, -0 too, is the negation
# of a literal, so built trees print and reparse.  Apart from the sign of a
# zero, and from a 0 absorbing a factor that is not finite or raises, no
# rule changes the value of the tree it replaces, and a folded literal is
# computed by the float helpers a kernel calls.

_BIN_FNS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": _float_pow,
}


def literal_value(tree):
    """The value of a literal tree, a number or a negated number; None for
    any other tree."""
    if type(tree) is Num:
        return tree.value
    if type(tree) is Neg and type(tree.arg) is Num:
        return -tree.arg.value
    return None


def tree_num(v):
    """The literal v; -0 too is the negation of a literal."""
    return Neg(Num(-v)) if math.copysign(1.0, v) < 0.0 else Num(v)


def _constant(fn, *args):
    # the literal fn(*args), or None where that is no finite value
    try:
        v = fn(*args)
    except (DomainError, ZeroDivisionError):
        return None
    return tree_num(v) if math.isfinite(v) else None


def tree_op(op, a, b):
    """a op b, for op one of + - * / ^."""
    va, vb = literal_value(a), literal_value(b)
    if va is not None and vb is not None:
        folded = _constant(_BIN_FNS[op], va, vb)
        return Bin(op, a, b) if folded is None else folded
    if op == "+":
        if va == 0.0:
            return b
        if vb == 0.0:
            return a
        if type(b) is Neg:
            return Bin("-", a, b.arg)
    elif op == "-":
        if vb == 0.0:
            return a
        if va == 0.0:
            return tree_negate(b)
    elif op == "*":
        # at most one operand is a literal here
        lit, other = (va, b) if va is not None else (vb, a)
        if lit == 0.0:
            return Num(0.0)
        if lit == 1.0:
            return other
        if lit == -1.0:
            return tree_negate(other)
    elif op == "/":
        if va == 0.0:
            return Num(0.0)
        if vb == 1.0:
            return a
    elif vb == 1.0:
        return a
    elif vb == 0.0:
        return Num(1.0)
    return Bin(op, a, b)


def tree_negate(a):
    """-a."""
    if type(a) is Neg:
        return a.arg
    return tree_num(-a.value) if type(a) is Num else Neg(a)


def tree_call(fn, a):
    """fn(a), for fn a builtin function."""
    v = literal_value(a)
    folded = None if v is None or fn not in _FLOAT_FNS else _constant(_FLOAT_FNS[fn], v)
    return Call(fn, a) if folded is None else folded


def tree_sum(terms):
    """Left-to-right sum of the trees in terms; the literal 0 for none."""
    out = Num(0.0)
    for t in terms:
        out = tree_op("+", out, t)
    return out


def rebuild(tree, subs=None):
    """tree built again through the constructors, folded bottom up, with
    each variable named in the dict subs replaced by its tree."""
    t = type(tree)
    if t is Neg:
        return tree_negate(rebuild(tree.arg, subs))
    if t is Bin:
        return tree_op(tree.op, rebuild(tree.left, subs), rebuild(tree.right, subs))
    if t is Call:
        return tree_call(tree.fn, rebuild(tree.arg, subs))
    if t is Var and subs:
        return subs.get(tree.name, tree)
    return tree


_F64 = np.dtype(float)


def float_args(values, variables):
    """values as a list of Python floats, one per variable."""
    if type(values) is np.ndarray and values.dtype is _F64 and values.ndim == 1:
        out = values.tolist()
    else:
        out = [float(v) for v in values]
    if len(out) != len(variables):
        raise ValueError(
            "expected %d values for %s, got %d" % (len(variables), variables, len(out))
        )
    return out


Derivatives = namedtuple("Derivatives", "val grad hess")


class ScalarField:
    """A parsed expression bound to an ordered variable list."""

    __slots__ = ("ast", "variables", "_source", "_partials", "_kernels")

    def __init__(self, ast, variables):
        self.ast = ast
        self.variables = tuple(variables)
        self._source = None
        self._partials = [None] * len(self.variables)
        # compiled on first evaluation, keyed by derivative order, see _kernel
        self._kernels = {}

    @property
    def source(self):
        if self._source is None:
            self._source = to_source(self.ast)
        return self._source

    def _partial(self, j):
        """d(self)/d(variables[j]), built by derive_field on first use."""
        d = self._partials[j]
        if d is None:
            d = self._partials[j] = derive_field(self, self.variables[j])
        return d

    def _kernel(self, order):
        # the value, then the gradient (order >= 1), then the Hessian row by
        # row (order 2): the upper triangle is evaluated in the order the
        # rows are filled and the lower one mirrors it, so the Hessian is
        # exactly symmetric
        kernel = self._kernels.get(order)
        if kernel is None:
            k = len(self.variables)
            firsts = [self._partial(j) for j in range(k)] if order else []
            trees = [self.ast] + [d.ast for d in firsts]
            if order == 2:
                trees += [
                    firsts[min(r, s)]._partial(max(r, s)).ast for r in range(k) for s in range(k)
                ]
            kernel = self._kernels[order] = compile_trees(trees, self.variables, [(self.ast, True)])
        return kernel

    def eval(self, values):
        return self._kernel(0)(*float_args(values, self.variables))[0]

    def __call__(self, *values):
        return self.eval(values)

    def eval_dual2(self, values):
        """Value, gradient and Hessian, as a Derivatives triple (val, grad,
        hess)."""
        k = len(self.variables)
        out = self._kernel(2)(*float_args(values, self.variables))
        arr = np.array(out[1:], dtype=float)
        return Derivatives(out[0], arr[:k], arr[k:].reshape(k, k))

    def value_grad(self, values):
        """Value and gradient only; returns (value, gradient array)."""
        out = self._kernel(1)(*float_args(values, self.variables))
        return out[0], np.array(out[1:], dtype=float)

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


def bind_row(row, k, variables, what):
    """k fields over a tuple of variable names, from ScalarFields (which must
    be bound to exactly those variables), expression strings or numbers."""
    row = list(row)
    if len(row) != k:
        raise ValueError("%s needs %d entries, got %d" % (what, k, len(row)))
    fields = []
    for entry in row:
        if isinstance(entry, ScalarField):
            if entry.variables != variables:
                raise ValueError(
                    "%s: field bound to %r, base is %r" % (what, entry.variables, variables)
                )
            fields.append(entry)
        elif isinstance(entry, str):
            fields.append(parse(entry, variables))
        else:
            fields.append(constant_field(float(entry), variables))
    return tuple(fields)


# ---------------------------------------------------------------------------
# symbolic derivative
#
# The one derivative engine: ScalarField caches the partials built here for
# its gradients and Hessians, and the bundle-reduction builder emits them as
# first-class fields (parsed-grade ASTs, derivatives and pretty printing).
# derive_field rebuilds its input once, so the subtrees the derivative
# repeats are folded too, and _diff builds every node through the
# constructors.

def _diff(node, name):
    t = type(node)
    if t is Num:
        return Num(0.0)
    if t is Var:
        return Num(1.0 if node.name == name else 0.0)
    if t is Neg:
        return tree_negate(_diff(node.arg, name))
    if t is Bin:
        a, b = node.left, node.right
        da, db = _diff(a, name), _diff(b, name)
        op = node.op
        if op in "+-":
            return tree_op(op, da, db)
        if op == "*":
            return tree_op("+", tree_op("*", da, b), tree_op("*", a, db))
        if op == "/":
            num = tree_op("-", tree_op("*", da, b), tree_op("*", a, db))
            return tree_op("/", num, tree_op("^", b, Num(2.0)))
        # power rule while the exponent does not vary with name, which keeps
        # integer powers of a non-positive base differentiable; otherwise
        # through a^b = exp(b log a)
        if literal_value(db) == 0.0:
            power = tree_op("^", a, tree_op("-", b, Num(1.0)))
            return tree_op("*", tree_op("*", b, power), da)
        term1 = tree_op("*", db, tree_call("log", a))
        term2 = tree_op("/", tree_op("*", b, da), a)
        return tree_op("*", node, tree_op("+", term1, term2))
    if t is Call:
        inner = _diff(node.arg, name)
        a = node.arg
        fn = node.fn
        if fn == "sin":
            outer = tree_call("cos", a)
        elif fn == "cos":
            outer = tree_negate(tree_call("sin", a))
        elif fn == "tan":
            outer = tree_op("/", Num(1.0), tree_op("^", tree_call("cos", a), Num(2.0)))
        elif fn == "exp":
            outer = tree_call("exp", a)
        elif fn == "log":
            outer = tree_op("/", Num(1.0), a)
        elif fn == "sqrt":
            outer = tree_op("/", Num(0.5), tree_call("sqrt", a))
        else:  # abs
            outer = tree_op("/", a, tree_call("abs", a))
        return tree_op("*", outer, inner)
    raise TypeError("not a syntax node: %r" % (node,))


def derive_field(field, name):
    """d(field)/d(name) as a new ScalarField over the same variables, built
    through the folding constructors."""
    if name not in field.variables:
        raise ValueError("%r is not a variable of %r" % (name, field))
    return ScalarField(_diff(rebuild(field.ast), name), field.variables)
