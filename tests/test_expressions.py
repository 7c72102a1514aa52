import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affgebroid.errors import (
    DomainError,
    ParseError,
    UnknownFunctionError,
    UnknownVariableError,
)
from affgebroid.expressions import (
    Bin,
    Call,
    Neg,
    Num,
    ScalarField,
    Var,
    derive_field,
    parse,
    to_source,
    _parse_source,
)


def test_hand_value():
    f = parse("0.5*y1^2 - 0.5*q^2", ["t", "q", "y1"])
    # 0.5*0.25 - 0.5*1
    assert f.eval([0.0, 1.0, 0.5]) == pytest.approx(-0.375, abs=1e-15)


def test_precedence_and_unary_minus():
    f = parse("-x^2", ["x"])
    assert f.eval([3.0]) == -9.0
    g = parse("2^-3", ["x"])
    assert g.eval([0.0]) == 0.125
    h = parse("2*x^2", ["x"])
    assert h.eval([3.0]) == 18.0
    k = parse("2-3-4", ["x"])
    assert k.eval([0.0]) == -5.0
    m = parse("2^3^2", ["x"])  # right associative
    assert m.eval([0.0]) == 512.0
    assert parse("8/4/2", ["x"]).eval([0.0]) == 1.0


def test_constants_and_functions():
    f = parse("sin(pi/2) + log(e)", [])
    assert f.eval([]) == pytest.approx(2.0, abs=1e-15)
    g = parse("sqrt(abs(-9))", [])
    assert g.eval([]) == 3.0
    assert parse("tan(0.3)", []).eval([]) == pytest.approx(math.tan(0.3))


def test_scientific_notation_and_e_name():
    assert parse("2e3", []).eval([]) == 2000.0
    assert parse("1.5e-2", []).eval([]) == 0.015
    # 'e' right after a number without digits is the constant, not an exponent
    assert parse("2*e", []).eval([]) == pytest.approx(2 * math.e)
    assert parse(".5", []).eval([]) == 0.5


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("1 +", ["x"])
    with pytest.raises(ParseError):
        parse("(x", ["x"])
    with pytest.raises(ParseError):
        parse("x $ y", ["x", "y"])
    with pytest.raises(UnknownVariableError):
        parse("x + zz", ["x"])
    with pytest.raises(UnknownFunctionError):
        parse("sinh(x)", ["x"])
    with pytest.raises(ValueError):
        parse("x", ["pi"])
    with pytest.raises(ValueError):
        parse("x", ["x", "x"])


def test_domain_errors():
    with pytest.raises(DomainError):
        parse("1/x", ["x"]).eval([0.0])
    with pytest.raises(DomainError):
        parse("log(x)", ["x"]).eval([-1.0])
    with pytest.raises(DomainError):
        parse("sqrt(x)", ["x"]).eval([-4.0])
    with pytest.raises(DomainError):
        parse("x^0.5", ["x"]).eval([-4.0])
    with pytest.raises(DomainError):
        parse("exp(x)", ["x"]).eval([1e6])
    with pytest.raises(DomainError):
        parse("x^y", ["x", "y"]).eval_dual2([0.0, 2.5])
    with pytest.raises(DomainError):
        parse("1/x", ["x"]).eval_dual2([0.0])
    with pytest.raises(DomainError):
        parse("abs(x)", ["x"]).eval_dual2([0.0])


def test_integer_power_exact_at_zero():
    f = parse("x^3", ["x"])
    d = f.eval_dual2([0.0])
    assert d.val == 0.0
    assert d.grad[0] == 0.0
    assert d.hess[0, 0] == 0.0
    g = parse("x^2", ["x"])
    d = g.eval_dual2([0.0])
    assert (d.val, d.grad[0], d.hess[0, 0]) == (0.0, 0.0, 2.0)
    # negative integer exponent
    h = parse("x^-2", ["x"])
    assert h.eval([2.0]) == 0.25
    d = h.eval_dual2([2.0])
    assert d.grad[0] == pytest.approx(-2.0 / 8.0, rel=1e-14)


def test_dual_known_derivatives():
    f = parse("x^2*y + sin(x*y)", ["x", "y"])
    x, y = 0.7, -1.3
    d = f.eval_dual2([x, y])
    c = math.cos(x * y)
    s = math.sin(x * y)
    assert d.val == pytest.approx(x * x * y + s, rel=1e-14)
    assert d.grad[0] == pytest.approx(2 * x * y + c * y, rel=1e-14)
    assert d.grad[1] == pytest.approx(x * x + c * x, rel=1e-14)
    assert d.hess[0, 0] == pytest.approx(2 * y - s * y * y, rel=1e-13)
    assert d.hess[0, 1] == pytest.approx(2 * x + c - s * x * y, rel=1e-13)
    assert d.hess[1, 1] == pytest.approx(-s * x * x, rel=1e-13)
    assert np.array_equal(d.hess, d.hess.T)


def test_active_subset():
    f = parse("x*y + y^2", ["x", "y"])
    d = f.eval_dual2([2.0, 3.0], active=["y"])
    assert d.grad.shape == (1,)
    assert d.grad[0] == pytest.approx(2.0 + 6.0)
    assert d.hess[0, 0] == pytest.approx(2.0)
    d2 = f.eval_dual2([2.0, 3.0], active=[0])
    assert d2.grad[0] == pytest.approx(3.0)
    empty = f.eval_dual2([2.0, 3.0], active=[])
    assert empty.grad.shape == (0,)
    assert empty.hess.shape == (0, 0)


_CORPUS = [
    ("x^2*y - y^3/3 + 2", ["x", "y"], [0.8, -0.6]),
    ("sin(x)*cos(y) + exp(x*y/4)", ["x", "y"], [0.5, 1.1]),
    ("sqrt(x^2 + y^2 + 1)", ["x", "y"], [-0.4, 0.9]),
    ("log(2 + x^2) + tan(y/3)", ["x", "y"], [1.2, 0.7]),
    ("x^2.5 + y", ["x", "y"], [1.7, 0.3]),
    ("(x + y)^4/(1 + x^2)", ["x", "y"], [0.6, -0.2]),
    ("abs(x)*y", ["x", "y"], [-0.9, 0.4]),
    ("exp(-x^2/2)*cos(3*y)", ["x", "y"], [0.35, -0.8]),
]


@pytest.mark.parametrize("src,names,point", _CORPUS)
def test_ad_matches_fd(src, names, point):
    f = parse(src, names)
    d = f.eval_dual2(point)
    fg = f.fd_grad(point)
    fh = f.fd_hess(point)
    scale_g = max(1.0, float(np.max(np.abs(fg))))
    scale_h = max(1.0, float(np.max(np.abs(fh))))
    assert np.max(np.abs(d.grad - fg)) / scale_g < 1e-6
    assert np.max(np.abs(d.hess - fh)) / scale_h < 1e-6


def test_value_grad_matches_dual():
    f = parse("sin(x)*y^2 + x/y", ["x", "y"])
    v, g = f.value_grad([0.4, 1.7])
    d = f.eval_dual2([0.4, 1.7])
    assert v == d.val
    assert np.array_equal(g, d.grad)


# --- printer round trip ----------------------------------------------------

def test_roundtrip_examples():
    for src in [
        "-x^2",
        "(-x)^2",
        "x^(-2)",
        "-x*y",
        "-(x*y)",
        "a - -b",
        "a-(b-c)",
        "2^3^2",
        "(a+b)*c",
        "sin(x+1)/cos(x)",
        "x/(y*z)",
        "-(a+b)",
    ]:
        names = ["x", "y", "z", "a", "b", "c"]
        t1 = _parse_source(src)
        t2 = _parse_source(to_source(t1))
        assert t1 == t2, (src, to_source(t1))


_names = st.sampled_from(["x", "y", "z", "q", "p1"])
_nums = st.one_of(
    st.integers(min_value=0, max_value=9).map(float),
    st.sampled_from([0.5, 1.5, 2.25, 0.125, 3.75]),
)


def _trees(depth):
    if depth == 0:
        return st.one_of(_nums.map(Num), _names.map(Var))
    sub = _trees(depth - 1)
    return st.one_of(
        _nums.map(Num),
        _names.map(Var),
        sub.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: Bin(*t)),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]), sub).map(
            lambda t: Call(*t)
        ),
    )


@settings(max_examples=300, deadline=None)
@given(_trees(4))
def test_roundtrip_property(tree):
    assert _parse_source(to_source(tree)) == tree


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    _trees(3),
    st.lists(st.floats(min_value=0.3, max_value=1.7), min_size=5, max_size=5),
)
def test_symbolic_derivatives_match_fd_property(tree, point):
    f = ScalarField(tree, ["x", "y", "z", "q", "p1"])
    try:
        v, g = f.value_grad(point)
        d = f.eval_dual2(point)
        fg = f.fd_grad(point)
        fh = f.fd_hess(point)
    except DomainError:
        return  # a domain boundary within reach of the point or the stencil
    assert v == d.val == f.eval(point)
    assert np.array_equal(g, d.grad)
    assert np.array_equal(d.hess, d.hess.T)
    scale_g = max(1.0, float(np.max(np.abs(fg))))
    scale_h = max(1.0, float(np.max(np.abs(fh))))
    assert np.max(np.abs(d.grad - fg)) / scale_g < 1e-6
    assert np.max(np.abs(d.hess - fh)) / scale_h < 1e-4


# --- symbolic derivative helper -------------------------------------------

def test_derive_field_matches_ad():
    f = parse("x^2*sin(y) + exp(x)/(1 + y^2)", ["x", "y"])
    dx = derive_field(f, "x")
    dy = derive_field(f, "y")
    for pt in [[0.3, 0.8], [1.1, -0.4], [-0.7, 2.0]]:
        d = f.eval_dual2(pt)
        assert dx.eval(pt) == pytest.approx(d.grad[0], rel=1e-12, abs=1e-12)
        assert dy.eval(pt) == pytest.approx(d.grad[1], rel=1e-12, abs=1e-12)


def test_derive_field_folds_simple_polys():
    f = parse("x1*t", ["t", "x1"])
    assert derive_field(f, "t").source == "x1"
    assert derive_field(f, "x1").source == "t"
    g = parse("3", ["t"])
    assert derive_field(g, "t").source == "0"


def test_parsed_tree_not_simplified():
    f = parse("x + 0", ["x"])
    assert f.source == "x+0"
