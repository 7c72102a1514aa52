"""Ready-made example systems used by tests, demos and the CLI configs."""

from types import SimpleNamespace

from .atiyah import flat_spec, magnetic_spec, reduce, so3_spec
from .hamiltonian import HamiltonianSystem
from .lagrangian import LagrangianSystem
from .model import AffgebroidModel, Chart, from_lie_algebroid

SO3_BRACKET = {(1, 2): ["0", "0", "1"], (2, 3): ["1", "0", "0"], (1, 3): ["0", "-1", "0"]}


def oscillator():
    """Harmonic oscillator as time-dependent mechanics on the chart (t, q):
    the reference anchor is the clock, one velocity coordinate along q.
    Exact motion from (q, p) = (1, 0) is (cos t, -sin t)."""
    chart = Chart(
        ["t", "q"],
        1,
        base_box=[(0.0, 10.0), (-2.0, 2.0)],
        fibre_box=[(-2.0, 2.0)],
    )
    model = AffgebroidModel(chart, ["1", "0"], [["0", "1"]])
    lag = LagrangianSystem(model, "0.5*y1^2 - 0.5*q^2")
    ham = HamiltonianSystem(model, "0.5*p1^2 + 0.5*q^2")
    return SimpleNamespace(name="oscillator", model=model, lag=lag, ham=ham)


def rigid_body(lams=(1.0, 2.0, 3.0)):
    """Free rigid body: so(3) wrapped as a model over a frozen base point,
    principal moments lams.  The squared momentum norm is a Casimir."""
    chart = Chart(
        ["t"],
        3,
        base_box=[(0.0, 10.0)],
        fibre_box=[(-3.0, 3.0)] * 3,
    )
    model = from_lie_algebroid(chart, [["0"], ["0"], ["0"]], SO3_BRACKET)
    l_src = " + ".join("0.5*%r*y%d^2" % (lam, a + 1) for a, lam in enumerate(lams))
    h_src = " + ".join("0.5*p%d^2/%r" % (a + 1, lam) for a, lam in enumerate(lams))
    lag = LagrangianSystem(model, l_src)
    ham = HamiltonianSystem(model, h_src)
    return SimpleNamespace(name="rigid_body", model=model, lag=lag, ham=ham)


def twisted_line():
    """Rank-2 algebroid over an interval with base-dependent anchor
    (d/dx and x d/dx, bracket coefficient C_12^1 = 1) and a base-coupled
    regular Lagrangian."""
    chart = Chart(
        ["x"],
        2,
        base_box=[(0.5, 0.9)],
        fibre_box=[(-1.0, 1.0)] * 2,
    )
    model = from_lie_algebroid(chart, [["1"], ["x"]], {(1, 2): ["1", "0"]})
    lag = LagrangianSystem(model, "0.5*y1^2 + 0.5*y2^2 + x*y1")
    ham = HamiltonianSystem(model, "0.5*p1^2 + 0.5*p2^2 - x*p1 + 0.5*x^2")
    return SimpleNamespace(name="twisted_line", model=model, lag=lag, ham=ham)


def drifted_plane():
    """Constant reference-bracket coefficients C_01, C_02 (a central clock
    rotating the fibre), zero anchors: exercises the C0 terms alone."""
    chart = Chart(["t"], 2, base_box=[(0.0, 5.0)], fibre_box=[(-2.0, 2.0)] * 2)
    model = AffgebroidModel(
        chart,
        ["0"],
        [["0"], ["0"]],
        c0=[["0", "1"], ["-1", "0"]],
    )
    lag = LagrangianSystem(model, "0.5*y1^2 + 0.5*y2^2 + 0.25*y1*y2")
    ham = HamiltonianSystem(model, "8*p1^2/15 + 8*p2^2/15 - 4*p1*p2/15")
    return SimpleNamespace(name="drifted_plane", model=model, lag=lag, ham=ham)


def flat_bundle():
    """Zero-curvature reduction, one spatial direction and one abelian
    charge: the model every bracket term of which vanishes."""
    spec = flat_spec()
    model = reduce(spec)
    lag = LagrangianSystem(model, "0.5*y1^2 + 0.5*y2^2")
    ham = HamiltonianSystem(model, "0.5*p1^2 + 0.5*p2^2")
    return SimpleNamespace(name="flat_bundle", spec=spec, model=model, lag=lag, ham=ham)


def magnetic_line():
    """Abelian reduction whose bracket carries a field strength growing with
    x1; the charge velocity couples to the spatial one through it."""
    spec = magnetic_spec()
    model = reduce(spec)
    lag = LagrangianSystem(model, "0.5*y1^2 + 0.5*y2^2 - 0.5*x1^2")
    ham = HamiltonianSystem(model, "0.5*p1^2 + 0.5*p2^2 + 0.5*x1^2")
    return SimpleNamespace(name="magnetic_line", spec=spec, model=model, lag=lag, ham=ham)


def rotating_frame():
    """Rotation-algebra reduction with curvature, twisted transport and the
    constant bracket block all nonzero; anisotropic kinetic weights."""
    spec = so3_spec()
    model = reduce(spec)
    lag = LagrangianSystem(model, "0.5*y1^2 + y2^2 + 0.5*y3^2 + 1.5*y4^2")
    ham = HamiltonianSystem(model, "0.5*p1^2 + 0.25*p2^2 + 0.5*p3^2 + p4^2/6")
    return SimpleNamespace(name="rotating_frame", spec=spec, model=model, lag=lag, ham=ham)


def all_entries():
    return [
        oscillator(),
        rigid_body(),
        twisted_line(),
        drifted_plane(),
        flat_bundle(),
        magnetic_line(),
        rotating_frame(),
    ]
