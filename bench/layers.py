"""Per-layer timing from outside the package.

install() wraps the public functions listed in LAYERS wherever a module of
the package binds them (cli and legendre bind integrate_rk4 and the field
builders at import, so patching flow alone would miss them), and wraps
methods on their classes, which covers every caller.  The three field
builders are wrapped so that the closures they return are traced too.

Each span records its id, its parent's id, the operation it ran under and
its start and end.  A layer's self time is its duration minus the time of
its child spans.  Spans stay in memory and are written when the run ends.
"""

import sys
from collections import defaultdict
from functools import update_wrapper
from time import perf_counter

LAYERS = [
    "cli.load_config",
    "cli.cmd_simulate",
    "flow.integrate_rk4",
    "flow.integrate_rk45",
    "flow.time_derivative",
    "lagrangian.el_field",
    "lagrangian.LagrangianSystem.derivs",
    "lagrangian.solve_fibre_hessian",
    "hamiltonian.hamilton_field",
    "hamiltonian.HamiltonianSystem.grad",
    "hamiltonian.poisson_field",
    "expressions.ScalarField.eval",
    "expressions.ScalarField.eval_dual2",
    "expressions.ScalarField.value_grad",
    "model.AffgebroidModel.structure_at",
    "model.AffgebroidModel.structure_grad_at",
    "model.validate_structure",
    "legendre.leg_inverse",
    "legendre.InducedHamiltonian.grad",
    "legendre.flow_commutation_check",
    "tulczyjew.sigma",
    "tulczyjew.a_map",
    "tulczyjew.s_l_residual",
    "tulczyjew.s_h_point",
    "atiyah.reduce",
    "atiyah.lp_equations_check",
    "atiyah.hp_equations_check",
]

# span name of a field closure -> the builder in its module that returns it
FIELD_BUILDERS = {
    "lagrangian.el_field": "el_vector_field",
    "hamiltonian.hamilton_field": "hamilton_vector_field",
    "hamiltonian.poisson_field": "poisson_hamiltonian_field",
}

RATIOS = ["legendre.newton_evals_per_solve", "flow.rk45_accepted_per_eval"]

SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.depth = defaultdict(int)
        self.stack = []
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.op = ""
        self.newton_derivs = 0
        self.rk45_fields = 0
        self.rk45_accepted = 0

    def wrap(self, name, fn):
        tracer = self
        stack = self.stack
        depth = self.depth
        calls = self.calls
        self_s = self.self_s
        spans = self.spans
        is_field = name in FIELD_BUILDERS
        is_derivs = name == "lagrangian.LagrangianSystem.derivs"
        is_rk45 = name == "flow.integrate_rk45"

        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            depth[name] += 1
            if is_field and depth["flow.integrate_rk45"]:
                tracer.rk45_fields += 1
            elif is_derivs and depth["legendre.leg_inverse"]:
                tracer.newton_derivs += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[name] -= 1
                spent = t1 - t0
                calls[name] += 1
                self_s[name] += spent - frame[1]
                if stack:
                    stack[-1][1] += spent
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent, tracer.op, name, t0, t1))
                else:
                    tracer.dropped += 1
            if is_rk45:
                tracer.rk45_accepted += len(result) - 1
            return result

        update_wrapper(traced, fn)
        return traced

    def install(self):
        """Wrap every layer in the loaded affgebroid modules."""
        modules = [m for nm, m in sys.modules.items()
                   if nm == "affgebroid" or nm.startswith("affgebroid.")]

        def rebind(orig, new):
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, new)

        for name in LAYERS:
            module, _, qual = name.partition(".")
            mod = sys.modules["affgebroid." + module]
            if name in FIELD_BUILDERS:
                builder = getattr(mod, FIELD_BUILDERS[name])

                def build(*args, _builder=builder, _name=name, **kwargs):
                    return self.wrap(_name, _builder(*args, **kwargs))

                rebind(builder, update_wrapper(build, builder))
            elif "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
            else:
                orig = getattr(mod, qual)
                rebind(orig, self.wrap(name, orig))

    def metrics(self, rounds):
        """Per-round calls and self seconds of every layer, and the two
        ratios (0 where the denominator never ran)."""
        out = {}
        for name in LAYERS:
            out[name + ".calls"] = (self.calls[name] / rounds, "count")
            out[name + ".self_s"] = (self.self_s[name] / rounds, "s")
        solves = self.calls["legendre.leg_inverse"]
        out[RATIOS[0]] = (self.newton_derivs / solves if solves else 0.0, "ratio")
        out[RATIOS[1]] = (self.rk45_accepted / self.rk45_fields if self.rk45_fields else 0.0, "ratio")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("span,parent,op,name,start_s,end_s\n")
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write("%d,%d,%s,%s,%.9f,%.9f\n" % (sid, parent, op, name, t0, t1))
            if self.dropped:
                fh.write("# %d later spans dropped past the cap of %d\n" % (self.dropped, SPAN_CAP))
