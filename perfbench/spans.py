"""Spans around the layer boundaries of issgain, installed from outside the package.

``install`` replaces each listed function with a timing wrapper in every
issgain module that holds a reference to it, so the wrapper runs wherever a
caller looks the name up (``issgain.cli.simulate_fd``, the module global
``issgain.backstepping.tail_quadrature_matrix`` and so on).  Spans are kept
in memory as (name, start, end, parent, info) and written out at the end of
the run; ``per_layer`` turns them into the per-op metrics of BENCHMARK.json.

Small helpers called thousands of times per op (``simpson_weights``,
``uniform_grid``, ``require_same_grid``) are not wrapped, so that the trace
costs little next to the work it measures; their time counts as self time of
the layer that calls them.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute) -> span name.  A dotted attribute names a method.
WRAPPED = {
    ("issgain.cli", "main"): "cli.main",
    ("issgain.csvio", "write_csv"): "csvio.write_csv",
    ("issgain.sturm_liouville", "solve_spectrum"): "sturm_liouville.solve_spectrum",
    ("issgain.sturm_liouville", "check_hypothesis_H"): "sturm_liouville.check_hypothesis_H",
    ("issgain.sturm_liouville", "solve_steady_bvp"): "sturm_liouville.solve_steady_bvp",
    ("issgain.gains", "transport_gain"): "gains.transport_gain",
    ("issgain.gains", "backstepping_gain"): "gains.backstepping_gain",
    ("issgain.gains", "gain_bvp"): "gains.gain_bvp",
    ("issgain.pde_sim", "simulate_fd"): "pde_sim.simulate_fd",
    ("issgain.pde_sim", "simulate_spectral"): "pde_sim.simulate_spectral",
    ("issgain.pde_sim", "simulate_via_lifting"): "pde_sim.simulate_via_lifting",
    ("issgain.pde_sim", "verify_iss"): "pde_sim.verify_iss",
    ("issgain.disturbances", "DisturbanceSignal.exp_convolution"):
        "disturbances.exp_convolution",
    ("issgain.disturbances", "DisturbanceSignal.exp_convolution_derivative"):
        "disturbances.exp_convolution",
    ("issgain.backstepping", "solve_kernel"): "backstepping.solve_kernel",
    ("issgain.backstepping", "solve_inverse_kernel"): "backstepping.solve_kernel",
    ("issgain.backstepping", "apply_transform"): "backstepping.apply_transform",
    ("issgain.backstepping", "simulate_closed_loop"): "backstepping.simulate_closed_loop",
    ("issgain.grids", "tail_quadrature_matrix"): "grids.tail_quadrature_matrix",
}


def _info_fd(args, kwargs, result):
    return {"steps": round(float(result.times[-1]) / result.dt)}


def _info_kernel(args, kwargs, result):
    return {"kernel": id(result)}


def _info_closed_loop(args, kwargs, result):
    return {"kernels": [id(result.kernel), id(result.inverse_kernel)]}


def _info_quadrature(args, kwargs, result):
    return {"resolution": args[0] if args else kwargs["resolution"]}


INFO = {
    "pde_sim.simulate_fd": _info_fd,
    "backstepping.solve_kernel": _info_kernel,
    "backstepping.simulate_closed_loop": _info_closed_loop,
    "grids.tail_quadrature_matrix": _info_quadrature,
}


class Tracer:
    def __init__(self):
        self.spans = []              # [name, start, end, parent, info]
        self._stack = []
        self.gridfunctions = 0
        self.op = 0                  # index of the op being run, set by the caller

    def reset(self):
        self.spans.clear()
        self.gridfunctions = 0

    def wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[4] = dict(info(args, kwargs, result), op=self.op)
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "issgain" or n.startswith("issgain.")]
        for (mod_name, attr), name in WRAPPED.items():
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            setattr(owner, attr, wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        grid_function = sys.modules["issgain.grids"].GridFunction
        post_init = grid_function.__post_init__

        def counted(obj):
            self.gridfunctions += 1
            post_init(obj)

        grid_function.__post_init__ = counted

    def write(self, path):
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": None if parent is None else index[id(parent)],
                                     "info": info}) + "\n")

    def per_layer(self, n_ops: int) -> dict:
        """Per-op layer metrics from the spans of ``n_ops`` timed ops."""
        total, self_time, calls = {}, {}, {}
        child_time = {}
        for span in self.spans:
            parent = span[3]
            if parent is not None:
                child_time[id(parent)] = child_time.get(id(parent), 0.0) + span[2] - span[1]
        for span in self.spans:
            name, dur = span[0], span[2] - span[1]
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + dur - child_time.get(id(span), 0.0)
            ancestor = span[3]
            while ancestor is not None and ancestor[0] != name:
                ancestor = ancestor[3]
            if ancestor is None:     # count a layer's time once when it nests in itself
                total[name] = total.get(name, 0.0) + dur

        def ms(name, table=total):
            return 1e3 * table.get(name, 0.0) / n_ops

        def count(name):
            return calls.get(name, 0) / n_ops

        def infos(name):
            return [s[4] for s in self.spans if s[0] == name]

        fd_steps = sum(i["steps"] for i in infos("pde_sim.simulate_fd"))
        # object ids are unique only among live objects, so pair them with the op
        solved = {(i["op"], i["kernel"]) for i in infos("backstepping.solve_kernel")}
        used = {(i["op"], k) for i in infos("backstepping.simulate_closed_loop")
                for k in i["kernels"]}
        quad = infos("grids.tail_quadrature_matrix")
        return {
            "cli.self_ms": ms("cli.main", self_time),
            "csvio.write_ms": ms("csvio.write_csv"),
            "sturm_liouville.solve_spectrum_ms": ms("sturm_liouville.solve_spectrum"),
            "sturm_liouville.solve_spectrum_calls": count("sturm_liouville.solve_spectrum"),
            "sturm_liouville.check_hypothesis_H_ms": ms("sturm_liouville.check_hypothesis_H"),
            "sturm_liouville.solve_steady_bvp_ms": ms("sturm_liouville.solve_steady_bvp"),
            "gains.transport_gain_ms": ms("gains.transport_gain"),
            "gains.gain_bvp_self_ms": ms("gains.gain_bvp", self_time),
            "pde_sim.simulate_fd_ms": ms("pde_sim.simulate_fd"),
            "pde_sim.cn_step_us":
                1e6 * total.get("pde_sim.simulate_fd", 0.0) / fd_steps if fd_steps else 0.0,
            "pde_sim.verify_iss_ms": ms("pde_sim.verify_iss"),
            "pde_sim.simulate_spectral_ms": ms("pde_sim.simulate_spectral"),
            "pde_sim.simulate_via_lifting_ms": ms("pde_sim.simulate_via_lifting"),
            "disturbances.exp_convolution_calls": count("disturbances.exp_convolution"),
            "disturbances.exp_convolution_ms": ms("disturbances.exp_convolution"),
            "backstepping.kernel_solves": count("backstepping.solve_kernel"),
            # kernels a simulation used over kernels solved; 1 when none were solved
            "backstepping.kernel_useful_ratio":
                len(solved & used) / len(solved) if solved else 1.0,
            "backstepping.kernel_solve_ms": ms("backstepping.solve_kernel"),
            "backstepping.simulate_closed_loop_self_ms":
                ms("backstepping.simulate_closed_loop", self_time),
            "backstepping.apply_transform_calls": count("backstepping.apply_transform"),
            "backstepping.apply_transform_ms": ms("backstepping.apply_transform"),
            "grids.tail_quadrature_matrix_calls": count("grids.tail_quadrature_matrix"),
            "grids.tail_quadrature_matrix_ms": ms("grids.tail_quadrature_matrix"),
            # distinct resolutions per op over builds; 1 when none were built
            "grids.tail_quadrature_useful_ratio":
                len({(i["op"], i["resolution"]) for i in quad}) / len(quad) if quad else 1.0,
            "grids.gridfunction_count": self.gridfunctions / n_ops,
        }

