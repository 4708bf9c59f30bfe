"""Command-line front end: spectrum, gain, sweep-fig1 and simulate.

Exit codes: 0 success, 1 uncertified spectral hypothesis, 2 numerical
failure, 3 configuration error.  All outputs are CSV with 12 significant
digits; identical configurations produce byte-identical files.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings

import numpy as np

from . import csvio
from .config import load_config, problem_from_config, transport_problem
from .disturbances import DisturbanceSignal
from .errors import ConfigError, IssgainError, NumericalFailure, UncertifiedHypothesis
from .gains import (
    TransportCase,
    bvp_integral,
    gain_bvp,
    gain_series,
    sweep_figure1,
    transport_gain,
    advection_gain,
)
from .grids import GridFunction
from .pde_sim import (
    DEFAULT_STORE,
    IssEnvelope,
    _require_iss_settings,
    advection_exact,
    lift_disturbance,
    simulate_fd,
    simulate_spectral,
    simulate_via_lifting,
    verify_iss,
)
from .backstepping import (
    ClosedLoopConfig,
    apply_transform,
    closed_loop_bound,
    simulate_closed_loop,
    solve_inverse_kernel,
    solve_kernel,
)
from .sturm_liouville import build_problem, solve_spectrum, solve_steady_bvp


@functools.cache       # built once per process: no default is mutable
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="issgain",
        description="ISS gains, spectra and simulations for boundary-disturbed "
                    "1-D parabolic equations")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_args(p):
        p.add_argument("--case", choices=["dirichlet-laplacian", "transport", "backstepping"])
        p.add_argument("--config", help="path to a key/value config file")
        # None when not given: a flag that the problem would not read is rejected
        p.add_argument("--D", type=float, help="diffusivity (default 1)")
        p.add_argument("--v", type=float, help="velocity (default 1)")
        p.add_argument("--k", type=float, help="reaction rate (default 0)")
        p.add_argument("--a", help="exit parameter, number or 'inf' (the default)")
        p.add_argument("--c", type=float, help="target coefficient (default 0)")
        p.add_argument("--zeta", type=float, help="directly sets zeta (transport, k=0)")
        p.add_argument("--q", type=float, help="constant potential override")
        p.add_argument("--resolution", type=int, default=256)

    p_spec = sub.add_parser("spectrum", help="eigenvalues/eigenfunctions + hypothesis report")
    add_problem_args(p_spec)
    p_spec.add_argument("--modes", type=int, default=12)
    p_spec.add_argument("--output", default="-")

    p_gain = sub.add_parser("gain", help="gain constant by all applicable routes")
    add_problem_args(p_gain)
    p_gain.add_argument("--modes", type=int, default=16, help="numeric series modes")
    p_gain.add_argument("--N", type=int, default=10_000, help="analytic series length")

    p_sweep = sub.add_parser("sweep-fig1", help="gain comparison sweep over zeta (k = 0)")
    p_sweep.add_argument("--zeta-min", type=float, default=0.05)
    p_sweep.add_argument("--zeta-max", type=float, default=4.0)
    p_sweep.add_argument("--points", type=int, default=80)
    p_sweep.add_argument("--advection-form", choices=["derivation", "legacy"],
                         default="derivation")
    p_sweep.add_argument("--output", default="-")

    p_sim = sub.add_parser("simulate", help="run a solver and export the trajectory")
    add_problem_args(p_sim)
    p_sim.add_argument("--solver", choices=["fd", "spectral", "lifted", "advection",
                                            "closed-loop"], default="fd")
    p_sim.add_argument("--dt", type=float, default=1e-3)
    p_sim.add_argument("--T", type=float, default=1.0)
    p_sim.add_argument("--store", type=int, default=DEFAULT_STORE)
    p_sim.add_argument("--modes", type=int, default=32)
    p_sim.add_argument("--disturbance", choices=["constant", "sinusoid", "smoothed-step"],
                       default="constant")
    p_sim.add_argument("--amplitude", type=float, default=1.0)
    p_sim.add_argument("--omega", type=float, default=2.0)
    p_sim.add_argument("--phase", type=float, default=0.0)
    p_sim.add_argument("--ramp", type=float, default=0.5)
    p_sim.add_argument("--x0", choices=["zero", "steady", "lift", "sine"], default="zero")
    p_sim.add_argument("--plant-p", type=float, default=3.0, help="plant rate (closed loop)")
    p_sim.add_argument("--wide", action="store_true", help="append grid samples to rows")
    p_sim.add_argument("--output", default="-")
    p_sim.add_argument("--kernel-output", help="export the feedback kernel CSV (closed loop)")
    p_sim.add_argument("--verify-iss", action="store_true")
    p_sim.add_argument("--eps", default="0.1,1,10")
    p_sim.add_argument("--slack", type=float, default=1e-3)
    p_sim.add_argument("--iss-output", default="-")
    return parser


def _parse_a(value) -> float:
    try:
        a = float(value)
    except ValueError:
        a = math.nan
    if math.isnan(a):
        raise ConfigError(f"--a must be a nonnegative number or 'inf', got {value!r}")
    return a


_CASE_DEFAULTS = {"D": 1.0, "v": 1.0, "k": 0.0, "a": "inf", "c": 0.0}
# the one case that reads each flag; --D is read by every case
_READ_BY_CASE = {"v": "transport", "k": "transport", "a": "transport", "zeta": "transport",
                 "c": "backstepping"}


def _case_flag(args, name: str):
    """A named-case flag as given, else its default."""
    value = getattr(args, name)
    return _CASE_DEFAULTS[name] if value is None else value


def _require_read_case_flags(args):
    """Reject a named-case flag that the config or the named case would not read."""
    if args.config and args.case:
        raise ConfigError("--config does not read --case")
    case = args.case or "dirichlet-laplacian"
    for name in ("D", *_READ_BY_CASE):
        if getattr(args, name) is None:
            continue
        if args.config:
            raise ConfigError(f"--config does not read --{name}")
        if _READ_BY_CASE.get(name, case) != case:
            raise ConfigError(f"--case {case} does not read --{name}")
        if name in ("v", "k") and args.zeta is not None:
            raise ConfigError(f"--case transport with --zeta does not read --{name}")


def _named_case(args) -> TransportCase:
    """The one reading of ``--case``: every named problem is a transport tube."""
    case, D = args.case or "dirichlet-laplacian", _case_flag(args, "D")
    if case == "transport":
        a = _parse_a(_case_flag(args, "a"))
        if args.zeta is not None:
            return TransportCase.from_zeta(args.zeta, a, D)
        return TransportCase(D, _case_flag(args, "v"), _case_flag(args, "k"), a)
    return TransportCase.from_target(_case_flag(args, "c") if case == "backstepping" else 0.0, D)


def _problem_from_args(args):
    """The problem and its named case; the case is None for --config or a --q override."""
    _require_read_case_flags(args)
    if args.config:
        problem, case = problem_from_config(load_config(args.config)), None
    else:
        case = _named_case(args)
        problem = transport_problem(case.D, case.v, case.k, case.a, resolution=args.resolution)
    if args.q is not None:
        problem, case = build_problem(problem.p, args.q, problem.r, problem.a1, problem.a2,
                                      problem.b1, problem.b2, problem.resolution), None
    return problem, case


def _signal_from_args(args) -> DisturbanceSignal:
    if args.disturbance == "constant":
        return DisturbanceSignal.constant(args.amplitude)
    if args.disturbance == "sinusoid":
        return DisturbanceSignal.sinusoid(args.amplitude, args.omega, args.phase)
    return DisturbanceSignal.smoothed_step(args.amplitude, args.ramp)


def _initial_state(args, problem, d0: float) -> GridFunction:
    grid = problem.grid
    if args.x0 == "zero":
        return GridFunction(grid, np.zeros_like(grid))
    if args.x0 == "steady":
        return solve_steady_bvp(problem, d0)
    if args.x0 == "lift":
        lifting = lift_disturbance(problem)
        return GridFunction(grid, d0 / lifting.scale * lifting.g.values)
    return GridFunction(grid, args.amplitude * np.sin(math.pi * grid))


def cmd_spectrum(args) -> int:
    problem, _ = _problem_from_args(args)
    spectrum = solve_spectrum(problem, args.modes)
    report = spectrum.hypothesis
    csvio.write_csv(*csvio.spectrum_table(spectrum), args.output)
    sink = sys.stderr if args.output in (None, "-") else sys.stdout
    if report is None:
        print("hypothesis check skipped (needs >= 10 modes)", file=sink)
        return 0
    print(csvio.kv_block(report), file=sink)
    return 0 if report.certified else 1


def cmd_gain(args) -> int:
    if args.N < 1:
        raise ConfigError(f"--N must be at least 1, got {args.N}")
    problem, case = _problem_from_args(args)
    # the closed form serves a named case, and its lambda1 > 0 certifies it; a config
    # or a --q override takes series + BVP, certified by one solved spectrum
    if case is None:
        spectrum = solve_spectrum(problem, args.modes)
        main_report = gain_series(problem, spectrum, args.modes)
        rows = [("series_tail_corrected", main_report.tail_corrected),
                ("bvp_integral", gain_bvp(problem, spectrum=spectrum).gain_C)]
    else:
        main_report = transport_gain(case, args.N)
        rows = [("closed_form", main_report.closed_value),
                ("series", main_report.series_value),
                ("bvp_integral", bvp_integral(problem))]
    values = [v for _, v in rows]
    spread = max(values) - min(values)
    print("route,gain")
    for name, value in rows:
        print(f"{name},{csvio.fmt(value)}")
    print(f"max_disagreement,{csvio.fmt(spread)}")
    print()
    print(csvio.kv_block(main_report))
    if spread > 1e-4 * max(values):       # one constant by every route: a spread is a failure
        raise NumericalFailure(f"gain routes disagree by {spread:.3g}, more than "
                               f"1e-4 x the largest, {max(values):.6g}")
    return 0


def cmd_sweep(args) -> int:
    if args.points < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    if not all(math.isfinite(z) and z > 0 for z in (args.zeta_min, args.zeta_max)):
        raise ConfigError("zeta grid must be finite and positive")   # np.linspace warns on inf
    zetas = np.linspace(args.zeta_min, args.zeta_max, args.points)
    table = sweep_figure1(zetas, advection_form=args.advection_form)
    csvio.write_csv(*csvio.sweep_table(table), args.output)
    sink = sys.stderr if args.output in (None, "-") else sys.stdout
    print(f"ordering_decreasing_in_a = {table.ordering_ok()}", file=sink)
    flags = table.nonincreasing_columns()
    print(f"columns_nonincreasing = {all(flags.values())}", file=sink)
    cross = table.crossovers(math.inf)
    print(f"advection_vs_dirichlet_crossovers = {len(cross)}", file=sink)
    for lo, hi in cross:
        print(f"crossover_bracket = [{csvio.fmt(lo)}, {csvio.fmt(hi)}]", file=sink)
    return 0


_PROBLEM_SOLVERS = ("fd", "spectral", "lifted")
_READ_BY = {"--case": _PROBLEM_SOLVERS, "--config": _PROBLEM_SOLVERS, "--q": _PROBLEM_SOLVERS,
            "--v": (*_PROBLEM_SOLVERS, "advection"), "--k": (*_PROBLEM_SOLVERS, "advection"),
            "--a": _PROBLEM_SOLVERS, "--zeta": _PROBLEM_SOLVERS,
            "--c": (*_PROBLEM_SOLVERS, "closed-loop"), "--kernel-output": ("closed-loop",)}
# a kernel pair is usable when max|(I+K)(I+L)x0 - x0| <= ROUNDTRIP_BOUND max|x0|; at M = 256 the
# round trip is 1.6e-4 at p = 100, where u is 9.7e-4 of max|u| off a run at M = 1024
ROUNDTRIP_BOUND = 1e-4


def cmd_simulate(args) -> int:
    if args.store < 1:
        raise ConfigError(f"--store must be at least 1, got {args.store}")
    for flag, solvers in _READ_BY.items():
        if getattr(args, flag[2:].replace("-", "_")) is not None and args.solver not in solvers:
            raise ConfigError(f"--solver {args.solver} does not read {flag}")
    if args.verify_iss:      # settle the ISS settings before any solve or output
        eps = tuple(float(e) for e in args.eps.split(","))
        _require_iss_settings(eps, args.slack)
    d = _signal_from_args(args)
    envelope = None          # each branch builds it before its solve
    if args.solver == "advection":
        v, k, D = (_case_flag(args, name) for name in ("v", "k", "D"))
        for flag, value in (("--v", v), ("--D", D)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{flag} must be finite and positive for the advection "
                                  f"solver, got {value}")
        if not math.isfinite(k):
            raise ConfigError(f"--k must be finite for the advection solver, got {k}")
        if args.verify_iss:
            envelope = IssEnvelope(decay_rate=k + v * v / (2.0 * D),
                                   gain_base=advection_gain(v, D, k),
                                   epsilon_dependent=False, max_window=1.0 / v)
            if not (math.isfinite(envelope.decay_rate) and math.isfinite(envelope.gain_base)):
                raise ConfigError(f"--v {v} overflows the advection envelope (decay rate "
                                  f"{envelope.decay_rate}, gain {envelope.gain_base})")
        if args.disturbance == "sinusoid" and args.phase == 0.0:
            # cosine start satisfies d'(0) = 0, matching the default profile below
            d = DisturbanceSignal.sinusoid(args.amplitude, args.omega, math.pi / 2.0)
        d0 = float(d.value(np.asarray(0.0)))
        k_over_v = k / v
        y0 = lambda z: d0 * np.exp(-k_over_v * np.asarray(z))
        traj = advection_exact(v, k, d, y0, args.T, resolution=args.resolution,
                               weight_D=D, n_store=args.store)
    elif args.solver == "closed-loop":
        D, c = _case_flag(args, "D"), _case_flag(args, "c")
        cfg = ClosedLoopConfig(D=D, p=args.plant_p, c=c, d=d)
        kernel = solve_kernel(cfg, args.resolution)
        inverse = solve_inverse_kernel(cfg, args.resolution)
        if args.verify_iss:
            envelope = closed_loop_bound(cfg, kernel.norm, inverse.norm)
        grid = kernel.grid
        d0 = float(d.value(np.asarray(0.0)))
        x0 = GridFunction(grid, d0 * (1.0 - grid) + 0.5 * args.amplitude * np.sin(math.pi * grid))
        y0 = apply_transform(inverse, x0).values
        roundtrip = float(np.max(np.abs(apply_transform(kernel, GridFunction(grid, y0)).values
                                        - x0.values)))
        if roundtrip > ROUNDTRIP_BOUND * float(np.max(np.abs(x0.values))):
            raise NumericalFailure(
                f"the kernel pair at lam_bar = {cfg.lam_bar:.6g} does not invert at resolution "
                f"{args.resolution}: max|(I+K)(I+L)x0 - x0| = {roundtrip:.3g}, more than "
                f"{ROUNDTRIP_BOUND:g} x max|x0|; raise the resolution")
        # the discrete transform pair is inverse only to quadrature error, so solve the
        # feedback identity y0(0) = d0 - integral k(0,s) y0(s) ds for y0(0)
        w = kernel.weighted[0]
        y0[0] = (d0 - w[1:] @ y0[1:]) / (1.0 + w[0])
        traj = simulate_closed_loop(cfg, GridFunction(grid, y0), args.dt, args.T,
                                    kernel=kernel, inverse_kernel=inverse, n_store=args.store).y
        if args.kernel_output:
            csvio.write_csv(*csvio.kernel_table(kernel), args.kernel_output)
    else:
        problem, case = _problem_from_args(args)
        spectrum = None if args.solver == "fd" else solve_spectrum(problem, args.modes)
        if args.verify_iss:   # a named case takes the closed form: no spectrum, no series
            envelope = (IssEnvelope.from_case(case) if case is not None else
                        IssEnvelope.from_gain_report(gain_bvp(problem, spectrum=spectrum)))
        d0 = float(d.value(np.asarray(0.0)))
        x0 = _initial_state(args, problem, d0)
        if args.solver == "fd":
            traj = simulate_fd(problem, d, x0, args.dt, args.T, n_store=args.store)
        elif args.solver == "spectral":
            traj = simulate_spectral(problem, spectrum, d, x0, args.T,
                                     N=args.modes, n_store=args.store)
        else:
            traj = simulate_via_lifting(problem, spectrum, d, x0, args.T,
                                        N=args.modes, n_store=args.store)
    csvio.write_csv(*csvio.trajectory_table(traj, args.wide), args.output)
    if envelope is None:
        return 0
    report = verify_iss(traj, envelope, epsilons=eps, slack=args.slack)
    csvio.write_csv(*csvio.iss_table(report), args.iss_output)
    return 0 if report.passed else 2


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {category.__name__}: {message}\n"


def main(argv=None) -> int:
    """Run one command; warnings print as ``warning: <Category>: <message>``."""
    default_format = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        return _run(argv)
    finally:
        warnings.formatwarning = default_format


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 3
    handlers = {"spectrum": cmd_spectrum, "gain": cmd_gain,
                "sweep-fig1": cmd_sweep, "simulate": cmd_simulate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except UncertifiedHypothesis as exc:
        print(f"uncertified hypothesis: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:      # numpy's message names the size and shape it failed on
        print(f"config error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 3
    except IssgainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
