"""Command-line front end: batch analyses to CSV, optional SVG line plots."""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .equilibria import find_symmetric_equilibria
from .exceptions import DegenerateDeterminantError, DmlNeuroError, NonFiniteStateError, NumericalError
from .fde import SolverConfig, mittag_leffler, solve_fde
from .models import DmlParams, LinearCoupling, NoCoupling, SigmoidCoupling
from .experiments import DEFAULT_DISCARD, DEFAULT_TAIL, bifurcation_sweep, hopf_curve, run_experiment
from .stability import BetaStarKind, beta_star, classify, indicators

_MODELS = ("single", "dimer-linear", "dimer-sigmoid")
_NEGATIVE = re.compile(r"-[0-9.]")
_CSV_CHUNK = 4096


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (defaults < config file < flags)."""

    command: str
    model: str = "single"
    I: float = DmlParams.I
    A: float = DmlParams.A
    alpha: float = DmlParams.alpha
    gamma: float = DmlParams.gamma
    beta: float = 0.9
    theta: float = 0.008
    sigma: float = 0.001
    vs: float = SigmoidCoupling.v_s
    lam: float = SigmoidCoupling.lam
    q: float = SigmoidCoupling.q
    h: float = SolverConfig.h
    t_end: float = SolverConfig.t_end
    discard: int = DEFAULT_DISCARD
    tail: int = DEFAULT_TAIL
    beta_from: float = 0.9
    beta_to: float = 1.0
    beta_step: float = 0.002
    I_from: float = 0.016
    I_to: float = 0.03
    I_points: int = 100
    corrector_iterations: int = SolverConfig.corrector_iterations
    y0: Optional[tuple] = None
    out: Optional[str] = None
    svg: bool = False

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["y0"] is not None:
            d["y0"] = list(d["y0"])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Build a config from plain values, each coerced to its field's type.

        Raises ``ValueError`` for an unknown key or a value of the wrong kind.
        """
        kinds = {f.name: f.type for f in fields(cls)}
        unknown = set(d) - set(kinds)
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        return cls(**{key: _coerce(key, kinds[key], value) for key, value in d.items()})

    def params(self) -> DmlParams:
        return DmlParams(I=self.I, A=self.A, alpha=self.alpha, gamma=self.gamma)

    def coupling(self):
        if self.model == "single":
            return NoCoupling()
        if self.model == "dimer-linear":
            return LinearCoupling(theta=self.theta)
        if self.model == "dimer-sigmoid":
            return SigmoidCoupling(sigma=self.sigma, v_s=self.vs, lam=self.lam, q=self.q)
        raise ValueError(f"unknown model {self.model!r}")

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            t_start=0.0,
            t_end=self.t_end,
            h=self.h,
            corrector_iterations=self.corrector_iterations,
        )


def _coerce(key: str, kind: str, value):
    """``value`` as the annotated type ``kind`` of the field ``key``."""
    if value is None and kind.startswith("Optional"):
        return None
    if kind == "Optional[tuple]":
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{key} must be a list of numbers, got {value!r}")
        return tuple(_coerce(key, "float", v) for v in value)
    if kind in ("str", "Optional[str]", "bool"):
        expected = bool if kind == "bool" else str
        if not isinstance(value, expected):
            raise ValueError(f"{key} must be a {expected.__name__}, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if kind == "int":
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{key} must be an integer, got {value!r}")
        return int(value)
    return float(value)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("model")
    g.add_argument("--model", choices=_MODELS, help="model variant")
    g.add_argument("--I", type=float, help="external stimulation current")
    g.add_argument("--A", type=float, help="recovery amplitude")
    g.add_argument("--alpha", type=float, help="recovery exponential rate")
    g.add_argument("--gamma", type=float, help="recovery decay")
    g.add_argument("--beta", type=float, help="fractional order in (0, 1]")
    g.add_argument("--theta", type=float, help="linear coupling strength")
    g.add_argument("--sigma", type=float, help="sigmoid coupling strength")
    g.add_argument("--vs", type=float, help="sigmoid reversal potential")
    g.add_argument("--lambda", dest="lam", type=float, help="sigmoid slope")
    g.add_argument("--q", type=float, help="sigmoid synaptic threshold")
    s = common.add_argument_group("simulation")
    s.add_argument("--h", type=float, help="time step")
    s.add_argument("--t-end", dest="t_end", type=float, help="end of the time span")
    s.add_argument("--discard", type=int, help="transient samples to discard")
    s.add_argument("--tail", type=int, help="tail window length in samples")
    s.add_argument("--y0", type=str, help="comma-separated initial state")
    s.add_argument("--corrector-iterations", dest="corrector_iterations", type=int,
                   help="corrector passes per step")
    s.add_argument("--use-fft", dest="use_fft", action="store_true", default=None,
                   help="accepted for older command lines; no effect")
    r = common.add_argument_group("ranges")
    r.add_argument("--beta-from", dest="beta_from", type=float, help="sweep lower order")
    r.add_argument("--beta-to", dest="beta_to", type=float, help="sweep upper order")
    r.add_argument("--beta-step", dest="beta_step", type=float, help="sweep order step")
    r.add_argument("--I-from", dest="I_from", type=float, help="curve lower current")
    r.add_argument("--I-to", dest="I_to", type=float, help="curve upper current")
    r.add_argument("--I-points", dest="I_points", type=int, help="curve sample count")
    o = common.add_argument_group("output")
    o.add_argument("--config", type=str, help="JSON configuration file")
    o.add_argument("--out", type=str, help="output file (default: stdout)")
    o.add_argument("--svg", action="store_true", default=None, help="emit an SVG plot next to --out")

    parser = argparse.ArgumentParser(
        prog="dmlneuro",
        description="Fractional-order denatured Morris-Lecar neuron toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common], help="integrate one model instance")
    sub.add_parser("equilibria", parents=[common], help="equilibrium points and branch")
    sub.add_parser("stability", parents=[common], help="indicators and classification per equilibrium")
    sub.add_parser("beta-star", parents=[common], help="closed-form Hopf threshold")
    sub.add_parser("sweep", parents=[common], help="continuation sweep over the order")
    sub.add_parser("hopf-curve", parents=[common], help="Hopf threshold versus current")
    sub.add_parser("validate", parents=[common], help="solver-versus-oracle convergence checks")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    merged: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError("configuration file must hold a JSON object")
        file_values.pop("command", None)  # the subcommand comes from the argv
        merged.update(file_values)
    for key, value in vars(args).items():
        if key in ("config", "command") or value is None:
            continue
        merged[key] = value
    # the history is always blocked; the old switch is accepted and ignored
    merged.pop("use_fft", None)
    if isinstance(merged.get("y0"), str):
        merged["y0"] = tuple(float(v) for v in merged["y0"].split(","))
    return RunConfig.from_dict({"command": args.command, **merged})


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _output(cfg: RunConfig):
    if cfg.out:
        return open(cfg.out, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(sys.stdout)


def _write(cfg: RunConfig, text: str) -> None:
    with _output(cfg) as fh:
        fh.write(text)


def _emit(cfg: RunConfig, header: list[str], rows) -> None:
    """Write a CSV table, ``_CSV_CHUNK`` rows at a time.

    ``rows`` is a 2-d float array, or a list of mixed rows (strings, ints,
    ``None``) formatted by ``_fmt``.  The array's floats print through
    ``%r``, which gives the same text as ``_fmt``.
    """
    with _output(cfg) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), _CSV_CHUNK):
            chunk = rows[start : start + _CSV_CHUNK]
            if isinstance(chunk, np.ndarray):
                line = ",".join(["%r"] * chunk.shape[1]) + "\n"
                fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
            else:
                fh.write("".join(",".join(map(_fmt, row)) + "\n" for row in chunk))


# fixed 800x500 viewport; purely presentational output
def _svg_plot(path: str, series, kind: str = "line") -> None:
    width, height, margin = 800.0, 500.0, 45.0
    xs_all = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    finite = np.isfinite(xs_all) & np.isfinite(ys_all)
    if not finite.any():
        raise ValueError("nothing finite to plot")
    x_lo, x_hi = xs_all[finite].min(), xs_all[finite].max()
    y_lo, y_hi = ys_all[finite].min(), ys_all[finite].max()
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    colors = ("#1f77b4", "#2ca02c", "#000000", "#d62728")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for i, (xs, ys) in enumerate(series):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        ok = np.isfinite(xs) & np.isfinite(ys)
        color = colors[i % len(colors)]
        if kind == "scatter":
            parts.extend(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="1" fill="{color}"/>'
                for x, y in zip(xs[ok], ys[ok])
            )
        else:
            pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs[ok], ys[ok]))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")


def _svg_path(cfg: RunConfig) -> str:
    if not cfg.out:
        raise ValueError("--svg requires --out")
    return cfg.out.rsplit(".", 1)[0] + ".svg" if "." in cfg.out else cfg.out + ".svg"


def _trajectory_rows(traj, dim):
    header = ["t", "x", "y"] if dim == 2 else ["t", "x1", "y1", "x2", "y2"]
    return header, np.column_stack((traj.times, traj.states))


def _cmd_simulate(cfg: RunConfig) -> int:
    dim = cfg.coupling().dim
    try:
        summary = run_experiment(
            cfg.params(),
            cfg.coupling(),
            cfg.beta,
            cfg.solver_config(),
            y0=cfg.y0,
            discard=cfg.discard,
            tail=cfg.tail,
        )
    except NonFiniteStateError as err:
        if err.trajectory is not None and cfg.out:
            header, rows = _trajectory_rows(err.trajectory, dim)
            _emit(cfg, header, rows)
        print(f"numerical failure: {err} (partial output flagged)", file=sys.stderr)
        return 1
    traj = summary.trajectory
    header, rows = _trajectory_rows(traj, dim)
    _emit(cfg, header, rows)
    if cfg.out:
        record = {
            "converged": summary.converged,
            "tail_amplitude_x": summary.tail_amplitude_x,
            "final_state": [float(v) for v in summary.final_state],
        }
        if summary.excitatory_ok is not None:
            record["excitatory_ok"] = summary.excitatory_ok
        sys.stdout.write(json.dumps(record) + "\n")
    if cfg.svg:
        kept = traj.states[cfg.discard :]
        times = traj.times[cfg.discard :]
        _svg_plot(_svg_path(cfg), [(times, v) for v in kept[:, ::2].T])
    return 0


def _cmd_equilibria(cfg: RunConfig) -> int:
    eq = find_symmetric_equilibria(cfg.params(), cfg.coupling())
    rows = [[cfg.I, eq.branch.value, x, y] for x, y in eq.points]
    _emit(cfg, ["I", "branch", "x_star", "y_star"], rows)
    return 0


def _beta_star_cell(x_star: float, cfg: RunConfig):
    try:
        result = beta_star(x_star, cfg.params(), cfg.coupling())
    except DegenerateDeterminantError:
        return "undefined", "undefined"
    if result.kind is BetaStarKind.THRESHOLD:
        return result.value, result.kind.value
    return result.kind.value, result.kind.value


def _cmd_stability(cfg: RunConfig) -> int:
    eq = find_symmetric_equilibria(cfg.params(), cfg.coupling())
    rows = []
    for x_star, _ in eq.points:
        ind = indicators(x_star, cfg.params(), cfg.coupling())
        label = classify(ind, cfg.beta).value
        bs_value, _ = _beta_star_cell(x_star, cfg)
        rows.append(
            [x_star, ind.tau_plus, ind.delta_plus, ind.tau_minus, ind.delta_minus, label, bs_value]
        )
    _emit(
        cfg,
        ["x_star", "tau_plus", "delta_plus", "tau_minus", "delta_minus",
         "classification", "beta_star"],
        rows,
    )
    return 0


def _cmd_beta_star(cfg: RunConfig) -> int:
    eq = find_symmetric_equilibria(cfg.params(), cfg.coupling())
    records = []
    for x_star, y_star in eq.points:
        ind = indicators(x_star, cfg.params(), cfg.coupling())
        bs_value, kind = _beta_star_cell(x_star, cfg)
        records.append(
            {
                "model": cfg.model,
                "I": cfg.I,
                "coupling_value": cfg.coupling().value,
                "x_star": float(x_star),
                "y_star": float(y_star),
                "tau": ind.tau_plus,
                "delta": ind.delta_plus,
                "beta_star": bs_value,
                "kind": kind,
            }
        )
    _write(cfg, json.dumps(records[0] if len(records) == 1 else records, indent=2) + "\n")
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    scan = bifurcation_sweep(
        cfg.params(),
        cfg.coupling(),
        cfg.I,
        (cfg.beta_from, cfg.beta_to),
        cfg.beta_step,
        cfg.solver_config(),
        y0=cfg.y0,
        tail_window=cfg.tail,
    )
    dimer = scan.tail_samples.shape[2] > 1
    header = ["beta", "sample_index", "x"] + (["neuron"] if dimer else [])
    rows = []
    for k, beta in enumerate(scan.beta_values):
        for nv in range(scan.tail_samples.shape[2]):
            for i in range(scan.tail_samples.shape[1]):
                row = [beta, i, scan.tail_samples[k, i, nv]]
                if dimer:
                    row.append(nv + 1)
                rows.append(row)
    _emit(cfg, header, rows)
    if cfg.svg:
        series = [
            (np.repeat(scan.beta_values, scan.tail_samples.shape[1]),
             scan.tail_samples[:, :, nv].reshape(-1))
            for nv in range(scan.tail_samples.shape[2])
        ]
        try:
            _svg_plot(_svg_path(cfg), series, kind="scatter")
        except ValueError:
            print("no finite samples to plot; SVG skipped", file=sys.stderr)
    if scan.failed.any():
        bad = ", ".join(f"{b:g}" for b in scan.beta_values[scan.failed])
        print(f"numerical failure at beta = {bad} (cells flagged as nan)", file=sys.stderr)
        return 1
    return 0


def _cmd_hopf_curve(cfg: RunConfig) -> int:
    curve = hopf_curve(
        cfg.params(), cfg.coupling(), (cfg.I_from, cfg.I_to), cfg.I_points
    )
    value = cfg.coupling().value
    rows = [[I, b, value] for I, b in zip(curve.I_values, curve.beta_star_values)]
    _emit(cfg, ["I", "beta_star", "coupling_value"], rows)
    for I, reason in curve.omitted:
        print(f"omitted I={I:g}: {reason}", file=sys.stderr)
    if cfg.svg:
        _svg_plot(_svg_path(cfg), [(curve.I_values, curve.beta_star_values)])
    return 0


def _cmd_validate(cfg: RunConfig) -> int:
    def decay(t, y, _):
        return [-v for v in y]

    steps = (1e-2, 5e-3, 2.5e-3)
    all_ok = True
    print("order   " + "  ".join(f"err(h={h:g})" for h in steps) + "  observed  required")
    for beta in (0.5, 0.7, 0.9):
        errors = []
        for h in steps:
            sol = solve_fde(decay, beta, SolverConfig(0.0, 1.0, h), [1.0])
            errors.append(abs(sol.states[-1, 0] - mittag_leffler(beta, -1.0)))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        required = 1.0 + beta - 0.2
        ok = all(o >= required for o in orders)
        all_ok &= ok
        err_text = "  ".join(f"{e:.3e}" for e in errors)
        order_text = ", ".join(f"{o:.2f}" for o in orders)
        print(f"{beta:<7g} {err_text}  {order_text}  >= {required:.2f}  "
              f"{'PASS' if ok else 'FAIL'}")
    sol = solve_fde(decay, 1.0, SolverConfig(0.0, 1.0, 1e-3), [1.0])
    err = float(np.abs(sol.states[:, 0] - np.exp(-sol.times)).max())
    ok = err <= 1e-5
    all_ok &= ok
    print(f"classical limit: max |x - exp(-t)| = {err:.3e} <= 1e-05  "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if all_ok else 1


_HANDLERS = {
    "simulate": _cmd_simulate,
    "equilibria": _cmd_equilibria,
    "stability": _cmd_stability,
    "beta-star": _cmd_beta_star,
    "sweep": _cmd_sweep,
    "hopf-curve": _cmd_hopf_curve,
    "validate": _cmd_validate,
}


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -1e-05`` into ``--flag=-1e-05``.

    argparse reads a negative number in exponent notation, or a ``--y0``
    list that starts with a negative value, as an option string and then
    reports the flag's value as missing.  No option here starts with a dash
    and a digit.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def run_cli(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(_attach_negative_values(argv))
    except SystemExit as exc:  # argparse reports its own diagnostics
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[cfg.command](cfg)
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1
    except DmlNeuroError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
