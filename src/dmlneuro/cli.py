"""Command-line front end: batch analyses to CSV, optional SVG line plots.

The closed-form commands (``equilibria``, ``stability``, ``beta-star`` and
``hopf-curve``) run without numpy; ``simulate``, ``sweep``, ``validate``
and the SVG plots import it, with the solver, when they run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from typing import Optional

from .equilibria import find_symmetric_equilibria
from .exceptions import DmlNeuroError, InsufficientSamplesError, NonFiniteStateError, NumericalError
from .models import (DEFAULT_TAIL, DmlParams, LinearCoupling, NoCoupling, SigmoidCoupling,
                     SolverConfig, check_order)
from .stability import beta_star, classify, hopf_curve

_PLOTTING = ("simulate", "sweep", "hopf-curve")
_NEGATIVE = re.compile(r"-[0-9.]")
_CSV_CHUNK = 4096
# a trajectory longer than this is handed, as the solve runs, to a helper
# interpreter that formats its rows.  The helper starts in about 25 ms, the
# time this process takes to format about 7000 rows; at this length the
# start-up is about a quarter of the time saved
_CSV_SPLIT_ROWS = 1 << 16
# the helper: raw doubles on stdin, read one chunk at a time as they
# arrive, and their CSV rows on stdout, by the same template as
# ``_csv_rows``; argv: columns, rows per chunk
_CSV_HELPER = """\
import array, sys
cols, chunk = int(sys.argv[1]), int(sys.argv[2])
line = ",".join(["%r"] * cols) + "\\n"
read, write = sys.stdin.buffer.read, sys.stdout.buffer.write
while part := array.array("d", read(8 * cols * chunk)):
    write((line * (len(part) // cols) % tuple(part)).encode())
"""
# model name -> its coupling record, built from a run configuration
_MODELS = {
    "single": lambda cfg: NoCoupling(),
    "dimer-linear": lambda cfg: LinearCoupling(theta=cfg.theta),
    "dimer-sigmoid": lambda cfg: SigmoidCoupling(sigma=cfg.sigma, v_s=cfg.vs, lam=cfg.lam, q=cfg.q),
}


def _option(default, group: str, help: str, **flag):
    """A run input's default, and its flag's help group, help and keywords."""
    return field(default=default, metadata={"group": group, "help": help, **flag})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (defaults < config file < flags).

    Each field but ``command`` is the config-file key of the same name and
    the flag ``--name`` with ``_`` as ``-`` (``lam`` is ``--lambda``).
    """

    command: str
    model: str = _option("single", "model", "model variant", choices=tuple(_MODELS))
    I: float = _option(DmlParams.I, "model", "external stimulation current")
    A: float = _option(DmlParams.A, "model", "recovery amplitude")
    alpha: float = _option(DmlParams.alpha, "model", "recovery exponential rate")
    gamma: float = _option(DmlParams.gamma, "model", "recovery decay")
    beta: float = _option(0.9, "model", "fractional order in (0, 1]")
    theta: float = _option(0.008, "model", "linear coupling strength")
    sigma: float = _option(0.001, "model", "sigmoid coupling strength")
    vs: float = _option(SigmoidCoupling.v_s, "model", "sigmoid reversal potential")
    lam: float = _option(SigmoidCoupling.lam, "model", "sigmoid slope")
    q: float = _option(SigmoidCoupling.q, "model", "sigmoid synaptic threshold")
    h: float = _option(SolverConfig.h, "simulation", "time step")
    t_end: float = _option(SolverConfig.t_end, "simulation", "end of the time span")
    discard: int = _option(100_000, "simulation", "transient samples cut from the plot")
    tail: int = _option(DEFAULT_TAIL, "simulation", "tail window length in samples")
    y0: Optional[tuple] = _option(None, "simulation", "comma-separated initial state")
    beta_from: float = _option(0.9, "ranges", "sweep lower order")
    beta_to: float = _option(1.0, "ranges", "sweep upper order")
    beta_step: float = _option(0.002, "ranges", "sweep order step")
    I_from: float = _option(0.016, "ranges", "curve lower current")
    I_to: float = _option(0.03, "ranges", "curve upper current")
    I_points: int = _option(100, "ranges", "curve sample count")
    out: Optional[str] = _option(None, "output", "output file (default: stdout)")
    svg: bool = _option(False, "output", "emit an SVG plot next to --out")

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
        try:
            build = _MODELS[self.model]
        except KeyError:
            raise ValueError(f"unknown model {self.model!r}") from None
        return build(self)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(0.0, self.t_end, self.h)


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
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key} is too large for a float, got {value!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    commands = "\n".join(f"  {name:<12}{text}" for name, (_, text) in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="dmlneuro", description="Fractional-order denatured Morris-Lecar neuron toolkit",
        epilog=f"commands:\n{commands}", formatter_class=argparse.RawDescriptionHelpFormatter)
    # flags may come before the command or after it
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="one listed below")
    groups = {name: parser.add_argument_group(name)
              for name in ("model", "simulation", "ranges", "output")}
    groups["output"].add_argument("--config", type=str, help="JSON configuration file")
    for f in fields(RunConfig):
        if not f.metadata:
            continue  # the command
        flag = dict(f.metadata)
        group = groups[flag.pop("group")]
        if f.type == "bool":
            flag["action"] = "store_true"
        else:
            flag["type"] = {"float": float, "int": int}.get(f.type, str)
        name = "lambda" if f.name == "lam" else f.name.replace("_", "-")
        group.add_argument(f"--{name}", dest=f.name, default=None, **flag)
    groups["simulation"].add_argument(
        "--use-fft", dest="use_fft", action="store_true", default=None,
        help="accepted for older command lines; no effect")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    merged: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError("configuration file must hold a JSON object")
        file_values.pop("command", None)  # the command comes from the argv
        merged.update(file_values)
    merged.update((key, value) for key, value in vars(args).items()
                  if key not in ("config", "command") and value is not None)
    # the history is always blocked; the old switch is accepted and ignored
    merged.pop("use_fft", None)
    if isinstance(merged.get("y0"), str):
        merged["y0"] = tuple(float(v) for v in merged["y0"].split(","))
    cfg = RunConfig.from_dict({"command": args.command, **merged})
    # only the plotting commands draw, and the SVG goes next to the CSV file,
    # so it needs one; checked before any work
    if cfg.svg and cfg.command not in _PLOTTING:
        raise ValueError(f"--svg applies only to {', '.join(_PLOTTING)}, not {cfg.command}")
    if cfg.svg and not cfg.out:
        raise ValueError("--svg requires --out")
    # the file is opened only after the work, which may take minutes
    if cfg.out and not os.path.isdir(os.path.dirname(cfg.out) or "."):
        raise ValueError(f"--out directory does not exist: {os.path.dirname(cfg.out)}")
    if cfg.out and os.path.isdir(cfg.out):
        raise ValueError(f"--out names a directory: {cfg.out}")
    return cfg


def _output(cfg: RunConfig):
    if cfg.out:
        return open(cfg.out, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(sys.stdout)


def _emit(cfg: RunConfig, header: list[str], rows, line: Optional[str] = None) -> None:
    """Write a CSV table: its header, then ``rows`` by ``_csv_rows``."""
    with _output(cfg) as fh:
        fh.write(",".join(header) + "\n")
        _csv_rows(fh, rows, line)


def _csv_rows(fh, rows, line: Optional[str] = None) -> None:
    """Write table rows, ``_CSV_CHUNK`` at a time, by the ``%``-template
    ``line``: ``%r`` for a float, ``%d`` for an integral float column and
    ``%s`` for a label, one ``%r`` per column unless given.

    ``rows`` is a 2-d float array, or a list of rows of Python values (the
    ``%r`` of a numpy scalar would name its type).
    """
    line = (line or ",".join(["%r"] * rows.shape[1])) + "\n"
    for start in range(0, len(rows), _CSV_CHUNK):
        chunk = rows[start : start + _CSV_CHUNK]
        values = [*chain(*chunk)] if isinstance(chunk, list) else chunk.ravel().tolist()
        fh.write(line * len(chunk) % tuple(values))


class _CsvStream:
    """A float64 table, fed in pieces of rows as it is computed, whose CSV
    text a helper interpreter may format.

    ``feed`` copies the rows into one ``_CSV_CHUNK``-row buffer.  Each full
    chunk is appended raw to a spill file and, if the table is longer than
    ``_CSV_SPLIT_ROWS``, sent to the helper; a shorter table is not worth
    the helper's start-up.  ``write`` writes the table, finished or cut
    short: it waits for the helper, copies its text if it exited 0, and
    formats here, from the spill, every chunk the helper did not deliver,
    then the partial chunk.  So the stream holds one chunk of rows, and the
    spill takes 8 bytes per value of temporary disk, about 24 per row of
    the cell.

    The helper starts at the first full chunk.  It reads raw doubles from
    a pipe and writes their text, by the template of ``_csv_rows``, to a
    temporary file rather than back through a pipe, so it never waits on
    this process.  The pipe holds 1 MiB, about ten chunks of the cell's
    rows, so the helper can fall that far behind before a send waits on it;
    a platform that cannot resize a pipe keeps its default size.  If the
    helper cannot start (a failed resize included), a send to it fails, or
    it exits non-zero, every row it was given is formatted here from the
    spill and its text is discarded.  ``close`` reaps it; the stream is a
    context manager for that.
    """

    def __init__(self, rows: int):
        self.helper = None
        self.text = None  # the helper's output file
        self.spill = None  # every full chunk, raw
        self.chunk = None  # the chunk being filled, one row per table row
        self.rows = 0  # rows fed
        # every row is formatted here: a short table, or no helper could
        # start, or a send failed
        self.local = rows <= _CSV_SPLIT_ROWS

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def feed(self, times, states) -> None:
        """Append the rows ``(times, states)``, numpy arrays, to the table."""
        import numpy as np

        if self.chunk is None:
            self.chunk = np.empty((_CSV_CHUNK, 1 + states.shape[1]))
        done = 0
        while done < len(times):
            at = self.rows % _CSV_CHUNK
            n = min(_CSV_CHUNK - at, len(times) - done)
            self.chunk[at : at + n, 0] = times[done : done + n]
            self.chunk[at : at + n, 1:] = states[done : done + n]
            self.rows += n
            done += n
            if at + n == _CSV_CHUNK:
                self._spill()

    def _spill(self) -> None:
        """Append the full chunk to the spill and send it to the helper."""
        import subprocess
        import tempfile

        if self.spill is None:
            self.spill = tempfile.TemporaryFile()
        self.spill.write(self.chunk.data)
        if self.local:
            return
        try:
            if self.helper is None:
                self.text = tempfile.TemporaryFile("w+", encoding="ascii", newline="")
                self.helper = subprocess.Popen(
                    [sys.executable, "-I", "-S", "-c", _CSV_HELPER, str(self.chunk.shape[1]),
                     str(_CSV_CHUNK)],
                    stdin=subprocess.PIPE, stdout=self.text, stderr=subprocess.DEVNULL,
                    pipesize=1 << 20,
                )
            self.helper.stdin.write(self.chunk.data)
            self.helper.stdin.flush()
        except OSError:
            self.local = True  # the helper's text goes unused; close reaps it

    def write(self, fh) -> None:
        """Write the rows fed: end the helper's input and wait for it, copy
        its text of every full chunk if it exited 0, or else format those
        chunks here from the spill, and format the partial chunk here."""
        import shutil

        import numpy as np

        spill = self.spill
        if self.helper is not None and not self.local:
            self.helper.stdin.close()
            if self.helper.wait() == 0:
                self.text.seek(0)
                shutil.copyfileobj(self.text, fh)
                spill = None
        if spill is not None:
            cols = self.chunk.shape[1]
            spill.seek(0)
            while data := spill.read(8 * cols * _CSV_CHUNK):
                _csv_rows(fh, np.frombuffer(data).reshape(-1, cols))
        if self.chunk is not None:
            _csv_rows(fh, self.chunk[: self.rows % _CSV_CHUNK])

    def close(self) -> None:
        """Kill the helper if it still runs, wait for it, and drop its text
        and the spill."""
        if self.helper is not None:
            self.helper.kill()
            # after a failed send, closing flushes its bytes again, and fails
            with contextlib.suppress(OSError):
                self.helper.stdin.close()
            self.helper.wait()
        for file in (self.text, self.spill):
            if file is not None:
                file.close()


# fixed 800x500 viewport; purely presentational output, skipped with a
# note on stderr when no point is finite
def _svg_plot(path: str, series, kind: str = "line") -> None:
    import numpy as np

    width, height, margin = 800.0, 500.0, 45.0
    xs_all = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    finite = np.isfinite(xs_all) & np.isfinite(ys_all)
    if not finite.any():
        print("no finite samples to plot; SVG skipped", file=sys.stderr)
        return
    x_lo, x_hi = xs_all[finite].min(), xs_all[finite].max()
    y_lo, y_hi = ys_all[finite].min(), ys_all[finite].max()
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

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
        # viewport coordinates, interleaved x, y
        xy = np.column_stack((
            margin + (xs[ok] - x_lo) / x_span * (width - 2 * margin),
            height - margin - (ys[ok] - y_lo) / y_span * (height - 2 * margin),
        )).ravel().tolist()
        if kind == "scatter":
            if xy:  # an empty part would write a blank line
                circle = f'<circle cx="%.2f" cy="%.2f" r="1" fill="{color}"/>'
                parts.append("\n".join([circle] * (len(xy) // 2)) % tuple(xy))
        else:
            pts = " ".join(["%.2f,%.2f"] * (len(xy) // 2)) % tuple(xy)
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")


def _svg_path(cfg: RunConfig) -> str:
    return os.path.splitext(cfg.out)[0] + ".svg"


def _cmd_simulate(cfg: RunConfig) -> int:
    from .experiments import run_experiment

    coupling, config = cfg.coupling(), cfg.solver_config()
    check_order(cfg.beta)  # an order error comes first, as in every command
    rows = config.n_steps + 1
    if cfg.discard < 0:
        raise ValueError(f"discard must be >= 0, got {cfg.discard}")
    if cfg.discard + cfg.tail > rows:
        raise InsufficientSamplesError(
            f"discard ({cfg.discard}) + tail ({cfg.tail}) exceeds the {rows} grid samples"
        )
    failure, plotted = None, []

    def feed(times, states):
        if cfg.svg:  # the plot's rows: those from --discard on
            skip = max(cfg.discard - stream.rows, 0)
            plotted.append((times[skip:].copy(), states[skip:, ::2].copy()))
        stream.feed(times, states)

    # the rows go to the CSV stream, and to the helper, while the solve runs
    with _CsvStream(rows) as stream:
        try:
            summary = run_experiment(cfg.params(), coupling, cfg.beta, config, y0=cfg.y0,
                                     tail=cfg.tail, _on_rows=feed)
        except NonFiniteStateError as err:
            # the finite prefix goes where the whole run would have gone
            failure = err
        with _output(cfg) as fh:
            fh.write("t,x,y\n" if coupling.dim == 2 else "t,x1,y1,x2,y2\n")
            stream.write(fh)
    if failure is not None:
        print(f"numerical failure: {failure}; {stream.rows} finite rows written to "
              f"{cfg.out or 'stdout'}", file=sys.stderr)
        return 1
    if cfg.out:
        record = {
            "converged": summary.converged,
            "tail_amplitude_x": summary.tail_amplitude_x,
            "final_state": [float(v) for v in summary.trajectory.states[-1]],
        }
        if summary.excitatory_ok is not None:
            record["excitatory_ok"] = summary.excitatory_ok
        sys.stdout.write(json.dumps(record) + "\n")
    if cfg.svg:
        import numpy as np

        times, voltages = (np.concatenate(parts) for parts in zip(*plotted))
        _svg_plot(_svg_path(cfg), [(times, v) for v in voltages.T])
    return 0


def _cmd_equilibria(cfg: RunConfig) -> int:
    eq = find_symmetric_equilibria(cfg.params(), cfg.coupling())
    rows = [[cfg.I, eq.branch.value, x, y] for x, y in eq.points]
    _emit(cfg, ["I", "branch", "x_star", "y_star"], rows, "%r,%s,%r,%r")
    return 0


def _equilibrium_points(cfg: RunConfig):
    """Yield ``(x_star, y_star, result)`` for each symmetric equilibrium of
    the configured model, ``result`` its :func:`beta_star` record."""
    p, coupling = cfg.params(), cfg.coupling()
    for x_star, y_star in find_symmetric_equilibria(p, coupling).points:
        yield x_star, y_star, beta_star(x_star, p, coupling)


def _printed(result) -> float | str:
    """The threshold's value, or the kind of a constant verdict."""
    return result.kind.value if result.value is None else result.value


def _cmd_stability(cfg: RunConfig) -> int:
    check_order(cfg.beta)  # before the equilibrium search, which may fail
    rows = [
        [x_star, *chain(*result.blocks), classify(result, cfg.beta).value, _printed(result)]
        for x_star, _, result in _equilibrium_points(cfg)
    ]
    # the single cell has no minus block: its two columns stay empty
    minus = "%r,%r," if cfg.coupling().dim == 4 else ",,"
    header = ["x_star", "tau_plus", "delta_plus", "tau_minus", "delta_minus", "classification",
              "beta_star"]
    _emit(cfg, header, rows, "%r,%r,%r," + minus + "%s,%s")
    return 0


def _cmd_beta_star(cfg: RunConfig) -> int:
    value = cfg.coupling().value
    records = []
    for x_star, y_star, result in _equilibrium_points(cfg):
        tau, delta = result.block
        records.append({
            "model": cfg.model,
            "I": cfg.I,
            "coupling_value": value,
            "x_star": x_star,
            "y_star": y_star,
            "tau": tau,
            "delta": delta,
            "beta_star": _printed(result),
            "kind": result.kind.value,
        })
    with _output(cfg) as fh:
        fh.write(json.dumps(records[0] if len(records) == 1 else records, indent=2) + "\n")
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    import numpy as np

    from .experiments import bifurcation_sweep

    scan = bifurcation_sweep(
        cfg.params(), cfg.coupling(), (cfg.beta_from, cfg.beta_to), cfg.beta_step,
        cfg.solver_config(), y0=cfg.y0, tail_window=cfg.tail,
    )
    n_beta, n_tail, n_cells = scan.tail_samples.shape
    # one row per order, neuron and tail sample, in that nesting
    columns = [
        np.repeat(scan.beta_values, n_cells * n_tail),
        np.tile(np.arange(n_tail), n_beta * n_cells),
        scan.tail_samples.transpose(0, 2, 1).reshape(-1),
    ]
    header, line = ["beta", "sample_index", "x"], "%r,%d,%r"
    if n_cells > 1:
        columns.append(np.tile(np.repeat(np.arange(1, n_cells + 1), n_tail), n_beta))
        header, line = header + ["neuron"], line + ",%d"
    _emit(cfg, header, np.column_stack(columns), line)
    if cfg.svg:
        series = [
            (np.repeat(scan.beta_values, n_tail), scan.tail_samples[:, :, nv].reshape(-1))
            for nv in range(n_cells)
        ]
        _svg_plot(_svg_path(cfg), series, kind="scatter")
    if scan.failed.any():
        bad = ", ".join(map(repr, scan.beta_values[scan.failed].tolist()))
        print(f"numerical failure at beta = {bad} (cells flagged as nan)", file=sys.stderr)
        return 1
    return 0


def _cmd_hopf_curve(cfg: RunConfig) -> int:
    curve = hopf_curve(cfg.params(), cfg.coupling(), (cfg.I_from, cfg.I_to), cfg.I_points)
    value = cfg.coupling().value
    _emit(cfg, ["I", "beta_star", "coupling_value"],
          [[I, b, value] for I, b in zip(curve.I_values, curve.beta_star_values)], "%r,%r,%r")
    for I, reason in curve.omitted:
        print(f"omitted I={I!r}: {reason}", file=sys.stderr)
    if cfg.svg:
        _svg_plot(_svg_path(cfg), [(curve.I_values, curve.beta_star_values)])
    return 0


def _cmd_validate(cfg: RunConfig) -> int:
    import numpy as np

    from .fde import mittag_leffler, solve_fde

    def decay(t, y, _):
        return [-v for v in y]

    steps = (1e-2, 5e-3, 2.5e-3)
    all_ok = True
    lines = ["order   " + "  ".join(f"err(h={h:g})" for h in steps) + "  observed  required"]
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
        lines.append(f"{beta:<7g} {err_text}  {order_text}  >= {required:.2f}  "
                     f"{'PASS' if ok else 'FAIL'}")
    sol = solve_fde(decay, 1.0, SolverConfig(0.0, 1.0, 1e-3), [1.0])
    err = float(np.abs(sol.states[:, 0] - np.exp(-sol.times)).max())
    ok = err <= 1e-5
    all_ok &= ok
    lines.append(f"classical limit: max |x - exp(-t)| = {err:.3e} <= 1e-05  "
                 f"{'PASS' if ok else 'FAIL'}")
    with _output(cfg) as fh:
        fh.write("\n".join(lines) + "\n")
    return 0 if all_ok else 1


# command -> (handler, help)
_COMMANDS = {
    "simulate": (_cmd_simulate, "integrate one model instance"),
    "equilibria": (_cmd_equilibria, "equilibrium points and branch"),
    "stability": (_cmd_stability, "indicators and classification per equilibrium"),
    "beta-star": (_cmd_beta_star, "closed-form Hopf threshold"),
    "sweep": (_cmd_sweep, "continuation sweep over the order"),
    "hopf-curve": (_cmd_hopf_curve, "Hopf threshold versus current"),
    "validate": (_cmd_validate, "solver-versus-oracle convergence checks"),
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
    except (ValueError, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    try:
        handler, _ = _COMMANDS[cfg.command]
        return handler(cfg)
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1
    # the inputs were all checked before the work, so an OSError here is a
    # failed open or write of an output
    except OSError as err:
        print(f"output error: {err}", file=sys.stderr)
        return 2
    except (DmlNeuroError, ValueError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
