import contextlib
import itertools
import json
import math
import re
import subprocess
import sys
from dataclasses import fields
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from dmlneuro import cli, equilibria, experiments, fde, stability
from dmlneuro.cli import RunConfig, run_cli
from dmlneuro.exceptions import NonFiniteStateError
from dmlneuro.models import DmlParams, SigmoidCoupling
from dmlneuro.stability import indicators


def flag_of(field):
    """The flag of a ``RunConfig`` field: ``--`` plus its name with ``_`` as
    ``-``, and ``--lambda`` for ``lam``."""
    return "--" + ("lambda" if field.name == "lam" else field.name.replace("_", "-"))


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunConfig:
    def test_round_trips_through_a_dict(self):
        cfg = RunConfig(command="simulate", model="dimer-linear", I=0.02, y0=(0.1, 0.1, -0.2, 0.1))
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_full_dict_round_trips_field_for_field(self):
        cfg = RunConfig(command="sweep", beta_from=0.95, svg=True)
        d = cfg.to_dict()
        assert RunConfig.from_dict(d).to_dict() == d

    def test_json_round_trip(self):
        cfg = RunConfig(command="hopf-curve", model="dimer-sigmoid", sigma=0.0005)
        blob = json.dumps(cfg.to_dict())
        assert RunConfig.from_dict(json.loads(blob)) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration keys"):
            RunConfig.from_dict({"command": "simulate", "stepsize": 0.1})

    # a value other than the default, as a flag's text and as a config value
    OTHER = {
        "float": ("0.5", 0.5),
        "int": ("7", 7),
        "str": ("dimer-linear", "dimer-linear"),
        "Optional[tuple]": ("0.5,-0.25", [0.5, -0.25]),
        "Optional[str]": (None, None),  # the --out path, made per test
    }

    @pytest.mark.parametrize("f", [f for f in fields(RunConfig) if f.name != "command"],
                             ids=lambda f: f.name)
    def test_each_field_is_one_flag_and_one_config_key(self, tmp_path, f):
        command, out = "equilibria", []
        if f.type == "bool":
            # --svg draws beside the --out of a plotting command
            argv, value = [], True
            command, out = "hopf-curve", ["--out", str(tmp_path / "curve.csv")]
        else:
            text, value = self.OTHER[f.type]
            if f.type == "Optional[str]":
                text = value = str(tmp_path / "table.csv")
            argv = [text]
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({f.name: value}))
        parse = cli._build_parser().parse_args
        from_flag = cli._resolve_config(parse([command, flag_of(f), *argv, *out]))
        from_file = cli._resolve_config(parse([command, "--config", str(cfg_file), *out]))
        assert from_flag == from_file
        assert getattr(from_flag, f.name) != getattr(RunConfig(command), f.name)

    def test_the_fields_are_every_flag(self):
        # one parser: every field's flag, and the command a positional
        parser = cli._build_parser()
        expected = {flag_of(f) for f in fields(RunConfig) if f.name != "command"}
        flags = {o for a in parser._actions for o in a.option_strings}
        assert flags == expected | {"-h", "--help", "--config", "--use-fft"}
        command, = (a for a in parser._actions if a.dest == "command")
        assert command.option_strings == [] and list(command.choices) == list(cli._COMMANDS)


class TestParser:
    def test_help_names_each_command_with_its_description(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        for name, (_, text) in cli._COMMANDS.items():
            assert re.search(rf"^  {re.escape(name)} +{re.escape(text)}$", out, re.M), name

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_each_command_s_help_exits_0(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and out.startswith("usage: dmlneuro ")

    def test_no_command_exits_2(self, capsys):
        code, out, err = run(capsys)
        assert (code, out) == (2, "")
        assert err.endswith("dmlneuro: error: the following arguments are required: command\n")

    def test_an_unknown_command_exits_2_with_the_choices(self, capsys):
        code, out, err = run(capsys, "equilibrium")
        assert (code, out) == (2, "")
        # newer Pythons print the choices without quotes
        head, choices = err.splitlines()[-1].split(" (choose from ")
        assert head == "dmlneuro: error: argument command: invalid choice: 'equilibrium'"
        assert choices.replace("'", "") == ", ".join(cli._COMMANDS) + ")"

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_flags_before_the_command_give_the_same_config(self, tmp_path, command):
        # a negative current in exponent notation and a --y0 that starts
        # with a negative value are joined to their flags in either place
        flags = ["--model", "dimer-sigmoid", "--sigma", "0.002", "--I", "-7.851617706231516e-05",
                 "--y0", "-0.1,0.1,-0.2,0.1", "--I-points", "7", "--out", str(tmp_path / "t.csv")]
        parse = cli._build_parser().parse_args

        def resolved(argv):
            return cli._resolve_config(parse(cli._attach_negative_values(argv)))

        after = resolved([command, *flags])
        assert resolved([*flags, command]) == after
        assert resolved([*flags[:6], command, *flags[6:]]) == after
        assert after.command == command and after.I == -7.851617706231516e-05


class TestBetaStarCommand:
    def test_prints_reference_record(self, capsys):
        code, out, _ = run(capsys, "beta-star", "--model", "single", "--I", "0.019")
        assert code == 0
        record = json.loads(out)
        assert record["beta_star"] == pytest.approx(0.98233, abs=1e-4)
        assert record["x_star"] == pytest.approx(0.40772, abs=1e-4)
        assert record["kind"] == "threshold"

    def test_sigmoid_model_record(self, capsys):
        code, out, _ = run(
            capsys, "beta-star", "--model", "dimer-sigmoid", "--I", "0.019",
            "--sigma", "0.001",
        )
        assert code == 0
        record = json.loads(out)
        assert record["beta_star"] == pytest.approx(0.98628, abs=1e-4)
        assert record["coupling_value"] == 0.001
        # the in-phase block binds for an excitatory pair
        plus, _ = indicators(record["x_star"], DmlParams(I=0.019), SigmoidCoupling(0.001))
        assert (record["tau"], record["delta"]) == plus

    def test_inhibitory_pair_reports_the_block_that_binds(self, capsys):
        code, out, _ = run(capsys, "beta-star", "--model", "dimer-sigmoid", "--vs", "-1",
                           "--I", "0.019")
        assert code == 0
        record = json.loads(out)
        _, (tau_minus, delta_minus) = indicators(
            record["x_star"], DmlParams(I=0.019), SigmoidCoupling(0.001, v_s=-1.0)
        )
        assert (record["tau"], record["delta"]) == (tau_minus, delta_minus)
        ratio = tau_minus / (2.0 * math.sqrt(delta_minus))
        assert record["beta_star"] == 2.0 * math.acos(ratio) / math.pi
        assert record["beta_star"] == pytest.approx(0.9806562731256125, abs=1e-12)

    def test_multiple_equilibria_yield_a_list(self, capsys):
        code, out, _ = run(capsys, "beta-star", "--I", "0.011")
        assert code == 0
        records = json.loads(out)
        assert isinstance(records, list) and len(records) == 3

    @pytest.mark.parametrize("command", ["stability", "beta-star"])
    @pytest.mark.parametrize(
        "model", [[], ["--model", "dimer-sigmoid"]], ids=["single", "dimer-sigmoid"]
    )
    def test_each_equilibrium_is_analysed_once(self, capsys, command, model):
        # three equilibria at I = 0.011, each with one stability record; the
        # spy counts calls made through either module's name for indicators
        spy = mock.Mock(wraps=stability.indicators)
        with mock.patch.object(stability, "indicators", spy), \
                mock.patch.object(cli, "indicators", spy, create=True):
            code, _, _ = run(capsys, command, *model, "--I", "0.011")
        assert code == 0
        assert spy.call_count == 3

    def test_saddle_record_is_unstable_for_all_orders(self, capsys):
        # the middle of the three equilibria is a saddle, and its block decides
        code, out, _ = run(capsys, "beta-star", "--I", "0.011")
        assert code == 0
        saddle = json.loads(out)[1]
        assert saddle["kind"] == saddle["beta_star"] == "unstable-for-all-orders"
        assert saddle["tau"] == pytest.approx(-0.0670, abs=1e-4)
        assert saddle["delta"] == pytest.approx(-0.02205, abs=1e-5)


class TestConfigHandling:
    def test_order_domain_violation_exits_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--beta", "1.5", "--t-end", "10")
        assert code == 2
        assert "order must lie in (0, 1]" in err

    def test_unknown_flag_exits_2(self, capsys):
        assert run_cli(["simulate", "--nope", "1"]) == 2

    def test_infinite_end_time_exits_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--t-end", "inf")
        assert code == 2
        assert "t_end must be finite" in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_a_grid_whose_step_count_overflows_exits_2(self, capsys, command):
        code, out, err = run(capsys, command, "--t-end", "1e300", "--h", "1e-300",
                             "--discard", "0", "--tail", "5")
        assert code == 2 and out == ""
        assert err == ("configuration error: the step count (t_end - t_start) / h must be "
                       "finite, got inf\n")

    # 1e15 + 1 samples (petabytes of times alone), 5e13 + 1 orders and 1e13
    # currents: allocations that fail at once, never ones that could
    # succeed; about 5e299 orders, 1e20 currents and 1e300 samples: more
    # than numpy can index.  Each is refused before any work
    @pytest.mark.parametrize("argv, grid", [
        (["simulate", "--t-end", "1e15", "--h", "1"], "1000000000000001 samples"),
        (["sweep", "--t-end", "1e15", "--h", "1"], "1000000000000001 samples"),
        (["sweep", "--beta-from", "0.5", "--beta-to", "1.0", "--beta-step", "1e-14"],
         "50000000000001 orders"),
        (["sweep", "--beta-from", "0.5", "--beta-to", "1.0", "--beta-step", "1e-300"],
         f"{math.floor(0.5 / 1e-300 + 1e-9) + 1} orders"),
        (["hopf-curve", "--I-points", "10000000000000"], "10000000000000 currents"),
        (["hopf-curve", "--I-points", "100000000000000000000"], "100000000000000000000 currents"),
        (["simulate", "--t-end", "1e300", "--h", "1"], f"{math.floor(1e300 + 1e-9) + 1} samples"),
    ], ids=["simulate", "sweep", "orders", "orders-unindexable", "currents",
            "currents-unindexable", "samples-unindexable"])
    def test_a_grid_too_long_to_allocate_exits_2(self, capsys, monkeypatch, argv, grid):
        def never(*args, **kwargs):
            raise AssertionError("fold search")

        monkeypatch.setattr(equilibria, "_block_zeros", never)  # a Hopf curve's first work
        code, out, err = run(capsys, *argv, "--discard", "0", "--tail", "5")
        assert code == 2 and out == ""
        assert err == f"configuration error: the grid of {grid} does not fit in memory\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["equilibria", "--A", "nan"],
            ["equilibria", "--gamma", "nan"],
            ["equilibria", "--model", "dimer-linear", "--theta", "nan"],
            ["equilibria", "--model", "dimer-sigmoid", "--sigma", "nan"],
            ["equilibria", "--model", "dimer-sigmoid", "--vs", "nan"],
            ["equilibria", "--model", "dimer-sigmoid", "--lambda", "nan"],
        ],
    )
    def test_non_finite_model_parameter_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("configuration error: ") and "must be finite, got nan" in err

    @pytest.mark.parametrize("command", ["equilibria", "simulate"])
    @pytest.mark.parametrize("A, gamma, ratio", [("1e-200", "1e200", "0.0"),
                                                 ("1e200", "1e-200", "inf")])
    def test_a_over_gamma_outside_the_floats_exits_2(self, capsys, command, A, gamma, ratio):
        code, out, err = run(capsys, command, "--A", A, "--gamma", gamma, "--alpha", "1000",
                             "--I", "0.01")
        assert (code, out) == (2, "")
        assert err == f"configuration error: A / gamma must be positive and finite, got {ratio}\n"

    def test_nan_order_step_exits_2(self, capsys):
        for step, message in [("nan", "beta_step must be positive"),
                              ("inf", "beta_step must be positive and finite, got inf"),
                              ("5e-324", "the order count (range / beta_step) must be finite, "
                                         "got inf")]:
            code, _, err = run(capsys, "sweep", "--beta-step", step, "--beta-from", "0.98",
                               "--beta-to", "1.0", "--t-end", "10")
            assert code == 2
            assert err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_initial_state_exits_2(self, tmp_path, capsys, command, bad):
        out_path = tmp_path / "run.csv"
        code, out, err = run(
            capsys, command, f"--y0={bad},0.1", "--beta-from", "0.98", "--t-end", "5",
            "--h", "0.1", "--discard", "0", "--tail", "5", "--out", str(out_path),
        )
        assert code == 2 and out == ""
        assert err == f"configuration error: y0 must be finite, got [{bad}, 0.1]\n"
        assert not out_path.exists()

    def test_config_file_supplies_values(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"model": "single", "I": 0.022}))
        code, out, _ = run(capsys, "beta-star", "--config", str(cfg_file))
        assert code == 0
        assert json.loads(out)["beta_star"] == pytest.approx(0.98772, abs=1e-4)

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"I": 0.022}))
        code, out, _ = run(capsys, "beta-star", "--config", str(cfg_file), "--I", "0.019")
        assert code == 0
        assert json.loads(out)["beta_star"] == pytest.approx(0.98233, abs=1e-4)

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "beta-star", "--config", str(bad))
        assert code == 2 and "configuration error" in err

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run(capsys, "beta-star", "--config", "/nonexistent.json")
        assert code == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"stepsize": 0.1}))
        code, _, err = run(capsys, "beta-star", "--config", str(bad))
        assert code == 2 and "unknown configuration keys" in err

    @pytest.mark.parametrize(
        "command, values",
        [
            ("equilibria", {"I": "abc"}),
            ("equilibria", {"I": "0.019"}),
            ("hopf-curve", {"I_points": 2.5}),
            ("beta-star", {"svg": "yes"}),
            # 401-digit integers, too large for a float
            ("equilibria", {"I": 10**400}),
            ("simulate", {"y0": [10**400, 0.1]}),
        ],
    )
    def test_config_value_of_the_wrong_type_exits_2(self, tmp_path, capsys, command, values):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(values))
        code, _, err = run(capsys, command, "--config", str(bad))
        assert code == 2 and "configuration error" in err

    def test_use_fft_is_accepted_and_ignored(self, tmp_path, capsys):
        args = ["simulate", "--t-end", "5", "--h", "0.1", "--discard", "0", "--tail", "10"]
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"use_fft": True}))
        _, plain, _ = run(capsys, *args)
        _, flagged, _ = run(capsys, *args, "--use-fft")
        code, from_file, _ = run(capsys, *args, "--config", str(cfg_file))
        assert code == 0 and plain == flagged == from_file

    def test_corrector_iterations_are_no_input(self, tmp_path, capsys):
        # each step is one PECE pass: a number of corrector passes is rejected,
        # not ignored like --use-fft, since it would change the results
        args = ["simulate", "--t-end", "5", "--h", "0.1", "--discard", "0", "--tail", "10"]
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"corrector_iterations": 2}))
        code, out, err = run(capsys, *args, "--corrector-iterations", "2")
        assert code == 2 and out == "" and "unrecognized arguments" in err
        code, out, err = run(capsys, *args, "--config", str(cfg_file))
        assert code == 2 and out == "" and "unknown configuration keys" in err

    def test_type_error_in_a_handler_propagates(self, monkeypatch):
        # a TypeError inside a command is a bug, not a configuration error
        def broken(cfg):
            raise TypeError("bug")

        monkeypatch.setitem(cli._COMMANDS, "equilibria", (broken, "broken"))
        with pytest.raises(TypeError, match="bug"):
            run_cli(["equilibria", "--I", "0.019"])

    def test_successive_calls_share_no_state(self, tmp_path, capsys):
        args = ["hopf-curve", "--I-from", "0.018", "--I-to", "0.02", "--I-points", "3"]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert run_cli(args + ["--out", str(first), "--svg"]) == 0
        assert run_cli(args + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert (tmp_path / "first.svg").exists()
        assert not (tmp_path / "second.svg").exists()
        assert first.read_text() == second.read_text()

    def test_unwritable_output_exits_2(self, capsys):
        code, _, err = run(
            capsys, "equilibria", "--I", "0.019", "--out", "/nonexistent-dir/x.csv"
        )
        assert code == 2 and "configuration error" in err


class TestEquilibriaCommand:
    def test_csv_schema_and_counts(self, capsys):
        code, out, _ = run(capsys, "equilibria", "--I", "0.011")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "I,branch,x_star,y_star"
        assert len(lines) == 4
        assert all(line.startswith("0.011,threefold,") for line in lines[1:])

    def test_negative_current_in_exponent_notation(self, capsys):
        code, out, err = run(
            capsys, "equilibria", "--model", "dimer-sigmoid", "--sigma", "0.0001",
            "--I", "-7.851617706231516e-05",
        )
        assert code == 0, err
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 1
        assert rows[0].startswith("-7.851617706231516e-05,unique,")

    def test_five_symmetric_equilibria(self, capsys):
        # a steep synapse opening at 0 gives the pair's equilibrium equation
        # four extrema, and five roots at this current
        code, out, err = run(
            capsys, "equilibria", "--model", "dimer-sigmoid", "--sigma", "0.0016102620275609393",
            "--lambda", "100", "--q", "0", "--I", "0.012005578808211124",
        )
        assert code == 0, err
        lines = out.strip().split("\n")
        assert lines[0] == "I,branch,x_star,y_star" and len(lines) == 6
        assert all(line.startswith("0.012005578808211124,fivefold,") for line in lines[1:])

    def test_written_file(self, tmp_path, capsys):
        out_path = tmp_path / "eq.csv"
        code, _, _ = run(capsys, "equilibria", "--I", "0.019", "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("I,branch,x_star,y_star\n")
        assert "unique" in text


# currents whose stage-two bracket is wider than the root solve can bound
# (top / k overflows, or alpha is tiny): a query gives its root or one
# failure line
HUGE_CURRENTS = [["1e307"], ["1e308"], ["1.7976931348623157e308"], ["1e308", "--alpha", "1e-300"]]


@pytest.mark.parametrize("I", HUGE_CURRENTS, ids=lambda I: " ".join(I))
@pytest.mark.parametrize("command", ["equilibria", "stability", "beta-star", "hopf-curve"])
def test_a_huge_current_gives_its_root_or_one_failure_line(capsys, command, I):
    flags = (["--I-from", I[0], "--I-to", I[0], "--I-points", "1"] if command == "hopf-curve"
             else ["--I", I[0]])
    code, out, err = run(capsys, command, *flags, *I[1:])
    assert code in (0, 1) and "Traceback" not in err
    if command == "hopf-curve":
        # a current without a root is omitted and named on one line, with its reason
        assert code == 0 and out.startswith("I,beta_star,coupling_value\n")
        assert not err or (err.count("\n") == 1
                           and err.startswith(f"omitted I={float(I[0])!r}: "))
    elif code:
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"numerical failure: no equilibrium found for I={float(I[0])!r}: ")


def test_a_root_past_the_overflow_guard_is_one_failure_line(capsys):
    # g jumps from +1e10 to -inf where alpha x reaches 709, and the true
    # root lies past that guard: the jump is no root
    code, out, err = run(capsys, "equilibria", "--A", "1e-300", "--gamma", "1", "--I", "1e10")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert err.startswith("numerical failure: no equilibrium found for I=10000000000.0: "
                          "f jumps to an infinite value near x=134.38")


@pytest.mark.parametrize("argv, cube", [
    (["--I", "1e306"], False), (["--I", "1e305"], False),
    (["--I", "1e308", "--alpha", "1e-300"], True),
], ids=["1e306", "1e305", "1e308-tiny-alpha"])
def test_a_root_that_dwarfs_the_cubic_is_found(capsys, argv, cube):
    code, out, err = run(capsys, "equilibria", *argv)
    assert code == 0, err
    (row,) = out.splitlines()[1:]
    I, branch, x, y = row.split(",")
    I, x, y = float(I), float(x), float(y)
    assert branch == "unique"
    if cube:
        # e^(alpha x) is 1 to the last bit: x^2 (x - 1) = I - A / gamma
        assert x == pytest.approx((I - y) ** (1.0 / 3.0), rel=1e-12)
    else:
        # the recovery term carries the current: y* = A / gamma e^(alpha x*)
        assert y == pytest.approx(I - x * x * (x - 1.0), rel=1e-12)
    if argv[1] == "1e306":
        assert x == 134.36008983266186


class TestStabilityCommand:
    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, "stability", "--I", "0.019", "--beta", "0.97")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "x_star,tau_plus,delta_plus,tau_minus,delta_minus,classification,beta_star"
        )
        fields = lines[1].split(",")
        assert fields[5] == "asymptotically-stable"
        assert float(fields[6]) == pytest.approx(0.98233, abs=1e-4)
        # single cell leaves the minus-branch columns empty
        assert fields[3] == "" and fields[4] == ""

    def test_saddle_row_at_midbranch_current(self, capsys):
        code, out, _ = run(capsys, "stability", "--I", "0.011", "--beta", "0.9")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 3
        # a saddle's positive real eigenvalue leaves no stable order
        assert rows[1].endswith(",saddle,unstable-for-all-orders")
        assert not any("undefined" in row for row in rows)

    def test_fold_row_reads_undefined(self, capsys):
        # the upper fold current of the sigmoid pair, from critical_points;
        # rounding leaves delta_plus = +2.1e-17 at its fold equilibrium
        code, out, _ = run(capsys, "stability", "--model", "dimer-sigmoid", "--sigma", "0.003",
                           "--I=0.009845706254716551")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 2
        assert 0.0 < float(rows[0].split(",")[2]) <= 1e-12
        assert rows[0].endswith(",saddle-node-degenerate,undefined")

    def test_order_checked_before_the_equilibrium_search(self, capsys, monkeypatch):
        forbid(monkeypatch, "find_symmetric_equilibria")
        for current in ("1e6", "0.019"):
            code, out, err = run(capsys, "stability", "--beta", "0", "--I", current)
            assert (code, out) == (2, "")
            assert err == "configuration error: order must lie in (0, 1], got 0.0\n"


class TestSimulateCommand:
    def test_trajectory_csv_single(self, tmp_path, capsys):
        out_path = tmp_path / "traj.csv"
        code, out, _ = run(
            capsys, "simulate", "--beta", "0.9", "--t-end", "10", "--h", "0.1",
            "--discard", "0", "--tail", "50", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "t,x,y"
        assert len(lines) == 102  # header + 101 grid nodes
        summary = json.loads(out)
        assert "converged" in summary and "final_state" in summary

    def test_trajectory_csv_dimer_header(self, tmp_path, capsys):
        out_path = tmp_path / "traj4.csv"
        code, _, _ = run(
            capsys, "simulate", "--model", "dimer-linear", "--theta", "0.008",
            "--beta", "0.9", "--t-end", "5", "--h", "0.1", "--discard", "0",
            "--tail", "20", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().startswith("t,x1,y1,x2,y2\n")

    def test_csv_bit_reproducible(self, tmp_path, capsys):
        args = [
            "simulate", "--beta", "0.95", "--t-end", "20", "--h", "0.05",
            "--discard", "0", "--tail", "50",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_blow_up_exits_1_with_partial_output(self, tmp_path, capsys):
        out_path = tmp_path / "boom.csv"
        code, _, err = run(
            capsys, "simulate", "--I", "1e6", "--beta", "0.9", "--t-end", "5",
            "--h", "0.01", "--discard", "0", "--tail", "10", "--out", str(out_path),
        )
        assert code == 1
        assert "numerical failure" in err
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "t,x,y" and len(lines) >= 2

    def test_custom_initial_state_honored(self, tmp_path, capsys):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(
            capsys, "simulate", "--beta", "0.9", "--t-end", "5", "--h", "0.1",
            "--discard", "0", "--tail", "10", "--y0", "0.25,0.05",
            "--out", str(out_path),
        )
        assert code == 0
        first_row = out_path.read_text().split("\n")[1].split(",")
        assert float(first_row[1]) == 0.25 and float(first_row[2]) == 0.05

    def test_oversized_discard_exits_2(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--beta", "0.9", "--t-end", "5", "--h", "0.1",
            "--discard", "100", "--tail", "500",
        )
        assert code == 2 and "exceed" in err

    @pytest.mark.parametrize("discard, tail, message", [
        ("100", "10", "discard (100) + tail (10) exceeds the 51 grid samples"),
        ("-1", "10", "discard must be >= 0, got -1"),
        ("0", "0", "tail must be >= 1, got 0"),
    ])
    def test_discard_and_tail_are_checked_before_the_solve(self, tmp_path, capsys, monkeypatch,
                                                           discard, tail, message):
        monkeypatch.setattr(experiments, "solve_fde", pytest.fail)
        out_path = tmp_path / "d.csv"
        code, out, err = run(capsys, "simulate", "--t-end", "5", "--h", "0.1", "--discard",
                             discard, "--tail", tail, "--out", str(out_path))
        assert (code, out, err) == (2, "", f"configuration error: {message}\n")
        assert not out_path.exists()

    def test_svg_requires_out(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--beta", "0.9", "--t-end", "5", "--h", "0.1",
            "--discard", "0", "--tail", "10", "--svg",
        )
        assert code == 2

    def test_blow_up_without_out_prints_the_finite_prefix(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--I", "1e6", "--beta", "0.9", "--t-end", "5",
            "--h", "0.01", "--discard", "0", "--tail", "10",
        )
        assert code == 1
        lines = out.strip().split("\n")
        assert lines[0] == "t,x,y" and len(lines) >= 2
        assert np.isfinite(np.array([line.split(",") for line in lines[1:]], dtype=float)).all()
        assert f"{len(lines) - 1} finite rows written to stdout" in err

    def test_svg_written(self, tmp_path, capsys):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(
            capsys, "simulate", "--beta", "0.9", "--t-end", "10", "--h", "0.1",
            "--discard", "0", "--tail", "20", "--out", str(out_path), "--svg",
        )
        assert code == 0
        svg = (tmp_path / "traj.svg").read_text()
        assert svg.startswith("<svg")
        assert 'viewBox="0 0 800 500"' in svg
        assert svg.count("<polyline") == 1

    def test_svg_plots_the_kept_run_from_discard_on(self, tmp_path, capsys, experiment_calls):
        # 9001 rows, three pieces; the plot starts inside the second
        code, _, _ = run(capsys, *simulate_argv(9001, dim=4)[:-4], "--discard", "5000",
                         "--tail", "10", "--out", str(tmp_path / "run.csv"), "--svg")
        assert code == 0
        traj = kept_run(*experiment_calls[0])
        whole_svg(str(tmp_path / "kept.svg"),
                  [(traj.times[5000:], v) for v in traj.states[5000:, ::2].T])
        assert (tmp_path / "run.svg").read_bytes() == (tmp_path / "kept.svg").read_bytes()

    def test_svg_of_a_pair_draws_both_voltages(self, tmp_path, capsys):
        out_path = tmp_path / "pair.csv"
        code, _, _ = run(
            capsys, "simulate", "--model", "dimer-sigmoid", "--beta", "0.9", "--t-end", "10",
            "--h", "0.1", "--discard", "0", "--tail", "20", "--out", str(out_path), "--svg",
        )
        assert code == 0
        assert (tmp_path / "pair.svg").read_text().count("<polyline") == 2

    def test_svg_beside_an_out_path_in_a_dotted_directory(self, tmp_path, capsys):
        (tmp_path / "results.v2").mkdir()
        code, _, _ = run(
            capsys, "simulate", "--beta", "0.9", "--t-end", "5", "--h", "0.1",
            "--discard", "0", "--tail", "20", "--out", str(tmp_path / "results.v2" / "run"), "--svg",
        )
        assert code == 0
        assert (tmp_path / "results.v2" / "run.svg").exists()
        assert not (tmp_path / "results.svg").exists()

    def test_svg_beside_a_relative_out_path_without_extension(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(
            capsys, "simulate", "--beta", "0.9", "--t-end", "5", "--h", "0.1",
            "--discard", "0", "--tail", "20", "--out", "./run", "--svg",
        )
        assert code == 0
        assert (tmp_path / "run.svg").exists()
        assert not (tmp_path / ".svg").exists()


def fmt(value) -> str:
    """One CSV cell as the row-by-row writer formatted it."""
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def row_by_row_csv(header, rows):
    """The CSV as the row-by-row writer produced it: ``fmt`` on every value."""
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode()


def trajectory_csv(traj):
    """The row-by-row CSV of a trajectory, as ``simulate`` writes it."""
    dim = traj.states.shape[1]
    header = ["t", "x", "y"] if dim == 2 else ["t", "x1", "y1", "x2", "y2"]
    return row_by_row_csv(header, ([t, *state] for t, state in zip(traj.times, traj.states)))


def simulate_argv(n_rows, dim=2):
    """``simulate`` on a grid of ``n_rows`` rows, with nothing discarded."""
    model = "single" if dim == 2 else "dimer-sigmoid"
    return ["simulate", "--model", model, "--beta", "0.95", "--h", "0.05",
            "--t-end", repr((n_rows - 1) / 20), "--discard", "0", "--tail", "10"]


def stream_to_file(tmp_path, table, sizes=None):
    """The bytes a ``_CsvStream`` writes, after a header, for a float table
    fed to it in pieces of ``sizes`` rows, by default 11 each, and the
    row-by-row bytes."""
    header = [f"c{i}" for i in range(table.shape[1])]
    out_path = tmp_path / "table.csv"
    stops = range(11, len(table) + 11, 11) if sizes is None else np.cumsum(sizes)
    with cli._CsvStream(*table.shape) as stream, open(out_path, "w", encoding="utf-8", newline="") as fh:
        for start, stop in zip([0, *stops], stops):
            stream.feed(table[start:stop, 0], table[start:stop, 1:])
        fh.write(",".join(header) + "\n")
        stream.write(fh)
    return out_path.read_bytes(), row_by_row_csv(header, table)


RUN_EXPERIMENT = experiments.run_experiment  # as imported, before any test patches it


def whole_svg(path, series, kind="line"):
    """The plot as one string, as the writer built it before it wrote in
    chunks: ``series`` is a list of ``(xs, ys)`` arrays."""
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
        xy = np.column_stack((
            margin + (xs[ok] - x_lo) / x_span * (width - 2 * margin),
            height - margin - (ys[ok] - y_lo) / y_span * (height - 2 * margin),
        )).ravel().tolist()
        if kind == "scatter":
            if xy:
                circle = f'<circle cx="%.2f" cy="%.2f" r="1" fill="{color}"/>'
                parts.append("\n".join([circle] * (len(xy) // 2)) % tuple(xy))
        else:
            pts = " ".join(["%.2f,%.2f"] * (len(xy) // 2)) % tuple(xy)
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")


def kept_run(args, kwargs):
    """The trajectory of a ``run_experiment`` call run again without its
    ``_on_rows``, which keeps every row: the whole run, or the finite part
    that a blow-up carries."""
    kwargs = {key: value for key, value in kwargs.items() if key != "_on_rows"}
    try:
        return RUN_EXPERIMENT(*args, **kwargs).trajectory
    except NonFiniteStateError as err:
        return err.trajectory


@pytest.fixture
def experiment_calls(monkeypatch):
    """The arguments ``(args, kwargs)`` of each ``run_experiment`` call."""
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return RUN_EXPERIMENT(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_experiment", spy)
    return calls


class TestCsvWriter:
    # a chunk of 7 rows splits every table below into several chunks and a
    # shorter last one
    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_CHUNK", 7)

    def test_trajectory_bytes_match_the_row_by_row_writer(self, tmp_path, capsys,
                                                          experiment_calls):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(
            capsys, "simulate", "--model", "dimer-sigmoid", "--beta", "0.95",
            "--t-end", "5", "--h", "0.05", "--discard", "0", "--tail", "10",
            "--out", str(out_path),
        )
        assert code == 0
        traj = kept_run(*experiment_calls[0])
        rows = ([t, *state] for t, state in zip(traj.times, traj.states))
        expected = row_by_row_csv(["t", "x1", "y1", "x2", "y2"], rows)
        assert out_path.read_bytes() == expected

    def test_special_floats_match_the_row_by_row_writer(self, tmp_path):
        # a table too short for the helper: this process formats every row,
        # from the spill, 7 rows at a time and then the last 1
        table = np.array([
            [0.0, -0.0, 1e-300, -5e-324],
            [np.nan, np.inf, -np.inf, 1.7976931348623157e308],
            [0.1, 1 / 3, -2.5e-17, 123456789.0],
        ] * 5)
        written, expected = stream_to_file(tmp_path, table)
        assert written == expected

    @pytest.mark.parametrize("argv", [
        ("equilibria", "--model", "dimer-sigmoid", "--sigma", "0.003", "--I", "0.0098"),
        ("stability", "--I", "0.011", "--beta", "0.9"),
        ("stability", "--model", "dimer-sigmoid", "--sigma", "0.003", "--I", "0.0098"),
    ])
    def test_mixed_rows_match_the_row_by_row_writer(self, tmp_path, capsys, monkeypatch, argv):
        tables = []
        real = cli._emit

        def spy(cfg, header, rows, line):
            tables.append((header, rows, line))
            real(cfg, header, rows, line)

        monkeypatch.setattr(cli, "_emit", spy)
        out_path = tmp_path / "table.csv"
        code, _, _ = run(capsys, *argv, "--out", str(out_path))
        assert code == 0
        header, rows, line = tables[0]
        assert len(rows) == 3
        # a column the template leaves empty held None for the row-by-row writer
        empty = [cell == "" for cell in line.split(",")]
        rows = [[None if e else next(values) for e in empty]
                for values in map(iter, rows)]
        assert out_path.read_bytes() == row_by_row_csv(header, rows)

    @pytest.fixture
    def helpers(self, monkeypatch):
        """Every helper process started, with trajectories longer than 30 rows
        streamed."""
        monkeypatch.setattr(cli, "_CSV_SPLIT_ROWS", 30)
        started = []

        class Spy(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(subprocess, "Popen", Spy)
        return started

    # chunks of 30 rows, and tables longer than 29 rows streamed in pieces
    # of 11: no helper, or one whose last read holds 30, 1 or 10 rows
    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("n", [29, 30, 31, 100])
    def test_split_bytes_match_the_row_by_row_writer(self, tmp_path, monkeypatch, helpers, n,
                                                     dim):
        monkeypatch.setattr(cli, "_CSV_CHUNK", 30)
        monkeypatch.setattr(cli, "_CSV_SPLIT_ROWS", 29)
        table = np.random.default_rng(n).standard_normal((n, 1 + dim)) * 10.0 ** np.arange(1 + dim)
        written, expected = stream_to_file(tmp_path, table)
        assert written == expected
        assert len(helpers) == (n >= 30)
        assert all(p.returncode == 0 for p in helpers)

    def test_split_special_floats_match_the_row_by_row_writer(self, tmp_path, helpers):
        values = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310, np.nan, np.inf, -np.inf,
                  1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]
        written, expected = stream_to_file(tmp_path, np.resize(values, (40, 4)))
        assert written == expected
        assert len(helpers) == 1 and helpers[0].returncode == 0

    def test_blow_up_in_the_first_block_is_streamed(self, tmp_path, capsys, monkeypatch, helpers,
                                                    sends):
        # a streamed run with three finite rows, handed over only at the
        # blow-up: the helper starts for them, and its last read is short
        monkeypatch.setattr(cli, "_CSV_SPLIT_ROWS", 2)
        monkeypatch.setattr(cli, "_CSV_CHUNK", 4)
        out_path = tmp_path / "boom.csv"
        code, _, err = run(
            capsys, "simulate", "--I", "1e3", "--beta", "0.9", "--t-end", "5",
            "--h", "0.01", "--discard", "0", "--tail", "10", "--out", str(out_path),
        )
        assert code == 1 and "3 finite rows" in err
        assert len(sends.trajectories[0].times) == 3
        assert out_path.read_bytes() == trajectory_csv(sends.trajectories[0])
        assert len(helpers) == 1 and helpers[0].returncode == 0
        assert sends.writes == [True]

    def test_mixed_rows_start_no_helper(self, tmp_path, capsys, helpers):
        code, _, _ = run(
            capsys, "hopf-curve", "--I-from", "0.016", "--I-to", "0.0235", "--I-points", "50",
            "--out", str(tmp_path / "curve.csv"),
        )
        assert code == 0
        assert helpers == []

    def test_helper_is_reaped_when_the_parent_fails_to_write(self, capsys, monkeypatch, helpers):
        # the header fails while the helper may still be writing its text
        class Failing:
            def write(self, text):
                raise OSError("disk full")

        monkeypatch.setattr(cli, "_output", lambda cfg: contextlib.nullcontext(Failing()))
        code, _, err = run(capsys, *simulate_argv(100))
        assert code == 2 and err.startswith("output error: disk full")
        assert len(helpers) == 1 and helpers[0].returncode is not None

    def test_helper_that_cannot_start_falls_back(self, tmp_path, monkeypatch, helpers):
        monkeypatch.setattr(sys, "executable", str(tmp_path / "missing" / "python"))
        table = np.random.default_rng(3).standard_normal((100, 3))
        written, expected = stream_to_file(tmp_path, table)
        assert written == expected
        assert helpers == []

    # each piece is one send, of whatever length; the helper reads chunks of
    # 7 rows or of the real 4096
    @pytest.mark.parametrize("chunk", [7, 4096])
    @pytest.mark.parametrize("sizes", [[1, 4097, 5, 30], [4096, 4096, 1], [7] * 50, [9000]])
    def test_uneven_pieces_through_a_helper_match_the_row_by_row_writer(
            self, tmp_path, monkeypatch, helpers, sends, sizes, chunk):
        monkeypatch.setattr(cli, "_CSV_CHUNK", chunk)
        table = np.random.default_rng(len(sizes)).standard_normal((sum(sizes), 3)) * [1, 1e3, 1e-3]
        written, expected = stream_to_file(tmp_path, table, sizes)
        assert written == expected
        assert len(helpers) == 1 and helpers[0].returncode == 0
        assert sends.sizes == [24 * n for n in sizes]

    @pytest.mark.skipif(sys.platform == "win32", reason="runs a shell script as the helper")
    def test_failed_helper_output_is_discarded(self, tmp_path, monkeypatch, helpers):
        script = tmp_path / "failing-helper"
        script.write_text("#!/bin/sh\necho 1.0,2.0,3.0\nexit 1\n")
        script.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(script))
        table = np.random.default_rng(4).standard_normal((100, 3))
        written, expected = stream_to_file(tmp_path, table)
        assert written == expected
        assert len(helpers) == 1 and helpers[0].returncode == 1

    @pytest.fixture
    def sends(self, monkeypatch, helpers):
        """Each write to a helper's stdin, as whether the solve was still
        running then and as its size in bytes; and the trajectory, or finite
        part, of each solve, as the same run gives it when it keeps every
        row."""
        seen = SimpleNamespace(solving=False, writes=[], sizes=[], trajectories=[])

        class Stdin:
            def __init__(self, pipe):
                self.pipe = pipe

            def write(self, data):
                seen.writes.append(seen.solving)
                seen.sizes.append(memoryview(data).nbytes)
                return self.pipe.write(data)

            def __getattr__(self, name):
                return getattr(self.pipe, name)

        class Recorded(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.stdin = Stdin(self.stdin)

        monkeypatch.setattr(subprocess, "Popen", Recorded)
        real = experiments.run_experiment

        def solve(*args, **kwargs):
            seen.solving = True
            try:
                summary = real(*args, **kwargs)
            except NonFiniteStateError:
                seen.trajectories.append(kept_run(args, kwargs))
                raise
            finally:
                seen.solving = False
            seen.trajectories.append(kept_run(args, kwargs))
            return summary

        monkeypatch.setattr(experiments, "run_experiment", solve)
        return seen

    # the solver hands its rows over in pieces of one block, 64 rows, which
    # the helper reads in chunks of 50; tables longer than 100 rows are
    # streamed
    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("n", [99, 100, 101, 149, 150, 151])
    def test_streamed_bytes_match_the_row_by_row_writer(self, tmp_path, capsys, monkeypatch,
                                                        helpers, sends, n, dim):
        monkeypatch.setattr(fde, "_PIECE", 1)
        monkeypatch.setattr(cli, "_CSV_SPLIT_ROWS", 100)
        monkeypatch.setattr(cli, "_CSV_CHUNK", 50)
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(capsys, *simulate_argv(n, dim), "--out", str(out_path))
        assert code == 0
        assert len(sends.trajectories[0].times) == n
        assert out_path.read_bytes() == trajectory_csv(sends.trajectories[0])
        assert len(helpers) == (n > 100)
        assert all(p.returncode == 0 for p in helpers)
        # one send per piece, each while the solve ran, none after it
        pieces = [64] * (n // 64) + [n % 64] * (n % 64 > 0) if n > 100 else []
        assert sends.sizes == [8 * (1 + dim) * rows for rows in pieces]
        assert sends.writes == [True] * len(pieces)

    def test_streamed_stdout_matches_the_row_by_row_writer(self, capsys, monkeypatch, helpers,
                                                           sends):
        monkeypatch.setattr(cli, "_CSV_SPLIT_ROWS", 100)
        code, out, _ = run(capsys, *simulate_argv(400))
        assert code == 0
        assert out.encode() == trajectory_csv(sends.trajectories[0])
        assert len(helpers) == 1 and helpers[0].returncode == 0
        assert sends.writes and all(sends.writes)

    def test_streamed_rows_go_through_a_1_mib_pipe(self, tmp_path, capsys, monkeypatch, helpers,
                                                   sends):
        # the helper can fall 1 MiB behind before a send waits on it
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_GETPIPE_SZ"):
            pytest.skip("the platform does not report a pipe's size")
        monkeypatch.setattr(cli, "_CSV_SPLIT_ROWS", 100)
        sizes, real = [], cli._CsvStream.feed

        def feed(stream, times, states):
            real(stream, times, states)
            if stream.helper is not None:
                sizes.append(fcntl.fcntl(stream.helper.stdin.fileno(), fcntl.F_GETPIPE_SZ))

        monkeypatch.setattr(cli._CsvStream, "feed", feed)
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(capsys, *simulate_argv(400), "--out", str(out_path))
        assert code == 0
        assert sizes and min(sizes) >= 1 << 20
        assert out_path.read_bytes() == trajectory_csv(sends.trajectories[0])
        assert len(helpers) == 1 and helpers[0].returncode == 0

    @pytest.mark.skipif(sys.platform == "win32", reason="runs a shell script as the helper")
    def test_helper_that_dies_mid_stream_is_replaced_here(self, tmp_path, capsys, monkeypatch,
                                                          helpers, sends):
        # the script exits at once: a later send hits a closed pipe, or its exit
        # status shows the failure once the solve is over
        script = tmp_path / "dying-helper"
        script.write_text("#!/bin/sh\nexit 1\n")
        script.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(script))
        monkeypatch.setattr(cli, "_CSV_SPLIT_ROWS", 30)
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(capsys, *simulate_argv(2001), "--out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == trajectory_csv(sends.trajectories[0])
        assert len(helpers) == 1 and helpers[0].returncode not in (None, 0)

    def test_broken_pipe_on_a_send_is_replaced_here(self, tmp_path, capsys, monkeypatch, helpers,
                                                    sends):
        class Breaking(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                send, sent = self.stdin.write, itertools.count()

                def write(data):
                    if next(sent) == 1:
                        raise BrokenPipeError("helper went away")
                    return send(data)

                self.stdin.write = write

        monkeypatch.setattr(subprocess, "Popen", Breaking)
        monkeypatch.setattr(fde, "_PIECE", 1)  # 500 rows in 8 pieces
        monkeypatch.setattr(cli, "_CSV_SPLIT_ROWS", 30)
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(capsys, *simulate_argv(500), "--out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == trajectory_csv(sends.trajectories[0])
        # one helper, killed at the failed second send and never replaced
        assert len(helpers) == 1 and helpers[0].returncode not in (None, 0)
        assert sends.writes == [True]

    @pytest.mark.parametrize("fault", ["short row", "interrupt", "non-finite"])
    def test_helper_is_reaped_when_the_solve_fails(self, tmp_path, capsys, monkeypatch, helpers,
                                                   sends, fault):
        # the field fails at about step 4500, after the first piece of 4096
        # rows went over
        monkeypatch.setattr(cli, "_CSV_SPLIT_ROWS", 30)
        fail_from(monkeypatch, 9000, fault)
        out_path = tmp_path / "traj.csv"
        argv = [*simulate_argv(6001), "--out", str(out_path)]
        if fault == "interrupt":
            with pytest.raises(KeyboardInterrupt):
                run_cli(argv)
        else:
            code, _, err = run(capsys, *argv)
        assert len(helpers) == 1 and helpers[0].returncode is not None
        assert sends.writes and all(sends.writes)
        if fault == "short row":
            assert code == 2 and "wrong length" in err
            assert not out_path.exists()
        elif fault == "non-finite":
            partial = sends.trajectories[0]
            assert code == 1 and f"{len(partial.times)} finite rows" in err
            assert 4096 + 384 < len(partial.times) < 4096 + 448
            assert out_path.read_bytes() == trajectory_csv(partial)
            assert helpers[0].returncode == 0

    @pytest.mark.skipif(sys.platform == "win32", reason="runs a shell script as the helper")
    def test_late_blow_up_after_a_failed_helper_is_formatted_from_the_spill(
            self, tmp_path, capsys, monkeypatch, helpers, sends):
        # the helper exits at once; the run blows up at about step 5000, in
        # its second piece, so every finite row comes back from the spill,
        # whose last read is short
        script = tmp_path / "dying-helper"
        script.write_text("#!/bin/sh\nexit 1\n")
        script.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(script))
        monkeypatch.setattr(cli, "_CSV_SPLIT_ROWS", 30)
        fail_from(monkeypatch, 10_000, "non-finite")
        out_path = tmp_path / "traj.csv"
        code, _, err = run(capsys, *simulate_argv(6001), "--out", str(out_path))
        partial = sends.trajectories[0]
        assert code == 1 and f"{len(partial.times)} finite rows" in err
        assert 4096 < len(partial.times) < 6001 and len(partial.times) % 7
        assert out_path.read_bytes() == trajectory_csv(partial)
        assert len(helpers) == 1 and helpers[0].returncode not in (None, 0)


def fail_from(monkeypatch, call, fault):
    """Make every solve's field fail from its ``call``-th evaluation on:
    by a short row, an interrupt or a non-finite row."""
    real = experiments.solve_fde

    def faulty(rhs, order, config, y0, *args, **kwargs):
        dim = len(y0)
        calls = itertools.count()

        def field(t, y, p):
            if next(calls) < call:
                return rhs(t, y, p)
            if fault == "interrupt":
                raise KeyboardInterrupt
            return [0.0] if fault == "short row" else [math.nan] * dim

        return real(field, order, config, y0, *args, **kwargs)

    monkeypatch.setattr(experiments, "solve_fde", faulty)


class TestSweepCommand:
    def test_long_format_row_count(self, tmp_path, capsys):
        # 51 orders x 500 tail samples, on a grid just long enough for the tail
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--model", "single", "--I", "0.019",
            "--beta-from", "0.9", "--beta-to", "1.0", "--beta-step", "0.002",
            "--t-end", "25", "--h", "0.05", "--tail", "500",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "beta,sample_index,x"
        assert len(lines) == 1 + 51 * 500
        first = lines[1].split(",")
        assert float(first[0]) == 1.0 and first[1] == "0"

    def test_dimer_sweep_has_neuron_column(self, tmp_path, capsys):
        out_path = tmp_path / "sweep4.csv"
        code, _, _ = run(
            capsys, "sweep", "--model", "dimer-linear", "--theta", "0.001",
            "--beta-from", "0.99", "--beta-to", "1.0", "--beta-step", "0.01",
            "--t-end", "10", "--h", "0.05", "--tail", "100",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "beta,sample_index,x,neuron"
        assert len(lines) == 1 + 2 * 2 * 100
        assert lines[1].endswith(",1") and lines[-1].endswith(",2")

    def test_reversed_range_flags_accepted(self, tmp_path, capsys):
        # from/to may come in either order; iteration is descending regardless
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--beta-from", "1.0", "--beta-to", "0.99",
            "--beta-step", "0.01", "--t-end", "10", "--h", "0.05",
            "--tail", "20", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert float(lines[1].split(",")[0]) == 1.0
        assert float(lines[-1].split(",")[0]) == 0.99

    def test_failed_orders_are_named_as_the_csv_names_them(self, tmp_path, capsys):
        # the grid is 1.0 - 0.07 * [0, 1]; every order blows up, and the
        # message names each by the text of its CSV rows, not to six digits
        out_path = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys, "sweep", "--I", "1e6", "--beta-from", "0.9", "--beta-to", "1.0",
            "--beta-step", "0.07", "--t-end", "1", "--h", "0.05", "--tail", "5",
            "--out", str(out_path),
        )
        assert code == 1
        labels = dict.fromkeys(line.split(",")[0]
                               for line in out_path.read_text().split("\n")[1:-1])
        assert list(labels) == ["1.0", "0.9299999999999999"]
        assert err == ("numerical failure at beta = 1.0, 0.9299999999999999 "
                       "(cells flagged as nan)\n")

    @pytest.mark.parametrize("model", ["single", "dimer-sigmoid"])
    def test_csv_is_the_row_by_row_table_of_the_scan(self, tmp_path, capsys, monkeypatch,
                                                      model):
        # written one order at a time; the order 0.99 blows up at once and
        # its rows are nan
        real = experiments.solve_fde

        def solve(rhs, order, *args, **kwargs):
            if order == 0.99:
                rhs = lambda t, y, p: [math.nan] * len(y)  # noqa: E731
            return real(rhs, order, *args, **kwargs)

        monkeypatch.setattr(experiments, "solve_fde", solve)
        cfg = RunConfig(command="sweep", model=model, beta_from=0.97, beta_to=1.0,
                        beta_step=0.01, t_end=10.0, h=0.05, tail=30)
        argv = [f"{flag_of(f)}={getattr(cfg, f.name)}" for f in fields(cfg)
                if f.name in ("model", "beta_from", "beta_to", "beta_step", "t_end", "h", "tail")]
        code, _, _ = run(capsys, "sweep", *argv, "--out", str(tmp_path / "sweep.csv"))
        scan = experiments.bifurcation_sweep(cfg.params(), cfg.coupling(), (0.97, 1.0), 0.01,
                                             cfg.solver_config(), tail_window=30)
        assert code == 1 and scan.failed.tolist() == [False, True, False, False]
        cells = scan.tail_samples.shape[2]
        header = ["beta", "sample_index", "x"] + ["neuron"] * (cells > 1)
        rows = ([float(beta), k, float(tails[k, n])] + [n + 1] * (cells > 1)
                for beta, tails in zip(scan.beta_values, scan.tail_samples)
                for n in range(cells) for k in range(30))
        assert (tmp_path / "sweep.csv").read_bytes() == row_by_row_csv(header, rows)

    def test_sweep_svg_scatter(self, tmp_path, capsys):
        out_path = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys, "sweep", "--beta-from", "0.99", "--beta-to", "1.0",
            "--beta-step", "0.01", "--t-end", "10", "--h", "0.05",
            "--tail", "50", "--out", str(out_path), "--svg",
        )
        assert code == 0
        assert "<circle" in (tmp_path / "scan.svg").read_text()


CHUNK = cli._CSV_CHUNK


def plotted_points(n, n_series, seed=0):
    """``n`` rows of x and ``n_series`` y columns, with NaN and infinite
    values mixed into both."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.0, 1.0, n)) - 3.0
    ys = rng.normal(size=(n, n_series))
    for values in (x, ys):
        flat = values.reshape(-1)
        for bad in (math.nan, math.inf, -math.inf):
            flat[rng.integers(0, flat.size, flat.size // 13)] = bad
    return x, ys


def split(x, ys, sizes):
    """``pieces()`` for the chunked writer: the rows in pieces of ``sizes``
    rows, cycled."""
    def pieces():
        start = 0
        for size in itertools.cycle(sizes):
            if start >= len(x):
                return
            yield x[start : start + size], ys[start : start + size]
            start += size

    return pieces


class TestSvgWriter:
    """The chunked writer gives the bytes of the one-string writer."""

    def both(self, tmp_path, capsys, x, ys, kind, sizes=(CHUNK,)):
        cli._svg_plot(str(tmp_path / "chunked.svg"), split(x, ys, sizes), kind)
        chunked = capsys.readouterr().err
        whole_svg(str(tmp_path / "whole.svg"), [(x, y) for y in ys.T], kind)
        assert capsys.readouterr().err == chunked
        files = [tmp_path / f"{name}.svg" for name in ("chunked", "whole")]
        assert files[0].exists() == files[1].exists()
        return [f.read_bytes() if f.exists() else None for f in files], chunked

    # the rows reach the writer in pieces of the chunk size, and in pieces
    # of 7 rows and of 2 chunks less 3 rows, across the chunk bounds
    @pytest.mark.parametrize("sizes", [(CHUNK,), (7, 2 * CHUNK - 3)], ids=["chunks", "ragged"])
    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    @pytest.mark.parametrize("n_series", [1, 2])
    @pytest.mark.parametrize("kind", ["line", "scatter"])
    def test_same_bytes_as_the_one_string_writer(self, tmp_path, capsys, kind, n_series, n,
                                                 sizes):
        x, ys = plotted_points(n, n_series, seed=n)
        (chunked, whole), err = self.both(tmp_path, capsys, x, ys, kind, sizes)
        assert chunked == whole
        assert (chunked is None) == (n == 0)
        assert err == ("no finite samples to plot; SVG skipped\n" if n == 0 else "")

    @pytest.mark.parametrize("kind", ["line", "scatter"])
    def test_no_finite_point_skips_the_plot(self, tmp_path, capsys, kind):
        x, ys = plotted_points(CHUNK + 5, 2)
        ys[np.isfinite(x)] = math.nan
        (chunked, whole), err = self.both(tmp_path, capsys, x, ys, kind, (100,))
        assert chunked is whole is None
        assert err == "no finite samples to plot; SVG skipped\n"

    def test_a_line_with_no_finite_point_writes_no_points(self, tmp_path, capsys):
        x, ys = plotted_points(CHUNK + 5, 2)
        ys[:, 1] = math.inf
        (chunked, whole), _ = self.both(tmp_path, capsys, x, ys, "line", (100,))
        assert chunked == whole
        assert chunked.count(b'<polyline points="" fill="none"') == 1
        assert chunked.count(b"<polyline") == 2


class TestHopfCurveCommand:
    def test_csv_schema_and_values(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys, "hopf-curve", "--I-from", "0.018", "--I-to", "0.02",
            "--I-points", "5", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "I,beta_star,coupling_value"
        assert len(lines) == 6
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert 0.9 < float(row["beta_star"]) <= 1.0
        assert float(row["coupling_value"]) == 0.0

    def test_sigmoid_curve_reports_sigma(self, capsys):
        code, out, _ = run(
            capsys, "hopf-curve", "--model", "dimer-sigmoid", "--sigma", "0.001",
            "--I-from", "0.018", "--I-to", "0.02", "--I-points", "3",
        )
        assert code == 0
        assert out.strip().split("\n")[1].endswith(",0.001")

    def test_svg_polyline_written(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys, "hopf-curve", "--I-from", "0.018", "--I-to", "0.02",
            "--I-points", "5", "--out", str(out_path), "--svg",
        )
        assert code == 0
        assert "<polyline" in (tmp_path / "curve.svg").read_text()

    def test_svg_skipped_when_every_current_is_omitted(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        code, _, err = run(
            capsys, "hopf-curve", "--I-from", "0", "--I-to", "0.005",
            "--I-points", "5", "--out", str(out_path), "--svg",
        )
        assert code == 0
        assert out_path.read_text() == "I,beta_star,coupling_value\n"
        assert err.count("omitted I=") == 5
        assert "SVG skipped" in err and "configuration error" not in err
        assert not (tmp_path / "curve.svg").exists()

    def test_undefined_threshold_is_omitted_by_its_kind(self, capsys):
        # an inhibitory pair with a saddle at I = 0.05, unstable for all
        # orders, and a branch point on its unique branch, a fold of the
        # anti-phase block, at the current critical_points gives
        pair = ["--model", "dimer-sigmoid", "--sigma", "0.1", "--vs=-1", "--q", "0.4"]
        code, _, err = run(capsys, "hopf-curve", *pair, "--I-from", "0", "--I-to", "0.3",
                           "--I-points", "7")
        assert code == 0
        # the second current of the grid is 0.3 / 6 in floats
        assert err.count("omitted I=0.049999999999999996:") == 1
        assert "omitted I=0.049999999999999996: unstable-for-all-orders\n" in err
        branch_point = "0.017796421485245014"
        code, _, err = run(capsys, "hopf-curve", *pair, "--I-from", branch_point,
                           "--I-to", branch_point, "--I-points", "1")
        assert code == 0
        assert err == f"omitted I={branch_point}: undefined\n"

    @pytest.mark.parametrize(
        "band, shown",
        [(["--I-to", "inf"], "(0.016, inf)"), (["--I-from", "nan"], "(nan, 0.03)")],
        ids=["infinite-to", "nan-from"],
    )
    def test_non_finite_band_exits_2(self, capsys, monkeypatch, band, shown):
        # rejected by its own name before the fold search, with no numpy warning
        def no_scan(p, coupling):
            raise AssertionError("the fold search ran")

        monkeypatch.setattr(stability, "fold_voltages", no_scan)
        code, out, err = run(capsys, "hopf-curve", *band, "--I-points", "3")
        assert (code, out) == (2, "")
        assert err == f"configuration error: I_range must be finite, got {shown}\n"

    def test_omitted_currents_are_named_by_their_exact_value(self, capsys):
        # three currents that agree to six digits, two on each side of the
        # saddle's onset: each is named by the shortest text that reads back
        # as it, so the labels are distinct
        pair = ["--model", "dimer-sigmoid", "--sigma", "0.1", "--vs=-1", "--q", "0.4"]
        code, _, err = run(capsys, "hopf-curve", *pair, "--I-from", "0.01779641",
                           "--I-to", "0.01779643", "--I-points", "3")
        assert code == 0
        assert err == (
            "omitted I=0.01779641: stable-for-all-orders\n"
            "omitted I=0.01779642: stable-for-all-orders\n"
            "omitted I=0.01779643: unstable-for-all-orders\n"
        )


# a command line of each plotting command, and the function that does its work
PLOTTING = {
    "simulate": (["simulate", "--t-end", "5", "--h", "0.1", "--discard", "0", "--tail", "10"],
                 "run_experiment"),
    "sweep": (["sweep", "--beta-from", "0.99", "--beta-to", "1.0", "--beta-step", "0.01",
               "--t-end", "10", "--h", "0.05", "--tail", "20"], "bifurcation_sweep"),
    "hopf-curve": (["hopf-curve", "--I-from", "0.018", "--I-to", "0.02", "--I-points", "5"],
                   "hopf_curve"),
}
PLOTTING_WORK = pytest.mark.parametrize("argv, work", PLOTTING.values(), ids=PLOTTING.keys())


def forbid(monkeypatch, work):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    # the solver's names are imported by the command that runs them
    owner = {"run_experiment": experiments, "bifurcation_sweep": experiments, "solve_fde": fde}
    monkeypatch.setattr(owner.get(work, cli), work, no_work)


class TestSvgWithoutOut:
    @PLOTTING_WORK
    def test_rejected_before_any_work(self, argv, work, monkeypatch, capsys):
        forbid(monkeypatch, work)
        code, out, err = run(capsys, *argv, "--svg")
        assert code == 2
        assert out == ""
        assert "--svg requires --out" in err


class TestSvgOutsidePlotting:
    # each command that draws no plot, and the function that does its work
    @pytest.mark.parametrize(
        "command, work",
        [("equilibria", "find_symmetric_equilibria"), ("stability", "find_symmetric_equilibria"),
         ("beta-star", "find_symmetric_equilibria"), ("validate", "solve_fde")],
    )
    def test_rejected_before_any_work(self, command, work, tmp_path, monkeypatch, capsys):
        forbid(monkeypatch, work)
        code, out, err = run(capsys, command, "--svg", "--out", str(tmp_path / "table.csv"))
        assert code == 2 and out == ""
        assert err == ("configuration error: --svg applies only to simulate, sweep, "
                       f"hopf-curve, not {command}\n")
        assert not list(tmp_path.iterdir())


class TestOutInMissingDirectory:
    # an --out in a missing directory, for each plotting command, and an --out
    # that names an existing directory
    @pytest.mark.parametrize(
        "argv, work, target, message",
        [(*case, "missing/run.csv", "--out directory does not exist") for case in PLOTTING.values()]
        + [(*PLOTTING["simulate"], ".", "--out names a directory")],
        ids=[*PLOTTING, "simulate-directory"],
    )
    def test_rejected_before_any_work(self, argv, work, target, message, tmp_path, monkeypatch,
                                      capsys):
        forbid(monkeypatch, work)
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / target))
        assert code == 2
        assert out == ""
        assert message in err


class TestValidateCommand:
    def test_validate_passes(self, capsys):
        code, out, _ = run(capsys, "validate")
        assert code == 0
        assert out.count("PASS") == 4
        assert "classical limit" in out

    def test_validate_writes_its_table_to_out(self, tmp_path, capsys):
        _, table, _ = run(capsys, "validate")
        target = tmp_path / "v.txt"
        code, out, _ = run(capsys, "validate", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == table


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dmlneuro.cli"],
        capture_output=True,
        text=True,
    )
    # bare invocation must fail cleanly with usage, not a traceback
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_the_analysis_commands_leave_numpy_unloaded(tmp_path):
    # the closed-form commands run on math alone, for every model; a fresh
    # process, since the tests themselves load numpy
    code = f"""
import sys
import dmlneuro
assert "numpy" not in sys.modules, "import dmlneuro"
from dmlneuro.cli import run_cli
assert "numpy" not in sys.modules, "import dmlneuro.cli"
for model in ([], ["--model", "dimer-linear"], ["--model", "dimer-sigmoid"]):
    for command in ("equilibria", "stability", "beta-star", "hopf-curve"):
        out = {str(tmp_path)!r} + "/" + command + ".csv"
        assert run_cli([command, *model, "--I", "0.011", "--I-points", "20", "--out", out]) == 0
        assert "numpy" not in sys.modules, (command, model)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy is a test dependency only; the package runs on numpy alone
    code = "import sys, dmlneuro.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
