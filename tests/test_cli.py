import json
import subprocess
import sys

import numpy as np
import pytest

from dmlneuro import cli
from dmlneuro.cli import RunConfig, run_cli


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

    def test_multiple_equilibria_yield_a_list(self, capsys):
        code, out, _ = run(capsys, "beta-star", "--I", "0.011")
        assert code == 0
        records = json.loads(out)
        assert isinstance(records, list) and len(records) == 3


class TestConfigHandling:
    def test_order_domain_violation_exits_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--beta", "1.5", "--t-end", "10")
        assert code == 2
        assert "order must lie in (0, 1]" in err

    def test_unknown_flag_exits_2(self, capsys):
        assert run_cli(["simulate", "--nope", "1"]) == 2

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

    def test_type_error_in_a_handler_propagates(self, monkeypatch):
        # a TypeError inside a command is a bug, not a configuration error
        def broken(cfg):
            raise TypeError("bug")

        monkeypatch.setitem(cli._HANDLERS, "equilibria", broken)
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

    def test_written_file(self, tmp_path, capsys):
        out_path = tmp_path / "eq.csv"
        code, _, _ = run(capsys, "equilibria", "--I", "0.019", "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("I,branch,x_star,y_star\n")
        assert "unique" in text


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
        assert any("saddle" in row for row in rows)
        assert any("undefined" in row for row in rows)


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

    def test_svg_requires_out(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--beta", "0.9", "--t-end", "5", "--h", "0.1",
            "--discard", "0", "--tail", "10", "--svg",
        )
        assert code == 2

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

    def test_svg_of_a_pair_draws_both_voltages(self, tmp_path, capsys):
        out_path = tmp_path / "pair.csv"
        code, _, _ = run(
            capsys, "simulate", "--model", "dimer-sigmoid", "--beta", "0.9", "--t-end", "10",
            "--h", "0.1", "--discard", "0", "--tail", "20", "--out", str(out_path), "--svg",
        )
        assert code == 0
        assert (tmp_path / "pair.svg").read_text().count("<polyline") == 2


def row_by_row_csv(header, rows):
    """The CSV as the row-by-row writer produced it: ``_fmt`` on every value."""
    lines = [",".join(header)]
    lines.extend(",".join(cli._fmt(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode()


class TestCsvWriter:
    # a chunk of 7 rows splits every table below into several chunks and a
    # shorter last one
    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_CHUNK", 7)

    def test_trajectory_bytes_match_the_row_by_row_writer(self, tmp_path, capsys, monkeypatch):
        runs = []
        real = cli.run_experiment

        def spy(*args, **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "run_experiment", spy)
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(
            capsys, "simulate", "--model", "dimer-sigmoid", "--beta", "0.95",
            "--t-end", "5", "--h", "0.05", "--discard", "0", "--tail", "10",
            "--out", str(out_path),
        )
        assert code == 0
        traj = runs[0].trajectory
        rows = ([t, *state] for t, state in zip(traj.times, traj.states))
        expected = row_by_row_csv(["t", "x1", "y1", "x2", "y2"], rows)
        assert out_path.read_bytes() == expected

    def test_special_floats_match_the_row_by_row_writer(self, tmp_path):
        table = np.array([
            [0.0, -0.0, 1e-300, -5e-324],
            [np.nan, np.inf, -np.inf, 1.7976931348623157e308],
            [0.1, 1 / 3, -2.5e-17, 123456789.0],
        ] * 5)
        out_path = tmp_path / "special.csv"
        cli._emit(RunConfig(command="simulate", out=str(out_path)), list("abcd"), table)
        assert out_path.read_bytes() == row_by_row_csv(list("abcd"), table)

    @pytest.mark.parametrize("argv", [
        ("equilibria", "--model", "dimer-sigmoid", "--sigma", "0.003", "--I", "0.0098"),
        ("stability", "--I", "0.011", "--beta", "0.9"),
        ("stability", "--model", "dimer-sigmoid", "--sigma", "0.003", "--I", "0.0098"),
    ])
    def test_mixed_rows_match_the_row_by_row_writer(self, tmp_path, capsys, monkeypatch, argv):
        tables = []
        real = cli._emit

        def spy(cfg, header, rows):
            tables.append((header, rows))
            real(cfg, header, rows)

        monkeypatch.setattr(cli, "_emit", spy)
        out_path = tmp_path / "table.csv"
        code, _, _ = run(capsys, *argv, "--out", str(out_path))
        assert code == 0
        header, rows = tables[0]
        assert len(rows) == 3
        assert out_path.read_bytes() == row_by_row_csv(header, rows)


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

    def test_sweep_svg_scatter(self, tmp_path, capsys):
        out_path = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys, "sweep", "--beta-from", "0.99", "--beta-to", "1.0",
            "--beta-step", "0.01", "--t-end", "10", "--h", "0.05",
            "--tail", "50", "--out", str(out_path), "--svg",
        )
        assert code == 0
        assert "<circle" in (tmp_path / "scan.svg").read_text()


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


class TestValidateCommand:
    def test_validate_passes(self, capsys):
        code, out, _ = run(capsys, "validate")
        assert code == 0
        assert out.count("PASS") == 4
        assert "classical limit" in out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dmlneuro.cli"],
        capture_output=True,
        text=True,
    )
    # bare invocation must fail cleanly with usage, not a traceback
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()
