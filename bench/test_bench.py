"""Quick tests of the benchmark itself: its oracles and tiny workloads.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_oracle_reproduces_the_reference_point():
    (x_star,) = oracles.equilibria(0.019)
    assert x_star == pytest.approx(0.40772, abs=5e-6)
    assert oracles.beta_star(x_star) == pytest.approx(0.98233, abs=5e-6)
    assert oracles.beta_star(x_star, "dimer-linear", theta=0.008) == oracles.beta_star(x_star)
    (x_sig,) = oracles.equilibria(0.019, 0.001)
    assert oracles.beta_star(x_sig, "dimer-sigmoid", sigma=0.001) == pytest.approx(0.98628, abs=5e-6)


@pytest.mark.parametrize("sigma", (0.0, *workloads.SIGMAS))
def test_oracle_folds_are_tangencies(sigma):
    lo, hi = oracles.fold_currents(sigma)
    for I, inside in ((lo, lo + 1e-9), (hi, hi - 1e-9)):
        assert len(oracles.equilibria(I, sigma)) == 2
        assert len(oracles.equilibria(inside, sigma)) == 3
        assert min(abs(float(oracles.local_current(c, sigma)) + I)
                   for c in oracles.critical_points(sigma)) <= 1e-15
    assert len(oracles.equilibria(hi + 1e-3, sigma)) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks(workload, tmp_path):
    plan = workloads.resolve(workload, 7, oracles.all_folds(workloads.SIGMAS), tiny=True, out=tmp_path)
    rounds = run.Rounds(plan).run(0.0)
    failures = workloads.check(plan, rounds.codes)
    assert rounds.count == 1 and not rounds.unsteady()
    assert [f for f in failures if not f[2]] == []
    assert len(failures) == (12 if workload == "analysis" else 0)


def test_known_fault_excused_only_in_its_form(tmp_path):
    plan = workloads.resolve("analysis", 7, oracles.all_folds(workloads.SIGMAS), tiny=True, out=tmp_path)
    rounds = run.Rounds(plan).run(0.0)
    fold = next(c for c in plan.calls if c.label in plan.known_faults)
    assert [known for label, _, known in workloads.check(plan, rounds.codes) if label == fold.label] == [True]
    # the same label fails in another form: no root at all, or a nonzero exit
    rows = fold.out.read_text().splitlines()
    fold.out.write_text(rows[0] + "\n")
    assert [known for label, _, known in workloads.check(plan, rounds.codes) if label == fold.label] == [False]
    fold.out.unlink()
    assert [known for label, _, known in workloads.check(plan, rounds.codes) if label == fold.label] == [False]


def test_inputs_follow_the_seed():
    folds = oracles.all_folds(workloads.SIGMAS)
    a, b, c = (workloads.resolve("analysis", s, folds) for s in (1, 1, 2))
    assert [x.argv for x in a.calls] == [x.argv for x in b.calls] != [x.argv for x in c.calls]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
