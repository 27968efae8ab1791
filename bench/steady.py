"""Steadiness check: two sets of benchmark runs of one commit, made at
different times, compared metric by metric against the benchmark's bounds.

    python3 bench/steady.py

Set A runs every workload of BENCHMARK.json ``RUNS`` times at its
``run_seconds``; set B does the same ``GAP_S`` seconds later, so that the two
sets see the machine at different times.  Every run is a fresh
``bench/run.py`` process with its own seed: set A uses seeds 1..RUNS and
set B the next RUNS seeds.  Before each run a fixed
reference kernel is timed in this process and printed with the run, so that
a set made while the machine was slow shows up as such.  For every
end-to-end metric of every workload the command prints each set's quartiles,
its spread (q3 - q1) / median, the shift of set B's median against set A's,
and the bound from BENCHMARK.json.  The sets are steady when every spread
and the size of every shift, either way, are within the bound, and the
failed share is the same in every run.  A full log goes to bench/out/.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import solver_kernel  # noqa: E402

RUNS = 10  # runs per workload per set
GAP_S = 3600.0  # seconds between the end of set A and the start of set B


def reference_seconds() -> float:
    """Median time of the benchmark's solver-like kernel over 200 calls."""
    times = []
    for _ in range(200):
        t0 = time.perf_counter()
        solver_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_set(spec, seeds, label):
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in seeds:
            ref = reference_seconds()
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            run = {"set": label, "workload": workload, "seed": seed, "ref_s": ref,
                   "process_s": elapsed, "exit": proc.returncode, "result": result}
            runs.append(run)
            shown = "  ".join(f"{k}={v['value']:.4g}" for k, v in (result or {}).get("metrics", {}).items())
            status = (f"correct={result['correct']} failed={result['failed']}/{result['attempted']}"
                      if result else f"exit={proc.returncode} {proc.stderr.strip()[-300:]}")
            print(f"[{label}] {workload:9s} seed={seed:<3d} ref={ref * 1e3:.4f}ms run={elapsed:6.1f}s "
                  f"{status}  {shown}", flush=True)
    return runs


def summarise(spec, runs, sets):
    ok = True
    refs = {s: [r["ref_s"] for r in runs if r["set"] == s] for s in sets}
    for s in sets:
        q1, med, q3 = quartiles(refs[s])
        print(f"reference kernel, set {s}: median {med * 1e3:.4f}ms  quartiles {q1 * 1e3:.4f}-{q3 * 1e3:.4f}ms")
    for w in spec["workloads"]:
        name = w["name"]
        mine = [r for r in runs if r["workload"] == name]
        if not mine:
            continue
        print(f"\n{name}")
        good = [r for r in mine if r["result"] and r["result"]["correct"]]
        if len(good) != len(mine):
            print(f"  {len(mine) - len(good)} run(s) failed or were incorrect")
            ok = False
        shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in good}
        share_set = {f / a for f, a in shares}
        print(f"  failed/attempted: {sorted(shares)}  {'same share' if len(share_set) == 1 else 'SHARES DIFFER'}")
        ok &= len(share_set) <= 1
        for m in spec["end_to_end"]:
            meds = []
            cells = []
            for s in sets:
                vals = [r["result"]["metrics"][m["name"]]["value"] for r in good if r["set"] == s]
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med
                meds.append(med)
                within = spread <= m["bound"] / 3
                ok &= spread <= m["bound"]
                cells.append(f"{s}: {q1:.4g} / {med:.4g} / {q3:.4g} spread {spread:6.2%}"
                             f"{'' if within else ' (above a third of the bound)'}")
            shift = ""
            if len(meds) == 2:
                worse = (meds[1] - meds[0]) / meds[0] * (1 if m["better"] == "lower" else -1)
                shift = f"  B vs A {worse:+.2%}"
                ok &= abs(worse) <= m["bound"]
            print(f"  {m['name']:12s} bound {m['bound']:.0%}  " + "  |  ".join(cells) + shift)
    return ok


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = run_set(spec, range(1, RUNS + 1), "A")
    print(f"waiting {GAP_S:g}s before set B", flush=True)
    time.sleep(GAP_S)
    runs += run_set(spec, range(RUNS + 1, 2 * RUNS + 1), "B")
    ok = summarise(spec, runs, "AB")
    out = BENCH / "out" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"\n{'steady' if ok else 'NOT steady'}; log in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
