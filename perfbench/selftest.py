"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A one-second run of each workload, untraced and traced, passes its gate
   and prints every metric BENCHMARK.json names, with the declared unit.
2. The gate reports a failure when fed an altered raw logit, stage byte
   count, sweep agreement or golden line, and none for the unaltered ones.
3. Next to only BENCHMARK.json and perfbench/, without the program, the
   benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = run.ROOT / "BENCHMARK.json"
TIMEOUT_S = 180


def expect(ok: bool, what: str):
    if not ok:
        sys.exit(f"FAIL: {what}")
    print(f"ok: {what}")


def invoke(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_tiny_runs(spec):
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = invoke(run.ROOT, name, trace)
            expect(proc.returncode == 0, f"{name} --trace {trace} exits 0"
                   + (f": {proc.stderr[-500:]}" if proc.returncode else ""))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} --trace {trace} result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} --trace {trace} passes its gate")
            declared = {m["name"]: m["unit"] for m in spec[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == declared, f"{name} --trace {trace} prints every {section} metric")


def check_gate_catches_corruption():
    run.pin_environment()
    run.locate_program()
    import gate
    import tracing
    import workloads

    lib = workloads.import_fresh()
    null = tracing.NullTracer()
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        weights = Path(tmp) / "weights.txt"
        run.write_weights(7, weights)

        classify = workloads.Classify(lib, 7, weights, null)
        obs = [classify.summarize(classify.request(i)[1]) for i in range(2)]
        expect(classify.check(obs) == [], "classify gate passes real outputs")
        logits = obs[0].raw_logits.copy()
        logits[3] += 1
        failures = classify.check([obs[0]._replace(raw_logits=logits), obs[1]])
        expect(len(failures) == 1, "classify gate catches an altered raw logit")
        stages = dict(obs[1].stages)
        read, written, macs = stages["conv2"]
        stages["conv2"] = (read, written + 2, macs)
        failures = classify.check([obs[0], obs[1]._replace(stages=stages)])
        expect(len(failures) == 1, "classify gate catches an altered byte count")

        sweep = workloads.Sweep(lib, 7, weights, null)
        obs = [sweep.summarize(sweep.request(0)[1])]
        expect(sweep.check(obs) == [], "sweep gate passes real outputs")
        rows = list(obs[0].rows)
        rows[0] = rows[0]._replace(agreement=0.5 if rows[0].agreement != 0.5 else 1.0)
        failures = sweep.check([obs[0]._replace(rows=tuple(rows))])
        expect(len(failures) == 1, "sweep gate catches an altered agreement")

    model = workloads.Model(lib, 7, None, null)
    obs = [model.summarize(model.request(i)[1]) for i in range(2)]
    golden = gate.load_golden()
    expect(gate.check_model(obs, golden) == [], "model gate passes real outputs")
    key = obs[0][0][0]
    lines = golden[key].splitlines(keepends=True)
    lines[2] = lines[2].rstrip("\n") + " \n"
    altered = dict(golden, **{key: "".join(lines)})
    expect(len(gate.check_model(obs, altered)) == 1, "model gate catches an altered golden line")


def check_fails_without_program():
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        root = Path(tmp)
        shutil.copy(SPEC_PATH, root / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, root / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = invoke(root, "classify", 0)
        lines = proc.stdout.strip().splitlines()
        expect(proc.returncode != 0 and not (lines and lines[-1].startswith("{")),
               "without the program the benchmark exits non-zero and prints no result")


def main() -> int:
    spec = json.loads(SPEC_PATH.read_text(encoding="ascii"))
    run.OUT_DIR.mkdir(exist_ok=True)
    check_fails_without_program()
    check_gate_catches_corruption()
    check_tiny_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
