"""Self-test: the benchmark's checks must pass on good runs and catch bad ones.

Run from the root of a checkout (about two minutes)::

    python3 perfbench/selftest.py

For each workload at its smallest size (``--seconds 1``) it asserts:

* an untraced and a traced run, each in a fresh process, print every
  end-to-end or per-layer metric named in ``BENCHMARK.json`` with the
  unit given there, and ``ok_frac`` is 1;
* a run checked against its own digest as the stored reference stays
  at ``ok_frac`` 1, and the same run against a perturbed reference
  drops to ``ok_frac`` 0.

Exits 0 when every assertion holds, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from run import run_untraced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0
SECONDS = 1


def _fresh_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_names(result, declared, label):
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: entry["unit"] for name, entry in metrics.items()}
    assert got == expected, f"{label}: metrics {got} != declared {expected}"
    for name, entry in metrics.items():
        assert isinstance(entry["value"], (int, float)), (label, name)


def _perturbed(digest):
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in spec["workloads"]]
    assert sorted(declared) == sorted(WORKLOADS), declared
    for workload in declared:
        untraced = _fresh_run(workload, 0)
        _check_names(untraced, spec["end_to_end"], f"{workload} untraced")
        assert untraced["correct"], (workload, untraced)
        assert untraced["metrics"]["ok_frac"]["value"] == 1.0, workload

        traced = _fresh_run(workload, 1)
        _check_names(traced, spec["per_layer"], f"{workload} traced")
        assert traced["correct"], (workload, traced)

        _result, _summary, digest = run_untraced(
            workload, SEED, SECONDS, {}
        )
        for reference, ok_frac in ((digest, 1.0), (_perturbed(digest), 0.0)):
            refs = {workload: {str(SECONDS): {str(SEED): reference}}}
            result, summary, _ = run_untraced(workload, SEED, SECONDS, refs)
            assert result["metrics"]["ok_frac"]["value"] == ok_frac, summary
            assert result["correct"] == (ok_frac == 1.0), summary
        print(f"selftest {workload}: ok")
    print("selftest: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
