"""Record the reference digests the benchmark checks untraced runs against.

Run from the root of a checkout, on a commit whose outputs are trusted::

    python3 perfbench/make_references.py --seconds 20 --seeds 0-15

Each (workload, seed) runs ``run.py`` in a fresh process, whose output
is echoed; its digest of the simulated outputs is stored under
``references.json`` -> workload -> seconds -> seed.  A change meant only
to speed the program up must reproduce every stored digest exactly.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import REFERENCES, load_references  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seeds", type=_seeds, required=True,
                        help="inclusive range such as 0-15")
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    references = load_references()
    for workload in args.workload or sorted(WORKLOADS):
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True,
                check=True,
            )
            summary, last = proc.stdout.strip().splitlines()[-2:]
            if not json.loads(last)["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {summary}")
            digest = re.search(r"digest=([0-9a-f]+)", summary).group(1)
            references.setdefault(workload, {}).setdefault(
                str(args.seconds), {}
            )[str(seed)] = digest
            REFERENCES.write_text(
                json.dumps(references, indent=1, sort_keys=True) + "\n"
            )
            print(summary, last, sep="\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
