"""Run the benchmark over several seeds and workloads, and record digests.

    python3 bench/suite.py run --out FILE [--workloads a,b] [--seeds 0-9]
                           [--seconds 20] [--trace 0|1] [--label NAME]
    python3 bench/suite.py record-digests [--seeds 0-31]

`run` writes one JSON line describing the environment, then one line per
run (the record `run.py --out` appends), in seed-major order so that each
workload's runs spread over the whole session. Summarise or compare the
files with compare.py.

`record-digests` runs each workload briefly on each seed and stores the
output digests in digests.json; later runs on those seeds must match them.
The audit digest is recorded from audit-inproc and checked against
audit-wire, because both must give bit-identical estimates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import EXP2_SEED, ROOT
from run import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 300


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def environment(label: str) -> dict:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    import numpy
    import scipy

    return {
        "label": label,
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else "unknown",
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "network": "audit-wire crosses loopback (127.0.0.1) only",
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_one(workload: str, seed: int, seconds: float, trace: int, out: Path,
            echo: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if echo:  # the metric table and the gate line, without the JSON result line
        print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def cmd_run(args) -> int:
    workloads = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": environment(args.label)}, sort_keys=True) + "\n")
    incorrect = 0
    for seed in seeds_arg(args.seeds):
        for workload in workloads:
            result = run_one(workload, seed, args.seconds, args.trace, args.out, echo=True)
            incorrect += not result["correct"]
    print(f"# {incorrect} incorrect run(s)")
    return 1 if incorrect else 0


def cmd_record_digests(args) -> int:
    digests: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "digests.jsonl"
        run_one("exp2-refit", EXP2_SEED, 1, 0, out)  # exp2 ignores --seed
        for seed in seeds_arg(args.seeds):
            for workload in ("audit-inproc", "exp1-gridsearch"):
                run_one(workload, seed, 1, 0, out)
        for line in out.read_text().splitlines():
            detail = json.loads(line)["detail"]
            key = "audit" if detail["workload"].startswith("audit-") else detail["workload"]
            seed = EXP2_SEED if key == "exp2-refit" else detail["seed"]
            digests.setdefault(key, {})[str(seed)] = detail["digest"]
    path = HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    # audit-wire must reproduce the in-process estimates bit for bit
    for seed in seeds_arg(args.seeds)[:3]:
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            result = run_one("audit-wire", seed, 1, 0, Path(tmp) / "wire.jsonl")
        if not result["correct"]:
            raise SystemExit(f"audit-wire seed {seed} does not match the in-process digest")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--workloads")
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=float, default=float(
        json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--label", default="")
    p = sub.add_parser("record-digests")
    p.add_argument("--seeds", default="0-31")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_record_digests(args)


if __name__ == "__main__":
    sys.exit(main())
