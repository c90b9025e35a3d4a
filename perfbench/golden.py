"""Write perfbench/golden/<workload>.json: the CLI's JSON output at the default seed.

Usage: python3 perfbench/golden.py [WORKLOAD ...]

Run only after a deliberate change of CLI output; every benchmark run at
the default seed compares its output with these files byte for byte.
"""

import sys

import run
import workloads as wl


def main(names) -> int:
    wl.GOLDEN_DIR.mkdir(exist_ok=True)
    run_dir = run.WORK_DIR / "golden"
    run_dir.mkdir(parents=True, exist_ok=True)
    for name in names or wl.WORKLOADS:
        workload = wl.WORKLOADS[name]
        csv_path, expected = run.prepare(workload, wl.DEFAULT_SEED, run_dir)
        report = run.invoke(workload.argv(csv_path, wl.DEFAULT_SEED))
        if report["code"] == -1:
            print(f"{name}: not written: {report['error']}", file=sys.stderr)
            return 1
        problems = wl.check_output(workload, expected, report["code"], report["stdout"])
        if problems:
            print(f"{name}: not written: {problems}", file=sys.stderr)
            return 1
        wl.golden_path(workload).write_text(report["stdout"])
        print(f"{name}: wrote {wl.golden_path(workload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
