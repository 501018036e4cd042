"""Print the reference figures of perfbench/README.md.

    python3 perfbench/figures.py [--seed N]

Runs every workload once with --trace 1 through run.py (so one plain and one
traced round each, about three minutes in all) and prints, per scene, the
lens counts and degree histogram, family, cuts against the unit-constant
thm1-degree bound and stage times of the plain round, then the per-layer
metrics of the traced round.  Last, it runs the random-k2 pipeline twice in
its own interpreter, to show what the program's factoring caches hide from a
second pass.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import scenes  # noqa: E402


def warm_repeat(seed) -> list[float]:
    """Seconds of two random-k2 passes in this interpreter: cold, then warm."""
    import worker  # puts src/ on sys.path
    import circlelens as cl
    wl = scenes.workload("random-k2", seed)
    work = HERE.parent / ".perfbench" / f"random-k2-seed{seed}"
    parsed = [cl.parse_scene(worker.scene_file(work, spec).read_text())
              for spec in wl.scenes]
    times = []
    for _ in range(2):
        start = perf_counter()
        for scene in parsed:
            worker.run_pipeline(cl, wl, scene)
        times.append(perf_counter() - start)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for name in scenes.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "1"],
            cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        report = json.loads((HERE.parent / ".perfbench" / f"{name}-seed{args.seed}"
                             / "result-trace1.json").read_text())
        print(f"## {name} (seed {args.seed}): {result['attempted']} operations, "
              f"{result['failed']} failed\n")
        for scene, fig in report["figures"].items():
            print(f"- `{scene}`: n={fig['n']}, k={fig['k']}, "
                  f"{fig.get('lenses')} lenses, degrees {fig.get('degrees')}, "
                  f"{fig.get('rich_lenses')} {fig['k']}-rich")
            if "family_size" in fig:
                print(f"  - family: {fig['family_size']} lenses, "
                      f"total degree {fig['family_degree']}")
            if "cuts" in fig:
                print(f"  - cuts: {fig['cuts']}, thm1-degree bound "
                      f"{fig['thm1_degree_bound']}, ratio {fig['cut_bound_ratio']}")
            if "szekely" in fig:
                print(f"  - Szekely: {fig['szekely']}")
            print(f"  - stage seconds (plain round): {fig['stage_s']}")
        for line in sorted({f"{op['scene']} {op['stage']}: {op['detail']}"
                            for op in report["failures"]}):
            print(f"- failed in each round: {line}")
        print(f"- pipeline_s plain/traced: "
              f"{', '.join(f'{v:.2f}' for v in report['pipeline_s'])} "
              f"(raw {', '.join(f'{v:.2f}' for v in report['pipeline_raw_s'])}); "
              f"cli_s: {', '.join(f'{v:.2f}' for v in report['cli_s'])}")
        print("\n| layer metric | value |\n| --- | --- |")
        for metric, m in result["metrics"].items():
            value = m["value"]
            shown = f"{value:.3f}" if m["unit"] == "s" else f"{value}"
            print(f"| `{metric}` | {shown} {m['unit']} |")
        print()
    cold, warm = warm_repeat(args.seed)
    print(f"random-k2 (seed {args.seed}) twice in one interpreter: "
          f"cold {cold:.2f} s, warm {warm:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
