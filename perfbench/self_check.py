"""Quick self-check of the benchmark.

    python3 perfbench/self_check.py

Runs every workload of run.py (the ones BENCHMARK.json lists and
`verify`) at minimal size, one unit on reduced inputs, once untraced and
once traced.  Exits 1 if any end-to-end or per-layer metric named in
BENCHMARK.json is missing, has a unit other than the one declared there,
or if any check failed.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import_s = run.import_package()
    sys.path.insert(0, run.HERE)
    problems = []
    from workloads import WORKLOADS
    missing = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if missing:
        problems.append(f"BENCHMARK.json names unknown workloads {missing}")
    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            result, details = run.run_workload(workload, 0, 0, trace,
                                               import_s, small=True)
            where = f"{workload} trace {trace}"
            if not result["correct"]:
                problems.append(f"{where}: failed checks {details['failures']}")
            got = result["metrics"]
            for m in declared:
                entry = got.get(m["name"])
                if entry is None:
                    problems.append(f"{where}: metric {m['name']} missing")
                elif not entry.get("unit") or entry["unit"] != m["unit"]:
                    problems.append(f"{where}: metric {m['name']} has unit "
                                    f"{entry.get('unit')!r}, declared "
                                    f"{m['unit']!r}")
                elif not isinstance(entry.get("value"), (int, float)):
                    problems.append(f"{where}: metric {m['name']} has no "
                                    "numeric value")
            extra = set(got) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{where}: undeclared metrics {sorted(extra)}")
            print(f"{where}: {len(got)} metrics, "
                  f"{result['attempted']} operations checked")
    for p in problems:
        print(f"PROBLEM {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
