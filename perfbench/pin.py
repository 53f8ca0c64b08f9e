"""Print the statistics pins that ``run.py`` checks at seed 0.

    python3 perfbench/pin.py > perfbench/pins.json

One bare pass of every workload at full and at ``--quick`` size; each
simulation's statistics are digested as ``suite.stats_digest`` does it.
Regenerate only when simulated behaviour is meant to change, and review
the diff: a pin that moves is a changed simulated statistic.
"""

from __future__ import annotations

import json
import sys

from run import OUT, declared, use_checkout


def main() -> int:
    use_checkout()
    import suite
    from repro.harness import QUIET, set_status_level
    set_status_level(QUIET)
    OUT.mkdir(exist_ok=True)
    pins = {}
    for workload in (w["name"] for w in declared()["workloads"]):
        pins[workload] = {}
        for mode in ("full", "quick"):
            bench = suite.Bench(workload, suite.PINNED_SEED, mode == "quick",
                                str(OUT))
            suite.Pass(bench).run(suite.WORKLOADS[workload])
            if bench.failed:
                raise SystemExit(f"{workload} ({mode}) failed its checks: "
                                 f"{bench.failures}")
            pins[workload][mode] = bench.reference
    json.dump(pins, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
