"""Smoke test of the benchmark: every workload on one small table.

    python3 perfbench/smoke.py

Checks that each run passes its output checks, that it emits exactly the
metric names BENCHMARK.json declares (end-to-end untraced, per-layer
traced), and that in the traced run the self times of all spans under one
``analyze`` call add up to that call's wall time.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run

SMALL_N = 100


def check_self_times(spans: list[dict]) -> None:
    selfs = run.self_times(spans)
    for root in (s for s in spans if s["name"] == "discover.analyze"):
        wall = root["end"] - root["start"]
        total = sum(own for s, own in zip(spans, selfs) if s["table"] == root["table"])
        assert abs(total - wall) <= 1e-9 + 1e-6 * wall, (root["table"], total, wall)


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        True: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(run.WORKLOADS)
    for workload in run.WORKLOADS.values():
        small = dataclasses.replace(workload, n=SMALL_N, min_tables=1)
        for trace in (False, True):
            result = run.run_workload(small, seed=7, seconds=0, trace=trace)
            assert not result["problems"], result["problems"]
            assert result["failed"] == 0 and result["attempted"] >= 1
            emitted = {name: result["units"][name] for name in result["metrics"]}
            assert emitted == expected[trace], (workload.name, trace, emitted)
            if trace:
                check_self_times(result["spans"])
            print(f"ok {workload.name} trace={int(trace)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
