"""The benchmark's workloads: which goals each one runs, and in what order.

Goals are read from the committed spec files under ``specs/`` (the same
files the service and CI use), so a workload names goals by ``key`` and
``mode`` only.  The seed decides goal order (in-process and batch
workloads) and the request draw (``serve-mix``); the set of goals never
depends on it, so every seed measures the same work.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_FILES = {
    "table1": "specs/table1.json",
    "table2": "specs/table2.json",
    "pbe": "specs/pbe_suite.json",
    "asymptotic": "specs/asymptotic_suite.json",
}

WORKLOADS = ("resyn-cegis", "synquid-enum", "serve-mix", "batch-portfolio")

#: In-process goal lists, as (key, mode).
INPROC_GOALS = {
    "resyn-cegis": [
        ("replicate", "resyn"),
        ("take", "resyn"),
        ("t1_member", "resyn"),
        ("drop", "resyn"),
        ("triple2", "resyn"),
        ("triple", "resyn"),
    ],
    "synquid-enum": [
        ("t1_insert_sorted", "synquid"),
        ("t1_member", "synquid"),
        ("triple2", "synquid"),
        ("t1_append", "synquid"),
        ("t1_duplicate", "synquid"),
        ("compare", "synquid"),
    ],
}

#: Goals that take well over a second run once per pass; every other
#: in-process goal runs REPEATS times and reports the median, since a
#: sub-second time taken once moves with the machine's noise.
LONG_GOALS = {"replicate/resyn", "take/resyn", "t1_insert_sorted/synquid"}
REPEATS = 9

#: Rows left out of every workload: each alone takes longer than a whole
#: benchmark run may, and a regression check repeats runs many times.
EXCLUDED = {
    "t1_insert_sorted/resyn": "82 s for one synthesis",
    "common/resyn": "over 40 s for one synthesis",
    "diff/resyn": "over 40 s for one synthesis",
    "insert/resyn": "over 40 s for one synthesis",
    "insert_fine/resyn": "over 40 s for one synthesis",
    "range/resyn": "over 40 s for one synthesis",
    # Not marked slow in its spec, but ~8 s per job where the rest of the
    # serve-mix pool takes milliseconds to a second: one draw more or less
    # would swing a run's throughput by a third.
    "pbe_sum3/resyn": "about 8 s for one synthesis (91 e-term checks)",
}

#: Small goal lists used by ``--smoke`` (the benchmark's own tests).
SMOKE_GOALS = {
    "resyn-cegis": [("triple2", "resyn"), ("triple", "resyn")],
    "synquid-enum": [("triple2", "synquid"), ("t1_length", "synquid")],
}
SMOKE_POOL = ("t1_is_empty", "t1_length", "pbe_negate", "asym_snoc")


@dataclass(frozen=True)
class Item:
    """One (goal, mode) of a workload, with its spec entry."""

    key: str
    mode: str
    suite: str
    entry: dict

    @property
    def tag(self) -> str:
        return f"{self.key}/{self.mode}"

    def spec(self) -> dict:
        """A one-goal spec (the body the server and ``jobs_from_spec`` take)."""
        return {"format": "resyn-goals/1", "suite": self.suite, "goals": [self.entry]}


def load_specs() -> Dict[str, dict]:
    specs = {}
    for suite, path in SPEC_FILES.items():
        with open(os.path.join(ROOT, path)) as handle:
            specs[suite] = json.load(handle)
    return specs


def _find(specs: Dict[str, dict], key: str) -> tuple:
    for suite, spec in specs.items():
        for entry in spec["goals"]:
            if entry["key"] == key:
                return suite, entry
    raise KeyError(key)


def items_for(pairs: Sequence[tuple], specs: Dict[str, dict]) -> List[Item]:
    items = []
    for key, mode in pairs:
        suite, entry = _find(specs, key)
        items.append(Item(key, mode, suite, entry))
    return items


def pool(workload: str, specs: Dict[str, dict], smoke: bool = False) -> List[Item]:
    """Every (goal, mode) a workload runs, in spec order."""
    if workload in INPROC_GOALS:
        pairs = (SMOKE_GOALS if smoke else INPROC_GOALS)[workload]
        return items_for(pairs, specs)
    items = []
    suites = ("table1", "table2", "asymptotic")
    if workload == "serve-mix":
        # No asymptotic goals: a server race cancels its losing rungs by
        # killing their workers, and the respawned workers start cold, so a
        # run's throughput would depend on which jobs land on a fresh worker
        # (6.7-9.7 jobs/s across 20 s runs on 2 CPUs, against 50-65 without
        # them).  batch-portfolio measures the race instead.
        suites = ("table1", "table2", "pbe")
    seen = set()
    for suite in suites:
        for entry in specs[suite]["goals"]:
            if entry.get("slow") or entry["key"] in seen or f"{entry['key']}/resyn" in EXCLUDED:
                continue
            if smoke and entry["key"] not in SMOKE_POOL:
                continue
            seen.add(entry["key"])
            modes = ["resyn", "synquid"] if suite.startswith("table") else entry["modes"]
            items.extend(Item(entry["key"], mode, suite, entry) for mode in modes)
    return items


def ordered(items: Sequence[Item], seed: int, salt: str = "") -> List[Item]:
    """``items`` in a seeded order."""
    shuffled = list(items)
    random.Random(f"{seed}:{salt}").shuffle(shuffled)
    return shuffled


def draws(items: Sequence[Item], seed: int):
    """Endless seeded request draw: each round is a fresh permutation of the
    whole pool, so every goal is drawn equally often and the mix does not
    depend on the seed."""
    rng = random.Random(f"{seed}:draws")
    while True:
        round_items = list(items)
        rng.shuffle(round_items)
        yield from round_items


def another_pass(elapsed: float, last: float, seconds: float) -> bool:
    """Whether to start another pass, given the seconds ``elapsed`` so far and
    the ``last`` pass's length: runs end nearest to ``seconds``."""
    return elapsed + last / 2 <= seconds


def goal_for(item: Item):
    """(goal, input_maker, expected_winner) for the independent check."""
    from repro.service.codec import goal_from_json

    input_maker = None
    if item.suite in ("table1", "table2"):
        from repro.benchsuite.definitions import benchmark_by_key

        bench = benchmark_by_key(item.key)
        return bench.goal, bench.input_maker, None
    return goal_from_json(item.entry["goal"]), input_maker, item.entry.get("expected_winner")


def expected_outcomes() -> Dict[str, Dict[str, str]]:
    path = os.path.join(ROOT, "perfbench", "expected.json")
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)


def expected_for(workload: str) -> Optional[Dict[str, str]]:
    return expected_outcomes().get(workload)
