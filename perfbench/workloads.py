"""Workload definitions: seeded lists of pipeline runs.

Every workload is a list of ``Job``s built from the benchmark seed alone:
the seed picks the generator seed of every instance, so the same seed
always gives the same inputs. ``size="tiny"`` shrinks each workload to a
few small runs for the benchmark's own smoke tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from bulkflow.generate import generate, with_penalties

WORKLOADS = ("default-grid", "oracle-suite", "setup-n64")

# the experiment-style configurations of ``bulkflow experiment`` suites
COARSE = {"h": 1, "dmax": 0.4, "oracle": True}
DIRECTED = {"mode": "directed", "h": 2, "dmax": 0.4, "oracle": True}


@dataclass(frozen=True)
class Job:
    """One pipeline run: an instance, its run configuration, and whether
    its arrivals are processed (``False`` constructs the pipeline only)."""

    name: str
    data: dict
    config: Dict[str, object] = field(default_factory=dict)
    process: bool = True


class _JobList:
    """Collects jobs, drawing a fresh generator seed for each instance."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"perfbench:{workload}:{seed}")
        self.jobs: List[Job] = []

    def add(self, kind: str, params: Dict[str, int], config: Dict[str, object],
            process: bool = True,
            transform: Optional[Callable[[dict, int], dict]] = None) -> None:
        gen_seed = self.rng.randrange(10 ** 6)
        data = generate(kind, params, gen_seed)
        if transform is not None:
            data = transform(data, gen_seed)
        shape = "-".join(f"{key}{value}" for key, value in params.items())
        name = f"{len(self.jobs):03d}-{kind}-{shape}-g{gen_seed}"
        config = dict(config)
        config.setdefault("mode", data["mode"])
        config.setdefault("seed", gen_seed % 1000)
        self.jobs.append(Job(name, data, config, process))


def _prize(data: dict, gen_seed: int) -> dict:
    return with_penalties(data, gen_seed, q_range=(0.3, 4.0))


def default_grid(seed: int, size: str = "full") -> List[Job]:
    """The ``bulkflow run`` configuration (h = ceil(log2 n), dmax = 0.05,
    default kappa) on small grids and stars with 6 to 8 pairs each.

    Many small instances rather than a few 3x3 grids: the time of one 3x3
    grid (or even a 2x3 grid) varies threefold to fourfold between
    generator seeds, so a run holding a handful of them cannot be steady
    from one benchmark seed to the next.
    """
    b = _JobList("default-grid", seed)
    if size == "tiny":
        b.add("grid", {"rows": 2, "cols": 2, "k": 2}, {})
        b.add("star-of-paths", {"arms": 3, "arm_len": 1, "k": 2}, {})
        return b.jobs
    for i in range(14):
        if i < 6:
            b.add("star-of-paths", {"arms": 3, "arm_len": 2, "k": 6}, {})
            b.add("star-of-paths", {"arms": 4, "arm_len": 1, "k": 6}, {})
        b.add("grid", {"rows": 2, "cols": 2, "k": 8}, {})
    return b.jobs


def oracle_suite(seed: int, size: str = "full") -> List[Job]:
    """``bulkflow experiment``-style suite: many short runs, all with the
    exact offline oracle, in edge, directed and prize modes."""
    b = _JobList("oracle-suite", seed)
    if size == "tiny":
        b.add("grid", {"rows": 2, "cols": 2, "k": 2}, COARSE)
        b.add("random-digraph", {"n": 4, "m": 9, "k": 2}, DIRECTED)
        b.add("grid", {"rows": 2, "cols": 2, "k": 2}, COARSE, transform=_prize)
        return b.jobs
    for i in range(36):
        k = 2 + i % 3
        b.add("grid", {"rows": 2, "cols": 2, "k": k}, COARSE)
        b.add("grid", {"rows": 2, "cols": 3, "k": k}, COARSE)
        b.add("star-of-paths", {"arms": 3, "arm_len": 2, "k": k}, COARSE)
        n = 4 + i % 3
        b.add("random-digraph", {"n": n, "m": min(16, n + 4 + i % 12), "k": k},
              COARSE)
    for i in range(24):
        b.add("grid", {"rows": 2, "cols": 4, "k": 2 + i % 3}, COARSE)
    for _ in range(36):
        b.add("random-digraph", {"n": 4, "m": 9, "k": 2}, DIRECTED)
        b.add("grid", {"rows": 2, "cols": 3, "k": 3}, COARSE, transform=_prize)
    return b.jobs


def setup_n64(seed: int, size: str = "full") -> List[Job]:
    """Pipeline construction alone at n = 64 under the default
    configuration: all of its time is the layered expansion."""
    b = _JobList("setup-n64", seed)
    if size == "tiny":
        b.add("grid", {"rows": 3, "cols": 3, "k": 4}, {}, process=False)
        b.add("random-digraph", {"n": 9, "m": 20, "k": 4}, {}, process=False)
        return b.jobs
    b.add("grid", {"rows": 8, "cols": 8, "k": 8}, {}, process=False)
    b.add("random-digraph", {"n": 64, "m": 256, "k": 8}, {}, process=False)
    return b.jobs


WORKLOAD_JOBS = {"default-grid": default_grid, "oracle-suite": oracle_suite,
            "setup-n64": setup_n64}


def build(workload: str, seed: int, size: str = "full") -> List[Job]:
    return WORKLOAD_JOBS[workload](seed, size)
