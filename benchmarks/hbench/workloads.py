"""Workload definitions and their document sets.

A workload is a fixed list of CLI calls over documents made by
``hermix.generate_instance``. Everything is derived from the workload seed, so
one seed always gives the same documents in the same order. Calls are grouped
in rounds; each round holds one document of every size, so any prefix of a
pass has nearly the same size mix as the whole pass.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple[int, ...]
    orders: tuple[int, ...]
    rounds: int
    cyclic_commands: tuple[str, ...]
    tree_commands: tuple[str, ...]


@dataclass(frozen=True)
class DocSpec:
    """One document of a workload, before it is generated."""

    index: int
    n: int
    cyclic: bool
    order: int
    instance_seed: int


@dataclass(frozen=True)
class Call:
    doc: int  # DocSpec.index
    command: str


# Sizes have an odd count so that the median call lies inside one size class
# instead of on the gap between two.
WORKLOADS = {
    w.name: w
    for w in (
        # det: backtracking in spectral.enumerate_spanning_elementary. The
        # ladder stops at 80: above it the time per document is so heavy-tailed
        # that no pass short enough for one run is steady across seeds.
        Workload("det-ladder", (16, 32, 48, 64, 80), (3,), 480, ("det",), ("det",)),
        # inverse: n^2 co-augmenting DFS calls and n^2 polynomial renders;
        # classify adds class certification, pegs and the sign colouring. A
        # pass takes about 30 s, under one run even when the machine is a
        # third slower, so a run's length is set by its call time alone and a
        # traced pass (every call twice) stays short.
        Workload(
            "inverse-classify",
            (40, 70, 100, 130, 160),
            (3,),
            16,
            ("inverse", "classify"),
            ("inverse",),
        ),
        # check: many small determinants, Leibniz (n <= 10), exhaustive
        # similarity (n <= 16), the exact product and numpy cross-checks, at
        # field degrees 1 (order 2), 2 (orders 3, 4, 6) and 4 (order 5). Its
        # p90 and docs_per_s rest on the few heavy unicyclic graphs at n = 16
        # and 20, so every document draws its own graph. A pass takes about
        # 40 s.
        Workload(
            "check-small", (8, 10, 12, 16, 20), (2, 3, 4, 5, 6), 16, ("check",), ("check",)
        ),
    )
}


def plan(workload: Workload, seed: int) -> tuple[list[DocSpec], list[Call]]:
    """The documents and the call order of one pass, from the workload seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    docs: list[DocSpec] = []
    calls: list[Call] = []
    for r in range(workload.rounds):
        round_calls = []
        for i, n in enumerate(workload.sizes):
            cyclic = (r + i) % 2 == 1
            commands = workload.cyclic_commands if cyclic else workload.tree_commands
            for order in workload.orders:
                spec = DocSpec(len(docs), n, cyclic, order, rng.getrandbits(32))
                docs.append(spec)
                round_calls.extend(Call(spec.index, c) for c in commands)
        rng.shuffle(round_calls)
        calls.extend(round_calls)
    return docs, calls


def generate(hermix, seed: int, n: int, cyclic: bool):
    """Generate one graph; a seed that cannot be generated moves to the next."""
    while True:
        try:
            return hermix.generate_instance(seed, n, cyclic), seed
        except hermix.GenerationFailed:
            seed += 1


def materialize(hermix, specs: list[DocSpec], workdir: Path):
    """Generate and write every document; returns (paths, seeds used).

    Nothing else stays in memory: the peak resident size of a run is the CLI
    calls'.
    """
    paths, seeds = [], []
    for spec in specs:
        graph, used = generate(hermix, spec.instance_seed, spec.n, spec.cyclic)
        doc = dataclasses.replace(graph, alpha_order=spec.order)
        path = workdir / f"{spec.index:05d}.json"
        path.write_text(hermix.render_document(doc), encoding="utf-8")
        paths.append(str(path))
        seeds.append(used)
    return paths, seeds
