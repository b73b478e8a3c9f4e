"""Seeded instance generators for the benchmark workloads.

Both generators write the JSON instance format of docs/instance_format.md
directly, without importing kfractal, so the program under test receives
only the files.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import random

# Ratios and translations are multiples of 1/UNIT, so every number in a
# generated product system is exact in binary floating point.
UNIT = 64

# Each color's ratios sum to this many units.  Together with the fixed total
# of five maps (2 of one color, 3 of the other) this keeps the work of an
# attractor run about the same on every seed, while the maps still differ.
COLOR_SUM = 48
RATIO_RANGE = {2: (22, 26), 3: (14, 18)}


def _ratios(rng: random.Random, count: int) -> list[int]:
    lo, hi = RATIO_RANGE[count]
    while True:
        head = [rng.randint(lo, hi) for _ in range(count - 1)]
        last = COLOR_SUM - sum(head)
        if lo <= last <= hi:
            return head + [last]


def _offsets(rng: random.Random, ratios: list[int]) -> list[int]:
    """Left ends of disjoint intervals of the given lengths inside [0, UNIT],
    with at least one unit between neighbours."""
    inner = len(ratios) - 1
    slack = UNIT - sum(ratios) - inner
    cuts = sorted(rng.randint(0, slack) for _ in range(len(ratios)))
    gaps = [cuts[0]] + [b - a + 1 for a, b in zip(cuts, cuts[1:])]
    out, at = [], 0
    for gap, r in zip(gaps, ratios):
        at += gap
        out.append(at)
        at += r
    return out


def _square_loops(blue: list[str], red: list[str]) -> dict:
    return {
        "k": 2,
        "vertices": ["v"],
        "edges": [
            [{"id": e, "r": "v", "s": "v"} for e in blue],
            [{"id": e, "r": "v", "s": "v"} for e in red],
        ],
        "squares": {"1,2": [[[b, r], [r, b]] for b in blue for r in red]},
    }


def product_system(seed: int) -> dict:
    """A relaxed rank-2 product system on the unit square.

    Blue maps scale x and red maps scale y, so every flip square commutes
    exactly.  One color has two maps and the other three; the images of
    each color are disjoint intervals of its axis.
    """
    rng = random.Random(f"product-{seed}")
    counts = [2, 3] if rng.random() < 0.5 else [3, 2]
    names = [[f"b{i}" for i in range(counts[0])], [f"r{i}" for i in range(counts[1])]]
    maps = {}
    worst = 0
    for axis, ids in enumerate(names):
        ratios = _ratios(rng, len(ids))
        worst = max(worst, *ratios)
        for ident, r, at in zip(ids, ratios, _offsets(rng, ratios)):
            scale = [1.0, 1.0]
            shift = [0.0, 0.0]
            scale[axis] = r / UNIT
            shift[axis] = at / UNIT
            maps[ident] = {
                "matrix": [[scale[0], 0.0], [0.0, scale[1]]],
                "translation": shift,
            }
    doc = _square_loops(*names)
    doc.update(
        kind="mw",
        name=f"product-{seed}",
        mode="relaxed",
        c=worst / UNIT,
        fibers={"v": {"region": {"type": "box", "min": [0.0, 0.0], "max": [1.0, 1.0]},
                      "metric": "max"}},
        maps=maps,
    )
    return doc


def consistent_quadruples(size: int = 2) -> list[tuple[dict, ...]]:
    """Every (b0, b1, r0, r1) of maps on {0..size-1} in which each blue map
    commutes with each red one, in the order of itertools.product."""
    elems = tuple(str(i) for i in range(size))
    maps = [dict(zip(elems, img)) for img in itertools.product(elems, repeat=size)]
    out = []
    for quad in itertools.product(maps, repeat=4):
        if all(
            {t: b[r[t]] for t in elems} == {t: r[b[t]] for t in elems}
            for b in quad[:2]
            for r in quad[2:]
        ):
            out.append(quad)
    return out


def discrete_system(seed: int) -> dict:
    """A 2+2-loop discrete system with fiber size 2, drawn uniformly from
    the consistent table quadruples (58 of the 256)."""
    rng = random.Random(f"discrete-{seed}")
    quad = rng.choice(consistent_quadruples(2))
    doc = _square_loops(["b0", "b1"], ["r0", "r1"])
    doc.update(
        kind="discrete",
        name=f"discrete-{seed}",
        fibers={"v": {"elements": ["0", "1"]}},
        maps={ident: {"table": table} for ident, table in zip(("b0", "b1", "r0", "r1"), quad)},
    )
    return doc


GENERATORS = {"product": product_system, "discrete": discrete_system}


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
