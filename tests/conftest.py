"""Shared corpus helpers for the test suite.

The "corpus" is a seeded grid of small random instances used by the
invariant and acceptance tests.  One seed gives a quick slice for unit
tests; the acceptance suite runs eight seeds (1080 instances).  set_cell
writes one cell of a flat counter table, the mirror of counters.cell.
WIDTH_INPUTS are the instances whose masks reach every packed field width,
which the table and engine goldens both run.
"""

from __future__ import annotations

import random
from typing import Iterator

from subsense import Instance, counters, make_instance
from subsense.generators import random_instance

CORPUS_NS = (2, 3, 4, 5, 6)
CORPUS_DS = (2, 3, 4)
CORPUS_DENSITIES = (0.3, 0.6, 1.0)
CORPUS_TIGHTNESSES = (0.3, 0.5, 0.7)


def corpus(seeds=(0,)) -> Iterator[Instance]:
    for n in CORPUS_NS:
        for d in CORPUS_DS:
            for density in CORPUS_DENSITIES:
                for tightness in CORPUS_TIGHTNESSES:
                    for seed in seeds:
                        yield random_instance(n, d, density, tightness, seed)


def corpus_size(seeds=(0,)) -> int:
    return (
        len(CORPUS_NS)
        * len(CORPUS_DS)
        * len(CORPUS_DENSITIES)
        * len(CORPUS_TIGHTNESSES)
        * len(seeds)
    )


def set_cell(inst: Instance, name: str, table: list, key: tuple, value) -> None:
    """Write ``value``, in the form counters.cell reads (a count, or the set
    a mask has a bit for), into the cell ``key`` of the flat table ``name``."""
    labels = counters.TABLES[name].labels
    if labels is not None:
        value = sum(1 << labels(inst, key).index(x) for x in value)
    table[counters.slot(inst, name, key)] = value


def _sized(name, sizes, edges, seed):
    """An instance with domains range(s) for each s in ``sizes`` and, on
    each of ``edges``, a random relation allowing about 60% of the pairs."""
    rng = random.Random(seed)
    constraints = {
        (i, j): [(a, b) for a in range(sizes[i]) for b in range(sizes[j]) if rng.random() < 0.6]
        for i, j in edges
    }
    return make_instance(name, [range(s) for s in sizes], constraints)


def _wide_counts():
    """Two variables of 300 values, each tied to one two-valued variable
    whose value 0 allows all but a few of them and value 1 a few, so that
    nb_blocks and nb_subs count past 255."""
    big = range(300)
    return make_instance("two-300", [big, big, (0, 1)], {
        (0, 2): [(a, 0) for a in big if a % 97] + [(a, 1) for a in big if a % 11 == 0],
        (1, 2): [(a, 0) for a in big if a % 89] + [(a, 1) for a in big if a % 13 == 0],
    })


def _star(leaves):
    """A three-valued centre with ``leaves`` two-valued neighbours, each
    relation forbidding one pair."""
    return make_instance("star", [range(3)] + [range(2)] * leaves, {
        (0, t): [(a, b) for a in range(3) for b in range(2) if (a, b) != (t % 3, t % 2)]
        for t in range(1, leaves + 1)
    })


# The packed byte kernels of counters.build pick a field width from the
# domain sizes and the degrees and work on one group of equally sized edges
# at a time: these inputs reach every width and more than one group.
WIDTH_INPUTS = {
    # masks of x_0 of 64 bits, the last packed width (8-byte fields), of 65,
    # the first paired slot by slot, and past 64 bits
    "domain-64": lambda: _sized("d64", [64, 5, 3], [(0, 1), (0, 2), (1, 2)], 1),
    "domain-65": lambda: _sized("d65", [65, 5, 3], [(0, 1), (0, 2), (1, 2)], 1),
    "domain-70": lambda: _sized("d70", [70, 5, 3], [(0, 1), (0, 2), (1, 2)], 1),
    # counts past one byte from 40-byte fields, and groups of 90,000 slots
    # an edge, paired one edge at a time
    "counts-300": _wide_counts,
    # holder masks of the centre past 64 bits
    "star-70": lambda: _star(70),
    # four domain sizes, so several groups and three widths; x_8 unconstrained
    "mixed-sizes": lambda: _sized(
        "mixed", [2, 5, 9, 17, 2, 5, 9, 17, 4],
        [(i, j) for i in range(8) for j in range(i + 1, 8) if (i * 7 + j) % 3], 4),
}
