"""Shared corpus helpers for the test suite.

The "corpus" is a seeded grid of small random instances used by the
invariant and acceptance tests.  One seed gives a quick slice for unit
tests; the acceptance suite runs eight seeds (1080 instances).  set_cell
writes one cell of a flat counter table, the mirror of counters.cell.
"""

from __future__ import annotations

from typing import Iterator

from subsense import Instance, counters
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


def set_cell(inst: Instance, name: str, table: dict, key: tuple, value) -> None:
    """Write ``value``, in the form counters.cell reads (a count, or the set
    a mask has a bit for), into the cell ``key`` of the flat table ``name``."""
    where, index = counters.slot(inst, name, key)
    labels = counters.TABLES[name].labels
    if labels is not None:
        value = sum(1 << labels(inst, key).index(x) for x in value)
    table[where][index] = value
