"""The benchmark's `master` cells at a seed, for the tests that use them:
the C-tables that perfbench's plant_cell plants and the A-table entries the
master formula gives on them.  Each is built once per seed and process, and
every call hands out new objects, so that no test can change what another
one reads."""

import functools
import os
import sys

from locsys.counting import CTable, a_from_c

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
try:
    from workloads import MASTER_CELLS, plant_cell
finally:
    sys.path.pop(0)


@functools.cache
def _planted(seed):
    return [(g, n, plant_cell(seed, g, n)[0]) for g, n in MASTER_CELLS]


@functools.cache
def _entries(seed):
    return tuple(a_from_c(r, g, table) for g, n, table in master_tables(seed)
                 for r in range(2, n + 1))


def master_tables(seed):
    """[(g, n, concrete C-table)] of the cells, each table new."""
    return [(g, n, CTable.concrete(g, base)) for g, n, base in _planted(seed)]


def master_entries(seed):
    """The z-form A-table entries of ranks 2..n of every cell, in cell
    order, each a copy."""
    return [p._new(dict(p.terms)) for p in _entries(seed)]
