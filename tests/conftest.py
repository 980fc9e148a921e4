"""Shared fixtures and helpers for the test suite."""

import gc

import numpy as np
import pytest

from pktstats import TrafficMatrix
from pktstats.ingest import CodedPackets, next_window


@pytest.fixture(autouse=True)
def collector_left_on():
    """Every test ends with the cyclic collector enabled and nothing frozen:
    only a program run of the CLI turns it off, never a call in-process."""
    yield
    assert gc.isenabled() and gc.get_freeze_count() == 0


# A small star plus a satellite source: s1 fans out to three destinations
# (twice to d1), while s2 sends a single packet into d1.
STAR_COUNTS = {
    ("s1", "d1"): 2,
    ("s1", "d2"): 1,
    ("s1", "d3"): 1,
    ("s2", "d1"): 1,
}

# A window on which a strict core that admitted later supernodes counted
# cells twice: 17 links, 88 packets.
STRICT_CELLS = {
    ("n0", "n4"): 7, ("n0", "n6"): 4, ("n1", "n3"): 7, ("n1", "n4"): 1,
    ("n1", "n6"): 9, ("n2", "n2"): 11, ("n2", "n3"): 15, ("n2", "n4"): 7,
    ("n3", "n1"): 2, ("n3", "n2"): 2, ("n3", "n4"): 5, ("n3", "n5"): 1,
    ("n4", "n5"): 1, ("n4", "n6"): 2, ("n5", "n3"): 5, ("n5", "n5"): 8,
    ("n5", "n6"): 1,
}


def make_records(pairs, protocol="TCP", ip_version=4, start_ts=0):
    """Packet tuples in canonical field order with sequential timestamps."""
    return [
        (start_ts + i, src, dst, protocol, ip_version)
        for i, (src, dst) in enumerate(pairs)
    ]


STAR_PAIRS = [
    ("s1", "d1"),
    ("s1", "d2"),
    ("s2", "d1"),
    ("s1", "d3"),
    ("s1", "d1"),
]


def matrix_of(cells) -> TrafficMatrix:
    """The matrix of a {(src, dst): count} mapping of positive counts, built
    by ``TrafficMatrix.from_window`` from a window that holds each link's
    packets, coded over the sorted addresses."""
    names = sorted({name for pair in cells for name in pair})
    code = {name: i for i, name in enumerate(names)}
    counts = np.array(list(cells.values()), dtype=np.intp)
    src = np.array([code[src] for src, _ in cells], dtype=np.intp)
    dst = np.array([code[dst] for _, dst in cells], dtype=np.intp)
    window = CodedPackets(np.repeat(src, counts), np.repeat(dst, counts), tuple(names))
    return TrafficMatrix.from_window(window)


@pytest.fixture
def star_matrix() -> TrafficMatrix:
    return matrix_of(STAR_COUNTS)


@pytest.fixture
def star_window() -> CodedPackets:
    return next_window(iter(make_records(STAR_PAIRS)), 5)


def window_pairs(window: CodedPackets):
    """The (src, dst) address pairs of a window's packets, in order."""
    names = window.names
    return [
        (names[src], names[dst])
        for src, dst in zip(window.src.tolist(), window.dst.tolist())
    ]


def random_cells(rng: np.random.Generator, max_side: int = 80, max_cells: int = 300):
    """Random sparse count dict with partly overlapping endpoint namespaces.

    The destination namespace is shifted by a random offset so some runs share
    node identities across both roles and others keep them disjoint.
    """
    n_rows = int(rng.integers(1, max_side + 1))
    n_cols = int(rng.integers(1, max_side + 1))
    shift = int(rng.integers(0, n_rows + 1))
    n_cells = int(rng.integers(1, min(n_rows * n_cols, max_cells) + 1))
    rows = rng.integers(0, n_rows, size=n_cells).tolist()
    cols = rng.integers(0, n_cols, size=n_cells).tolist()
    counts = rng.integers(1, 10, size=n_cells).tolist()
    cells = {}
    for i, j, c in zip(rows, cols, counts):
        key = (f"n{i}", f"n{j + shift}")
        cells[key] = cells.get(key, 0) + c
    return cells
