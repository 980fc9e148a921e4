"""Brute-force dense cross-check for the sparse implementations.

Everything here recomputes results from a plain integer ndarray with straight
loops and shares no code with the package under test.  Matching output from
two independent formulations is the correctness evidence for the sparse path.
"""

from typing import Dict, List, Tuple

import numpy as np


def from_cells(cells: Dict[Tuple[str, str], int]):
    """Dense array plus sorted row/col name lists from a count dict."""
    row_names = sorted({src for src, _ in cells})
    col_names = sorted({dst for _, dst in cells})
    ri = {name: i for i, name in enumerate(row_names)}
    ci = {name: j for j, name in enumerate(col_names)}
    dense = np.zeros((len(row_names), len(col_names)), dtype=np.int64)
    for (src, dst), count in cells.items():
        dense[ri[src], ci[dst]] += count
    return dense, row_names, col_names


def aggregates(dense) -> Tuple[int, int, int, int]:
    """(packets, links, sources, destinations) totals."""
    return (
        int(dense.sum()),
        int((dense > 0).sum()),
        int((dense > 0).any(axis=1).sum()),
        int((dense > 0).any(axis=0).sum()),
    )


def quantity_maps(dense, row_names, col_names) -> Dict[str, Dict[str, int]]:
    """All five per-key quantity maps computed densely."""
    sp: Dict[str, int] = {}
    sf: Dict[str, int] = {}
    lp: Dict[str, int] = {}
    fi: Dict[str, int] = {}
    dp: Dict[str, int] = {}
    for i, rn in enumerate(row_names):
        nnz = int((dense[i] > 0).sum())
        if nnz:
            sp[rn] = int(dense[i].sum())
            sf[rn] = nnz
    for j, cn in enumerate(col_names):
        nnz = int((dense[:, j] > 0).sum())
        if nnz:
            dp[cn] = int(dense[:, j].sum())
            fi[cn] = nnz
    for i, rn in enumerate(row_names):
        for j, cn in enumerate(col_names):
            if dense[i, j] > 0:
                lp[f"{rn}→{cn}"] = int(dense[i, j])
    return {
        "source_packets": sp,
        "source_fan_out": sf,
        "link_packets": lp,
        "destination_fan_in": fi,
        "destination_packets": dp,
    }


def fans(dense, row_names, col_names):
    """(d_out, d_in) maps restricted to active endpoints."""
    d_out: Dict[str, int] = {}
    d_in: Dict[str, int] = {}
    for i, rn in enumerate(row_names):
        nnz = int((dense[i] > 0).sum())
        if nnz:
            d_out[rn] = nnz
    for j, cn in enumerate(col_names):
        nnz = int((dense[:, j] > 0).sum())
        if nnz:
            d_in[cn] = nnz
    return d_out, d_in


def pick_supernodes(dense, row_names, col_names, k: int) -> List[str]:
    """Greedy top-k by combined degree with elimination between picks."""
    work = dense.copy()
    ri = {name: i for i, name in enumerate(row_names)}
    ci = {name: j for j, name in enumerate(col_names)}
    chosen: List[str] = []
    for _ in range(k):
        deg: Dict[str, int] = {}
        vol: Dict[str, int] = {}
        for rn, i in ri.items():
            nnz = int((work[i] > 0).sum())
            if nnz:
                deg[rn] = deg.get(rn, 0) + nnz
                vol[rn] = vol.get(rn, 0) + int(work[i].sum())
        for cn, j in ci.items():
            nnz = int((work[:, j] > 0).sum())
            if nnz:
                deg[cn] = deg.get(cn, 0) + nnz
                vol[cn] = vol.get(cn, 0) + int(work[:, j].sum())
        best = None
        best_rank = None
        for key in deg:
            rank = (deg[key], vol[key])
            if (
                best is None
                or rank > best_rank
                or (rank == best_rank and key < best)
            ):
                best, best_rank = key, rank
        if best is None or best_rank[0] <= 1:
            break
        chosen.append(best)
        if best in ri:
            work[ri[best], :] = 0
        if best in ci:
            work[:, ci[best]] = 0
    return chosen


def classify(dense, row_names, col_names, k: int, strict: bool = False):
    """Cell-by-cell category tally.

    Returns (stats, supernodes, leftovers) where stats maps category name to
    a (sources, packets, links, destinations) tuple, including the
    "supernode_internal" bucket, and leftovers lists unclassified cells.
    Ordering of the checks encodes the arbitration rules: both-roles-degree-1
    wins as isolated, then a degree-1 role next to a supernode is a supernode
    leaf even when the leaf node is itself a supernode.
    """
    d_out, d_in = fans(dense, row_names, col_names)
    supers = pick_supernodes(dense, row_names, col_names, k)
    sset = set(supers)
    i1 = {v for v, d in d_out.items() if d == 1}
    j1 = {v for v, d in d_in.items() if d == 1}
    icore = {v for v, d in d_out.items() if d > 1 and v not in sset}
    jcore = {v for v, d in d_in.items() if d > 1 and v not in sset}
    if strict and supers:
        # The strict core is the core above, further bounded by the first
        # supernode's fan on the same side.
        first = supers[0]
        icore = {v for v in icore if d_out[v] < d_out.get(first, 0)}
        jcore = {v for v in jcore if d_in[v] < d_in.get(first, 0)}

    buckets = {
        "isolated_links": [],
        "snleaf_src": [],
        "snleaf_dst": [],
        "supernode_internal": [],
        "coreleaf_src": [],
        "coreleaf_dst": [],
        "core": [],
        "super_out": [],
        "super_in": [],
    }
    leftovers = []
    for i, rn in enumerate(row_names):
        for j, cn in enumerate(col_names):
            count = int(dense[i, j])
            if count == 0:
                continue
            cell = (rn, cn, count)
            if rn in i1 and cn in j1:
                buckets["isolated_links"].append(cell)
            elif cn in sset and rn in i1:
                buckets["snleaf_src"].append(cell)
            elif rn in sset and cn in j1:
                buckets["snleaf_dst"].append(cell)
            elif rn in sset and cn in sset:
                buckets["supernode_internal"].append(cell)
            elif rn in i1 and cn in jcore:
                buckets["coreleaf_src"].append(cell)
            elif cn in j1 and rn in icore:
                buckets["coreleaf_dst"].append(cell)
            elif rn in icore and cn in jcore:
                buckets["core"].append(cell)
            elif rn in sset and cn in jcore:
                buckets["super_out"].append(cell)
            elif cn in sset and rn in icore:
                buckets["super_in"].append(cell)
            else:
                leftovers.append(cell)

    def tally(cells, sources=None, destinations=None):
        packets = sum(c for _, _, c in cells)
        links = len(cells)
        if sources is None:
            sources = len({rn for rn, _, _ in cells})
        if destinations is None:
            destinations = len({cn for _, cn, _ in cells})
        return (sources, packets, links, destinations)

    snl = buckets["snleaf_src"] + buckets["snleaf_dst"]
    cl = buckets["coreleaf_src"] + buckets["coreleaf_dst"]
    sup = buckets["super_out"] + buckets["super_in"]
    stats = {
        "isolated_links": tally(buckets["isolated_links"]),
        "supernode_leaves": tally(
            snl,
            sources=len(buckets["snleaf_src"]),
            destinations=len(buckets["snleaf_dst"]),
        ),
        "supernodes": tally(
            sup,
            sources=sum(1 for sn in sset if d_out.get(sn, 0) > 0),
            destinations=sum(1 for sn in sset if d_in.get(sn, 0) > 0),
        ),
        "core": tally(buckets["core"]),
        "core_leaves": tally(
            cl,
            sources=len(buckets["coreleaf_src"]),
            destinations=len(buckets["coreleaf_dst"]),
        ),
        "supernode_internal": tally(buckets["supernode_internal"]),
    }
    return stats, supers, leftovers
