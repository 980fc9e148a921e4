"""Synthetic traffic generation with exact structural bookkeeping.

Builds packet streams from a mixture of known topology ingredients —
isolated pairs, an in-star around one hub, a densely connected core with
attached leaves — or, alternatively, from a fan-out degree model sampled by
inverse CDF.  Alongside the records it returns the exact per-category counts
the construction implies, which downstream decompositions can be checked
against.  Streams are bit-reproducible for a fixed seed: all randomness comes
from a counter-based generator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fileio import open_text_write
from .topology import CategoryStats
from .zm import ZmParams

_ADDRESS_SPACE_BITS = 24


class GeneratorConfigError(ValueError):
    """Raised for infeasible or inconsistent generator specifications."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Mixture recipe for one synthetic stream.

    Structural counts describe the link topology; ``degree_model`` switches to
    sampled fan-outs instead and cannot be combined with structural parts.
    """

    n_isolated_pairs: int = 0
    supernode_leaf_count: int = 0
    core_size: int = 0
    core_density: float = 1.0
    core_leaf_count: int = 0
    degree_model: Optional[ZmParams] = None
    seed: int = 0

    def __post_init__(self):
        for name in (
            "n_isolated_pairs",
            "supernode_leaf_count",
            "core_size",
            "core_leaf_count",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise GeneratorConfigError(
                    f"{name} must be a non-negative integer, got {value!r}"
                )
        if not 0.0 < self.core_density <= 1.0:
            raise GeneratorConfigError(
                f"core_density must be in (0, 1], got {self.core_density}"
            )
        if self.core_size in (1, 2):
            raise GeneratorConfigError(
                "core_size must be 0 or >= 3: a multiply-connected core needs "
                "every member to keep fan-out and fan-in above 1"
            )
        if self.core_leaf_count > 0 and self.core_size == 0:
            raise GeneratorConfigError("core leaves require a non-empty core")
        if not 0 <= self.seed < 2**64:
            raise GeneratorConfigError("seed must fit in 64 bits")
        if self.degree_model is not None and self.structural_parts:
            raise GeneratorConfigError(
                "degree_model cannot be combined with structural mixture parts"
            )

    @property
    def structural_parts(self) -> bool:
        return bool(
            self.n_isolated_pairs
            or self.supernode_leaf_count
            or self.core_size
            or self.core_leaf_count
        )


@dataclass(frozen=True)
class GroundTruth:
    """Exact construction-time bookkeeping for one generated stream.

    Category counts are exact for structural mixtures whenever the intended
    hub ranking is what a decomposition with ``recommended_k`` supernodes
    recovers; ``exact_categories`` is False for mixtures (core without a
    dominating hub) where the top core node would itself be selected.
    """

    categories: Dict[str, CategoryStats]
    supernode_ids: Tuple[str, ...]
    n_packets: int
    n_links: int
    n_sources: int
    n_destinations: int
    recommended_k: int
    exact_categories: bool
    fan_outs: Optional[Tuple[int, ...]] = None


def _addr(node_id: int) -> str:
    """Distinct private-range IPv4 address for a generator node id."""
    if not 0 <= node_id < 1 << _ADDRESS_SPACE_BITS:
        raise ValueError(f"node id out of address space: {node_id}")
    return f"10.{(node_id >> 16) & 255}.{(node_id >> 8) & 255}.{node_id & 255}"


def sample_zm_degrees(
    params: ZmParams, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n degrees drawn from the model by inverse-CDF lookup."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    support = np.arange(1.0, params.d_max + 1.0) + params.delta
    weights = support ** (-params.alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    u = rng.random(n)
    return np.searchsorted(cdf, u, side="left").astype(np.int64) + 1


def _structural_links(
    spec: GeneratorSpec, rng: np.random.Generator
) -> Tuple[List[Tuple[str, str]], Dict[str, List[int]], Tuple[str, ...]]:
    """Link list for the mixture plus per-category link indexes."""
    links: List[Tuple[str, str]] = []
    members: Dict[str, List[int]] = {name: [] for name in (
        "isolated_links",
        "supernode_leaves",
        "core",
        "core_leaves",
    )}
    next_id = 0

    def take() -> str:
        nonlocal next_id
        address = _addr(next_id)
        next_id += 1
        return address

    for _ in range(spec.n_isolated_pairs):
        src, dst = take(), take()
        members["isolated_links"].append(len(links))
        links.append((src, dst))

    supernode_ids: Tuple[str, ...] = ()
    if spec.supernode_leaf_count:
        center = take()
        supernode_ids = (center,)
        for _ in range(spec.supernode_leaf_count):
            leaf = take()
            members["supernode_leaves"].append(len(links))
            links.append((leaf, center))

    core_nodes: List[str] = []
    if spec.core_size:
        core_nodes = [take() for _ in range(spec.core_size)]
        n = spec.core_size
        ring = set()
        for i in range(n):
            ring.add((i, (i + 1) % n))
            ring.add((i, (i + 2) % n))
        # Optional extra in-core links on top of the double ring, up to the
        # requested density of the n*(n-1) possible ordered pairs.
        possible = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and (i, j) not in ring
        ]
        budget = int(round(spec.core_density * n * (n - 1)))
        extra_count = max(0, min(len(possible), budget - len(ring)))
        if extra_count:
            picks = rng.choice(len(possible), size=extra_count, replace=False)
            extras = [possible[int(p)] for p in sorted(picks)]
        else:
            extras = []
        for i, j in sorted(ring) + extras:
            members["core"].append(len(links))
            links.append((core_nodes[i], core_nodes[j]))
        for position in range(spec.core_leaf_count):
            anchor = core_nodes[position % n]
            leaf = take()
            members["core_leaves"].append(len(links))
            # Alternate leaf direction so both leaf roles are exercised.
            links.append((leaf, anchor) if position % 2 == 0 else (anchor, leaf))
    return links, members, supernode_ids


def _assign_packets(n_links: int, n_packets: int) -> np.ndarray:
    """Per-link packet counts: one each, remainder spread round-robin."""
    counts = np.ones(n_links, dtype=np.int64)
    extra = n_packets - n_links
    whole, part = divmod(extra, n_links)
    counts += whole
    counts[:part] += 1
    return counts


def _expand_records(
    links: Sequence[Tuple[str, str]],
    counts: np.ndarray,
    rng: np.random.Generator,
) -> List[tuple]:
    """Shuffle per-link packets into a timestamped record stream."""
    src_arr = np.array([src for src, _ in links], dtype=object)
    dst_arr = np.array([dst for _, dst in links], dtype=object)
    order = rng.permutation(np.repeat(np.arange(len(links)), counts))
    srcs = src_arr[order].tolist()
    dsts = dst_arr[order].tolist()
    return list(zip(range(len(srcs)), srcs, dsts, repeat("TCP"), repeat(4)))


def _structural_truth(
    spec: GeneratorSpec,
    members: Dict[str, List[int]],
    counts: np.ndarray,
    supernode_ids: Tuple[str, ...],
    n_links: int,
) -> GroundTruth:
    def packets_of(name: str) -> int:
        return int(sum(counts[i] for i in members[name]))

    star = spec.supernode_leaf_count
    categories = {
        "isolated_links": CategoryStats(
            sources=spec.n_isolated_pairs,
            packets=packets_of("isolated_links"),
            links=spec.n_isolated_pairs,
            destinations=spec.n_isolated_pairs,
        ),
        "supernode_leaves": CategoryStats(
            sources=star,
            packets=packets_of("supernode_leaves"),
            links=star,
            destinations=0,
        ),
        "supernodes": CategoryStats(
            sources=0,
            packets=0,
            links=0,
            destinations=1 if star else 0,
        ),
        "core": CategoryStats(
            sources=spec.core_size,
            packets=packets_of("core"),
            links=len(members["core"]),
            destinations=spec.core_size,
        ),
        "core_leaves": CategoryStats(
            sources=(spec.core_leaf_count + 1) // 2,
            packets=packets_of("core_leaves"),
            links=spec.core_leaf_count,
            destinations=spec.core_leaf_count // 2,
        ),
    }
    n_sources = (
        spec.n_isolated_pairs
        + star
        + spec.core_size
        + (spec.core_leaf_count + 1) // 2
    )
    n_destinations = (
        spec.n_isolated_pairs
        + (1 if star else 0)
        + spec.core_size
        + spec.core_leaf_count // 2
    )
    has_core = spec.core_size > 0
    return GroundTruth(
        categories=categories,
        supernode_ids=supernode_ids,
        n_packets=int(counts.sum()) if len(counts) else 0,
        n_links=n_links,
        n_sources=n_sources,
        n_destinations=n_destinations,
        recommended_k=1 if (star and has_core) else 5,
        exact_categories=not (has_core and not star),
    )


def _generate_degree_model(
    spec: GeneratorSpec, n_packets: int, rng: np.random.Generator
) -> Tuple[List[tuple], GroundTruth]:
    """Stars with sampled fan-outs: each source owns a private destination
    range, one packet per link, so fan-outs are exactly the drawn degrees."""
    params = spec.degree_model
    fan_outs: List[int] = []
    remaining = n_packets
    # Degrees are >= 1, so n_packets draws always cover the packet budget.
    for degree in sample_zm_degrees(params, n_packets, rng).tolist():
        if remaining == 0:
            break
        degree = min(degree, remaining)
        fan_outs.append(degree)
        remaining -= degree
    links: List[Tuple[str, str]] = []
    next_src = 0
    next_dst = 1 << (_ADDRESS_SPACE_BITS - 1)
    for degree in fan_outs:
        src = _addr(next_src)
        next_src += 1
        for _ in range(degree):
            links.append((src, _addr(next_dst)))
            next_dst += 1
    counts = np.ones(len(links), dtype=np.int64)
    records = _expand_records(links, counts, rng)
    truth = GroundTruth(
        categories={},
        supernode_ids=(),
        n_packets=n_packets,
        n_links=len(links),
        n_sources=len(fan_outs),
        n_destinations=len(links),
        recommended_k=5,
        exact_categories=False,
        fan_outs=tuple(fan_outs),
    )
    return records, truth


def _check_id_space(spec: GeneratorSpec, n_packets: int) -> None:
    """Refuse a stream whose node ids would not fit the address space."""
    capacity = 1 << _ADDRESS_SPACE_BITS
    if spec.degree_model is not None:
        # Sources count up from 0 and destinations, one per packet, from the
        # middle of the id space, so each half must hold n_packets ids.
        if n_packets > capacity // 2:
            raise GeneratorConfigError(
                f"n_packets={n_packets} exceeds the {capacity // 2} destination "
                "addresses of a degree-model stream"
            )
        return
    nodes = (
        2 * spec.n_isolated_pairs
        + (spec.supernode_leaf_count + 1 if spec.supernode_leaf_count else 0)
        + spec.core_size
        + spec.core_leaf_count
    )
    if nodes > capacity:
        raise GeneratorConfigError(
            f"the spec needs {nodes} node addresses, more than the {capacity} "
            "available"
        )


def generate_synthetic(
    spec: GeneratorSpec, n_packets: int
) -> Tuple[List[tuple], GroundTruth]:
    """Generate n_packets valid TCP/IPv4 records plus exact bookkeeping.

    Records are plain tuples in PacketRecord field order with timestamps
    0..n-1, link traffic interleaved by a seeded shuffle.
    """
    if n_packets < 1:
        raise GeneratorConfigError(f"n_packets must be >= 1, got {n_packets}")
    _check_id_space(spec, n_packets)
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    if spec.degree_model is not None:
        return _generate_degree_model(spec, n_packets, rng)
    if not spec.structural_parts:
        raise GeneratorConfigError("empty specification: nothing to generate")
    links, members, supernode_ids = _structural_links(spec, rng)
    if n_packets < len(links):
        raise GeneratorConfigError(
            f"n_packets={n_packets} cannot cover {len(links)} links "
            "(every link needs at least one packet)"
        )
    counts = _assign_packets(len(links), n_packets)
    records = _expand_records(links, counts, rng)
    truth = _structural_truth(spec, members, counts, supernode_ids, len(links))
    return records, truth


def write_packet_csv(path, records: Sequence[tuple]) -> int:
    """Write records in canonical column order (gzip by suffix); row count."""
    with open_text_write(path) as fh:
        csv.writer(fh).writerows(records)
    return len(records)


def read_generator_spec(path) -> GeneratorSpec:
    """Parse a flat key=value spec file into a GeneratorSpec."""
    values: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw_line in fh:
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise GeneratorConfigError(f"expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return spec_from_mapping(values)


def spec_from_mapping(values: Dict[str, str]) -> GeneratorSpec:
    """Build a GeneratorSpec from string key/value pairs (CLI or file)."""
    know_int = {
        "n_isolated_pairs",
        "supernode_leaf_count",
        "core_size",
        "core_leaf_count",
        "seed",
    }
    kwargs: Dict[str, object] = {}
    model_parts: Dict[str, str] = {}
    for key, value in values.items():
        if key in know_int:
            kwargs[key] = _parse_int(key, value)
        elif key == "core_density":
            kwargs[key] = _parse_float(key, value)
        elif key in ("degree_model_alpha", "degree_model_delta", "degree_model_d_max"):
            model_parts[key] = value
        else:
            raise GeneratorConfigError(f"unknown generator spec key: {key!r}")
    if model_parts:
        needed = {"degree_model_alpha", "degree_model_delta", "degree_model_d_max"}
        missing = needed - set(model_parts)
        if missing:
            raise GeneratorConfigError(
                f"incomplete degree model: missing {sorted(missing)}"
            )
        try:
            kwargs["degree_model"] = ZmParams(
                alpha=_parse_float("degree_model_alpha", model_parts["degree_model_alpha"]),
                delta=_parse_float("degree_model_delta", model_parts["degree_model_delta"]),
                d_max=_parse_int("degree_model_d_max", model_parts["degree_model_d_max"]),
            )
        except ValueError as exc:
            raise GeneratorConfigError(f"bad degree model: {exc}") from exc
    try:
        return GeneratorSpec(**kwargs)
    except TypeError as exc:
        raise GeneratorConfigError(str(exc)) from exc


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise GeneratorConfigError(f"{key} must be an integer, got {value!r}") from exc


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise GeneratorConfigError(f"{key} must be a number, got {value!r}") from exc
