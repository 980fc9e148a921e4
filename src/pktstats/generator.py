"""Synthetic traffic generation with exact structural bookkeeping.

Builds packet streams from a mixture of known topology ingredients —
isolated pairs, an in-star around one hub, a densely connected core with
attached leaves — or, alternatively, from a fan-out degree model sampled by
inverse CDF.  Alongside the records it returns the exact counts the
construction implies, per category and in total, as the ``CategoryStats``
a decomposition of the stream's matrix reports.  Streams are
bit-reproducible for a fixed seed: all randomness comes from a
counter-based generator.

Links are built as arrays of integer node ids, each category one range of
links, and address texts are made from the ids with an octet table.  Only
the final records are Python tuples.  ``write_packet_csv`` writes them as
unquoted CRLF rows through a temporary file that replaces the target only
when complete.  Of the analysis side only ``topology`` is imported, for
``CategoryStats``, and ``zm`` only where ``ZmParams`` is needed, so
``pktstats generate`` loads little besides numpy.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fileio import open_text_write, read_key_values
from .topology import CategoryStats

if TYPE_CHECKING:
    from .zm import ZmParams

_ADDRESS_SPACE_BITS = 24
# Records joined into one text per write: a few MB of text at a time.
_WRITE_SLICE = 1 << 16

# Address texts "10.a.b.c" are put together from these octet tables.
_OCTET = np.array([str(octet) for octet in range(256)], dtype=object)
_OCTET_DOT = _OCTET + "."
_TEN_DOT = "10." + _OCTET_DOT


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

    ``totals`` are the stream's distinct sources, packets, links and
    distinct destinations: what ``TrafficMatrix.aggregates`` reports for
    the matrix of all its records.  For a structural mixture they are the
    field-by-field sum of ``categories``, since every link, packet, source
    and destination lies in exactly one category.  A degree-model stream
    has no categories; each packet is its own link to its own destination.

    Category counts are exact for structural mixtures whenever the intended
    hub ranking is what a decomposition with ``recommended_k`` supernodes
    recovers; ``exact_categories`` is False for mixtures (core without a
    dominating hub) where the top core node would itself be selected.
    """

    categories: Dict[str, CategoryStats]
    supernode_ids: Tuple[str, ...]
    totals: CategoryStats
    recommended_k: int
    exact_categories: bool
    fan_outs: Optional[Tuple[int, ...]] = None


def _addresses(ids: np.ndarray) -> np.ndarray:
    """Distinct private-range IPv4 address texts of generator node ids.

    The ids must fit the address space (see ``_check_id_space``)."""
    return (
        _TEN_DOT[(ids >> 16) & 255] + _OCTET_DOT[(ids >> 8) & 255] + _OCTET[ids & 255]
    )


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


def _core_links(
    n: int, density: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Member indexes (i, j) of a core's links (n >= 3): the double ring
    i -> i+1, i -> i+2 in sorted order, then extra links drawn up to the
    requested density of the n*(n-1) ordered pairs, also in sorted order.

    The extras are picks among the n*(n-3) other pairs in sorted order.
    Row i holds n-3 of them, so pick p is pair (i, j) with (i, r) =
    divmod(p, n-3): j skips i, i+1 and i+2, wrapped past n-1."""
    members = np.arange(n)
    ring_i = np.repeat(members, 2)
    ring_j = np.sort(np.stack([(members + 1) % n, (members + 2) % n], axis=1)).ravel()
    budget = int(round(density * n * (n - 1)))
    extra_count = max(0, min(n * (n - 3), budget - len(ring_i)))
    if not extra_count:
        return ring_i, ring_j
    picks = np.sort(rng.choice(n * (n - 3), size=extra_count, replace=False))
    i, r = np.divmod(picks, n - 3)
    j = np.where(i == n - 1, r + 2, np.where(i == n - 2, r + 1, r + 3 * (r >= i)))
    return np.concatenate([ring_i, i]), np.concatenate([ring_j, j])


def _link_count(spec: GeneratorSpec) -> int:
    """The number of links ``_structural_links`` builds for ``spec``: the
    core's double ring plus extras make max(2n, min(n(n-1), density n(n-1)))
    of its n(n-1) ordered pairs."""
    pairs = spec.core_size * (spec.core_size - 1)
    core = max(2 * spec.core_size, min(pairs, int(round(spec.core_density * pairs))))
    return (
        spec.n_isolated_pairs + spec.supernode_leaf_count + core + spec.core_leaf_count
    )


def _structural_links(
    spec: GeneratorSpec, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Source and destination node ids of the mixture's links.

    Links come category by category — isolated pairs, hub leaves, core,
    core leaves — and node ids are handed out in the same order: pair i is
    2i -> 2i+1, then the hub, its leaves, the core members and the core
    leaves."""
    pairs = np.arange(0, 2 * spec.n_isolated_pairs, 2)
    src, dst = [pairs], [pairs + 1]
    next_id = 2 * spec.n_isolated_pairs
    if spec.supernode_leaf_count:
        hub = next_id
        next_id += 1 + spec.supernode_leaf_count
        src.append(np.arange(hub + 1, next_id))
        dst.append(np.full(spec.supernode_leaf_count, hub))
    if spec.core_size:
        core = next_id
        next_id += spec.core_size
        i, j = _core_links(spec.core_size, spec.core_density, rng)
        src.append(core + i)
        dst.append(core + j)
        position = np.arange(spec.core_leaf_count)
        anchor = core + position % spec.core_size
        leaf = next_id + position
        # Alternate leaf direction so both leaf roles are exercised.
        outward = position % 2 == 1
        src.append(np.where(outward, anchor, leaf))
        dst.append(np.where(outward, leaf, anchor))
    return np.concatenate(src), np.concatenate(dst)


def _assign_packets(n_links: int, n_packets: int) -> np.ndarray:
    """Per-link packet counts: one each, remainder spread round-robin."""
    counts = np.ones(n_links, dtype=np.int64)
    extra = n_packets - n_links
    whole, part = divmod(extra, n_links)
    counts += whole
    counts[:part] += 1
    return counts


def _expand_records(
    src_texts: np.ndarray,
    dst_texts: np.ndarray,
    counts: np.ndarray,
    rng: np.random.Generator,
) -> List[tuple]:
    """Shuffle per-link packets into a timestamped record stream."""
    order = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    srcs, dsts = src_texts[order], dst_texts[order]
    return list(zip(range(len(order)), srcs, dsts, repeat("TCP"), repeat(4)))


def _structural_truth(
    spec: GeneratorSpec,
    counts: np.ndarray,
    supernode_ids: Tuple[str, ...],
) -> GroundTruth:
    star = spec.supernode_leaf_count
    core_links = len(counts) - spec.n_isolated_pairs - star - spec.core_leaf_count
    # Each category is one range of links, in _structural_links order.
    ends = np.cumsum([0, spec.n_isolated_pairs, star, core_links, spec.core_leaf_count])
    isolated, leaves, core, core_leaves = (
        int(counts[start:stop].sum()) for start, stop in zip(ends, ends[1:])
    )
    categories = {
        "isolated_links": CategoryStats(
            sources=spec.n_isolated_pairs,
            packets=isolated,
            links=spec.n_isolated_pairs,
            destinations=spec.n_isolated_pairs,
        ),
        "supernode_leaves": CategoryStats(
            sources=star,
            packets=leaves,
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
            packets=core,
            links=core_links,
            destinations=spec.core_size,
        ),
        "core_leaves": CategoryStats(
            sources=(spec.core_leaf_count + 1) // 2,
            packets=core_leaves,
            links=spec.core_leaf_count,
            destinations=spec.core_leaf_count // 2,
        ),
    }
    has_core = spec.core_size > 0
    return GroundTruth(
        categories=categories,
        supernode_ids=supernode_ids,
        totals=CategoryStats(*map(sum, zip(*map(astuple, categories.values())))),
        recommended_k=1 if (star and has_core) else 5,
        exact_categories=not (has_core and not star),
    )


def _generate_degree_model(
    spec: GeneratorSpec, n_packets: int, rng: np.random.Generator
) -> Tuple[List[tuple], GroundTruth]:
    """Stars with sampled fan-outs: each source owns a private destination
    range, one packet per link, so fan-outs are exactly the drawn degrees."""
    degrees = sample_zm_degrees(spec.degree_model, n_packets, rng)
    # Degrees are >= 1, so n_packets draws always cover the packet budget:
    # sources take draws until the packet budget is met, the last one clipped.
    ends = np.cumsum(degrees)
    n_sources = int(np.searchsorted(ends, n_packets)) + 1
    fan_outs = degrees[:n_sources]
    fan_outs[-1] -= ends[n_sources - 1] - n_packets
    src_texts = np.repeat(_addresses(np.arange(n_sources)), fan_outs)
    dst_texts = _addresses((1 << (_ADDRESS_SPACE_BITS - 1)) + np.arange(n_packets))
    counts = np.ones(n_packets, dtype=np.int64)
    records = _expand_records(src_texts, dst_texts, counts, rng)
    truth = GroundTruth(
        categories={},
        supernode_ids=(),
        totals=CategoryStats(n_sources, n_packets, n_packets, n_packets),
        recommended_k=5,
        exact_categories=False,
        fan_outs=tuple(fan_outs.tolist()),
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
        # No fan-out can exceed the packets a stream holds, and sampling
        # allocates a table of d_max entries.
        if spec.degree_model.d_max > capacity // 2:
            raise GeneratorConfigError(
                f"degree_model_d_max={spec.degree_model.d_max} exceeds the "
                f"{capacity // 2} packets a degree-model stream can hold"
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
    # Checked before the links are built: a dense core's candidate pairs
    # grow with the square of its size.
    n_links = _link_count(spec)
    if n_packets < n_links:
        raise GeneratorConfigError(
            f"n_packets={n_packets} cannot cover {n_links} links "
            "(every link needs at least one packet)"
        )
    src_ids, dst_ids = _structural_links(spec, rng)
    texts = _addresses(np.arange(max(src_ids.max(), dst_ids.max()) + 1))
    supernode_ids: Tuple[str, ...] = ()
    if spec.supernode_leaf_count:
        # The hub takes the first id after the isolated pairs.
        supernode_ids = (texts[2 * spec.n_isolated_pairs],)
    counts = _assign_packets(n_links, n_packets)
    records = _expand_records(texts[src_ids], texts[dst_ids], counts, rng)
    truth = _structural_truth(spec, counts, supernode_ids)
    return records, truth


def write_packet_csv(path, records: Sequence[tuple]) -> int:
    """Write records in canonical column order (gzip by suffix); row count.

    Rows are unquoted and end with CRLF; neither reader parses quotes.  The
    file appears at ``path`` only once it is complete.
    """
    with open_text_write(path) as fh:
        for start in range(0, len(records), _WRITE_SLICE):
            fh.write("".join([
                f"{t},{src},{dst},{protocol},{version}\r\n"
                for t, src, dst, protocol, version
                in records[start : start + _WRITE_SLICE]
            ]))
    return len(records)


# Every spec key and the type of its value; the three degree_model_* keys
# together make the spec's degree model.
_SPEC_KEYS = {
    "n_isolated_pairs": int,
    "supernode_leaf_count": int,
    "core_size": int,
    "core_density": float,
    "core_leaf_count": int,
    "seed": int,
    "degree_model_alpha": float,
    "degree_model_delta": float,
    "degree_model_d_max": int,
}


def read_generator_spec(path) -> GeneratorSpec:
    """Parse a ``key=value`` spec file (``fileio.read_key_values``) into a
    GeneratorSpec."""
    return spec_from_mapping(read_key_values(path, _SPEC_KEYS, GeneratorConfigError))


def spec_from_mapping(values: Dict[str, str]) -> GeneratorSpec:
    """Build a GeneratorSpec from string key/value pairs (CLI or file)."""
    kwargs: Dict[str, object] = {}
    for key, text in values.items():
        if key not in _SPEC_KEYS:
            raise GeneratorConfigError(f"unknown generator spec key: {key!r}")
        if not key.startswith("degree_model_"):
            kwargs[key] = _spec_value(key, text)
    model = [key for key in _SPEC_KEYS if key.startswith("degree_model_")]
    if any(key in values for key in model):
        from .zm import ZmParams

        missing = sorted(key for key in model if key not in values)
        if missing:
            raise GeneratorConfigError(f"incomplete degree model: missing {missing}")
        try:
            kwargs["degree_model"] = ZmParams(
                *(_spec_value(key, values[key]) for key in model)
            )
        except ValueError as exc:
            raise GeneratorConfigError(f"bad degree model: {exc}") from exc
    return GeneratorSpec(**kwargs)


def _spec_value(key: str, text: str):
    """``text`` as the type ``_SPEC_KEYS`` gives ``key``."""
    kind = _SPEC_KEYS[key]
    try:
        return kind(text)
    except ValueError as exc:
        what = "an integer" if kind is int else "a number"
        raise GeneratorConfigError(f"{key} must be {what}, got {text!r}") from exc
