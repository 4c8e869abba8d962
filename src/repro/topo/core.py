"""Topology graphs: named bottlenecks and the paths that cross them.

A :class:`Bottleneck` is one shared capacity — a leaf uplink, a spine
link, an aggregated pod trunk. A :class:`Path` generalizes the
point-to-point :class:`~repro.netsim.link.NetworkPath`: it names the
ordered bottlenecks a flow crosses between two endpoint nodes, while
the transport characteristics (RTT, TCP buffer, congestion knee) stay
on the testbed's ``NetworkPath`` — the topology constrains *capacity*,
the link model constrains *protocol behaviour*.

Capacities are mutable at the :class:`Topology` level only, through
:meth:`Topology.scale_bottleneck` (a chaos brownout on one named link)
and :meth:`Topology.set_global_scale` (a region-wide brownout). Both
follow the fast-path invalidation contract: they are constant between
intervention calls, and the simulators re-read capacities every
allocation round, so a scale change lands on the same grid point in
the fast and grid drivers.

Builders: :func:`single_link` (degenerate one-bottleneck network that
reproduces the plain ``NetworkPath`` byte-identically),
:func:`leaf_spine`, :func:`fat_tree` (aggregated pod model), and the
generic :func:`from_edges`. :func:`build_topology` parses the CLI/spec
syntax (``fat-tree:k=4`` / ``leaf-spine:s=2,l=4,spine=0.5`` /
``single-link``) against a base bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Sequence, Union

from repro import units
from repro.netsim.link import NetworkPath
from repro.units import BytesPerSecond

__all__ = [
    "Bottleneck",
    "Path",
    "Topology",
    "single_link",
    "leaf_spine",
    "fat_tree",
    "from_edges",
    "build_topology",
]


@dataclass(frozen=True, slots=True)
class Bottleneck:
    """One shared capacity of the network, in bytes/second."""

    name: str
    capacity: BytesPerSecond

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("bottleneck name must be non-empty")
        if self.capacity <= 0:
            raise ValueError(
                f"bottleneck capacity must be > 0, got {self.capacity}"
            )


@dataclass(frozen=True, slots=True)
class Path:
    """An end-to-end route: the ordered bottlenecks between two nodes.

    Generalizes :class:`~repro.netsim.link.NetworkPath`: where the
    point-to-point model is "one link, one capacity", a topology path
    is "a sequence of shared capacities" — the flow's rate is bounded
    by its allocated share on *every* bottleneck it crosses (min over
    the path; see :func:`repro.topo.alloc.allocate`).
    """

    name: str
    src: str
    dst: str
    bottlenecks: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("path name must be non-empty")
        if not self.bottlenecks:
            raise ValueError(f"path {self.name!r} crosses no bottleneck")
        if len(set(self.bottlenecks)) != len(self.bottlenecks):
            raise ValueError(
                f"path {self.name!r} crosses a bottleneck twice: "
                f"{self.bottlenecks}"
            )


class Topology:
    """A named set of bottlenecks plus the paths that cross them.

    The *specs* (bottleneck base capacities, path membership) are
    immutable after construction; the only mutable state is the
    brownout scaling — per-bottleneck factors plus one global factor —
    which chaos interventions adjust mid-run. ``capacity(name)``
    always returns ``base * per_bottleneck_scale * global_scale``.

    Instances are plain-dict picklable (fleet shards ship one through
    a process pool) and cheap to ``copy.deepcopy`` (the service layer
    builds a fresh one per run so same-seed reruns never see stale
    brownout state).
    """

    def __init__(
        self,
        bottlenecks: Iterable[Bottleneck],
        paths: Iterable[Path],
        *,
        name: str = "custom",
    ) -> None:
        self.name = name
        self._bottlenecks: dict[str, Bottleneck] = {}
        for bottleneck in bottlenecks:
            if bottleneck.name in self._bottlenecks:
                raise ValueError(
                    f"duplicate bottleneck name {bottleneck.name!r}"
                )
            self._bottlenecks[bottleneck.name] = bottleneck
        if not self._bottlenecks:
            raise ValueError("a topology needs at least one bottleneck")
        self._paths: dict[str, Path] = {}
        for path in paths:
            if path.name in self._paths:
                raise ValueError(f"duplicate path name {path.name!r}")
            for hop in path.bottlenecks:
                if hop not in self._bottlenecks:
                    raise ValueError(
                        f"path {path.name!r} crosses unknown bottleneck "
                        f"{hop!r}"
                    )
            self._paths[path.name] = path
        if not self._paths:
            raise ValueError("a topology needs at least one path")
        self._scales: dict[str, float] = {}
        self._global_scale = 1.0
        self._version = 0

    # -- structure ------------------------------------------------------

    @property
    def bottlenecks(self) -> dict[str, Bottleneck]:
        """Name -> bottleneck spec (insertion-ordered copy)."""
        return dict(self._bottlenecks)

    @property
    def paths(self) -> dict[str, Path]:
        """Name -> path spec (insertion-ordered copy)."""
        return dict(self._paths)

    @property
    def nodes(self) -> list[str]:
        """Every endpoint node, sorted."""
        seen: set[str] = set()
        for path in self._paths.values():
            seen.add(path.src)
            seen.add(path.dst)
        return sorted(seen)

    def path(self, name: str) -> Path:
        """Look up one path by name (KeyError lists the known ones)."""
        try:
            return self._paths[name]
        except KeyError:
            raise KeyError(
                f"unknown path {name!r}; known: {sorted(self._paths)}"
            ) from None

    def paths_between(self, src: str, dst: str) -> list[Path]:
        """Candidate routes from ``src`` to ``dst`` (declaration order)."""
        return [
            path
            for path in self._paths.values()
            if path.src == src and path.dst == dst
        ]

    # -- capacities (brownout-scaled) -----------------------------------

    @property
    def version(self) -> int:
        """Monotone counter bumped by every capacity mutation
        (:meth:`scale_bottleneck`, :meth:`set_global_scale`).

        A cheap staleness signature: anything that memoizes results
        derived from current capacities (the simulators' round-level
        allocation reuse, :func:`repro.topo.alloc.refill` splices)
        records the version it computed against and recomputes from
        scratch when it moves."""
        return self._version

    def capacity(self, name: str) -> BytesPerSecond:
        """Current capacity of a bottleneck, in bytes/s (brownout
        factors applied)."""
        try:
            base = self._bottlenecks[name].capacity
        except KeyError:
            raise KeyError(
                f"unknown bottleneck {name!r}; known: "
                f"{sorted(self._bottlenecks)}"
            ) from None
        return base * self._scales.get(name, 1.0) * self._global_scale

    def path_capacity(self, name: str) -> BytesPerSecond:
        """Current capacity of a path, in bytes/s: min over its
        bottlenecks."""
        path = self.path(name)
        return min(self.capacity(hop) for hop in path.bottlenecks)

    def scale_bottleneck(self, name: str, scale: float) -> BytesPerSecond:
        """Brownout one named bottleneck to ``scale`` of its base
        capacity (``1.0`` restores it). Returns the new capacity in
        bytes/s."""
        if scale <= 0:
            raise ValueError(f"bottleneck scale must be > 0, got {scale}")
        if name not in self._bottlenecks:
            raise KeyError(
                f"unknown bottleneck {name!r}; known: "
                f"{sorted(self._bottlenecks)}"
            )
        self._scales[name] = float(scale)
        self._version += 1
        return self.capacity(name)

    def set_global_scale(self, scale: float) -> None:
        """Region-wide brownout: every bottleneck scaled at once (the
        topology-side mirror of
        :meth:`~repro.netsim.multi.MultiTransferSimulator.set_link_scale`)."""
        if scale <= 0:
            raise ValueError(f"global scale must be > 0, got {scale}")
        self._global_scale = float(scale)
        self._version += 1

    def network_path_for(self, path_name: str, base: NetworkPath) -> NetworkPath:
        """``base`` with its bandwidth clamped to the path's current
        capacity — the point-to-point view of one topology route."""
        capacity = self.path_capacity(path_name)
        return replace(base, bandwidth=min(base.bandwidth, capacity))

    # -- serialization / rendering --------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe structure + current (scaled) capacities."""
        return {
            "name": self.name,
            "bottlenecks": {
                name: {
                    "base_capacity": spec.capacity,
                    "capacity": self.capacity(name),
                }
                for name, spec in self._bottlenecks.items()
            },
            "paths": {
                name: {
                    "src": path.src,
                    "dst": path.dst,
                    "bottlenecks": list(path.bottlenecks),
                }
                for name, path in self._paths.items()
            },
        }

    def describe(self) -> str:
        """One line of topology facts."""
        return (
            f"{self.name}: {len(self._bottlenecks)} bottlenecks, "
            f"{len(self._paths)} paths, {len(self.nodes)} nodes"
        )

    def render(self) -> str:
        """Human-readable bottleneck table."""
        lines = [self.describe()]
        for name in self._bottlenecks:
            crossing = sum(
                1
                for path in self._paths.values()
                if name in path.bottlenecks
            )
            lines.append(
                f"  {name:<14s} {units.to_gbps(self.capacity(name)):7.2f} "
                f"Gbps  ({crossing} paths)"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def single_link(
    capacity: BytesPerSecond, *, name: str = "single-link"
) -> Topology:
    """The degenerate network: one bottleneck (``capacity`` bytes/s),
    one path.

    With ``capacity`` set to the testbed link's nominal bandwidth the
    allocator never binds (aggregate TCP goodput is always below the
    nominal rate), so a single-link topology reproduces the plain
    ``NetworkPath`` execution byte-identically — the regression anchor
    for the whole subsystem.
    """
    return Topology(
        [Bottleneck("link", capacity)],
        [Path("src-dst", "src", "dst", ("link",))],
        name=name,
    )


def leaf_spine(
    spines: int,
    leaves: int,
    *,
    leaf_capacity: BytesPerSecond,
    spine_capacity: Optional[BytesPerSecond] = None,
) -> Topology:
    """A two-tier leaf-spine fabric (capacities in bytes/s).

    Each leaf is one bottleneck (its uplink trunk); each spine is one
    bottleneck. A path between two distinct leaves crosses
    ``(leaf_a, spine_j, leaf_b)`` — one path per spine, which is what
    gives the placement policies a real choice.
    """
    if spines < 1:
        raise ValueError("leaf-spine needs at least 1 spine")
    if leaves < 2:
        raise ValueError("leaf-spine needs at least 2 leaves")
    if spine_capacity is None:
        spine_capacity = leaf_capacity
    bottlenecks = [
        Bottleneck(f"leaf{i}", leaf_capacity) for i in range(leaves)
    ] + [Bottleneck(f"spine{j}", spine_capacity) for j in range(spines)]
    paths = [
        Path(
            f"leaf{a}-leaf{b}:spine{j}",
            f"leaf{a}",
            f"leaf{b}",
            (f"leaf{a}", f"spine{j}", f"leaf{b}"),
        )
        for a in range(leaves)
        for b in range(leaves)
        if a != b
        for j in range(spines)
    ]
    return Topology(
        bottlenecks, paths, name=f"leaf-spine:s={spines},l={leaves}"
    )


def fat_tree(
    k: int,
    *,
    edge_capacity: BytesPerSecond,
    core_capacity: Optional[BytesPerSecond] = None,
) -> Topology:
    """A k-ary fat-tree at pod granularity (capacities in bytes/s).

    The classic fat-tree has ``k`` pods and ``(k/2)^2`` core switches.
    This builder models each pod's aggregated trunk as one bottleneck
    and each core switch as one bottleneck; a path between two
    distinct pods crosses ``(pod_a, core_c, pod_b)`` — one candidate
    per core, the ECMP fan-out the load balancer chooses over.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("fat-tree k must be an even integer >= 2")
    if core_capacity is None:
        core_capacity = edge_capacity
    cores = (k // 2) ** 2
    bottlenecks = [
        Bottleneck(f"pod{i}", edge_capacity) for i in range(k)
    ] + [Bottleneck(f"core{c}", core_capacity) for c in range(cores)]
    paths = [
        Path(
            f"pod{a}-pod{b}:core{c}",
            f"pod{a}",
            f"pod{b}",
            (f"pod{a}", f"core{c}", f"pod{b}"),
        )
        for a in range(k)
        for b in range(k)
        if a != b
        for c in range(cores)
    ]
    return Topology(bottlenecks, paths, name=f"fat-tree:k={k}")


def from_edges(
    edges: Iterable[Union[Bottleneck, tuple[str, BytesPerSecond]]],
    paths: Mapping[str, tuple[str, str, Sequence[str]]],
    *,
    name: str = "custom",
) -> Topology:
    """Generic builder: explicit bottlenecks and path routes.

    ``edges`` is a sequence of :class:`Bottleneck` (or ``(name,
    capacity)`` tuples); ``paths`` maps each path name to ``(src, dst,
    bottleneck_names)``. Unknown bottleneck references raise.
    """
    specs = [
        edge if isinstance(edge, Bottleneck) else Bottleneck(edge[0], edge[1])
        for edge in edges
    ]
    routes = [
        Path(path_name, src, dst, tuple(hops))
        for path_name, (src, dst, hops) in paths.items()
    ]
    return Topology(specs, routes, name=name)


# ----------------------------------------------------------------------
# spec parsing (CLI / scenario syntax)
# ----------------------------------------------------------------------


def _parse_params(body: str) -> dict[str, str]:
    """Split a spec body into raw key/value strings (values convert
    per-key to floats)."""
    params: dict[str, str] = {}
    if not body:
        return params
    for item in body.split(","):
        if "=" not in item:
            raise ValueError(
                f"malformed topology parameter {item!r} (expected key=value)"
            )
        key, _, value = item.partition("=")
        params[key.strip()] = value.strip()
    return params


def _float_param(params: dict[str, str], key: str, default: float) -> float:
    value = params.pop(key, None)
    if value is None:
        return default
    try:
        return float(value)
    except ValueError:
        raise ValueError(
            f"malformed topology parameter value {value!r} for {key!r}"
        ) from None


def build_topology(spec: str, *, bandwidth: BytesPerSecond) -> Topology:
    """Build a topology from its spec string against a base bandwidth
    (bytes/s).

    Syntax (capacity factors are fractions of ``bandwidth``)::

        single-link
        leaf-spine:s=2,l=4[,spine=0.5][,leaf=1.0]
        fat-tree:k=4[,core=0.5][,edge=1.0]

    The spec string is the picklable, scenario- and CLI-friendly form:
    fleet shards and chaos scripts carry the string and rebuild the
    topology fresh per run.
    """
    if bandwidth <= 0:
        raise ValueError(f"base bandwidth must be > 0, got {bandwidth}")
    kind, _, body = spec.partition(":")
    params = _parse_params(body)
    if kind == "single-link":
        return single_link(bandwidth)
    if kind == "leaf-spine":
        spines = int(_float_param(params, "s", 2))
        leaves = int(_float_param(params, "l", 4))
        leaf_cap = _float_param(params, "leaf", 1.0) * bandwidth
        spine_cap = _float_param(params, "spine", 1.0) * bandwidth
        if params:
            raise ValueError(
                f"unknown leaf-spine parameters: {sorted(params)}"
            )
        return leaf_spine(
            spines, leaves, leaf_capacity=leaf_cap,
            spine_capacity=spine_cap,
        )
    if kind == "fat-tree":
        k = int(_float_param(params, "k", 4))
        edge_cap = _float_param(params, "edge", 1.0) * bandwidth
        core_cap = _float_param(params, "core", 1.0) * bandwidth
        if params:
            raise ValueError(
                f"unknown fat-tree parameters: {sorted(params)}"
            )
        return fat_tree(k, edge_capacity=edge_cap, core_capacity=core_cap)
    raise ValueError(
        f"unknown topology spec {spec!r}; known kinds: "
        "single-link, leaf-spine, fat-tree"
    )
