"""Communication topologies.

The paper's algorithms assume all-to-all communication (every node can
reliably broadcast to every other node); historically the simulator
hard-coded that complete graph.  This module makes the communication
graph a first-class axis instead:

- :class:`Topology` — a frozen adjacency representation: sorted
  neighbour arrays (self included) plus a precomputed ``(n, n)`` boolean
  delivery mask with a ``True`` diagonal.  ``mask[s, r]`` answers "does
  ``s``'s broadcast reach ``r``?", which is exactly the shape the batch
  message plane's per-sender delivery masks use — the engines intersect
  it with their drop/crash/delay masks (see
  :class:`repro.engine.base.RoundEngine`).
- :func:`make_topology` — a registry of seeded, deterministic named
  generators (:data:`TOPOLOGY_NAMES`): ``complete``, ``ring``,
  ``torus``, ``random-regular`` (the "expander" family) and ``clusters``
  (geographic clusters bridged into a ring).
- :func:`validate_topology` — structural diagnostics with actionable
  errors: node coverage, connectivity (a disconnected graph silently
  starves whole components), and quorum feasibility against the
  Byzantine tolerance ``t`` (full agreement needs every node to *be
  able* to receive ``n - t`` messages, i.e. closed degree ``>= n - t``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np


class Topology:
    """Frozen adjacency representation of a communication graph.

    Attributes
    ----------
    name:
        The generator name this topology was built from (``"complete"``,
        ``"ring"``, ...).
    n:
        Number of nodes (ids ``0..n-1``).
    mask:
        Read-only ``(n, n)`` boolean delivery mask, symmetric with a
        ``True`` diagonal: ``mask[s, r]`` — does ``s``'s broadcast reach
        ``r``?  This is the array the engines intersect with their own
        delivery masks, so building it once here keeps the per-round
        cost at a single vectorized ``&``.
    """

    __slots__ = ("name", "n", "mask", "is_complete", "_degrees", "_neighbours")

    def __init__(self, name: str, mask: np.ndarray) -> None:
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError(f"topology mask must be square, got shape {mask.shape}")
        if mask.shape[0] < 1:
            raise ValueError("topology needs at least one node")
        if not np.array_equal(mask, mask.T):
            raise ValueError("topology mask must be symmetric (links are undirected)")
        if not mask.diagonal().all():
            raise ValueError(
                "topology mask must have a True diagonal (a node always "
                "delivers its own broadcast to itself)"
            )
        mask = mask.copy()
        mask.setflags(write=False)
        self.name = str(name)
        self.n = int(mask.shape[0])
        self.mask = mask
        self.is_complete = bool(mask.all())
        self._degrees: Optional[np.ndarray] = None
        self._neighbours: Dict[int, np.ndarray] = {}

    # -- structure ------------------------------------------------------------
    @property
    def degrees(self) -> np.ndarray:
        """Open degrees (neighbour counts excluding self), ``(n,)`` int64."""
        if self._degrees is None:
            degrees = self.mask.sum(axis=1, dtype=np.int64) - 1
            degrees.setflags(write=False)
            self._degrees = degrees
        return self._degrees

    @property
    def min_degree(self) -> int:
        return int(self.degrees.min())

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max())

    @property
    def num_edges(self) -> int:
        """Undirected non-self edges."""
        return int(self.mask.sum() - self.n) // 2

    def neighbours(self, node: int) -> np.ndarray:
        """Sorted read-only neighbour ids of ``node``, self included."""
        if not 0 <= node < self.n:
            raise ValueError(f"node {node} is not part of the topology (n={self.n})")
        cached = self._neighbours.get(node)
        if cached is None:
            cached = np.flatnonzero(self.mask[node]).astype(np.int64)
            cached.setflags(write=False)
            self._neighbours[node] = cached
        return cached

    def connected_components(self) -> List[List[int]]:
        """Connected components as sorted node lists (largest first)."""
        unseen = set(range(self.n))
        components: List[List[int]] = []
        while unseen:
            frontier = [unseen.pop()]
            component = set(frontier)
            while frontier:
                reachable = np.flatnonzero(self.mask[frontier].any(axis=0))
                frontier = [int(v) for v in reachable if v in unseen]
                component.update(frontier)
                unseen.difference_update(frontier)
            components.append(sorted(component))
        components.sort(key=lambda c: (-len(c), c[0]))
        return components

    @property
    def is_connected(self) -> bool:
        return len(self.connected_components()) == 1

    def summary(self) -> Dict[str, object]:
        """Compact JSON-safe reading for sweep rows and reports."""
        degrees = self.degrees
        return {
            "name": self.name,
            "n": self.n,
            "edges": self.num_edges,
            "min_degree": int(degrees.min()),
            "max_degree": int(degrees.max()),
            "mean_degree": float(degrees.mean()),
            "complete": self.is_complete,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology(name={self.name!r}, n={self.n}, edges={self.num_edges}, "
            f"degree=[{self.min_degree}, {self.max_degree}])"
        )


# -- generators ---------------------------------------------------------------
# Each generator returns the ``(n, n)`` boolean mask with a True diagonal.

def _generate_complete(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.ones((n, n), dtype=bool)


def _generate_ring(n: int, rng: np.random.Generator) -> np.ndarray:
    if n < 3:
        raise ValueError(f"topology 'ring' needs n >= 3 nodes, got {n}")
    return _torus_mask(1, n)


def _near_square_factors(n: int) -> Tuple[int, int]:
    rows = int(np.sqrt(n))
    while rows > 1 and n % rows:
        rows -= 1
    return rows, n // rows


def _torus_mask(rows: int, cols: int) -> np.ndarray:
    """Periodic ``rows x cols`` grid, node ``r * cols + c``.

    A side of length 1 adds no links along it and a side of length 2 one
    link, so a 1 x n torus is the n-cycle.
    """
    n = rows * cols
    nodes = np.arange(n)
    r, c = np.divmod(nodes, cols)
    mask = np.eye(n, dtype=bool)
    for down, right in ((1, 0), (0, 1)):
        other = (r + down) % rows * cols + (c + right) % cols
        mask[nodes, other] = mask[other, nodes] = True
    return mask


def _generate_torus(
    n: int, rng: np.random.Generator, *, rows: Optional[int] = None,
    cols: Optional[int] = None,
) -> np.ndarray:
    if rows is None and cols is None:
        rows, cols = _near_square_factors(n)
    elif rows is None:
        rows = n // int(cols)  # type: ignore[arg-type]
    elif cols is None:
        cols = n // int(rows)
    rows, cols = int(rows), int(cols)  # type: ignore[arg-type]
    if rows < 1 or cols < 1 or rows * cols != n:
        raise ValueError(
            f"topology 'torus' needs rows*cols == n, got rows={rows} cols={cols} n={n}"
        )
    if min(rows, cols) == 1 and max(rows, cols) < 3:
        raise ValueError(f"topology 'torus' needs at least 3 nodes per ring, got {n}")
    return _torus_mask(rows, cols)


def _generate_random_regular(
    n: int, rng: np.random.Generator, *, degree: int = 4
) -> np.ndarray:
    degree = int(degree)
    if degree < 1 or degree >= n:
        raise ValueError(
            f"topology 'random-regular' needs 1 <= degree < n, got degree={degree} n={n}"
        )
    if (n * degree) % 2:
        raise ValueError(
            f"topology 'random-regular' needs n*degree even, got n={n} degree={degree}; "
            f"use degree={degree + 1} or an even n"
        )
    # The complement of a k-regular graph is (n - 1 - k)-regular.  The
    # pairing stalls near the complete graph, which is where the n - t
    # quorum puts the degree (n - 2 at t = 1), so pair the sparser side.
    sparse = min(degree, n - 1 - degree)
    mask = _pairing_mask(n, sparse, rng)
    if sparse < degree:
        mask = ~mask
        np.fill_diagonal(mask, True)
    return mask


def _pairing_mask(n: int, degree: int, rng: np.random.Generator) -> np.ndarray:
    """Steger and Wormald's (1999) random ``degree``-regular mask.

    Pair the open stubs at random, keep every pair that adds a new edge
    (the first of repeated pairs) and re-pair the rest.  Restart only
    when no new edge is possible among the open stubs: a pairing that
    restarts on any self-loop or repeated edge finished in about 2% of
    attempts already at n = 16, degree 4.
    """
    while True:
        mask = np.eye(n, dtype=bool)
        stubs = np.repeat(np.arange(n), degree)
        while stubs.size:
            pairs = np.sort(rng.permutation(stubs).reshape(-1, 2), axis=1)
            u, v = pairs[:, 0], pairs[:, 1]
            keep = np.zeros(len(pairs), dtype=bool)
            keep[np.unique(u * n + v, return_index=True)[1]] = True
            keep &= ~mask[u, v]
            mask[u[keep], v[keep]] = mask[v[keep], u[keep]] = True
            stubs = pairs[~keep].ravel()
            open_nodes = np.unique(stubs)
            if stubs.size and mask[np.ix_(open_nodes, open_nodes)].all():
                break
        else:
            return mask


def _generate_clusters(
    n: int, rng: np.random.Generator, *, clusters: int = 2, bridges: int = 1
) -> np.ndarray:
    """Geographic clusters: dense groups bridged into a ring of clusters.

    Nodes are split into ``clusters`` contiguous, near-equal groups, each
    internally complete; consecutive clusters (cyclically) are joined by
    ``bridges`` seeded random cross edges.  ``bridges=0`` deliberately
    builds a *disconnected* graph (it fails validation) — useful for
    exercising the diagnostics.
    """
    clusters, bridges = int(clusters), int(bridges)
    if not 1 <= clusters <= n:
        raise ValueError(
            f"topology 'clusters' needs 1 <= clusters <= n, got clusters={clusters} n={n}"
        )
    if bridges < 0:
        raise ValueError(f"topology 'clusters' needs bridges >= 0, got {bridges}")
    bounds = np.linspace(0, n, clusters + 1).astype(int)
    group = np.repeat(np.arange(clusters), np.diff(bounds))
    mask = group[:, None] == group[None, :]
    if clusters > 1 and bridges:
        for i in range(clusters if clusters > 2 else 1):
            j = (i + 1) % clusters
            for _ in range(bridges):
                u = bounds[i] + int(rng.integers(bounds[i + 1] - bounds[i]))
                v = bounds[j] + int(rng.integers(bounds[j + 1] - bounds[j]))
                mask[u, v] = mask[v, u] = True
    return mask


_GENERATORS = {
    "complete": _generate_complete,
    "ring": _generate_ring,
    "torus": _generate_torus,
    "random-regular": _generate_random_regular,
    "clusters": _generate_clusters,
}

#: Topology names accepted by :func:`make_topology` (and the
#: ``ExperimentConfig.topology`` field / sweep axis).
TOPOLOGY_NAMES: Tuple[str, ...] = tuple(_GENERATORS)

#: Convenience aliases resolved by :func:`resolve_topology_name`.
_ALIASES = {"expander": "random-regular", "random_regular": "random-regular"}


def resolve_topology_name(name: str) -> str:
    """Canonical generator name for ``name`` (aliases resolved)."""
    key = str(name).strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _GENERATORS:
        raise ValueError(
            f"unknown topology {name!r}; supported: {TOPOLOGY_NAMES} "
            f"(aliases: {tuple(sorted(_ALIASES))})"
        )
    return key


def make_topology(name: str, n: int, *, seed: int = 0, **kwargs) -> "Topology":
    """Build a named topology over ``n`` nodes, seeded and deterministic.

    ``kwargs`` are generator-specific: ``torus`` takes ``rows``/``cols``
    (default: the near-square factorisation of ``n``), ``random-regular``
    takes ``degree`` (default 4), ``clusters`` takes ``clusters``
    (default 2) and ``bridges`` (cross edges between consecutive
    clusters, default 1).  The same ``(name, n, seed, kwargs)`` always
    yields the same graph.  Connectivity is checked here — a generator
    parameterised into a disconnected graph fails fast with the
    :func:`validate_topology` diagnostic instead of silently starving
    components mid-run.
    """
    key = resolve_topology_name(name)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    try:
        mask = _GENERATORS[key](n, rng, **kwargs)
    except TypeError as exc:
        raise ValueError(f"bad topology kwargs for {key!r}: {exc}") from None
    topology = Topology(key, mask)
    validate_topology(topology, n)
    return topology


# -- validation ---------------------------------------------------------------

def validate_topology(topology: Topology, n: int, *, t: Optional[int] = None) -> None:
    """Structural diagnostics for a topology, with actionable errors.

    Always checked: the topology is over ``n`` nodes and the graph is
    **connected** — a disconnected topology silently partitions the
    protocol (each component converges on its own, which looks like a
    successful run while being a different experiment entirely).

    With ``t`` given, additionally checks **quorum feasibility** for
    full approximate agreement: every node must be able to receive the
    ``n - t`` quorum, i.e. have closed degree (neighbours + self) of at
    least ``n - t``.  Sparser graphs are still usable with gossip-style
    neighbourhood averaging (``exchange='gossip'``), which only needs
    connectivity.
    """
    if topology.n != n:
        raise ValueError(f"topology is over n={topology.n} nodes but n={n} was expected")
    components = topology.connected_components()
    if len(components) > 1:
        preview = ", ".join(str(c[:6]) for c in components[:3])
        raise ValueError(
            f"topology {topology.name!r} is disconnected "
            f"({len(components)} components: {preview}...); messages can never "
            f"cross components, so the protocol silently degenerates to "
            f"per-component runs.  Add bridging edges (clusters topology: "
            f"bridges >= 1) or pick a connected generator."
        )
    if t is not None:
        quorum = n - int(t)
        closed = topology.min_degree + 1
        if closed < quorum:
            worst = int(topology.degrees.argmin())
            raise ValueError(
                f"topology {topology.name!r} cannot sustain the agreement "
                f"quorum: node {worst} can receive at most {closed} messages "
                f"per round (closed degree) but n - t = {n} - {t} = {quorum} "
                f"are required.  Use a denser topology (e.g. "
                f"random-regular with degree >= {quorum - 1}) or switch the "
                f"trainer to exchange='gossip', which only needs connectivity."
            )
