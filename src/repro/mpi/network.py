"""Traffic accounting and the torus network performance model.

The relay mesh method is a communication-pattern optimization: its win
comes from replacing one global all-to-all (in which every FFT process
receives from ~p^(2/3) senders, ~4000 at the paper's scale, congesting
the network) with two local exchanges.  To reproduce that effect without
82944 nodes, every message sent through :class:`repro.mpi.comm.Comm` is
logged, and :class:`TorusNetwork` converts a phase's message list into
modeled time on a 3-D torus with dimension-order routing:

    t = max(busiest-link bytes, busiest-endpoint bytes) / bandwidth
        + latency * (max messages handled by one endpoint)

This captures exactly the two effects the paper describes — endpoint
serialization at the FFT processes and link congestion near them.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["Message", "PhaseTraffic", "TrafficLog", "TorusNetwork"]


@dataclass(frozen=True)
class Message:
    """One point-to-point transfer."""

    src: int
    dst: int
    nbytes: int


@dataclass
class PhaseTraffic:
    """All messages recorded during one named communication phase."""

    name: str
    messages: List[Message] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(m.nbytes for m in self.messages)

    @property
    def n_messages(self) -> int:
        return len(self.messages)

    def max_senders_per_receiver(self) -> int:
        """The paper's congestion diagnostic: how many distinct sources
        target the busiest receiver (~4000 for the naive mesh
        conversion on 82944 processes)."""
        senders: Dict[int, set] = defaultdict(set)
        for m in self.messages:
            if m.src != m.dst:
                senders[m.dst].add(m.src)
        return max((len(s) for s in senders.values()), default=0)


class TrafficLog:
    """Thread-safe message recorder with named phases.

    Ranks of one runtime share a single log; phase boundaries are set
    from SPMD code between barriers (see ``Comm.traffic_phase``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._phases: List[PhaseTraffic] = [PhaseTraffic("startup")]

    def record(self, src: int, dst: int, nbytes: int) -> None:
        with self._lock:
            self._phases[-1].messages.append(Message(src, dst, nbytes))

    def begin_phase(self, name: str) -> None:
        with self._lock:
            self._phases.append(PhaseTraffic(name))

    def phase(self, name: str) -> PhaseTraffic:
        """The most recent phase with the given name."""
        with self._lock:
            for ph in reversed(self._phases):
                if ph.name == name:
                    return ph
        raise KeyError(f"no traffic phase named {name!r}")

    def phases(self) -> List[PhaseTraffic]:
        with self._lock:
            return list(self._phases)

    def merged(self, names: Iterable[str]) -> PhaseTraffic:
        """Union of all phases whose name is in ``names``."""
        wanted = set(names)
        out = PhaseTraffic("+".join(sorted(wanted)))
        with self._lock:
            for ph in self._phases:
                if ph.name in wanted:
                    out.messages.extend(ph.messages)
        return out


class TorusNetwork:
    """3-D torus with dimension-order routing and a congestion model.

    Parameters
    ----------
    shape:
        Torus dimensions ``(nx, ny, nz)``; ranks map to coordinates in
        row-major order (rank = x * ny * nz + y * nz + z), mirroring
        how the paper aligns the domain decomposition with "the
        physical nodes of K computer".
    link_bandwidth:
        Per-link, per-direction bandwidth in bytes/s (Tofu: 5 GB/s).
    link_latency:
        Per-message software + wire latency in seconds.
    """

    def __init__(
        self,
        shape: Sequence[int],
        link_bandwidth: float = 5.0e9,
        link_latency: float = 1.0e-6,
    ) -> None:
        if len(shape) != 3 or any(s < 1 for s in shape):
            raise ValueError("shape must be three positive integers")
        if link_bandwidth <= 0 or link_latency < 0:
            raise ValueError("invalid bandwidth/latency")
        self.shape = tuple(int(s) for s in shape)
        self.link_bandwidth = float(link_bandwidth)
        self.link_latency = float(link_latency)
        self.n_nodes = self.shape[0] * self.shape[1] * self.shape[2]

    # -- geometry -------------------------------------------------------------

    def coord(self, rank: int) -> Tuple[int, int, int]:
        nx, ny, nz = self.shape
        if not 0 <= rank < self.n_nodes:
            raise ValueError(f"rank {rank} outside torus of {self.n_nodes} nodes")
        return (rank // (ny * nz), (rank // nz) % ny, rank % nz)

    def rank_of(self, coord: Sequence[int]) -> int:
        nx, ny, nz = self.shape
        x, y, z = (coord[0] % nx, coord[1] % ny, coord[2] % nz)
        return x * ny * nz + y * nz + z

    def _steps(self, a: int, b: int, n: int) -> List[Tuple[int, int]]:
        """Unit steps from a to b along one periodic dimension, taking
        the shorter way around; each step is (from, to)."""
        if a == b:
            return []
        fwd = (b - a) % n
        if fwd <= n - fwd:
            seq = [(a + i) % n for i in range(fwd + 1)]
        else:
            seq = [(a - i) % n for i in range(n - fwd + 1)]
        return list(zip(seq[:-1], seq[1:]))

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Dimension-order (x, then y, then z) route as directed
        node-pair links."""
        if src == dst:
            return []
        sx, sy, sz = self.coord(src)
        dx, dy, dz = self.coord(dst)
        links: List[Tuple[int, int]] = []
        cur = (sx, sy, sz)
        for axis, target in ((0, dx), (1, dy), (2, dz)):
            for a, b in self._steps(cur[axis], target, self.shape[axis]):
                frm = list(cur)
                to = list(cur)
                frm[axis] = a
                to[axis] = b
                links.append((self.rank_of(frm), self.rank_of(to)))
                cur = tuple(to)
        return links

    # -- performance model -----------------------------------------------------

    def phase_time(self, phase: PhaseTraffic) -> "ModeledPhaseTime":
        """Modeled wall-clock time of a communication phase.

        All messages of the phase are assumed concurrent (the phase is
        bracketed by barriers in the algorithms that use this model).
        """
        link_bytes: Dict[Tuple[int, int], int] = defaultdict(int)
        node_tx: Dict[int, int] = defaultdict(int)
        node_rx: Dict[int, int] = defaultdict(int)
        node_msgs: Dict[int, int] = defaultdict(int)
        for m in phase.messages:
            if m.src == m.dst:
                continue  # local copy, no network involvement
            for link in self.route(m.src, m.dst):
                link_bytes[link] += m.nbytes
            node_tx[m.src] += m.nbytes
            node_rx[m.dst] += m.nbytes
            node_msgs[m.src] += 1
            node_msgs[m.dst] += 1

        max_link = max(link_bytes.values(), default=0)
        max_endpoint = max(
            max(node_tx.values(), default=0), max(node_rx.values(), default=0)
        )
        max_msgs = max(node_msgs.values(), default=0)
        bw_time = max(max_link, max_endpoint) / self.link_bandwidth
        lat_time = self.link_latency * max_msgs
        return ModeledPhaseTime(
            name=phase.name,
            bandwidth_seconds=bw_time,
            latency_seconds=lat_time,
            max_link_bytes=max_link,
            max_endpoint_bytes=max_endpoint,
            max_messages_per_node=max_msgs,
            total_bytes=phase.total_bytes,
            n_messages=phase.n_messages,
        )


@dataclass
class ModeledPhaseTime:
    """Breakdown of the modeled time of one communication phase."""

    name: str
    bandwidth_seconds: float
    latency_seconds: float
    max_link_bytes: int
    max_endpoint_bytes: int
    max_messages_per_node: int
    total_bytes: int
    n_messages: int

    @property
    def seconds(self) -> float:
        return self.bandwidth_seconds + self.latency_seconds
