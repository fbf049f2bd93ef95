"""Bitonic counting networks (Aspnes, Herlihy & Shavit 1994) on a graph.

The paper names counting networks as the most prominent distributed
counting solution, so the portfolio includes one: the bitonic network
``Bitonic[w]``, built by the AHS recursion —

* ``Bitonic[2k]`` = two ``Bitonic[k]`` on the input halves followed by a
  ``Merger[2k]``;
* ``Merger[2k]`` routes the *even* wires of its first input half together
  with the *odd* wires of its second half into one ``Merger[k]``, the
  remaining wires into another, and joins corresponding outputs with a
  final layer of balancers.

Each balancer is a toggle: incoming tokens alternately exit on its top
and bottom output.  Output wire ``j`` (0-indexed) hands out the values
``j+1, j+1+w, j+1+2w, ...``; the step property of counting networks
guarantees the union over all wires is exactly ``1..x`` for ``x`` tokens.

For the distributed experiments the balancers are *embedded* on the
communication graph (balancer ``b`` lives on node ``b mod n``) and tokens
travel between hosts as routed messages subject to the model's one
message per round restriction; a requester's delay is the round its
assigned value arrives back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.problem import CountingResult
from repro.sim import Message, Node, NodeContext, run_protocol
from repro.topology.base import Graph
from repro.topology.properties import check_vertices, next_hops_toward

# A token's next destination: ("bal", balancer id) or ("wire", output index).
Entity = tuple[str, int]


@dataclass
class Balancer:
    """One toggle balancer of the network.

    Attributes:
        bal_id: creation index (also determines its host node).
        out: the two downstream entities; ``out[0]`` is taken first.
        toggle: next output to use (flips on every token).
    """

    bal_id: int
    out: list[Entity | None] = field(default_factory=lambda: [None, None])
    toggle: int = 0

    def step(self) -> Entity:
        """Pass one token: returns the downstream entity, flips the toggle."""
        target = self.out[self.toggle]
        assert target is not None, "balancer wired incompletely"
        self.toggle ^= 1
        return target


@dataclass(frozen=True)
class BitonicNetwork:
    """The assembled network.

    Attributes:
        width: number of input/output wires (a power of two).
        balancers: all balancers, indexed by ``bal_id``.
        entries: for each input wire, the first entity a token visits.
    """

    width: int
    balancers: tuple[Balancer, ...]
    entries: tuple[Entity, ...]

    def fresh(self) -> "BitonicNetwork":
        """A copy with all toggles reset (balancer wiring shared structure is
        rebuilt so independent runs do not interfere)."""
        return bitonic_network(self.width)


def bitonic_network(width: int) -> BitonicNetwork:
    """Construct ``Bitonic[width]`` (width must be a power of two >= 1)."""
    if width < 1 or width & (width - 1):
        raise ValueError(f"width must be a power of two, got {width}")
    balancers: list[Balancer] = []

    def new_balancer() -> Balancer:
        b = Balancer(bal_id=len(balancers))
        balancers.append(b)
        return b

    # Sub-networks are built input-to-output with deferred wiring: a
    # sub-network is (entry entities, exit ports).  An exit port is
    # ("balside", balancer, side) — connected later — or ("open",) for a
    # width-1 bare wire whose entry *is* whatever the exit connects to.
    Exit = tuple

    def merger(k2: int) -> tuple[list[Entity], list[Exit]]:
        """AHS ``Merger[k2]`` (k2 >= 2, power of two).

        Returns (input entities, exit ports): tokens for input wire ``i``
        are sent to ``entities[i]``.
        """
        if k2 == 2:
            b = new_balancer()
            ent: Entity = ("bal", b.bal_id)
            return [ent, ent], [("balside", b, 0), ("balside", b, 1)]
        k = k2 // 2
        # Even wires of the first half + odd wires of the second half feed
        # one sub-merger; the complementary wires feed the other.
        even_ids = [i for i in range(k) if i % 2 == 0] + [
            k + j for j in range(k) if j % 2 == 1
        ]
        odd_ids = [i for i in range(k) if i % 2 == 1] + [
            k + j for j in range(k) if j % 2 == 0
        ]
        ev_in, ev_exits = merger(k)
        od_in, od_exits = merger(k)
        resolved: list[Entity] = [("bal", -1)] * k2
        for pos, i in enumerate(even_ids):
            resolved[i] = ev_in[pos]
        for pos, i in enumerate(odd_ids):
            resolved[i] = od_in[pos]
        # Final layer: join output t of the two sub-mergers.
        exits: list[Exit] = []
        for t in range(k):
            b = new_balancer()
            ent = ("bal", b.bal_id)
            for ex in (ev_exits[t], od_exits[t]):
                _, bal, side = ex
                bal.out[side] = ent
            exits.append(("balside", b, 0))
            exits.append(("balside", b, 1))
        return resolved, exits

    def join(sub_entry: Entity | None, sub_exit: Exit, down: Entity) -> Entity:
        """Connect a sub-network exit wire to the downstream entity."""
        if sub_exit[0] == "open":
            return down  # width-1 subnetwork: entry == downstream entity
        _, bal, side = sub_exit
        bal.out[side] = down
        assert sub_entry is not None
        return sub_entry

    def bitonic(w: int) -> tuple[list[Entity | None], list[Exit]]:
        if w == 1:
            return [None], [("open",)]
        half = w // 2
        top_in, top_ex = bitonic(half)
        bot_in, bot_ex = bitonic(half)
        m_in, m_ex = merger(w)
        ins: list[Entity | None] = [None] * w
        for i in range(half):
            ins[i] = join(top_in[i], top_ex[i], m_in[i])
            ins[half + i] = join(bot_in[i], bot_ex[i], m_in[half + i])
        return ins, m_ex

    ins, exits = bitonic(width)
    entries: list[Entity] = []
    for i in range(width):
        if ins[i] is None:
            # Only possible for width == 1 (a bare wire network).
            assert exits[i][0] == "open"
            entries.append(("wire", i))
        else:
            entries.append(ins[i])
    # Connect the final exits to output wires.
    for j, ex in enumerate(exits):
        if ex[0] == "open":
            continue
        _, bal, side = ex
        bal.out[side] = ("wire", j)
    return BitonicNetwork(
        width=width, balancers=tuple(balancers), entries=tuple(entries)
    )


def network_depth(net: BitonicNetwork) -> int:
    """Longest balancer chain any token can traverse (DAG longest path)."""
    memo: dict[int, int] = {}

    def depth_from(entity: Entity) -> int:
        kind, idx = entity
        if kind == "wire":
            return 0
        if idx in memo:
            return memo[idx]
        b = net.balancers[idx]
        memo[idx] = -1  # cycle guard
        d = 1 + max(depth_from(b.out[0]), depth_from(b.out[1]))
        memo[idx] = d
        return d

    return max((depth_from(e) for e in net.entries), default=0)


# --------------------------------------------------------------------------
# Distributed execution on a communication graph
# --------------------------------------------------------------------------


class _CNetNode(Node):
    """A node hosting a share of the network's balancers and output wires.

    Messages (kind ``cnet``): payload ``(origin, entity)`` where entity is
    ``("bal", id)``, ``("wire", j)``, or ``("val", value)`` for the reply
    leg back to ``origin``.
    """

    __slots__ = ("requesting", "shared")

    def __init__(self, node_id: int, requesting: bool, shared: "_SharedState") -> None:
        super().__init__(node_id)
        self.requesting = requesting
        self.shared = shared

    def _host(self, entity: tuple) -> int:
        if entity[0] == "val":
            raise AssertionError("reply host is the origin")
        return entity[1] % self.shared.n

    def _forward(self, origin: int, entity: tuple, dest: int, ctx: NodeContext) -> None:
        nxt = next_hops_toward(self.shared.graph, dest)[self.node_id]
        ctx.send(nxt, "cnet", payload=(origin, entity))

    def _process_local(self, origin: int, entity: tuple, ctx: NodeContext) -> None:
        """Advance a token through everything hosted on this node."""
        shared = self.shared
        while True:
            kind = entity[0]
            if kind == "bal":
                entity = shared.net.balancers[entity[1]].step()
                dest = self._host(entity)
                if dest != self.node_id:
                    self._forward(origin, entity, dest, ctx)
                    return
            elif kind == "wire":
                j = entity[1]
                value = j + 1 + shared.net.width * shared.out_counts[j]
                shared.out_counts[j] += 1
                if origin == self.node_id:
                    ctx.complete(origin, result=value)
                    return
                entity = ("val", value)
                self._forward(origin, entity, origin, ctx)
                return
            else:  # "val" — we are not the origin; keep forwarding
                self._forward(origin, entity, origin, ctx)
                return

    def on_start(self, ctx: NodeContext) -> None:
        if not self.requesting:
            return
        entity = self.shared.net.entries[self.node_id % self.shared.net.width]
        dest = self._host(entity)
        if dest == self.node_id:
            self._process_local(self.node_id, entity, ctx)
        else:
            self._forward(self.node_id, entity, dest, ctx)

    def on_receive(self, msg: Message, ctx: NodeContext) -> None:
        if msg.kind != "cnet":  # pragma: no cover - defensive
            raise ValueError(f"unexpected message kind {msg.kind!r}")
        origin, entity = msg.payload
        if entity[0] == "val":
            if origin == self.node_id:
                ctx.complete(origin, result=entity[1])
            else:
                self._forward(origin, entity, origin, ctx)
            return
        if self._host(entity) == self.node_id:
            self._process_local(origin, entity, ctx)
        else:
            self._forward(origin, entity, self._host(entity), ctx)


class _SharedState:
    """Shortest-path routing plus the (mutable) embedded network state.

    Routing tables are the free initialization step's knowledge of the
    graph, cached on the graph itself; the balancer toggles and output
    counters are the distributed state, each touched only by its host
    node.
    """

    def __init__(self, graph: Graph, net: BitonicNetwork) -> None:
        self.net = net
        self.n = graph.n
        self.graph = graph
        self.out_counts = [0] * net.width


def run_counting_network(
    graph: Graph,
    requests: Iterable[int],
    *,
    width: int | None = None,
    **options: Any,
) -> CountingResult:
    """Run bitonic-counting-network counting on a graph; output verified.

    Args:
        graph: communication graph (balancer ``b`` is hosted on node
            ``b mod n``; requester ``v`` enters on wire ``v mod width``).
        requests: requesting vertices.
        width: network width (power of two; default: largest power of two
            ``<= n``).
        **options: run options, forwarded to
            :func:`repro.sim.run_protocol`.
    """
    if width is None:
        width = 1 << max(0, graph.n.bit_length() - 1)
    return _run_embedded_network(
        graph, requests, bitonic_network(width), f"cnet(w={width})", options
    )


def _run_embedded_network(
    graph: Graph,
    requests: Iterable[int],
    net_struct: BitonicNetwork,
    algorithm: str,
    options: dict[str, Any],
) -> CountingResult:
    """Count through ``net_struct`` embedded on ``graph``; output verified.

    The runner behind :func:`run_counting_network` and
    :func:`repro.counting.periodic.run_periodic_counting`, which differ
    only in the wiring.
    """
    req = tuple(sorted(set(requests)))
    check_vertices(graph, req)
    shared = _SharedState(graph, net_struct)
    req_set = set(req)
    nodes = {
        v: _CNetNode(v, requesting=(v in req_set), shared=shared)
        for v in graph.vertices()
    }
    net = run_protocol(graph, nodes, send_capacity=1, recv_capacity=1, **options)
    return CountingResult.of(algorithm, req, net)
