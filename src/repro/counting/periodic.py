"""The periodic counting network (Aspnes, Herlihy & Shavit 1994, Section 4).

The second classic counting network: ``Periodic[w]`` is ``log2 w``
cascaded copies of a single ``Block[w]`` network.  ``Block[2k]`` splits
its inputs by parity — even-indexed wires into one ``Block[k]``, odd-
indexed wires into the other — and joins output ``t`` of the two
sub-blocks with a final balancer whose outputs are wires ``2t`` and
``2t + 1``.  Each block has ``log2 w`` balancer layers, so the periodic
network has depth ``(log2 w)^2`` — deeper than bitonic's
``log w (log w + 1)/2`` but with a uniform, pipeline-friendly structure
(the property that made it attractive in the original paper).

The construction reuses :class:`~repro.counting.network.Balancer` /
:class:`~repro.counting.network.BitonicNetwork` containers and the
distributed embedding runner, so ``run_periodic_counting`` behaves
exactly like ``run_counting_network`` with the other wiring.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.problem import CountingResult
from repro.counting.network import (
    Balancer,
    BitonicNetwork,
    Entity,
    _run_embedded_network,
)
from repro.topology.base import Graph


def periodic_block(width: int, balancers: list[Balancer]) -> tuple[list[Entity], list[tuple]]:
    """One ``Block[width]``: returns (input entities, exit ports).

    Exit ports are ``("balside", balancer, side)`` (or ``("open",)`` for
    width 1), to be connected by the caller.
    """
    if width == 1:
        return [("wire", 0)], [("open",)]

    def new_balancer() -> Balancer:
        b = Balancer(bal_id=len(balancers))
        balancers.append(b)
        return b

    def block(w: int) -> tuple[list[Entity | None], list[tuple]]:
        # Block[w] = one "reversal" layer of balancers pairing wire i with
        # its mirror w-1-i, followed by Block[w/2] on each half — the
        # balanced merger of Dowd, Perl, Rudolph & Saks that AHS build the
        # periodic counting network from.
        if w == 1:
            return [None], [("open",)]
        k = w // 2
        layer = [new_balancer() for _ in range(k)]
        ins: list[Entity | None] = [None] * w
        for i, b in enumerate(layer):
            ins[i] = ("bal", b.bal_id)
            ins[w - 1 - i] = ("bal", b.bal_id)
        top_in, top_exits = block(k)
        bot_in, bot_exits = block(k)
        # Balancer i's top output continues on top-half wire i; its bottom
        # output continues on bottom-half wire w-1-i (= position k-1-i of
        # the bottom sub-block).
        for i, b in enumerate(layer):
            if top_in[i] is not None:
                b.out[0] = top_in[i]
            if bot_in[k - 1 - i] is not None:
                b.out[1] = bot_in[k - 1 - i]
        exits: list[tuple] = []
        for j in range(k):
            ex = top_exits[j]
            exits.append(("balside", layer[j], 0) if ex[0] == "open" else ex)
        for j in range(k):
            ex = bot_exits[j]
            exits.append(("balside", layer[k - 1 - j], 1) if ex[0] == "open" else ex)
        return ins, exits

    ins, exits = block(width)
    assert all(e is not None for e in ins)
    return ins, exits  # type: ignore[return-value]


def periodic_network(width: int) -> BitonicNetwork:
    """Construct ``Periodic[width]`` = ``log2(width)`` cascaded blocks.

    Returns the same container type as :func:`bitonic_network`, so depth
    computation and the distributed runner apply unchanged.
    """
    if width < 1 or width & (width - 1):
        raise ValueError(f"width must be a power of two, got {width}")
    if width == 1:
        return BitonicNetwork(width=1, balancers=(), entries=(("wire", 0),))

    stages = max(1, width.bit_length() - 1)  # log2 w blocks
    balancers: list[Balancer] = []
    entries: list[Entity] | None = None
    prev_exits: list[tuple] | None = None
    for _ in range(stages):
        ins, exits = periodic_block(width, balancers)
        if entries is None:
            entries = list(ins)
        else:
            assert prev_exits is not None
            for wire, ex in enumerate(prev_exits):
                _, bal, side = ex
                bal.out[side] = ins[wire]
        prev_exits = exits
    assert entries is not None and prev_exits is not None
    for j, ex in enumerate(prev_exits):
        _, bal, side = ex
        bal.out[side] = ("wire", j)
    return BitonicNetwork(
        width=width, balancers=tuple(balancers), entries=tuple(entries)
    )


def run_periodic_counting(
    graph: Graph,
    requests: Iterable[int],
    *,
    width: int | None = None,
    **options: Any,
) -> CountingResult:
    """Distributed counting through an embedded periodic network.

    Same embedding, delay accounting and run options as
    :func:`repro.counting.network.run_counting_network`.
    """
    if width is None:
        width = 1 << max(0, graph.n.bit_length() - 1)
    return _run_embedded_network(
        graph, requests, periodic_network(width), f"periodic(w={width})", options
    )
