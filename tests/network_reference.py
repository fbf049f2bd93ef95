"""Counting networks as a sequential model, for reference.

The distributed runner (:func:`repro.counting.run_counting_network`)
moves tokens as routed messages; these functions push the same tokens
through a :class:`repro.counting.network.BitonicNetwork` with no
simulator at all, one at a time or in a seeded random interleaving.
``tests/test_counting_networks.py`` checks the bitonic and periodic
constructions against them: the values handed out must be exactly
``1..x`` under every interleaving, and the wire loads must have the step
property.
"""

from __future__ import annotations

import random

from repro.counting.network import BitonicNetwork, Entity


def traverse_sequentially(net: BitonicNetwork, tokens_per_wire: list[int]) -> list[int]:
    """Push tokens one at a time; the values handed out, in hand-out order."""
    if len(tokens_per_wire) != net.width:
        raise ValueError("tokens_per_wire must have one entry per input wire")
    out_counts = [0] * net.width
    values: list[int] = []
    for wire, cnt in enumerate(tokens_per_wire):
        for _ in range(cnt):
            entity = net.entries[wire]
            while entity[0] == "bal":
                entity = net.balancers[entity[1]].step()
            j = entity[1]
            values.append(j + 1 + net.width * out_counts[j])
            out_counts[j] += 1
    return values


def traverse_interleaved(
    net: BitonicNetwork, tokens_per_wire: list[int], seed: int = 0
) -> list[int]:
    """Concurrent traversal: tokens advance one balancer-step at a time in
    a seeded random interleaving."""
    if len(tokens_per_wire) != net.width:
        raise ValueError("tokens_per_wire must have one entry per input wire")
    rng = random.Random(seed)
    tokens: list[Entity] = []
    for wire, cnt in enumerate(tokens_per_wire):
        tokens.extend([net.entries[wire]] * cnt)
    out_counts = [0] * net.width
    values: list[int] = []
    active = list(range(len(tokens)))
    while active:
        i = active[rng.randrange(len(active))]
        entity = tokens[i]
        if entity[0] == "bal":
            tokens[i] = net.balancers[entity[1]].step()
        else:
            j = entity[1]
            values.append(j + 1 + net.width * out_counts[j])
            out_counts[j] += 1
            active.remove(i)
    return values


def output_counts_have_step_property(out_counts: list[int]) -> bool:
    """The defining property of counting networks: wire loads differ by <= 1
    and are non-increasing in wire index."""
    return all(
        out_counts[i] - out_counts[j] in (0, 1)
        for i in range(len(out_counts))
        for j in range(i + 1, len(out_counts))
    )
