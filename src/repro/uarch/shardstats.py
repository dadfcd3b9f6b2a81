"""Detailed per-shard statistics consumed by the timing model.

These are the simulator's *richer* view of a shard: full stack-distance
arrays and window-constrained dataflow schedules rather than the thirteen
scalar summaries the regression models see (Table 1).  Keeping the two
views separate is what makes the inference problem real — the model must
generalize from lossy summaries to performance produced by the full
distributions (DESIGN.md §1).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

import numpy as np

from repro.isa.instructions import FU_LATENCY
from repro.isa.trace import Trace
from repro.profiling.reuse import stack_distances
from repro.uarch.config import ROB_LEVELS


@dataclasses.dataclass(frozen=True)
class ShardStats:
    """Everything the interval timing model needs about one shard."""

    name: str
    n: int
    opclass_counts: np.ndarray            # per OpClass
    taken: int
    mispredicts: int
    data_stack: np.ndarray                # sorted LRU stack distances, data, 64B
    inst_stack: np.ndarray                # sorted LRU stack distances, inst, 64B
    n_data_accesses: int
    n_inst_accesses: int
    dataflow_cycles: Dict[int, float]     # ROB window -> dataflow-limited cycles


#: Value assigned to cold (first-touch) stack distances.  It exceeds any
#: feasible cache capacity, so cold accesses miss everywhere.
COLD = np.int64(2**62)


def compute_shard_stats(shard: Trace) -> ShardStats:
    """Measure the timing model's detailed statistics on one shard."""
    n = len(shard)
    if n == 0:
        raise ValueError("cannot compute statistics for an empty shard")

    mem_addrs = shard.addr[shard.memory_mask()]
    data_stack, _ = stack_distances(mem_addrs, block_bytes=64)
    inst_stack, _ = stack_distances(shard.iaddr, block_bytes=64)

    return ShardStats(
        name=shard.name,
        n=n,
        opclass_counts=shard.opclass_counts(),
        taken=int(shard.taken.sum()),
        mispredicts=int(shard.miss.sum()),
        data_stack=np.sort(data_stack),
        inst_stack=np.sort(inst_stack),
        n_data_accesses=len(mem_addrs),
        n_inst_accesses=n,
        dataflow_cycles={
            rob: _dataflow_cycles(shard, rob) for rob in ROB_LEVELS
        },
    )


def compute_shard_stats_many(shards: Sequence[Trace]) -> List[ShardStats]:
    """:func:`compute_shard_stats` for many shards, batched.

    The data and instruction stack-distance passes of all shards run
    through :func:`repro.kernels.batched.stack_distances_many` — one
    vectorized pass per chunk instead of one per stream — producing
    bit-identical distances (and therefore identical sorted stacks).
    The dataflow schedules remain per-shard; they are inherently
    sequential.
    """
    from repro.kernels.batched import stack_distances_many_addresses

    if not shards:
        return []
    for shard in shards:
        if len(shard) == 0:
            raise ValueError("cannot compute statistics for an empty shard")
    mem_addrs = [shard.addr[shard.memory_mask()] for shard in shards]
    stacks = stack_distances_many_addresses(
        [*mem_addrs, *(shard.iaddr for shard in shards)], block_bytes=64
    )
    out: List[ShardStats] = []
    for i, shard in enumerate(shards):
        data_stack = stacks[i][0]
        inst_stack = stacks[len(shards) + i][0]
        out.append(
            ShardStats(
                name=shard.name,
                n=len(shard),
                opclass_counts=shard.opclass_counts(),
                taken=int(shard.taken.sum()),
                mispredicts=int(shard.miss.sum()),
                data_stack=np.sort(data_stack),
                inst_stack=np.sort(inst_stack),
                n_data_accesses=len(mem_addrs[i]),
                n_inst_accesses=len(shard),
                dataflow_cycles={
                    rob: _dataflow_cycles(shard, rob) for rob in ROB_LEVELS
                },
            )
        )
    return out


def _dataflow_cycles(shard: Trace, window: int) -> float:
    """Window-constrained dataflow schedule length, in cycles.

    Classic dataflow-limit model: instruction *i* completes at

        ``finish[i] = latency(op_i) + max(finish[i - dep_i], retire[i - W])``

    The first term chains true dependences; the second enforces the reorder
    buffer with in-order retirement semantics: *i* cannot enter the window
    until the instruction *W* slots ahead of it has *retired*, and the
    retire time is the running maximum of finish times (retirement is in
    order).  With fully independent instructions this converges to the
    W/latency ILP bound; with tight chains it degenerates to the critical
    path.  Using the retire (prefix-max) time also makes the schedule
    provably monotone in the window size.  Functional-unit contention,
    fetch width, branch and memory penalties are layered on top by
    :mod:`repro.uarch.pipeline`.
    """
    ops = shard.op
    deps = shard.dep
    n = len(ops)
    if n == 0:
        return 0.0
    lat = FU_LATENCY[ops].tolist()
    dep_list = deps.tolist()
    finish = [0.0] * n
    retire = [0.0] * n  # prefix max of finish
    running = 0.0
    for i in range(n):
        d = dep_list[i]
        t = 0.0
        if 0 < d <= i:
            t = finish[i - d]
        if i >= window:
            tw = retire[i - window]
            if tw > t:
                t = tw
        f = t + lat[i]
        finish[i] = f
        if f > running:
            running = f
        retire[i] = running
    return running
