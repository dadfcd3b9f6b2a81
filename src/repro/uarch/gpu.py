"""GPU-like warp-parallel interval throughput model — the second backend.

The OoO model in :mod:`repro.uarch.pipeline` answers "how long does one
instruction window take on a latency machine"; this module answers the
throughput-machine version of the same question, in the tradition of the
analytic GPU models of Hong & Kim (MWP/CWP) and the cross-machine
black-box GPU modeling of Stevens & Klöckner (PAPERS.md).  It consumes
the *same* :class:`~repro.uarch.shardstats.ShardStats` — opclass mix,
LRU stack distances, dataflow schedules — so the whole profiling, store,
and batched-kernel substrate is reused unchanged; only the assembly of
cycles from those statistics differs:

1. **Occupancy** — warps in flight per SM are limited by warp slots, by
   register-file pressure, and by shared-memory pressure; everything
   latency-shaped below divides by the warps the machine can actually
   keep resident.
2. **Compute throughput** — warp-instruction issue across SMs and SIMT
   lanes, special-function-unit contention for mul/div classes, and a
   dependence bound (the window-64 dataflow schedule) that
   multithreading across warps hides.
3. **Divergence** — taken branches serialize both sides of a warp, a
   fixed reconvergence penalty per taken branch.
4. **Memory** — L1/L2 miss counts come from the same stack-distance
   miss model as the CPU backend; *coalescing efficiency* is derived
   from the spatial locality visible in those distances (the fraction
   of accesses whose 64B-block stack distance falls inside one
   coalescing segment), which converts misses into memory transactions.
   Transaction latency is hidden by warps-in-flight up to the memory
   queue depth; DRAM bandwidth is a hard floor that no amount of
   multithreading hides.

Every component is homogeneous of degree one in the shard's counts
(CPI is scale-invariant) and monotone in the "more parallel hardware"
directions: more warps in flight, deeper memory queues, more SMs, and
wider coalescing segments can never *increase* the modeled cycle count.
The property-test suite in ``tests/test_uarch_gpu.py`` enforces both.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

import numpy as np

from repro.isa.instructions import OpClass
from repro.uarch.cachemodel import miss_counts_hierarchy
from repro.uarch.config import CACHE_BLOCK_BYTES, ROB_LEVELS
from repro.uarch.pipeline import CycleBreakdown
from repro.uarch.shardstats import ShardStats
from repro.uarch.simulator import Simulator

# Level tables for the 13 GPU hardware parameters.  Mirrors the Table 2
# convention of the CPU space: each axis spans deliberately extreme
# designs so models infer interior points more accurately.  Axes that
# have a CPU analogue sit at the same y-index with a comparable dynamic
# range (y1 issue parallelism, y2 work in flight, y5..y8 the cache
# hierarchy) while the GPU-only axes (g9..g13) span moderate ranges —
# aligned slots and comparable sensitivity profiles are what make model
# specifications portable across backends (see repro.core.transfer).
SM_LEVELS = (2, 4, 8, 16)                        # g1: streaming multiprocessors
WARP_SLOT_LEVELS = (8, 16, 24, 32, 48, 64)       # g2: resident-warp slots per SM
REGFILE_KB_LEVELS = (64, 128, 256, 512)          # g3: register file per SM
SMEM_KB_LEVELS = (16, 32, 64, 96, 128)           # g4: shared memory per SM
GPU_L1_KB_LEVELS = (16, 32, 64, 128)             # g5: L1/texture cache per SM
GPU_ICACHE_KB_LEVELS = (8, 16, 32, 64)           # g6: instruction cache per SM
GPU_L2_KB_LEVELS = (256, 512, 1024, 2048, 4096)  # g7: shared L2
GPU_L2_LATENCY_LEVELS = (20, 40, 60, 80, 100)    # g8: L2 latency (cycles)
DRAM_BPC_LEVELS = (48, 64, 96, 128)              # g9: DRAM bandwidth (bytes/cycle)
COALESCE_SEGMENT_LEVELS = (64, 128, 256)         # g10: coalescing segment (bytes)
LANE_LEVELS = (16, 24, 32)                       # g11: SIMT lanes per SM
MEMQ_LEVELS = (12, 16, 24, 32)                   # g12: outstanding-transaction queue
SFU_LEVELS = (1, 2, 4)                           # g13: special-function units per SM

_GPU_LEVEL_COUNTS = (
    len(SM_LEVELS),
    len(WARP_SLOT_LEVELS),
    len(REGFILE_KB_LEVELS),
    len(SMEM_KB_LEVELS),
    len(GPU_L1_KB_LEVELS),
    len(GPU_ICACHE_KB_LEVELS),
    len(GPU_L2_KB_LEVELS),
    len(GPU_L2_LATENCY_LEVELS),
    len(DRAM_BPC_LEVELS),
    len(COALESCE_SEGMENT_LEVELS),
    len(LANE_LEVELS),
    len(MEMQ_LEVELS),
    len(SFU_LEVELS),
)

# The GPU space reuses the y1..y13 variable names so profile datasets,
# chromosomes, and model specifications are *shape-compatible* across
# backends — the precondition for the cross-backend transfer study.
GPU_HARDWARE_VARIABLE_LABELS = {
    "y1": "streaming multiprocessors",
    "y2": "resident-warp slots per SM",
    "y3": "register file per SM (KB)",
    "y4": "shared memory per SM (KB)",
    "y5": "L1 cache per SM (KB)",
    "y6": "instruction cache per SM (KB)",
    "y7": "L2 cache size (KB)",
    "y8": "L2 latency (cycles)",
    "y9": "DRAM bandwidth (bytes/cycle)",
    "y10": "coalescing segment (bytes)",
    "y11": "SIMT lanes per SM",
    "y12": "memory queue depth per SM",
    "y13": "special-function units per SM",
}

#: Fixed workload/machine constants (not searched, like MEMORY_LATENCY on
#: the CPU side).
GPU_MEMORY_LATENCY = 400       # cycles to DRAM
WARP_THREADS = 32              # logical threads per warp
REGS_PER_THREAD = 32           # architected registers the kernel uses
SMEM_PER_BLOCK_KB = 8.0        # shared memory one thread block allocates
WARPS_PER_BLOCK = 4            # warps per thread block
DIVERGENCE_PENALTY = 8.0       # reconvergence cycles per taken branch
SFU_ISSUE_INTERVAL = 4.0       # cycles/op on a special-function unit
GPU_L1_ASSOC = 4               # fixed associativities (not a search axis)
GPU_L2_ASSOC = 8
TRANSACTION_BYTES = 32         # minimum DRAM transaction granule


@dataclasses.dataclass(frozen=True)
class GpuConfig:
    """One GPU design point.  Construct via :func:`gpu_config_from_levels`."""

    n_sm: int
    max_warps: int
    regfile_kb: int
    smem_kb: int
    l1_kb: int
    icache_kb: int
    l2_kb: int
    l2_latency: int
    dram_bpc: int
    coalesce_bytes: int
    lanes: int
    memq: int
    sfu: int
    levels: Tuple[int, ...] = None

    def as_vector(self) -> np.ndarray:
        """The 13-element hardware vector the regression models consume."""
        return np.array(
            [
                self.n_sm,
                self.max_warps,
                self.regfile_kb,
                self.smem_kb,
                self.l1_kb,
                self.icache_kb,
                self.l2_kb,
                self.l2_latency,
                self.dram_bpc,
                self.coalesce_bytes,
                self.lanes,
                self.memq,
                self.sfu,
            ],
            dtype=float,
        )

    @property
    def key(self) -> str:
        """Stable identifier for caching and reporting."""
        if self.levels is not None:
            return "gpu-" + "".join(str(l) for l in self.levels)
        return "gpu-" + "-".join(str(int(v)) for v in self.as_vector())


def gpu_config_from_levels(levels: Sequence[int]) -> GpuConfig:
    """Build a :class:`GpuConfig` from 13 per-parameter level indices."""
    levels = tuple(int(l) for l in levels)
    if len(levels) != 13:
        raise ValueError(f"expected 13 level indices, got {len(levels)}")
    for i, (level, count) in enumerate(zip(levels, _GPU_LEVEL_COUNTS)):
        if not 0 <= level < count:
            raise ValueError(
                f"level {level} out of range [0, {count}) for g{i + 1}"
            )
    sm, ws, rf, sh, l1, ic, l2, lat, bw, co, la, mq, sf = levels
    return GpuConfig(
        n_sm=SM_LEVELS[sm],
        max_warps=WARP_SLOT_LEVELS[ws],
        regfile_kb=REGFILE_KB_LEVELS[rf],
        smem_kb=SMEM_KB_LEVELS[sh],
        l1_kb=GPU_L1_KB_LEVELS[l1],
        icache_kb=GPU_ICACHE_KB_LEVELS[ic],
        l2_kb=GPU_L2_KB_LEVELS[l2],
        l2_latency=GPU_L2_LATENCY_LEVELS[lat],
        dram_bpc=DRAM_BPC_LEVELS[bw],
        coalesce_bytes=COALESCE_SEGMENT_LEVELS[co],
        lanes=LANE_LEVELS[la],
        memq=MEMQ_LEVELS[mq],
        sfu=SFU_LEVELS[sf],
        levels=levels,
    )


def gpu_design_space_size() -> int:
    """Number of distinct GPU designs in the space."""
    return int(np.prod(_GPU_LEVEL_COUNTS))


def sample_gpu_configs(n: int, rng: np.random.Generator) -> List[GpuConfig]:
    """Sample ``n`` distinct GPU configurations uniformly at random."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    seen = set()
    configs = []
    attempts = 0
    while len(configs) < n and attempts < 50 * n:
        levels = tuple(int(rng.integers(0, c)) for c in _GPU_LEVEL_COUNTS)
        attempts += 1
        if levels in seen:
            continue
        seen.add(levels)
        configs.append(gpu_config_from_levels(levels))
    if len(configs) < n:
        raise RuntimeError(f"could not sample {n} distinct configurations")
    return configs


def reference_gpu_config() -> GpuConfig:
    """A mid-range GPU used as the default in examples and tests."""
    return gpu_config_from_levels((2, 3, 2, 2, 2, 2, 2, 2, 2, 1, 2, 2, 1))


def warps_in_flight(config: GpuConfig) -> int:
    """Resident warps per SM after register and shared-memory pressure.

    The classic occupancy calculation: warp slots cap residency, each
    warp consumes ``REGS_PER_THREAD * 4 * WARP_THREADS`` bytes of
    register file, and shared memory admits whole thread blocks of
    :data:`WARPS_PER_BLOCK` warps each.
    """
    by_regs = config.regfile_kb * 1024 // (REGS_PER_THREAD * 4 * WARP_THREADS)
    by_smem = int(config.smem_kb / SMEM_PER_BLOCK_KB) * WARPS_PER_BLOCK
    return max(1, min(config.max_warps, by_regs, by_smem))


def gpu_occupancy(config: GpuConfig) -> float:
    """Fraction of warp slots actually occupied (0, 1]."""
    return warps_in_flight(config) / config.max_warps


def coalescing_fraction(stats: ShardStats, config: GpuConfig) -> float:
    """Fraction of data accesses the coalescer merges into a neighbor.

    An access whose 64B-block LRU stack distance is smaller than the
    coalescing segment (in blocks) touches a block so recently used that,
    across the lanes of a warp, it lands in an already-open segment.
    This derives spatial locality from the *existing* stack-distance
    machinery instead of requiring new trace passes, and is monotone in
    the segment size: a wider segment can only merge more accesses.
    """
    if stats.n_data_accesses == 0:
        return 1.0
    seg_blocks = max(1, config.coalesce_bytes // CACHE_BLOCK_BYTES)
    near = int(np.searchsorted(stats.data_stack, seg_blocks, side="left"))
    return near / stats.n_data_accesses


def _transactions_per_memop(stats: ShardStats, config: GpuConfig) -> float:
    """Memory transactions one warp-level memory instruction issues.

    Perfectly coalesced lanes share one transaction; fully scattered
    lanes issue one each.  Interpolates by the measured spatial
    locality, so the value lives in ``[1, lanes]``.
    """
    spatial = coalescing_fraction(stats, config)
    return 1.0 + (config.lanes - 1) * (1.0 - spatial)


def gpu_cycle_breakdown(stats: ShardStats, config: GpuConfig) -> CycleBreakdown:
    """Cycle components of ``stats`` on a GPU design.

    Returns the same :class:`CycleBreakdown` shape as the CPU backend
    (``branch`` holds the divergence component) so downstream reporting
    and the two-backend contract suite treat both models uniformly.
    """
    l1_blocks = config.l1_kb * 1024 // CACHE_BLOCK_BYTES
    l2_blocks = config.l2_kb * 1024 // CACHE_BLOCK_BYTES
    li_blocks = config.icache_kb * 1024 // CACHE_BLOCK_BYTES
    l1d_miss, l2d_miss = miss_counts_hierarchy(
        stats.data_stack, l1_blocks, GPU_L1_ASSOC, l2_blocks, GPU_L2_ASSOC
    )
    l1i_miss, l2i_miss = miss_counts_hierarchy(
        stats.inst_stack, li_blocks, GPU_L1_ASSOC, l2_blocks, GPU_L2_ASSOC
    )
    return _gpu_breakdown_from_misses(
        stats, config, l1d_miss, l2d_miss, l1i_miss, l2i_miss
    )


def _gpu_breakdown_from_misses(
    stats: ShardStats,
    config: GpuConfig,
    l1d_miss: float,
    l2d_miss: float,
    l1i_miss: float,
    l2i_miss: float,
) -> CycleBreakdown:
    """Assemble GPU cycle components from pre-computed miss counts.

    Shared by the per-pair and batched paths exactly like
    :func:`repro.uarch.pipeline._breakdown_from_misses`, so the two are
    bit-identical.
    """
    n = stats.n
    counts = stats.opclass_counts.astype(float)
    warps = warps_in_flight(config)
    # Memory parallelism: every SM keeps up to min(warps, memq) requests
    # outstanding; latency divides by the machine-wide total.
    mem_par = config.n_sm * min(warps, config.memq)
    # A warp-instruction over fewer lanes than WARP_THREADS threads takes
    # proportionally more issue slots.
    warp_cost = WARP_THREADS / config.lanes

    # --- 1. compute throughput ----------------------------------------------------
    issue = n * warp_cost / config.n_sm
    sfu_ops = counts[OpClass.FP_MULDIV] + counts[OpClass.INT_MULDIV]
    sfu = sfu_ops * SFU_ISSUE_INTERVAL * warp_cost / (config.n_sm * config.sfu)
    # In-order SIMT cores expose dependence chains; interleaving resident
    # warps hides them.  The window-64 dataflow schedule stands in for a
    # single warp's chain length.
    dep = stats.dataflow_cycles[ROB_LEVELS[0]] / (config.n_sm * warps)
    core = max(issue, sfu, dep)

    # --- 2. branch divergence -----------------------------------------------------
    branch = stats.taken * DIVERGENCE_PENALTY * warp_cost / config.n_sm

    # --- 3. data memory -----------------------------------------------------------
    txn = _transactions_per_memop(stats, config)
    l2_txn = (l1d_miss - l2d_miss) * txn
    dram_txn = l2d_miss * txn
    latency_cycles = l2_txn * config.l2_latency + dram_txn * GPU_MEMORY_LATENCY
    exposed = latency_cycles / mem_par
    # Bandwidth is a floor multithreading cannot hide.
    dram_cycles = dram_txn * TRANSACTION_BYTES / config.dram_bpc
    data_memory = max(exposed, dram_cycles)

    # --- 4. instruction memory ----------------------------------------------------
    inst_cycles = l1i_miss * config.l2_latency + l2i_miss * (
        GPU_MEMORY_LATENCY - config.l2_latency
    )
    inst_memory = inst_cycles / mem_par

    return CycleBreakdown(
        core=float(core),
        branch=float(branch),
        data_memory=float(data_memory),
        inst_memory=float(inst_memory),
    )


def gpu_cycle_breakdown_batch(
    stats: ShardStats, configs: Sequence[GpuConfig]
) -> List[CycleBreakdown]:
    """:func:`gpu_cycle_breakdown` for many designs of one shard.

    The stack-distance miss histograms run once per *distinct* cache
    geometry through the batched kernel, exactly like the CPU path.
    """
    from repro.kernels.batched import miss_counts_hierarchy_batch

    if not configs:
        return []
    l1d_blocks = np.array(
        [c.l1_kb * 1024 // CACHE_BLOCK_BYTES for c in configs], dtype=np.int64
    )
    l1i_blocks = np.array(
        [c.icache_kb * 1024 // CACHE_BLOCK_BYTES for c in configs], dtype=np.int64
    )
    l2_blocks = np.array(
        [c.l2_kb * 1024 // CACHE_BLOCK_BYTES for c in configs], dtype=np.int64
    )
    l1_assoc = np.full(len(configs), GPU_L1_ASSOC, dtype=np.int64)
    l2_assoc = np.full(len(configs), GPU_L2_ASSOC, dtype=np.int64)

    l1d, l2d = miss_counts_hierarchy_batch(
        stats.data_stack, l1d_blocks, l1_assoc, l2_blocks, l2_assoc
    )
    l1i, l2i = miss_counts_hierarchy_batch(
        stats.inst_stack, l1i_blocks, l1_assoc, l2_blocks, l2_assoc
    )
    return [
        _gpu_breakdown_from_misses(
            stats, config, float(l1d[j]), float(l2d[j]), float(l1i[j]), float(l2i[j])
        )
        for j, config in enumerate(configs)
    ]


def simulate_gpu_cpi(stats: ShardStats, config: GpuConfig) -> float:
    """Cycles per (trace) instruction of one shard on one GPU design."""
    return gpu_cycle_breakdown(stats, config).total / stats.n


def simulate_gpu_cpi_batch(
    stats: ShardStats, configs: Sequence[GpuConfig]
) -> np.ndarray:
    """CPI of one shard on many GPU designs (batched miss model)."""
    return np.array(
        [b.total / stats.n for b in gpu_cycle_breakdown_batch(stats, configs)],
        dtype=float,
    )


class GpuSimulator(Simulator):
    """Trace-driven GPU throughput simulation over the GPU design space.

    Shares the shard-statistics cache, the batched
    :meth:`~repro.uarch.simulator.Simulator.stats_for_many` path, and
    every aggregation entry point with the CPU simulator — only the
    cycle assembly differs — so ``repro.kernels.batched`` and the
    store-backed drivers work unchanged against this backend.
    """

    def cpi_from_stats(self, stats: ShardStats, config: GpuConfig) -> float:
        return simulate_gpu_cpi(stats, config)

    def cpi_batch_from_stats(
        self, stats: ShardStats, configs: Sequence[GpuConfig]
    ) -> np.ndarray:
        return simulate_gpu_cpi_batch(stats, configs)

    def breakdown_from_stats(
        self, stats: ShardStats, config: GpuConfig
    ) -> CycleBreakdown:
        return gpu_cycle_breakdown(stats, config)
