"""Multi-GPU system configuration (paper Table II)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative cache.

    Attributes:
        size_bytes: Total capacity.
        ways: Associativity.
        line_bytes: Cache line size (64 B throughout, as in MGPUSim).
        latency: Hit latency in cycles.
    """

    size_bytes: int
    ways: int
    line_bytes: int = 64
    latency: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ValueError(
                "cache size must be a multiple of ways * line_bytes: "
                f"{self.size_bytes} % ({self.ways} * {self.line_bytes})"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    @property
    def set_mask(self) -> int:
        """``num_sets - 1`` when sets are a power of two, else -1.

        Validated here, at configuration time, so the cache can index
        sets with a single AND instead of a modulo; -1 tells it to fall
        back to modulo for exotic non-power-of-two geometries.
        """
        n = self.num_sets
        return n - 1 if n & (n - 1) == 0 else -1


@dataclass(frozen=True)
class TLBConfig:
    """A set-associative TLB.

    Attributes:
        num_sets: Number of sets (paper: L1 TLB has 1 set, L2 TLB 32 sets).
        ways: Associativity (paper: L1 32-way, L2 16-way).
        latency: Lookup latency in cycles.
    """

    num_sets: int
    ways: int
    latency: int = 1

    def __post_init__(self) -> None:
        if self.num_sets < 1:
            raise ValueError("num_sets must be >= 1")

    @property
    def capacity(self) -> int:
        return self.num_sets * self.ways

    @property
    def set_mask(self) -> int:
        """``num_sets - 1`` when sets are a power of two, else -1 (modulo)."""
        n = self.num_sets
        return n - 1 if n & (n - 1) == 0 else -1


@dataclass(frozen=True)
class DRAMConfig:
    """HBM DRAM stack configuration.

    Attributes:
        size_bytes: Capacity per channel (paper: 512 MB x 8 channels).
        channels: Number of channels (address-interleaved by line).
        bytes_per_cycle: Bandwidth per channel at the 1 GHz system clock.
            8 channels x 32 B/cycle = 256 GB/s aggregate, an MI6-class
            HBM figure.
        latency: Access latency in cycles (row activation + CAS, folded).
    """

    size_bytes: int = 512 * MB
    channels: int = 8
    bytes_per_cycle: float = 32.0
    latency: int = 200


@dataclass(frozen=True)
class IOMMUConfig:
    """IOMMU configuration (lives on the CPU die).

    Attributes:
        num_walkers: Concurrent page-table walkers (paper: 8).
        walk_latency: Cycles for one page-table walk (4-level walk of
            memory-resident page tables).
    """

    num_walkers: int = 8
    walk_latency: int = 400


@dataclass(frozen=True)
class LinkConfig:
    """Inter-device fabric configuration.

    Attributes:
        name: Human-readable fabric name.
        bandwidth_gbps: Bandwidth per direction in GB/s (paper baseline:
            PCIe-v4 at 32 GB/s each way).
        latency: One-way latency in cycles.
    """

    name: str = "PCIe-v4"
    bandwidth_gbps: float = 32.0
    latency: int = 500

    def bytes_per_cycle(self, clock_ghz: float) -> float:
        """Per-direction bandwidth in bytes per core clock cycle."""
        return self.bandwidth_gbps / clock_ghz


@dataclass(frozen=True)
class TimingConfig:
    """Fixed latencies that are not modelled as queued resources.

    Attributes:
        cpu_flush_cycles: Penalty for flushing the CPU before a page
            migrates out of CPU memory (paper: fixed 100 cycles, following
            Agarwal et al. [11]).
        gpu_flush_cycles: Base penalty for a full GPU pipeline flush
            (setup cost; discarded in-flight work is charged separately).
        gpu_flush_replay_per_txn: Recovery cycles charged per discarded
            in-flight transaction when a pipeline flush drops work on the
            floor.
        flush_rewind_accesses: How many accesses of each live wavefront a
            pipeline flush discards; the wavefront re-executes them (with
            their compute delays) after the flush, modelling the lost
            in-flight pipeline work the paper's flush penalty describes.
        drain_request_cycles: Driver -> CU drain-request delivery time.
        l2_flush_per_line: Cycles to flush one L2 line of a migrating page.
        tlb_shootdown_cycles: Fixed cost of one targeted GPU TLB shootdown
            round (invalidation message + ack), excluding flush costs.
        cpu_mem_latency: Latency of a CPU DRAM access serviced for GPU DCA.
        page_fault_handler_cycles: Driver software cost per fault batch.
            Published far-fault handling latencies for GPUs are 20-50 us
            (Zheng et al. [23]); 1500 cycles (1.5 us at 1 GHz) is a
            conservative stand-in that keeps fault servicing a first-order
            cost without letting it dominate every workload.
    """

    cpu_flush_cycles: int = 100
    gpu_flush_cycles: int = 2000
    gpu_flush_replay_per_txn: int = 800
    flush_rewind_accesses: int = 4
    drain_request_cycles: int = 20
    l2_flush_per_line: int = 4
    tlb_shootdown_cycles: int = 100
    cpu_mem_latency: int = 160
    page_fault_handler_cycles: int = 1500


@dataclass(frozen=True)
class GPUConfig:
    """Per-GPU configuration (paper Table II: AMD Radeon Instinct MI6).

    Attributes:
        num_shader_engines: Shader Engines per GPU (paper: 4).
        cus_per_se: Compute Units per Shader Engine (paper: 9; 36 CUs/GPU).
        clock_ghz: Core clock (paper: 1.0 GHz).
        l1v: Per-CU L1 vector cache (16 KB, 4-way).
        l1i: Per-SE L1 instruction cache (32 KB, 4-way).
        l1s: Per-SE L1 scalar cache (16 KB, 4-way).
        l2: L2 cache slice; eight slices per GPU (256 KB, 16-way each).
        l2_slices: Number of L2 slices (paper: 8).
        l1_tlb: Per-CU L1 TLB (1 set, 32-way).
        l2_tlb: Shared L2 TLB (32 sets, 16-way).
        dram: HBM configuration.
        max_inflight_per_cu: In-flight memory-transaction buffer depth per
            CU (the buffer ACUD scans for pending accesses to migrating
            pages).
        concurrent_workgroups_per_cu: Workgroups a CU interleaves.
        xbar_latency: Intra-GPU single-stage crossbar traversal latency.
        remote_cache_kb: CARVE-style carve-out caching remote read data in
            local DRAM (Young et al. [10]).  0 disables it (the paper's
            configurations); nonzero sizes enable the integration study
            the paper leaves as future work.  Coherence is maintained by
            invalidating a page's cached lines whenever the page migrates
            and by not caching writes.
        capacity_pages: GPU memory capacity in pages for Unified Memory
            oversubscription studies (the UM property the paper's
            introduction highlights).  0 means effectively unlimited (the
            paper's evaluation never oversubscribes); a finite value makes
            the driver evict the oldest resident page back to the CPU
            whenever a migration would exceed it.
    """

    num_shader_engines: int = 4
    cus_per_se: int = 9
    clock_ghz: float = 1.0
    l1v: CacheConfig = field(default_factory=lambda: CacheConfig(16 * KB, 4))
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(32 * KB, 4))
    l1s: CacheConfig = field(default_factory=lambda: CacheConfig(16 * KB, 4))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(256 * KB, 16))
    l2_slices: int = 8
    l1_tlb: TLBConfig = field(default_factory=lambda: TLBConfig(1, 32))
    l2_tlb: TLBConfig = field(default_factory=lambda: TLBConfig(32, 16, latency=10))
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    max_inflight_per_cu: int = 16
    concurrent_workgroups_per_cu: int = 4
    xbar_latency: int = 8
    remote_cache_kb: int = 0
    capacity_pages: int = 0

    @property
    def num_cus(self) -> int:
        return self.num_shader_engines * self.cus_per_se

    def with_remote_cache(self, kb: int) -> "GPUConfig":
        """Return a copy with a CARVE-style remote cache of ``kb`` KB."""
        return replace(self, remote_cache_kb=kb)


@dataclass(frozen=True)
class SimConfig:
    """Simulator-infrastructure knobs (not part of the modelled system).

    Attributes:
        engine_backend: Event-core implementation — ``"heap"`` is the
            pure-Python heap + FIFO-lane queue (the parity oracle and
            default); ``"compiled"`` is the optional C extension event
            core (:mod:`repro.sim.compiled`, only selectable when the
            ``repro.sim._ckernel`` extension is built).  Both fire events
            in identical ``(time, priority, seq)`` order; the
            golden/parity suites pin them byte-for-byte.  The
            ``REPRO_ENGINE_BACKEND`` environment variable overrides this
            field, so an unmodified test suite can be replayed on another
            backend.
    """

    engine_backend: str = "heap"

    def __post_init__(self) -> None:
        # Name-validity only; availability of the optional compiled
        # extension is checked by resolve_backend at engine-build time
        # (a config object must stay constructible on any host).
        from repro.sim.backends import ENGINE_BACKENDS, ConfigError

        if self.engine_backend not in ENGINE_BACKENDS:
            raise ConfigError(
                f"unknown engine_backend {self.engine_backend!r}; "
                f"valid choices: {', '.join(ENGINE_BACKENDS)}"
            )


@dataclass(frozen=True)
class SystemConfig:
    """Whole-system configuration.

    Attributes:
        num_gpus: GPUs in the NUMA system (paper: 4).
        gpu: Per-GPU configuration.
        link: Inter-device fabric.
        iommu: IOMMU configuration.
        timing: Fixed latencies.
        page_size: Page size in bytes (paper: 4 KB).
        dispatch_skew_cycles: Head start GPU *i* enjoys over GPU *i+1* in
            each dispatch round, reproducing the paper's observation that
            "GPU 1 always requests the first work-group in each round,
            acquiring a slight advantage in the competition for pages".
        arbiter_bias: Strength of the network-arbiter positive feedback
            ("the GPU that generates requests the fastest may be more
            likely to be selected"), expressed as extra skew per page the
            leading GPU already holds, in cycles.
        sim: Simulator-infrastructure knobs (engine backend selection).
            These never change modelled behaviour — results are pinned
            byte-identical across backends — so they ride on the config
            purely for plumbing convenience.
    """

    num_gpus: int = 4
    gpu: GPUConfig = field(default_factory=GPUConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    iommu: IOMMUConfig = field(default_factory=IOMMUConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    page_size: int = 4096
    dispatch_skew_cycles: int = 200
    arbiter_bias: float = 0.02
    sim: SimConfig = field(default_factory=SimConfig)

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        if self.page_size & (self.page_size - 1):
            raise ValueError("page_size must be a power of two")

    def with_link(self, link: LinkConfig) -> "SystemConfig":
        """Return a copy with a different inter-device fabric."""
        return replace(self, link=link)

    def with_engine_backend(self, backend: str) -> "SystemConfig":
        """Return a copy selecting an event-core backend
        ("heap" | "compiled")."""
        return replace(self, sim=SimConfig(engine_backend=backend))

    def with_overrides(self, **kwargs: object) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]

    def table_rows(self) -> Iterator[tuple[str, str, str]]:
        """Yield (component, configuration, count-per-GPU) rows (Table II)."""
        g = self.gpu
        rows = [
            ("CU", f"{g.clock_ghz:g} GHz", str(g.num_cus)),
            ("L1 Vector Cache", f"{g.l1v.size_bytes // KB}KB {g.l1v.ways}-way",
             str(g.num_cus)),
            ("L1 Inst Cache", f"{g.l1i.size_bytes // KB}KB {g.l1i.ways}-way",
             "1 per SE"),
            ("L1 Scalar Cache", f"{g.l1s.size_bytes // KB}KB {g.l1s.ways}-way",
             "1 per SE"),
            ("L2 Cache", f"{g.l2.size_bytes // KB}KB {g.l2.ways}-way",
             str(g.l2_slices)),
            ("DRAM", f"{g.dram.size_bytes // MB}MB HBM", str(g.dram.channels)),
            ("L1 TLB", f"{g.l1_tlb.num_sets} set, {g.l1_tlb.ways}-way",
             str(g.num_cus + 2 * g.num_shader_engines + g.num_shader_engines * 2 + 2)),
            ("L2 TLB", f"{g.l2_tlb.num_sets} sets, {g.l2_tlb.ways}-way", "1"),
            ("IOMMU", f"{self.iommu.num_walkers} Page Table Walkers", ""),
            ("Intra-GPU Network", "Single-stage XBar", "1"),
            ("Inter-Device Network",
             f"{self.link.bandwidth_gbps:g}GB/s {self.link.name}", ""),
        ]
        return iter(rows)
