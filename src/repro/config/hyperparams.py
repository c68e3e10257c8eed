"""Griffin hyperparameters (Table I of the paper) plus reproduction knobs."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator


@dataclass(frozen=True)
class GriffinHyperParams:
    """Default Griffin hyperparameter configuration (paper Table I).

    Attributes:
        n_ptw: Number of completed page walks CPMS waits for before
            scheduling a batch of CPU->GPU page migrations (paper: 8,
            matching the IOMMU's eight page-table walkers).
        t_ac: Cycles between collections of the per-Shader-Engine page
            access counters (paper: 1000).
        alpha: EWMA filter weight; the rate at which the page-access-count
            filter forgets history (paper: 0.03).
        lambda_d: Minimum ratio between the highest and second-highest
            per-GPU access count for a page to be classified Mostly
            Dedicated (paper: 2.0).
        lambda_s: Maximum ratio between the highest and second-highest
            per-GPU access count for a page to be classified Shared
            (paper: 1.3).
        lambda_t: Maximum accesses per cycle from a GPU for a page to be
            classified Streaming (paper: 0.03).
        counter_bits: Width of each saturating access counter (paper: 8,
            saturating at 0xFF).
        counter_table_entries: Entries per Shader Engine access-count table
            (paper: 100).
        page_id_bits: Width of a page ID for a 4 KB page in a 48-bit
            physical address space (paper: 36).
        migration_period: Cycles between CPMS inter-GPU migration phases.
            The paper divides execution into periods without publishing the
            length; we default to 10x t_ac so several count collections
            inform each migration decision.
        max_pages_per_round: Cap on pages CPMS migrates in one phase
            ("CPMS limits the number of pages to migrate").
        max_source_gpus_per_round: Cap on GPUs drained in one phase
            ("... and the number of GPUs to flush").
        shared_min_share: Minimum fraction of the total access count a
            page's resident GPU must hold for a Shared page to stay put
            ("already located on a GPU that has only a slight variation").
        fault_batch_timeout: Cycles after which a partially filled CPMS
            CPU-fault batch is flushed anyway, so a trickle of faults is
            not delayed indefinitely (reproduction knob; the paper relies
            on walk completion which our transaction-level model batches
            by count + timeout).
        trend_fraction: Owner-shifting sensitivity — a per-period change
            in a page's filtered count registers as a trend when it
            exceeds ``trend_fraction * alpha * top_count`` (a step change
            from 0 to N moves the EWMA by ``alpha * N`` in one period, so
            this is scale-free).
        min_pages_per_source: CPMS admits a source GPU to a migration
            round only when at least this many candidate pages would
            amortize its drain + shootdown (1 = always admit).
    """

    n_ptw: int = 8
    t_ac: int = 1000
    alpha: float = 0.03
    lambda_d: float = 2.0
    lambda_s: float = 1.3
    lambda_t: float = 0.03
    counter_bits: int = 8
    counter_table_entries: int = 100
    page_id_bits: int = 36
    migration_period: int = 10_000
    max_pages_per_round: int = 64
    max_source_gpus_per_round: int = 4
    shared_min_share: float = 0.15
    fault_batch_timeout: int = 500
    trend_fraction: float = 0.3
    min_pages_per_source: int = 1

    def __post_init__(self) -> None:
        if self.n_ptw < 1:
            raise ValueError("n_ptw must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.lambda_d < self.lambda_s:
            raise ValueError("lambda_d must be >= lambda_s")
        if self.lambda_t < 0:
            raise ValueError("lambda_t must be >= 0")
        if self.t_ac < 1 or self.migration_period < 1:
            raise ValueError("t_ac and migration_period must be >= 1")
        # Every Machine builds its counter tables from these, even under
        # policies that never collect them, so reject what cannot build.
        if self.counter_bits < 0:
            raise ValueError("counter_bits must be >= 0")
        if self.counter_table_entries < 1:
            raise ValueError("counter_table_entries must be >= 1")

    @property
    def counter_max(self) -> int:
        """Saturation value of an access counter (0xFF for 8 bits)."""
        return (1 << self.counter_bits) - 1

    def with_overrides(self, **kwargs: object) -> "GriffinHyperParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]

    @classmethod
    def calibrated(cls) -> "GriffinHyperParams":
        """Hyperparameters recalibrated for this simulator's intensity.

        The paper's Table I values are tied to MGPUSim's cycle-level
        access intensity (tens of post-coalescing transactions per cycle
        per GPU); this transaction-level reproduction with scaled-down
        footprints issues roughly two orders of magnitude fewer accesses
        per cycle.  The *ratio* thresholds (lambda_d, lambda_s) are
        scale-free and keep their published values; the *absolute*
        parameters are rescaled to match our intensity:

        * ``t_ac`` grows so a collection period contains a meaningful raw
          count per hot page;
        * ``alpha`` grows so the EWMA converges within the (fewer)
          periods a kernel phase spans;
        * ``lambda_t``'s floor becomes ~1 access per collection period;
        * ``migration_period`` holds several collection periods, as in
          the paper.

        See DESIGN.md "Substitutions" and EXPERIMENTS.md for the full
        rationale.
        """
        return cls(
            t_ac=5_000,
            alpha=0.2,
            lambda_t=1e-4,
            migration_period=30_000,
            max_pages_per_round=192,
            min_pages_per_source=4,
        )

    def table_rows(self) -> Iterator[tuple[str, str, str]]:
        """Yield (param, value, description) rows matching paper Table I."""
        rows = [
            ("N_PTW", str(self.n_ptw),
             "Page walks to wait for before triggering page migration"),
            ("T_ac", str(self.t_ac),
             "Cycles between collecting access counts"),
            ("alpha", f"{self.alpha:g}",
             "Rate at which the page access count filter forgets history"),
            ("lambda_d", f"{self.lambda_d:g}",
             "Min highest/2nd-highest count ratio for Mostly Dedicated"),
            ("lambda_s", f"{self.lambda_s:g}",
             "Max highest/2nd-highest count ratio for Shared"),
            ("lambda_t", f"{self.lambda_t:g}",
             "Max accesses/cycle from a GPU for Streaming"),
        ]
        return iter(rows)


PAPER_TABLE_I = GriffinHyperParams()
"""The exact defaults the paper lists in Table I."""
