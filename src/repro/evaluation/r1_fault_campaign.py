"""R1: fault-injection campaign rates (robustness experiment).

Not a table from the 1981 paper - a measurement the paper's testability
argument implies: with only ~6 % of the chip devoted to control, RISC I
was pitched as easy to verify and test.  This experiment quantifies how
the reproduced machine *behaves* under hardware-style faults: for a
seeded campaign of bit-flips and stuck-at faults against the register
file, memory, the fetch path, and the PSW, what fraction is masked,
detected by the precise trap architecture, silently corrupts the
result, or hangs until the watchdog fires.

``run`` is deterministic for a fixed seed; the same seed reproduces the
identical table (see ``repro.faults.campaign`` for the machinery).
"""

from __future__ import annotations

from repro.evaluation.tables import Table
from repro.faults.campaign import (
    DEFAULT_BENCHMARKS,
    CampaignConfig,
    CampaignReport,
    run_campaign,
)

#: Default experiment seed (the paper's publication year).
DEFAULT_SEED = 1981


def run_report(
    names: tuple[str, ...] | None = None,
    *,
    injections: int = 1000,
    seed: int = DEFAULT_SEED,
) -> CampaignReport:
    """Execute the campaign and return the full report."""
    config = CampaignConfig(
        seed=seed,
        injections=injections,
        benchmarks=tuple(names) if names else DEFAULT_BENCHMARKS,
    )
    return run_campaign(config)


def run(
    names: tuple[str, ...] | None = None,
    *,
    injections: int = 1000,
    seed: int = DEFAULT_SEED,
) -> Table:
    """The R1 rate table (per fault site plus an overall row)."""
    return run_report(names, injections=injections, seed=seed).rate_table()
