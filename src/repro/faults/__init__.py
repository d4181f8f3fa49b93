"""Deterministic fault injection for the RISC I execution stack.

The paper's central testability claim - a reduced instruction set yields
a machine that is simpler to verify - is only measurable if abnormal
behaviour is *observable* rather than fatal.  This package supplies the
three pieces the robustness methodology needs:

* :mod:`repro.faults.models` - declarative fault specifications: seeded
  single/multi bit-flips and stuck-at faults against the register file,
  memory words, fetched instruction words, and the PSW, each with an
  event-driven trigger (at cycle N, or at the Kth execution of a PC).
* :mod:`repro.faults.injector` - attaches a list of specs to a live
  :class:`~repro.cpu.machine.RiscMachine` through the ``pre_step`` and
  ``fetch_word`` events on its
  :class:`~repro.cpu.observers.ObserverBus` and records every mutation
  it performs.
* :mod:`repro.faults.campaign` - golden-vs-faulted differential runs
  over the paper's benchmarks, classifying each injection as masked,
  detected (trapped), silent data corruption, or timeout, with
  bit-identical reproducibility for a fixed seed.  Every campaign runs
  one supervised trial loop; :mod:`repro.faults.distributed` adds the
  optional journal, resume, and sharding around it.

Checkpoint/rollback itself lives on the machine
(:meth:`~repro.cpu.machine.RiscMachine.checkpoint`); the campaign runner
uses delta-tracked snapshots to rewind thousands of times cheaply.
"""

# Lazy re-exports: ``python -m repro.faults.campaign`` first imports
# this package, and an eager ``from .campaign import ...`` here would
# put the module in sys.modules before runpy executes it (the runpy
# double-import warning).
_EXPORTS = {
    "CampaignConfig": "repro.faults.campaign",
    "CampaignInterrupted": "repro.faults.campaign",
    "CampaignReport": "repro.faults.campaign",
    "InjectionResult": "repro.faults.campaign",
    "Outcome": "repro.faults.campaign",
    "TrialTimeoutError": "repro.faults.campaign",
    "run_campaign": "repro.faults.campaign",
    "FaultInjector": "repro.faults.injector",
    "InjectionEvent": "repro.faults.injector",
    "FaultKind": "repro.faults.models",
    "FaultSites": "repro.faults.models",
    "FaultSpec": "repro.faults.models",
    "FaultTarget": "repro.faults.models",
    "FaultTrigger": "repro.faults.models",
    "random_spec": "repro.faults.models",
    "JournalError": "repro.faults.distributed",
    "RetryPolicy": "repro.faults.distributed",
    "TrialJournal": "repro.faults.distributed",
    "compose_fingerprints": "repro.faults.distributed",
    "recover_journal": "repro.faults.distributed",
    "shard_schedule": "repro.faults.distributed",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "CampaignConfig",
    "CampaignInterrupted",
    "CampaignReport",
    "FaultInjector",
    "FaultKind",
    "FaultSites",
    "FaultSpec",
    "FaultTarget",
    "FaultTrigger",
    "InjectionEvent",
    "InjectionResult",
    "JournalError",
    "Outcome",
    "RetryPolicy",
    "TrialJournal",
    "TrialTimeoutError",
    "compose_fingerprints",
    "random_spec",
    "recover_journal",
    "run_campaign",
    "shard_schedule",
]
