"""SDC-aware fault-injection campaigns with a golden-output oracle.

PR 1 made fault injection deterministic; this module makes it *answer
the question fault injection exists to answer*: did the system produce
the right result? A faulted run that completes is not necessarily
correct — a bit flip that lands in live data silently corrupts the
output (SDC), which ``status="ok"`` never shows.

The engine runs the workload once clean and digests the final
functional memory image into a :class:`GoldenReference`; every faulted
trial is then classified against it using the standard taxonomy:

* ``masked`` — the trial completed and its output is bit-identical to
  the golden image (the fault hit dead data, or never fired);
* ``sdc`` — the trial completed but its output differs: silent data
  corruption, the case that is invisible without an oracle;
* ``detected`` — the failure surfaced (deadlock, accelerator fault,
  crash during interpretation — e.g. a flipped index load walking off
  a segment);
* ``hang`` — the cycle budget or wall-clock watchdog fired;
* ``config-error`` — the trial could not even be configured.

:func:`run_campaign` derives one deterministic seed per trial,
stratifies trials across the enabled fault sites (one site per trial,
round-robin, so per-site rates are directly comparable), and fans out
over the parallel sweep executor — the golden ``Prepared`` payload and
the pristine workload blob ship to each worker once, trials journal in
the crash-recoverable sweep-journal format (``--resume-campaign``), and
serial vs ``jobs=N`` results are bit-identical. Outcome rates carry
Wilson score confidence intervals (:func:`repro.telemetry.metrics.
wilson_interval`), with optional early stop once the SDC-rate CI is
narrower than a target. See ``docs/resilience.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..ioutil import canonical_digest, pack, unpack
from ..sim.config import ConfigError
from ..sim.errors import SimulationError
from ..telemetry.metrics import wilson_interval
from .faults import FaultInjector, FaultPlan, _SITES

#: bump when the campaign report block changes incompatibly
CAMPAIGN_SCHEMA_VERSION = 1

#: the outcome taxonomy (``worker_died`` is the harness-level residue of
#: a SIGKILLed/OOMed worker whose retries were exhausted — not a verdict
#: on the simulated system, but never silently dropped either)
CAMPAIGN_OUTCOMES = ("masked", "sdc", "detected", "hang", "config-error",
                     "worker_died")

#: seed stride between trials — coprime to the supervisor's retry stride
#: (1_000_003) so trial seeds never alias retry reseeds
TRIAL_SEED_STRIDE = 6_700_417

#: plan fields that realize each fault site
SITE_RATE_FIELDS: Dict[str, Tuple[str, ...]] = {
    "mem": ("bitflip_load_rate",),
    "msg": ("message_drop_rate", "message_delay_rate"),
    "dram": ("dram_stall_rate",),
    "accel": ("accel_fault_rate",),
    "none": (),
}

_FAILURE_OUTCOME = {
    "deadlock": "detected",
    "fault": "detected",
    "error": "detected",
    "interrupted": "detected",
    "timeout": "hang",
    "config-error": "config-error",
}


class CampaignError(RuntimeError):
    """The campaign itself cannot run (e.g. the golden run failed)."""


# -- golden reference -------------------------------------------------------

def memory_digests(memory) -> Dict[str, str]:
    """Per-segment SHA-256 of a :class:`SimMemory`'s functional data,
    keyed ``name@base`` — the bit-exact oracle a trial's final image is
    compared against."""
    digests: Dict[str, str] = {}
    for segment in memory.segments:
        key = f"{segment.name}@{segment.base:#x}"
        digests[key] = hashlib.sha256(
            segment.data.tobytes()).hexdigest()
    return digests


@dataclass(frozen=True)
class GoldenReference:
    """The clean run's functional output image, digested."""

    #: ``name@base`` -> SHA-256 of the segment's final data
    digests: Dict[str, str]
    #: single digest over all segments (report/provenance handle)
    digest: str
    #: clean-run timing, for reports and the trial hang budget
    cycles: int
    instructions: int


def corrupted_segments(golden: Dict[str, str],
                       image: Dict[str, str]) -> Tuple[str, ...]:
    """Segment keys whose digest differs from the golden reference (a
    layout mismatch reports the offending keys too — both are SDC)."""
    wrong = [key for key, digest in sorted(image.items())
             if golden.get(key) != digest]
    wrong.extend(sorted(set(golden) - set(image)))
    return tuple(wrong)


# -- per-trial plans --------------------------------------------------------

def site_rate(plan: FaultPlan, site: str) -> float:
    """The plan's combined fault probability at one site."""
    return sum(getattr(plan, name) for name in SITE_RATE_FIELDS[site])


def trial_seed(base_seed: int, trial: int) -> int:
    """Deterministic per-trial seed; printable, so ``repro inject
    --seed`` replays any trial exactly."""
    return base_seed + TRIAL_SEED_STRIDE * (trial + 1)


def stratified_plan(template: FaultPlan, site: str,
                    seed: int) -> FaultPlan:
    """The template restricted to one fault site: every other site's
    rates are zeroed, so each trial measures exactly one injection
    mechanism and per-site outcome rates are directly comparable."""
    if site not in SITE_RATE_FIELDS:
        raise ValueError(f"unknown fault site {site!r}; options: "
                         f"{sorted(SITE_RATE_FIELDS)}")
    overrides: Dict[str, object] = {"seed": seed}
    for other, fields in SITE_RATE_FIELDS.items():
        if other == site:
            continue
        for name in fields:
            overrides[name] = 0.0
    return replace(template, **overrides)


# -- trial execution (runs inside sweep workers) ----------------------------

@dataclass
class CampaignPayload:
    """Everything a worker needs, shipped once per worker process via
    the sweep executor's pool initializer (the same channel a plain
    sweep ships its ``Prepared`` through).

    ``blob`` is the *pristine* workload — ``(function, args, memory)``
    packed before the golden run mutated the memory — so a mem-site
    trial can re-interpret from clean state with its injector attached.
    Timing-site trials (msg/dram/accel) cannot corrupt functional data
    and reuse the golden ``prepared`` directly: re-timing cached traces
    is exactly the compile-once-simulate-many contract.
    """

    blob: bytes
    prepared: object          # the golden Prepared
    golden_digests: Dict[str, str]


def build_accelerator_farm(kinds: Sequence[str]):
    """Fresh AcceleratorFarm covering ``kinds`` (farms accumulate
    runtime state, so every trial rebuilds its own); None when empty."""
    if not kinds:
        return None
    from ..sim.accelerator.library import DESIGN_FACTORIES
    from ..sim.accelerator.tile import AcceleratorFarm
    farm = AcceleratorFarm()
    for kind in kinds:
        if kind in DESIGN_FACTORIES:
            farm.add_default(kind)
    return farm if farm.tiles else None


def fault_log_digest(log: Sequence) -> str:
    """Stable fingerprint of a fault log (tuple of FaultRecords) — the
    serial-vs-parallel portability property in one comparable string."""
    canonical = repr(tuple(record.as_tuple() for record in log))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def execute_trial(payload: CampaignPayload, plan: FaultPlan,
                  cfg: Dict) -> "SweepPoint":
    """Run one faulted trial and classify it against the golden image.

    Returns a :class:`~repro.harness.sweeps.SweepPoint` whose
    ``outcome`` is the taxonomy label and whose ``error`` field packs
    the trial detail as canonical JSON — the shape the sweep journal
    round-trips bit-identically.
    """
    from ..harness.runner import classify_failure, prepare, simulate
    from ..harness.sweeps import SweepPoint

    plan.validate()
    injector = FaultInjector(plan) if plan.enabled else None
    stats = None
    outcome = "masked"
    error = ""
    corrupted: Tuple[str, ...] = ()
    try:
        if plan.bitflip_load_rate > 0.0:
            # bit flips fire during functional interpretation, so the
            # trial re-interprets the pristine workload with the
            # injector attached (the one path that must not reuse the
            # golden traces)
            function, args, memory = unpack(payload.blob)
            prepared = prepare(function, args,
                               num_tiles=cfg["num_tiles"],
                               memory=memory, injector=injector)
        else:
            prepared = payload.prepared
            memory = prepared.memory
        stats = simulate(
            prepared.function, [], prepared=prepared,
            core=cfg.get("core"), num_tiles=cfg["num_tiles"],
            hierarchy=cfg.get("hierarchy"),
            accelerators=build_accelerator_farm(
                cfg.get("accel_kinds") or ()),
            max_cycles=cfg["max_cycles"],
            wall_clock_limit=cfg.get("wall_clock_limit"),
            injector=injector)
    except (SimulationError, ConfigError) as exc:
        outcome = _FAILURE_OUTCOME.get(classify_failure(exc), "detected")
        error = str(exc)
    except Exception as exc:  # noqa: BLE001 — a flipped index load can
        # crash interpretation with workload-level errors (unmapped
        # address, bad shape); in a campaign any crash is a detection
        outcome = "detected"
        error = f"{type(exc).__name__}: {exc}"
    else:
        corrupted = corrupted_segments(payload.golden_digests,
                                       memory_digests(memory))
        outcome = "sdc" if corrupted else "masked"
    log = tuple(injector.log) if injector is not None else ()
    detail = json.dumps({
        "corrupted": list(corrupted),
        "error": error,
        "fault_digest": fault_log_digest(log),
        "faults": len(log),
    }, sort_keys=True)
    return SweepPoint({}, stats, outcome=outcome, error=detail)


def _campaign_point_runner(parameters: Dict, spec: Dict,
                           payload: CampaignPayload):
    """The sweep executor's ``point_runner`` hook for campaign trials —
    module-level so worker processes resolve it by reference."""
    point = execute_trial(payload, spec["campaign_plan"],
                          spec["campaign"])
    point.parameters = parameters
    return point


# -- campaign orchestration -------------------------------------------------

@dataclass(frozen=True)
class TrialOutcome:
    """One classified trial."""

    trial: int
    site: str
    seed: int
    outcome: str
    error: str = ""
    cycles: Optional[int] = None
    faults: int = 0
    fault_digest: str = ""
    corrupted: Tuple[str, ...] = ()


@dataclass
class CampaignResult:
    """Everything :func:`run_campaign` measured, plus the report."""

    workload: str
    plan: FaultPlan
    sites: Tuple[str, ...]
    requested_trials: int
    trials: List[TrialOutcome]
    golden: GoldenReference
    early_stopped: bool = False
    confidence_z: float = 1.96

    def outcomes(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for trial in self.trials:
            counts[trial.outcome] = counts.get(trial.outcome, 0) + 1
        return counts

    def sdc_trials(self) -> List[TrialOutcome]:
        return [t for t in self.trials if t.outcome == "sdc"]

    def _interval(self, count: int, total: int,
                  deterministic: bool) -> Tuple[float, float]:
        if total == 0:
            return (0.0, 1.0)
        rate = count / total
        if deterministic:
            # no randomness at this site (all rates zero): the measured
            # rate is exact, the interval has zero width
            return (rate, rate)
        return wilson_interval(count, total, z=self.confidence_z)

    def report(self) -> dict:
        """The schema-versioned ``campaign`` report block — pure
        deterministic JSON (no timestamps), so a rerun of the same
        campaign spec is byte-identical."""
        plan = self.plan
        per_site: Dict[str, dict] = {}
        for site in self.sites:
            site_trials = [t for t in self.trials if t.site == site]
            outcomes: Dict[str, int] = {}
            for t in site_trials:
                outcomes[t.outcome] = outcomes.get(t.outcome, 0) + 1
            sdc_count = outcomes.get("sdc", 0)
            total = len(site_trials)
            low, high = self._interval(
                sdc_count, total, deterministic=site_rate(plan, site) <= 0)
            per_site[site] = {
                "trials": total,
                "outcomes": outcomes,
                "sdc": {
                    "count": sdc_count,
                    "rate": sdc_count / total if total else 0.0,
                    "ci": [low, high],
                },
            }
        total = len(self.trials)
        sdc = self.sdc_trials()
        deterministic = all(site_rate(plan, s) <= 0 for s in self.sites)
        low, high = self._interval(len(sdc), total, deterministic)
        return {
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "workload": self.workload,
            "seed": plan.seed,
            "requested_trials": self.requested_trials,
            "trials": total,
            "sites": list(self.sites),
            "plan": {
                "seed": plan.seed,
                "bitflip_load_rate": plan.bitflip_load_rate,
                "message_drop_rate": plan.message_drop_rate,
                "message_delay_rate": plan.message_delay_rate,
                "dram_stall_rate": plan.dram_stall_rate,
                "accel_fault_rate": plan.accel_fault_rate,
            },
            "confidence_z": self.confidence_z,
            "early_stopped": self.early_stopped,
            "golden": {
                "digest": self.golden.digest,
                "cycles": self.golden.cycles,
                "instructions": self.golden.instructions,
                "segments": len(self.golden.digests),
            },
            "outcomes": self.outcomes(),
            "per_site": per_site,
            "sdc": {
                "count": len(sdc),
                "rate": len(sdc) / total if total else 0.0,
                "ci": [low, high],
                "trials": [
                    {
                        "trial": t.trial,
                        "site": t.site,
                        "seed": t.seed,
                        "faults": t.faults,
                        "corrupted": list(t.corrupted),
                    }
                    for t in sdc
                ],
            },
        }


def _sdc_ci_width(points: List, z: float) -> float:
    completed = [p for p in points if p is not None]
    if not completed:
        return 1.0
    sdc = sum(1 for p in completed if p.outcome == "sdc")
    low, high = wilson_interval(sdc, len(completed), z=z)
    return high - low


def run_campaign(kernel, args, *, plan: FaultPlan, trials: int,
                 memory=None, sites: Optional[Sequence[str]] = None,
                 core=None, num_tiles: int = 1, hierarchy=None,
                 accel_kinds: Sequence[str] = (),
                 max_cycles: Optional[int] = None,
                 wall_clock_limit: Optional[float] = None,
                 hang_factor: int = 64,
                 jobs: int = 1,
                 journal_path: Optional[str] = None,
                 resume: bool = False,
                 sdc_ci_target: Optional[float] = None,
                 ci_check_every: int = 16,
                 prep_cache=None,
                 workload_name: str = "",
                 confidence_z: float = 1.96) -> CampaignResult:
    """Run a stratified fault-injection campaign against a golden oracle.

    ``plan`` is the template: its per-site rates define the fault model
    and its seed anchors the campaign. Trial ``i`` targets site
    ``sites[i % len(sites)]`` under ``stratified_plan(plan, site,
    trial_seed(plan.seed, i))`` — one site, one fresh deterministic
    seed per trial, so any SDC replays exactly via ``repro inject
    --seed <trial seed>`` with that site's rate.

    ``sites`` defaults to every site the template enables; with no
    enabled site the campaign degenerates to deterministic clean reruns
    (site ``"none"``, 100% masked, zero-width CI) — the oracle's
    self-test. ``max_cycles`` defaults to ``hang_factor`` × the golden
    run's cycle count, so a live-locked trial classifies as ``hang``
    instead of burning the full default budget.

    ``jobs`` fans trials out over the sweep executor's worker pool
    (bit-identical to serial); ``journal_path``/``resume`` journal
    completed trials in the sweep-journal format and skip them on
    re-run; ``sdc_ci_target`` stops early once the aggregate SDC-rate
    Wilson interval is narrower than the target, checked every
    ``ci_check_every`` trials (a fixed stride, so early stop never
    breaks serial/parallel identity). ``prep_cache`` makes the golden
    prepare a replay.
    """
    from ..harness.runner import (
        DEFAULT_MAX_CYCLES, classify_failure, prepare, simulate,
    )
    from ..harness.sweeps import _execute_sweep

    plan.validate()
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if sites is not None:
        sites = tuple(sites)
        for site in sites:
            if site not in SITE_RATE_FIELDS:
                raise ValueError(f"unknown fault site {site!r}; options: "
                                 f"{sorted(SITE_RATE_FIELDS)}")
    else:
        sites = tuple(s for s in _SITES if site_rate(plan, s) > 0.0)
    if not sites:
        sites = ("none",)

    from ..frontend.compiler import compile_kernel
    from ..ir.function import Function
    from ..harness.runner import _infer_memory
    func = kernel if isinstance(kernel, Function) else compile_kernel(kernel)
    mem = memory if memory is not None else _infer_memory(args)
    # snapshot the pristine workload BEFORE the golden run mutates the
    # memory — mem-site trials re-interpret from this blob
    blob = pack((func, args, mem))

    from ..harness.status import STATUS
    try:
        prepared = prepare(func, args, num_tiles=num_tiles, memory=mem,
                           cache=prep_cache)
        golden_stats = simulate(
            func, [], prepared=prepared, core=core, num_tiles=num_tiles,
            hierarchy=hierarchy,
            accelerators=build_accelerator_farm(accel_kinds),
            max_cycles=max_cycles or DEFAULT_MAX_CYCLES,
            wall_clock_limit=wall_clock_limit)
    except (SimulationError, ConfigError) as exc:
        raise CampaignError(
            f"golden run failed ({classify_failure(exc)}): {exc}; a "
            f"campaign needs a clean baseline to classify against") \
            from exc
    digests = memory_digests(mem)
    golden = GoldenReference(digests=digests,
                             digest=canonical_digest(sorted(
                                 digests.items())),
                             cycles=golden_stats.cycles,
                             instructions=golden_stats.instructions)
    STATUS.info(f"campaign golden run: {golden.cycles} cycles, "
                f"{len(digests)} segment(s), digest {golden.digest[:12]}")

    trial_budget = max_cycles
    if trial_budget is None:
        trial_budget = max(golden.cycles * hang_factor,
                           golden.cycles + 10_000)
    cfg = {
        "num_tiles": num_tiles,
        "core": core,
        "hierarchy": hierarchy,
        "max_cycles": trial_budget,
        "wall_clock_limit": wall_clock_limit,
        "accel_kinds": tuple(accel_kinds),
    }
    tasks = []
    for index in range(trials):
        site = sites[index % len(sites)]
        trial_plan = stratified_plan(plan, site,
                                     trial_seed(plan.seed, index))
        tasks.append((
            {"trial": index, "site": site, "seed": trial_plan.seed},
            {"point_runner": _campaign_point_runner,
             "campaign_plan": trial_plan, "campaign": cfg},
        ))

    payload = CampaignPayload(blob=blob, prepared=prepared,
                              golden_digests=digests)
    if journal_path and not resume and os.path.exists(journal_path):
        # a fresh campaign over a stale journal must not resurrect old
        # trials; --resume-campaign is the explicit opt-in
        os.remove(journal_path)

    points: List = []
    early_stopped = False
    position = 0
    while position < len(tasks):
        end = len(tasks)
        if sdc_ci_target is not None:
            end = min(len(tasks), position + ci_check_every)
        if journal_path:
            # progressive extension: the journal restores the prefix
            # bit-identically, so global trial indices stay stable
            result = _execute_sweep(
                payload, tasks[:end], "record", jobs,
                journal_path=journal_path,
                resume=resume or position > 0)
            points = list(result.points)
        else:
            result = _execute_sweep(payload, tasks[position:end],
                                    "record", jobs)
            points.extend(result.points)
        position = end
        if sdc_ci_target is not None and position < len(tasks):
            width = _sdc_ci_width(points, confidence_z)
            STATUS.verbose(f"campaign: {position}/{len(tasks)} trial(s), "
                           f"SDC CI width {width:.3f} "
                           f"(target {sdc_ci_target})")
            if width < sdc_ci_target:
                early_stopped = True
                break

    trial_outcomes: List[TrialOutcome] = []
    for (parameters, _), point in zip(tasks, points):
        if point is None:
            continue
        try:
            detail = json.loads(point.error) if point.error else {}
        except ValueError:
            detail = {"error": point.error}
        trial_outcomes.append(TrialOutcome(
            trial=parameters["trial"], site=parameters["site"],
            seed=parameters["seed"], outcome=point.outcome,
            error=detail.get("error", ""), cycles=point.cycles,
            faults=int(detail.get("faults", 0)),
            fault_digest=detail.get("fault_digest", ""),
            corrupted=tuple(detail.get("corrupted", ()))))
    return CampaignResult(
        workload=workload_name or func.name, plan=plan, sites=sites,
        requested_trials=trials, trials=trial_outcomes, golden=golden,
        early_stopped=early_stopped, confidence_z=confidence_z)


# -- report validation ------------------------------------------------------

def validate_campaign_report(document: dict) -> int:
    """Structural + conservation checks over a ``campaign`` report
    block; returns the trial count or raises ``ValueError``.

    Conservation: outcome counts sum to trials, per-site trials and
    per-site outcome counts partition them, SDC counts agree between
    the aggregate block, the taxonomy counter, the per-site blocks and
    the listed trials, and every rate sits inside its own CI (which
    sits inside [0, 1]).
    """
    if not isinstance(document, dict):
        raise ValueError("campaign report must be a dict")
    version = document.get("schema_version")
    if version != CAMPAIGN_SCHEMA_VERSION:
        raise ValueError(f"unsupported campaign schema version "
                         f"{version!r} (supported: "
                         f"{CAMPAIGN_SCHEMA_VERSION})")
    for key in ("workload", "trials", "sites", "outcomes", "per_site",
                "sdc", "golden"):
        if key not in document:
            raise ValueError(f"campaign report is missing {key!r}")
    trials = document["trials"]
    outcomes = document["outcomes"]
    unknown = set(outcomes) - set(CAMPAIGN_OUTCOMES)
    if unknown:
        raise ValueError(f"unknown outcome label(s): {sorted(unknown)}")
    if sum(outcomes.values()) != trials:
        raise ValueError(f"outcome counts sum to "
                         f"{sum(outcomes.values())}, expected {trials}")

    def check_rate_block(block: dict, where: str) -> int:
        count, rate, ci = block["count"], block["rate"], block["ci"]
        low, high = ci
        if not (0.0 <= low <= high <= 1.0):
            raise ValueError(f"{where}: CI {ci} is not an interval "
                             f"inside [0, 1]")
        if not (low - 1e-9 <= rate <= high + 1e-9):
            raise ValueError(f"{where}: rate {rate} outside its own "
                             f"CI {ci}")
        return count

    site_total = 0
    site_sdc = 0
    for site, block in document["per_site"].items():
        site_trials = block["trials"]
        site_total += site_trials
        if sum(block["outcomes"].values()) != site_trials:
            raise ValueError(f"site {site!r}: outcome counts sum to "
                             f"{sum(block['outcomes'].values())}, "
                             f"expected {site_trials}")
        unknown = set(block["outcomes"]) - set(CAMPAIGN_OUTCOMES)
        if unknown:
            raise ValueError(f"site {site!r}: unknown outcome label(s): "
                             f"{sorted(unknown)}")
        sdc_count = check_rate_block(block["sdc"], f"site {site!r} sdc")
        if sdc_count != block["outcomes"].get("sdc", 0):
            raise ValueError(f"site {site!r}: sdc count {sdc_count} "
                             f"disagrees with its outcome counter")
        site_sdc += sdc_count
    if site_total != trials:
        raise ValueError(f"per-site trial counts sum to {site_total}, "
                         f"expected {trials}")
    sdc = document["sdc"]
    sdc_count = check_rate_block(sdc, "aggregate sdc")
    if sdc_count != outcomes.get("sdc", 0):
        raise ValueError(f"aggregate sdc count {sdc_count} disagrees "
                         f"with the outcome counter "
                         f"{outcomes.get('sdc', 0)}")
    if sdc_count != site_sdc:
        raise ValueError(f"aggregate sdc count {sdc_count} disagrees "
                         f"with per-site sum {site_sdc}")
    if len(sdc.get("trials", ())) != sdc_count:
        raise ValueError(f"sdc lists {len(sdc.get('trials', ()))} "
                         f"trial(s), expected {sdc_count}")
    return trials


__all__ = [
    "CAMPAIGN_OUTCOMES", "CAMPAIGN_SCHEMA_VERSION", "CampaignError",
    "CampaignPayload", "CampaignResult", "GoldenReference",
    "TrialOutcome", "build_accelerator_farm", "corrupted_segments",
    "execute_trial", "fault_log_digest", "memory_digests",
    "run_campaign", "site_rate", "stratified_plan", "trial_seed",
    "validate_campaign_report",
]
