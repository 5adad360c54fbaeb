"""Ground-truth cost model: job physics on a given machine type.

This module answers, for a :class:`~repro.workloads.apps.JobSpec` run on
``m`` machines: how long is each subtask, how much memory is resident
per machine, how many bytes must be reloaded from disk per iteration.

It is the *simulated world*, not the scheduler's knowledge: Harmony only
ever sees the profiled metrics that the runtime measures (with noise) —
exactly as in the paper, where the scheduler works from runtime metrics
(§IV-B1) rather than from an oracle.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.cluster.disk import DiskModel
from repro.cluster.network import NetworkModel
from repro.config import GB, MachineSpec
from repro.errors import WorkloadError
from repro.workloads.apps import JobSpec


@dataclass(frozen=True)
class IterationProfile:
    """Noise-free subtask durations of one iteration at a given DoP."""

    t_pull: float
    t_comp: float
    t_push: float

    @property
    def t_comm(self) -> float:
        """Total network-subtask time (PULL + PUSH, §IV-A)."""
        return self.t_pull + self.t_push

    @property
    def t_iteration(self) -> float:
        """Sequential iteration time of the job running alone."""
        return self.t_pull + self.t_comp + self.t_push

    @property
    def comp_ratio(self) -> float:
        """Computation time / iteration time (Fig. 9b's metric)."""
        total = self.t_iteration
        return self.t_comp / total if total > 0 else 0.0


class CostModel:
    """Job physics bound to one machine specification.

    ``comm_architecture`` selects how model synchronization happens:
    ``"ps"`` (the paper's focus — PULL and PUSH through parameter
    servers) or ``"allreduce"`` (the §VI extension — one ring
    all-reduce per iteration, no PULL, the model replicated on every
    worker).
    """

    def __init__(self, spec: MachineSpec | None = None,
                 network: NetworkModel | None = None,
                 disk: DiskModel | None = None,
                 comm_architecture: str = "ps"):
        if comm_architecture not in ("ps", "allreduce"):
            raise WorkloadError(
                f"unknown communication architecture "
                f"{comm_architecture!r}")
        self.spec = spec if spec is not None else MachineSpec()
        self.network = network if network is not None \
            else NetworkModel(self.spec)
        self.disk = disk if disk is not None else DiskModel(self.spec)
        self.comm_architecture = comm_architecture
        from repro.cluster.allreduce import AllReduceModel
        self._allreduce = AllReduceModel(self.spec)
        #: id(spec) -> (spec, :meth:`_memory_constants` of it).
        self._constants: dict[int, tuple] = {}

    # -- subtask durations ----------------------------------------------

    def comp_seconds(self, job: JobSpec, m: int) -> float:
        """COMP duration on ``m`` machines (Eq. 2: T_cpu ∝ 1/m)."""
        self._check_dop(m)
        return job.cpu_work_machine_seconds / m

    def pull_seconds(self, job: JobSpec, m: int = 1) -> float:
        """PULL duration (zero under all-reduce: there are no servers
        to fetch from; synchronization is one fused COMM step)."""
        if self.comm_architecture == "allreduce":
            return 0.0
        return self.network.pull_seconds(job.model_gb * GB,
                                         job.app.traffic_fraction)

    def push_seconds(self, job: JobSpec, m: int = 1) -> float:
        """PUSH duration — or, under all-reduce, the whole ring step."""
        if self.comm_architecture == "allreduce":
            return self._allreduce.sync_seconds(
                job.model_gb * GB * job.app.traffic_fraction, m)
        return self.network.push_seconds(job.model_gb * GB,
                                         job.app.traffic_fraction)

    def profile(self, job: JobSpec, m: int) -> IterationProfile:
        """Noise-free subtask durations of one iteration at DoP ``m``."""
        return IterationProfile(t_pull=self.pull_seconds(job, m),
                                t_comp=self.comp_seconds(job, m),
                                t_push=self.push_seconds(job, m))

    # -- memory footprints (per machine) ---------------------------------

    def _memory_constants(self, job: JobSpec) -> tuple[float, ...]:
        """``(input bytes after expansion, model bytes, worker-cache
        bytes, workspace fraction)``: the DoP- and spill-independent
        factors every footprint below is built from.

        Memoized per spec object (specs are immutable): the scheduler's
        feasibility floors re-read them for every candidate group.  The
        entry keeps its spec alive, so its ``id`` cannot be reused.
        """
        entry = self._constants.get(id(job))
        if entry is not None and entry[0] is job:
            return entry[1]
        model_bytes = job.model_gb * GB
        constants = (job.input_gb * GB * job.app.memory_expansion,
                     model_bytes,
                     model_bytes * job.app.worker_cache_fraction,
                     job.app.workspace_fraction)
        self._constants[id(job)] = (job, constants)
        return constants

    def input_resident_bytes(self, job: JobSpec, m: int,
                             alpha: float = 0.0) -> float:
        """Memory-side input blocks per machine at disk ratio ``alpha``."""
        self._check_dop(m)
        self._check_alpha(alpha)
        return self._footprint(self._memory_constants(job), m, alpha,
                               False)[0]

    def model_resident_bytes(self, job: JobSpec, m: int,
                             model_spilled: bool = False) -> float:
        """Model-state bytes resident per machine.

        PS: the server's 1/m partition plus the worker-side parameter
        cache.  All-reduce: a *full* model replica per worker — the
        price of the architecture.  When ``model_spilled`` is True (the
        §IV-C fallback), only the worker cache remains resident; the
        partition/replica lives on disk between the job's iterations.
        """
        self._check_dop(m)
        return self._footprint(self._memory_constants(job), m, 0.0,
                               model_spilled)[1]

    def workspace_bytes(self, job: JobSpec, m: int,
                        alpha: float = 0.0) -> float:
        """Intermediate results generated while computing (§II-B)."""
        self._check_dop(m)
        self._check_alpha(alpha)
        return self._footprint(self._memory_constants(job), m, alpha,
                               False)[2]

    def resident_bytes(self, job: JobSpec, m: int, alpha: float = 0.0,
                       model_spilled: bool = False) -> float:
        """Total resident bytes per machine for this job."""
        self._check_dop(m)
        self._check_alpha(alpha)
        return self._resident(self._memory_constants(job), m, alpha,
                              model_spilled)

    def _footprint(self, constants: tuple[float, ...], m: int,
                   alpha: float, model_spilled: bool) -> \
            tuple[float, float, float]:
        """``(input, model, workspace)`` bytes per machine, unvalidated:
        the one definition of each component (the workspace holds the
        intermediates of the resident input blocks and worker cache)."""
        input_bytes, model_bytes, cache, workspace = constants
        resident_input = input_bytes * (1.0 - alpha) / m
        if model_spilled:
            model = cache
        elif self.comm_architecture == "allreduce":
            model = model_bytes + cache
        else:
            model = model_bytes / m + cache
        return resident_input, model, (resident_input + cache) * workspace

    def _resident(self, constants: tuple[float, ...], m: int,
                  alpha: float, model_spilled: bool) -> float:
        resident_input, model, workspace = self._footprint(
            constants, m, alpha, model_spilled)
        return resident_input + model + workspace

    def memory_floor(self, jobs: Sequence[JobSpec], alpha: float, *,
                     target_pressure: float, limit: int,
                     model_spilled: bool = False) -> int:
        """Smallest machine count in ``1..limit`` at which ``jobs``
        co-locate with every machine at most ``target_pressure`` full;
        ``limit + 1`` when none does.

        Every job holds ``A/m + B`` bytes per machine (see
        :meth:`_affine_resident`), so the floor has the closed form
        ``ceil(ΣA / (budget − ΣB))``.  Float rounding can put that one
        step off the exact predicate ``Σ resident_bytes(m) <= budget``;
        the fixup steps to where the predicate flips, which makes the
        result bitwise-equal to a linear scan over ``m``.
        """
        self._check_alpha(alpha)
        budget = self.spec.usable_memory_bytes * target_pressure
        constants = [self._memory_constants(job) for job in jobs]
        resident = self._resident

        def fits(m: int) -> bool:
            return sum(resident(c, m, alpha, model_spilled)
                       for c in constants) <= budget

        sum_a = sum_b = 0.0
        for c in constants:
            a, b = self._affine_resident(c, alpha, model_spilled)
            sum_a += a
            sum_b += b
        headroom = budget - sum_b
        if headroom <= 0 or sum_a / headroom > limit:
            m = limit + 1
        else:
            m = max(1, math.ceil(sum_a / headroom))
        while m > 1 and fits(m - 1):
            m -= 1
        while m <= limit and not fits(m):
            m += 1
        return m

    def _affine_resident(self, constants: tuple[float, ...], alpha: float,
                         model_spilled: bool) -> tuple[float, float]:
        """``(A, B)`` with ``resident_bytes(job, m) == A/m + B`` for the
        job whose :meth:`_memory_constants` are ``constants``.

        Input blocks and their workspace share scale as 1/m; the worker
        cache and its workspace share do not; the model counts towards
        ``A`` as a PS partition, towards ``B`` as an all-reduce replica,
        and not at all once spilled.
        """
        input_bytes, model_bytes, cache, workspace = constants
        grow = 1.0 + workspace
        a = input_bytes * (1.0 - alpha) * grow
        b = cache * grow
        if not model_spilled:
            if self.comm_architecture == "allreduce":
                b += model_bytes
            else:
                a += model_bytes
        return a, b

    # -- disk traffic ------------------------------------------------------

    def reload_bytes_per_iteration(self, job: JobSpec, m: int,
                                   alpha: float) -> float:
        """Raw disk bytes each machine reloads per iteration (§IV-C)."""
        self._check_dop(m)
        self._check_alpha(alpha)
        return job.input_gb * GB * alpha / m

    def reload_seconds_per_iteration(self, job: JobSpec, m: int,
                                     alpha: float) -> float:
        return self.disk.read_seconds(
            self.reload_bytes_per_iteration(job, m, alpha))

    def checkpoint_bytes(self, job: JobSpec, m: int) -> float:
        """Model bytes per machine written when pausing the job."""
        self._check_dop(m)
        return job.model_gb * GB / m

    # -- validation --------------------------------------------------------

    @staticmethod
    def _check_dop(m: int) -> None:
        if m < 1:
            raise WorkloadError(f"DoP must be >= 1, got {m}")

    @staticmethod
    def _check_alpha(alpha: float) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise WorkloadError(f"alpha must be in [0, 1], got {alpha}")
