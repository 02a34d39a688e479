"""Distributed training runner: wires every substrate into one experiment.

Builds the full system of Fig. 1 — synthetic dataset, work generator,
BOINC server (scheduler/web/validator), client fleet on simulated
heterogeneous preemptible instances, parameter-server pool over a KV
store — and drives it epoch by epoch:

1. publish one workunit per shard referencing the current parameter file;
2. let the event simulation flow (downloads, real local training,
   uploads, VC-ASGD assimilations, timeouts, preemptions);
3. when every workunit of the epoch is terminal and every accepted result
   is assimilated, record the epoch (mean/min/max subtask validation
   accuracy, test accuracy, simulated wall-clock);
4. stop when the accuracy target is met or ``max_epochs`` have run
   (§III-A's stopping criterion), else loop.

Client-side training is *real* NumPy training; every duration is
*simulated* time — see DESIGN.md §5.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from functools import partial

import numpy as np

from ..boinc.client import ClientDaemon
from ..boinc.files import ServerFile
from ..boinc.replication import QuorumAssimilator, QuorumConfig, logical_id
from ..boinc.scheduler import SchedulerConfig
from ..boinc.server import BoincServer
from ..boinc.server_plane import ShardedValidatorPool, ShardedWorkGenerator
from ..boinc.validator import ParameterValidator
from ..boinc.work_generator import WorkGenerator
from ..boinc.workunit import Workunit, WorkunitState
from ..data.dataset import Dataset
from ..data.synthetic import make_classification_splits
from ..errors import SchedulerError, TrainingError
from ..kvstore.eventual import EventualStore
from ..kvstore.strong import StrongStore
from ..kvstore.latency import mysql_like_latency, redis_like_latency
from ..nn.layers import Module
from ..nn.metrics import evaluate_classifier
from ..nn.models import build_model
from ..nn.serialization import compressed_size_cache_stats
from ..obs.runtime import ObservabilityConfig, RunObservability
from ..simulation.adversary import AdversaryFabric
from ..simulation.chaos import ChaosPlan, PartitionSchedule
from ..simulation.congestion import CongestedLink
from ..simulation.engine import Simulator
from ..simulation.preemption import ExponentialLifetime
from ..simulation.rng import RngRegistry
from ..simulation.tracing import Trace
from .autoscale import AutoscalingPool
from .checkpoint import Checkpoint
from .codec_plane import ParamCodecPlane, PendingPrice, VersionedParams
from .job import TrainingJobConfig
from .param_server import PARAM_KEY, ParameterServerPool
from .parallel import step_jobs_for
from .results import EpochRecord, RunResult
from .rules import ClientUpdate
from .steps import StepDispatcher, StepTask, _StepContext, draw_batch_orders

__all__ = ["DistributedRunner", "run_experiment"]

PARAM_FILE = "job:params"
# Compressed/raw ratio for float64 weight vectors; measured once from the
# npz codec on representative weights and then reused (computing a real
# compression per update would dominate runtime without changing behaviour).
PARAM_COMPRESSION_RATIO = 0.9
# A fault-intolerant rule (EASGD, BSP AllReduce) cannot finish an epoch
# while any shard's update is missing; the runner reissues replacement
# workunits for the missing shards at most this many times before declaring
# the barrier permanently stalled.
MAX_BARRIER_RETRIES = 3
# Validation samples scored for the per-update accuracy.
VAL_EVAL_SUBSAMPLE = 256


def _attempt_key(wu: Workunit) -> tuple[str, int]:
    """Key of a workunit's current attempt: a unit reissued to the same
    client is a new attempt, with a new base and a new key."""
    return wu.wu_id, wu.num_attempts


class DistributedRunner:
    """One fully wired distributed-training experiment."""

    def __init__(
        self,
        config: TrainingJobConfig,
        resume_from: "Checkpoint | None" = None,
        observability: ObservabilityConfig | None = None,
    ) -> None:
        self.config = config
        self.rngs = RngRegistry(config.seed)
        self.sim = Simulator()
        obs_config = (
            observability if observability is not None else ObservabilityConfig()
        )
        self.trace = Trace(max_records=obs_config.trace_max_records)
        # Observability bundle (metrics collector + invariant auditor by
        # default).  Attached before any component can emit, so the
        # auditor sees the complete event stream from the first publish.
        self.obs = RunObservability(obs_config, trace=self.trace, sim=self.sim)
        self._resume = resume_from
        self._time_offset = 0.0
        # The server-side merge rule.  Deep-copied so stateful rules
        # (DC-ASGD backups, BSP round counters) never leak between runs or
        # sweep points sharing one config object.
        self.rule = copy.deepcopy(config.resolved_update_rule())
        # Staleness instrumentation (see _republish_params / _on_assimilated):
        # publish counter for the parameter file and the per-merge
        # staleness samples, each the publish count at assimilation minus
        # the merged update's base version.  Initialized before any
        # publish happens.
        self._param_publish_count = 0
        self.staleness_samples: list[int] = []
        # Barrier bookkeeping for fault-intolerant rules (see run()).
        self.barrier_stalls = 0
        self._barrier_round = 0
        self._epoch_param_file = PARAM_FILE
        # Layered chaos plan (transfer faults, partitions, PS crashes, KV
        # windows).  Kept on the runner so every wiring site below reads
        # one place; None when the job is healthy.
        self._chaos: ChaosPlan | None = config.faults.chaos
        # Latest epoch-boundary checkpoint, the durable state a restarting
        # sole parameter server recovers from (see _restore_last_checkpoint).
        self._last_checkpoint: Checkpoint | None = None
        if resume_from is not None:
            self.rule.load_state_dict(resume_from.rule_state)
            self._param_publish_count = resume_from.publish_count

        # ---- data ------------------------------------------------------
        data_rng = self.rngs.stream("data")
        self.train_set, self.val_set, self.test_set = make_classification_splits(
            config.data,
            data_rng,
            num_train=config.num_train,
            num_val=config.num_val,
            num_test=config.num_test,
            flat=config.flat_features,
        )

        # ---- model template and initial parameters ----------------------
        init_rng = self.rngs.stream("init")
        self._eval_model: Module = build_model(config.model, init_rng)
        # Zero-copy parameter plane: the eval model lives in one flat arena
        # in the order of the cached layout that drives every pack/unpack
        # for this model shape, so evaluating a vector is a single copy.
        self._eval_arena = self._eval_model.to_arena()
        self._layout = self._eval_arena.layout
        # The one place training runs in this process (DESIGN.md §8.5):
        # the dispatcher's own chunks and the warm start.  Every step
        # overwrites the whole state from its base vector, so the
        # template's own initial weights are immaterial.
        local = config.local_training
        self._steps = _StepContext(
            build_model(config.model, np.random.default_rng(0)),
            batch_size=local.batch_size,
            optimizer=local.optimizer,
            learning_rate=local.learning_rate,
            collect_gradient=self.rule.uses_gradient,
        )
        self.warm_start_seconds = 0.0
        if config.warm_start_passes > 0 and resume_from is None:
            self._warm_start()
        initial_vec = self._layout.pack(self._eval_arena)
        if resume_from is not None:
            # Recover the server parameter copy from the checkpoint (the
            # role the §III-D database plays after a server failure).
            if resume_from.params.size != initial_vec.size:
                raise TrainingError(
                    f"checkpoint has {resume_from.params.size} scalars but the "
                    f"model needs {initial_vec.size}; config mismatch?"
                )
            initial_vec = np.array(resume_from.params, dtype=np.float64)
            self._time_offset = resume_from.elapsed_s
        self.param_size = initial_vec.size
        self._param_raw_bytes = initial_vec.nbytes
        self._param_wire_bytes = int(initial_vec.nbytes * PARAM_COMPRESSION_RATIO)

        # ---- transfer codec plane (DESIGN.md codec section) ---------------
        # None keeps the historical fixed-ratio accounting byte-for-byte;
        # a configured codec replaces publish/upload wire sizes with
        # measured encoded sizes and (for lossy codecs) makes clients
        # train on the decoded copies.  Error feedback is disabled under
        # replication: sibling replicas must decode bit-identically.
        self._codec_plane: ParamCodecPlane | None = None
        if config.codec is not None:
            self._codec_plane = ParamCodecPlane(
                config.codec,
                layout=self._layout,
                trace=self.trace,
                now_fn=lambda: self.sim.now,
                topk_fraction=config.codec_topk,
                quant=config.codec_quant,
                error_feedback=config.replicas == 1,
            )
            if resume_from is not None:
                self._codec_plane.load_state_dict(resume_from.codec_state)
        # Snapshot of the process-global compressed_size memo stats, so
        # finalize can report this run's hits/misses to the (digest-
        # excluded) obs metrics registry.
        self._compressed_size_stats0 = compressed_size_cache_stats()

        # ---- parameter store --------------------------------------------
        if config.store_kind == "eventual":
            self.store = EventualStore(
                self.sim, redis_like_latency(), name="redis", trace=self.trace
            )
        else:
            self.store = StrongStore(
                self.sim, mysql_like_latency(), name="mysql", trace=self.trace
            )
        self.store.put_now(PARAM_KEY, initial_vec)
        if self._chaos is not None and self._chaos.kv_windows:
            self.store.set_fault_windows(self._chaos.kv_windows)

        # ---- server-side compute (PS workers share these cores) ----------
        from ..simulation.resources import ComputeResource

        ps_spec = replace(
            config.server_spec,
            name="ps-cores",
            vcpus=config.ps_effective_cores,
        )
        self.server_cpu = ComputeResource(self.sim, ps_spec, contention=0.15)

        # ---- validation subsample used for per-update accuracy -----------
        k = min(VAL_EVAL_SUBSAMPLE, len(self.val_set))
        self._val_x = self.val_set.x[:k]
        self._val_y = self.val_set.y[:k]

        # ---- parameter-server pool ----------------------------------------
        pool_kwargs = dict(
            sim=self.sim,
            num_servers=config.num_param_servers,
            store=self.store,
            rule=self.rule,
            server_cpu=self.server_cpu,
            evaluate_fn=self._evaluate_vec,
            republish_fn=self._republish_params,
            validation_work_units=config.validation_work_units,
            param_nbytes=self._param_wire_bytes,
            trace=self.trace,
        )
        if config.ps_autoscale:
            self.pool: ParameterServerPool = AutoscalingPool(
                policy=config.autoscale_policy, **pool_kwargs
            )
        else:
            self.pool = ParameterServerPool(**pool_kwargs)
        self.pool.on_total_outage_restart = self._restore_last_checkpoint
        if self._chaos is not None:
            self._schedule_ps_chaos(self._chaos)

        # ---- optional replication quorum in front of the pool -------------
        self.quorum: QuorumAssimilator | None = None
        assimilator: object = self.pool
        if config.replicas > 1:
            self.quorum = QuorumAssimilator(
                inner=self.pool,
                config=QuorumConfig(
                    replicas=config.replicas,
                    min_quorum=config.quorum,
                    collusion_aware=config.collusion_guard,
                ),
                trace=self.trace,
                sim=self.sim,
            )
            self.quorum.on_decided = self._cancel_sibling_replicas
            assimilator = self.quorum

        # ---- BOINC server ----------------------------------------------------
        # One validator per server plane, every one with the same checks.
        make_validator = partial(
            ParameterValidator,
            expected_size=self.param_size,
            max_norm=config.max_param_norm,
            trace=self.trace,
        )
        validator = make_validator()
        transfer_faults = None
        partitions = None
        if self._chaos is not None:
            if self._chaos.transfer.active:
                transfer_faults = self._chaos.transfer
            if self._chaos.partitions:
                partitions = PartitionSchedule(self._chaos.partitions)
        self.server = BoincServer(
            sim=self.sim,
            assimilator=assimilator,
            validator=validator,
            scheduler_config=SchedulerConfig(
                timeout_s=config.subtask_timeout_s,
                max_attempts=config.max_attempts,
                heartbeats_enabled=config.heartbeats_enabled,
                work_fetch=config.work_fetch,
                quarantine_after=config.quarantine_after,
            ),
            compression_enabled=config.compression_enabled,
            trace=self.trace,
            transfer_faults=transfer_faults,
            partitions=partitions,
        )
        if self._codec_plane is not None:
            # Per-client download pricing + completed-download hooks
            # (delta chains, sticky parameter versions, net.decode).
            self.server.web.codec_plane = self._codec_plane
        self.server.on_assimilated = self._on_assimilated
        # Ping-mode sleep hints fold in assimilation backpressure: an idle
        # fleet slows its polling while the merge pipeline is saturated.
        self.server.scheduler.backpressure_fn = self.pool.backpressure_s
        if self.quorum is not None:
            # Credit follows the replica-group verdict (median of the
            # winning clique's claims; losers denied), and collusion-aware
            # selection reads the scheduler's per-host reliability EWMA.
            self.server.enable_quorum_credit(self.quorum)
            self.quorum.reliability_fn = (
                lambda host: self.server.scheduler.register_client(host).reliability
            )
        # Invalidated results feed the reliability/quarantine loop only
        # when a Byzantine defense asked for it — the historical path never
        # let validator rejects perturb scheduling.
        self.server.invalid_feedback = (
            config.quarantine_after > 0 or config.collusion_guard
        )

        # ---- work generator ---------------------------------------------------
        self.work_generator = WorkGenerator(
            job_id="job",
            catalog=self.server.catalog,
            train_set=self.train_set,
            num_shards=config.num_shards,
            model_spec_json=config.model.to_json(),
            timeout_s=config.subtask_timeout_s,
            work_units_per_subtask=config.work_units_per_subtask,
            max_attempts=config.max_attempts,
            rng=self.rngs.stream("workgen"),
        )
        if config.server_planes > 1:
            # Sharded server planes: minting is partitioned by logical-id
            # hash with per-plane RNG streams, and epoch cut-over is
            # coordinated through the KV store (see boinc.server_plane).
            self.work_generator = ShardedWorkGenerator(
                inner=self.work_generator,
                planes=config.server_planes,
                store=self.store,
                sim=self.sim,
                trace=self.trace,
                plane_rngs=[
                    self.rngs.stream(f"workgen:plane{p}")
                    for p in range(config.server_planes)
                ],
            )
            self.server.validator = ShardedValidatorPool(
                [make_validator() for _ in range(config.server_planes)]
            )
        self._republish_params(initial_vec)

        # ---- multi-core execution plane (DESIGN.md §8.5) ------------------------
        # Every client step trains on the dispatcher: submitted at compute
        # start, resolved where its result is first needed.  At step_jobs=1
        # (a codec run, a sweep worker, one CPU) it forks no worker.
        self.step_jobs = step_jobs_for(config)
        wg = self.work_generator
        if isinstance(wg, ShardedWorkGenerator):
            wg = wg.inner
        self._dispatcher = StepDispatcher(
            self._steps,
            model_spec=config.model,
            shards=wg.shards,
            cohort_size=config.cohort_size,
            jobs=self.step_jobs,
        )
        # What the compute-start hook noted, keyed by attempt: the step,
        # the compute task and the client.  Popped when the executor runs
        # at compute end, or by the task's cancel hook when the compute
        # dies first (timeout, cancellation, preemption).
        self._prepared: dict[tuple[str, int], tuple[StepTask, object, str]] = {}

        # ---- adversary fabric (Byzantine clients) -------------------------------
        # Built before the fleet so behaviour assignments resolve against
        # the client ids about to be launched.  None (no plan / empty
        # plan) keeps the run bit-identical to a fabric-free build: honest
        # clients never touch this object.
        adv_plan = config.faults.adversary
        self._adversary: AdversaryFabric | None = None
        if adv_plan is not None and adv_plan.active:
            self._adversary = AdversaryFabric(adv_plan, self.rngs, self.trace)

        # ---- client fleet ------------------------------------------------------
        self._client_counter = 0
        self.preemptions = 0
        for i in range(config.num_clients):
            self._launch_client(config.spec_for_client(i))
        if self._adversary is not None:
            # Sybil fleets join after the honest fleet: many logical
            # clients behind one adversary identity (§II-A open enrollment
            # means the server cannot tell them apart from volunteers).
            for fleet in adv_plan.sybils:
                for k in range(fleet.count):
                    sid = f"sybil-{fleet.identity}-{k:03d}"
                    self._adversary.register_sybil(fleet, sid)
                    self._launch_client(
                        config.spec_for_client(config.num_clients + k),
                        client_id=sid,
                    )
                    self.trace.emit(
                        self.sim.now,
                        "adv.sybil_joined",
                        client=sid,
                        identity=fleet.identity,
                    )
        self._volunteers_joined = 0
        if config.faults.volunteer_arrivals_per_hour > 0:
            self._schedule_next_volunteer()

        # ---- epoch bookkeeping ---------------------------------------------------
        self._current_epoch = 0  # 0-based internally; reported 1-based
        self._epoch_workunits: list[Workunit] = []
        # Scheduler terminal count when the epoch published (every earlier
        # unit is terminal by then), so the count beyond it is this epoch's.
        self._epoch_terminal_base = 0
        self._epoch_assimilated = 0
        if config.update_rule is None:
            # Legacy label: default VC-ASGD runs keep the paper's
            # "PnCnTn:alpha=..." shorthand (result tables/sweeps rely on it).
            label = f"{config.label}:{config.alpha_schedule.describe()}"
        else:
            label = f"{config.label}:{self.rule.describe()}"
        if resume_from is not None:
            self._current_epoch = resume_from.epochs_completed
            self.result = resume_from.seed_result()
            self.result.label = self.result.label or label
            if self._current_epoch >= config.max_epochs:
                raise TrainingError(
                    "checkpoint already covers max_epochs; raise max_epochs to resume"
                )
        else:
            self.result = RunResult(label=label)
        if self._chaos is not None and self._chaos.ps_crashes:
            # Epoch-0 checkpoint: even a crash before the first epoch
            # boundary has durable state to recover from.
            self._last_checkpoint = self.checkpoint()

    def _warm_start(self) -> None:
        """Downpour-style warm start (§II-B): serial passes before
        distributing.  Runs on the (simulated) server instance; the clock
        advances by the corresponding serial-training time."""
        cfg = self.config
        lt = cfg.local_training
        # One local step over the whole training set, one "epoch" per pass:
        # the optimizer state carries across passes.
        orders = draw_batch_orders(
            self.rngs.stream("warmstart"), len(self.train_set), cfg.warm_start_passes
        )
        warmed, _ = self._steps.run_group(
            self._layout.pack(self._eval_arena), [self.train_set], [orders]
        )[0]
        self._layout.unpack_into(warmed, self._eval_arena)
        # Time model: one pass over the full data costs the same work as
        # one epoch's subtasks spread over the server's cores.
        per_pass = (
            cfg.num_shards * cfg.work_units_per_subtask / lt.local_epochs
        ) / cfg.server_spec.total_rate
        self.warm_start_seconds = cfg.warm_start_passes * per_pass
        self.sim.schedule(self.warm_start_seconds, lambda: None, label="warmstart")
        self.sim.run(until=self.warm_start_seconds)
        self.trace.emit(
            self.sim.now, "warmstart.done", passes=cfg.warm_start_passes
        )

    # ------------------------------------------------------------------
    # Client fleet management
    # ------------------------------------------------------------------
    def _launch_client(self, spec, client_id: str | None = None) -> ClientDaemon:
        if client_id is None:
            cid = f"client-{self._client_counter:03d}"
            self._client_counter += 1
        else:
            cid = client_id
        cache_cap = 8e9 if self.config.sticky_files_enabled else 1.0
        link = spec.default_link()
        if self.config.congestion is not None:
            link = CongestedLink(link, self.config.congestion)
        client = ClientDaemon(
            client_id=cid,
            sim=self.sim,
            spec=spec,
            scheduler=self.server.scheduler,
            web=self.server.web,
            executor=self._execute_subtask,
            max_concurrent=self.config.max_concurrent_subtasks,
            link=link,
            rng=self.rngs.stream(f"net:{cid}"),
            cache_capacity_bytes=cache_cap,
            trace=self.trace,
        )
        client.on_train_start = self._prepare_subtask
        self.server.attach_client(client)
        if self.config.faults.preemption_hourly_p > 0:
            lifetime = ExponentialLifetime(self.config.faults.preemption_hourly_p)
            ttl = lifetime.sample_lifetime(self.rngs.stream(f"preempt:{cid}"))
            if np.isfinite(ttl):
                self.sim.schedule(ttl, lambda c=client, s=spec: self._preempt(c, s))
        return client

    def _schedule_next_volunteer(self) -> None:
        """Poisson arrivals of volunteer hosts (§II-A churn).

        Each arrival launches a fresh client (round-robin spec); arrivals
        stop at ``max_volunteers`` extra hosts.
        """
        faults = self.config.faults
        if (
            faults.max_volunteers
            and self._volunteers_joined >= faults.max_volunteers
        ):
            return
        rate_per_s = faults.volunteer_arrivals_per_hour / 3600.0
        gap = float(self.rngs.stream("volunteers").exponential(1.0 / rate_per_s))

        def arrive() -> None:
            self._volunteers_joined += 1
            spec = self.config.spec_for_client(self._client_counter)
            client = self._launch_client(spec)
            self.trace.emit(
                self.sim.now, "fleet.volunteer_joined", client=client.client_id
            )
            client.poll_for_work()
            self._schedule_next_volunteer()

        self.sim.schedule(gap, arrive, label="fleet:volunteer-arrival")

    def _preempt(self, client: ClientDaemon, spec) -> None:
        if not client.alive:
            return
        self.preemptions += 1
        self.trace.emit(self.sim.now, "fleet.preemption", client=client.client_id)
        client.terminate()
        delay = self.config.faults.relaunch_delay_s
        if delay is not None:
            def relaunch() -> None:
                fresh = self._launch_client(spec)
                fresh.poll_for_work()

            self.sim.schedule(delay, relaunch, label="fleet:relaunch")

    # ------------------------------------------------------------------
    # Client-side subtask execution (real training)
    # ------------------------------------------------------------------
    def _corrupt_designated(self, client_id: str) -> bool:
        """Whether fault injection perturbs this client's uploads: the
        first ``faults.corrupt_clients`` of the ``client-<i>`` fleet (sybils
        and volunteers are never in the corrupt-index range)."""
        prefix, _, index = client_id.rpartition("-")
        return (
            prefix == "client"
            and index.isdigit()
            and int(index) < self.config.faults.corrupt_clients
        )

    def _draw_orders(self, wu: Workunit, client_id: str, n: int) -> list[np.ndarray]:
        """Pre-draw the subtask's batch permutations.

        Both branches key the generator by the *attempt*, never by draw
        order, so the permutations are independent of when in simulated
        time the draw happens.  That invariance is what lets every step
        draw at compute start (DESIGN.md §8.5) with the results of a draw
        at compute end — including runs with preemptions, timeouts and
        reissues.
        """
        cfg = self.config.local_training
        if self.config.replicas > 1:
            # Replicas must be bit-reproducible across hosts: derive the
            # batch order from the logical workunit, not from the client.
            batch_rng = self.rngs.fresh(f"batches:{logical_id(wu.wu_id)}")
        else:
            batch_rng = self.rngs.fresh(f"batches:{wu.wu_id}:{client_id}")
        return draw_batch_orders(batch_rng, n, cfg.local_epochs)

    def _prepare_subtask(self, wu: Workunit, payloads: dict, task) -> None:
        """Compute-start hook: submit the attempt's step and note it.

        Draws the step's batch orders and queues its RNG-free compute
        with the dispatcher, so every subtask training concurrently over
        this simulated interval can fuse into one cohort, train on a
        worker while the simulation runs on, or train ahead while an
        upload deflates (:meth:`_next_finisher`).  The note keeps the step,
        the compute ``task`` and the client under the attempt's key; the
        task's cancel hook drops it (:meth:`_drop_note`).
        Batch orders are keyed per attempt (see :meth:`_draw_orders`), so
        training before compute end cannot shift any other attempt's
        permutations; the run stays bit-identical to serial even across
        preemptions and timeouts (DESIGN.md §8.5).
        """
        client_id = wu.current_attempt.client_id
        published = payloads[wu.input_files[1]]
        shard: Dataset = payloads[self.work_generator.shard_file_name(wu.shard_index)]
        orders = self._draw_orders(wu, client_id, len(shard))
        step = self._dispatcher.submit(published, wu.shard_index, orders, wu.wu_id)
        key = _attempt_key(wu)
        self._prepared[key] = step, task, client_id
        task.on_cancel = partial(self._drop_note, key)

    def _drop_note(self, key: tuple[str, int]) -> None:
        """Cancel hook of a noted compute: the attempt never reaches its
        compute end, so its note goes, the dispatcher forgets its step
        and the codec plane its prepared upload.  Bound to the key, not
        the step, so a finished step is never kept alive by its task."""
        self._dispatcher.discard(self._prepared.pop(key)[0])
        if self._codec_plane is not None:
            self._codec_plane.discard_prepared(key)

    def _execute_subtask(self, wu: Workunit, payloads: dict) -> tuple[object, int]:
        """Compute end: the upload of the step noted at compute start.

        Returns a :class:`ClientUpdate` carrying the new parameter copy,
        the base publish version it trained from and — only when the job's
        rule consumes gradients — the accumulated local gradient.  In a
        codec run with a noted attempt free to train ahead, the upload is
        deflated on the pricing thread while that attempt's step trains
        and its own upload is encoded, its deflate queued behind this one
        (:meth:`_price_ahead`); this upload's size resolves before this
        returns.
        """
        key = _attempt_key(wu)
        step = self._prepared.pop(key)[0]
        ahead = self._next_finisher() if self._codec_plane is not None else None
        payload, wire = self._compute_subtask(
            wu, payloads, step, ahead is not None, key
        )
        if isinstance(wire, PendingPrice):
            # Train while the pricing thread deflates the upload.  Every
            # vector of this subtask but its payload is dead by now: it
            # died with _compute_subtask's frame, or with ``step`` here.
            del step
            if ahead is not None:
                self._price_ahead(ahead)
            wire = wire.resolve()
        return payload, wire

    def _price_ahead(self, key: tuple[str, int]) -> None:
        """Train the noted attempt ``key`` now and, when its upload's
        encode draws no RNG and reads no quorum payload, offer it to the
        codec plane to encode and queue its deflate; the plane commits it
        at the attempt's compute end if the client's residual has not
        moved meanwhile (which codecs and streams price ahead is the
        plane's call).

        Corrupt-designated and adversary-compromised clients draw at
        compute end, and replicated jobs must encode sibling payloads
        identically, so those uploads encode there as before.  So does
        the last attempt still computing: nothing trains ahead at its
        compute end, and the codec prices its upload inline through
        ``Codec.encode``, keeping one priced encode per drained pipeline
        on the path the benchmark's ``nn.codecs.encode`` and
        ``nn.serialization.zlib`` tiles time.
        """
        step, _, client_id = self._prepared[key]
        new_vec, gradient = self._dispatcher.resolve(step)
        if (
            len(self._prepared) < 2
            or self._adversary is not None
            or self.config.replicas > 1
            or self._corrupt_designated(client_id)
        ):
            return
        update = ClientUpdate(
            client_id=client_id,
            params=new_vec,
            gradient=gradient,
            base_version=step.published.version,
        )
        self._codec_plane.encode_upload(
            update, step.published, step.wu_id, attempt=key, ahead=True
        )

    def _compute_subtask(
        self,
        wu: Workunit,
        payloads: dict,
        step: StepTask,
        defer_price: bool,
        key: tuple[str, int],
    ) -> tuple[object, "int | PendingPrice"]:
        """One compute end's upload: the attempt's ``step`` resolved,
        perturbed and encoded; ``defer_price`` and the attempt ``key`` go
        to the codec plane's upload encode."""
        client_id = wu.current_attempt.client_id
        published = payloads[wu.input_files[1]]  # the parameter file
        new_vec, gradient = self._dispatcher.resolve(step)
        new_vec = self._maybe_corrupt(client_id, new_vec)
        param_vec = published.decode_params()
        claimed: float | None = None
        if self._adversary is not None and self._adversary.compromised(client_id):
            tampered = self._adversary.tamper(
                client_id=client_id,
                wu_id=wu.wu_id,
                logical_id=logical_id(wu.wu_id),
                base_params=param_vec,
                honest_params=new_vec,
                honest_gradient=gradient,
                honest_credit=wu.work_units,
                now=self.sim.now,
            )
            new_vec = tampered.params
            gradient = tampered.gradient
            claimed = tampered.claimed_credit
        update = ClientUpdate(
            client_id=client_id,
            params=new_vec,
            gradient=gradient,
            base_version=published.version,
            claimed_credit=claimed,
        )
        if self._codec_plane is not None:
            return self._codec_plane.encode_upload(
                update, param_vec, wu.wu_id, defer_price, key
            )
        return update, self._param_wire_bytes

    def _next_finisher(self) -> tuple[str, int] | None:
        """The key of the noted attempt whose compute ends next, to train
        ahead while the pricing thread deflates an upload; None when none
        is noted or one already holds a result (at most one is held).

        A cancelled compute drops its own note, so every noted attempt is
        still computing.  The next finisher is read off each client's
        compute resource without advancing it.  A step reads only inputs
        fixed at compute start, so its result is the one the attempt's
        compute end would compute (DESIGN.md §8.6, invariant 4).
        """
        noted = self._prepared
        if not noted or any(step.result is not None for step, _, _ in noted.values()):
            return None

        def seconds_left(key) -> float:
            _, task, client_id = noted[key]
            return self.server.clients[client_id].resource.seconds_to_finish(task)

        return min(noted, key=seconds_left)

    def _maybe_corrupt(self, client_id: str, vec: np.ndarray) -> np.ndarray:
        """Fault injection: designated clients upload perturbed parameters.

        Corruption is *subtle* (finite, bounded noise) so it passes the
        validator's sanity checks — exactly the threat replication with
        quorum exists to catch.
        """
        if not self._corrupt_designated(client_id):
            return vec
        rng = self.rngs.stream(f"corrupt:{client_id}")
        scale = self.config.faults.corruption_scale * float(np.abs(vec).mean())
        self.trace.emit(self.sim.now, "fault.corrupt_upload", client=client_id)
        return vec + rng.normal(scale=max(scale, 1e-12), size=vec.shape)

    # ------------------------------------------------------------------
    # Server-side hooks
    # ------------------------------------------------------------------
    def _evaluate_vec(self, vec: np.ndarray) -> tuple[float, float]:
        """Validation loss/accuracy of a parameter vector (real eval)."""
        self._layout.unpack_into(vec, self._eval_arena)
        return evaluate_classifier(self._eval_model, self._val_x, self._val_y)

    def _test_accuracy(self, vec: np.ndarray) -> float:
        self._layout.unpack_into(vec, self._eval_arena)
        _, acc = evaluate_classifier(self._eval_model, self.test_set.x, self.test_set.y)
        return acc

    def _republish_params(self, vec: np.ndarray, source_wu: str | None = None) -> None:
        """Expose the merged server copy as the downloadable parameter file.

        ``source_wu`` is the unit whose merge produced ``vec`` (the pool's
        ``republish_fn``); initial and restore publishes have none.
        """
        self._param_publish_count += 1
        fields: dict = {"version": self._param_publish_count}
        if source_wu is not None:
            fields["wu"] = source_wu
        self.trace.emit(self.sim.now, "params.publish", **fields)
        payload = self._publish_param_file(PARAM_FILE, vec)
        # Only a rule that keeps the snapshot pays for decoding it.
        self.rule.snapshot_sent(
            self._param_publish_count,
            payload.decode_params() if self.rule.keeps_snapshots else vec,
        )

    def _publish_param_file(
        self, name: str, vec: np.ndarray, frozen: bool = False
    ) -> VersionedParams:
        """Publish ``vec`` as parameter file ``name``, tagged with the
        current publish version; returns the file's payload.

        A lossy file rests encoded and decodes on every use, so a kept
        snapshot and every client see exactly the downloaded bytes.  A
        ``frozen`` replica copy encodes like any publish but does not
        advance the delta chain: it aliases the current version.
        """
        version = self._param_publish_count
        if self._codec_plane is None:
            payload, wire = VersionedParams(vec, version), self._param_wire_bytes
        else:
            payload, wire = self._codec_plane.encode_publish(vec, version, frozen)
        self.server.catalog.publish(
            ServerFile(
                name=name,
                payload=payload,
                raw_size=self._param_raw_bytes,
                compressed_size=wire,
                sticky=False,
            )
        )
        return payload

    def _schedule_ps_chaos(self, plan: ChaosPlan) -> None:
        """Install the plan's parameter-server crash/restart schedule.

        Crash times are seconds from run start; each crash's restart (when
        configured) brings up a replacement worker after its delay.
        """
        for crash in plan.ps_crashes:
            self.sim.schedule(
                crash.at_s, self.pool.crash_server, label="chaos:ps-crash"
            )
            if crash.restart_delay_s is not None:
                self.sim.schedule(
                    crash.at_s + crash.restart_delay_s,
                    self.pool.restart_server,
                    label="chaos:ps-restart",
                )

    def _restore_last_checkpoint(self) -> None:
        """Recover the server copy after a total parameter-server outage.

        A restarting sole server has no live peers to adopt from; its
        durable state is the latest epoch checkpoint (the §III-D database
        role).  The checkpoint round-trips through its serialized form, so
        the digest verification of the recovery path is exercised on every
        restore, then the restored vector is written to the store and
        republished for download.
        """
        if self._chaos is None or not self._chaos.restore_from_checkpoint:
            return
        if self._last_checkpoint is None:
            return
        restored = Checkpoint.from_bytes(self._last_checkpoint.to_bytes())
        vec = np.array(restored.params, dtype=np.float64)
        self.store.put_now(PARAM_KEY, vec)
        self.rule.load_state_dict(restored.rule_state)
        self._republish_params(vec)
        self.trace.emit(
            self.sim.now,
            "ps.restore",
            epochs_completed=restored.epochs_completed,
        )

    def _cancel_sibling_replicas(self, logical: str) -> None:
        """Quorum reached: abort the outstanding sibling replicas so their
        hosts stop burning cycles (BOINC's redundant-result cancellation)."""
        from ..boinc.replication import replica_id

        for replica in range(self.config.replicas):
            wu_id = replica_id(logical, replica)
            try:
                wu = self.server.scheduler.get_workunit(wu_id)
            except SchedulerError:
                continue
            if wu.is_terminal or wu.state is WorkunitState.VALIDATING:
                continue
            computing_client = self.server.scheduler.cancel_workunit(wu_id)
            if computing_client is not None:
                client = self.server.clients.get(computing_client)
                if client is not None and client.alive:
                    client.abort_workunit(wu_id)
        self.server.poke_clients()

    def _on_assimilated(self, wu: Workunit, update: ClientUpdate) -> None:
        if wu.epoch == self._current_epoch:
            self._epoch_assimilated += 1
        self.staleness_samples.append(self._param_publish_count - update.base_version)

    # ------------------------------------------------------------------
    # Epoch loop
    # ------------------------------------------------------------------
    def _publish_epoch(self) -> None:
        param_file = PARAM_FILE
        if self.config.replicas > 1:
            # BOINC workunit input files are immutable: with replication the
            # epoch's subtasks reference a *frozen* parameter copy so that
            # sibling replicas are bit-reproducible and can reach quorum.
            param_file = f"{PARAM_FILE}:e{self._current_epoch:03d}"
            self._publish_param_file(
                param_file, self.pool.current_params().copy(), frozen=True
            )
        self._epoch_param_file = param_file
        self._barrier_round = 0
        self._epoch_terminal_base = self.server.scheduler.terminal_count()
        self._epoch_assimilated = 0
        self.obs.timer("run.epoch").start()
        if isinstance(self.work_generator, ShardedWorkGenerator):
            # Sharded planes: the workunit list is known synchronously, but
            # publication waits for every plane's KV cut-over marker.
            self._epoch_workunits = self.work_generator.generate_epoch(
                self._current_epoch,
                param_file,
                replicas=self.config.replicas,
                publish=self.server.publish_workunits,
            )
        else:
            self._epoch_workunits = self.work_generator.make_epoch(
                self._current_epoch, param_file, replicas=self.config.replicas
            )
            self.server.publish_workunits(self._epoch_workunits)
        self.trace.emit(self.sim.now, "epoch.start", epoch=self._current_epoch)

    def _epoch_complete(self) -> bool:
        # O(1) on every simulated event: barrier retries and replicas are
        # in both the scheduler's count and ``_epoch_workunits``.
        terminal = self.server.scheduler.terminal_count() - self._epoch_terminal_base
        if terminal < len(self._epoch_workunits):
            return False
        done = sum(
            1 for wu in self._epoch_workunits if wu.state is WorkunitState.DONE
        )
        return self._epoch_assimilated >= done

    def _missing_shard_indices(self) -> list[int]:
        """Shards whose logical subtask produced no accepted result this
        epoch (every replica failed permanently)."""
        covered = {
            wu.shard_index
            for wu in self._epoch_workunits
            if wu.state is WorkunitState.DONE
        }
        wanted = {wu.shard_index for wu in self._epoch_workunits}
        return sorted(wanted - covered)

    def _barrier_blocked(self) -> bool:
        """Handle an incomplete barrier for a fault-intolerant rule.

        EASGD and BSP AllReduce need *every* shard's update each epoch
        (§II-B: the schemes the paper's VC-ASGD replaces precisely because
        volunteers vanish).  When shards failed permanently, reissue
        replacement workunits (a real BOINC server would keep the epoch
        open); after ``MAX_BARRIER_RETRIES`` rounds the barrier is declared
        permanently stalled.  Returns True when the epoch must keep
        running.
        """
        if self.rule.fault_tolerant:
            return False
        missing = self._missing_shard_indices()
        if not missing:
            return False
        if self._barrier_round >= MAX_BARRIER_RETRIES:
            raise TrainingError(
                f"{self.rule.describe()} barrier stalled: shards {missing} "
                f"of epoch {self._current_epoch + 1} failed permanently "
                f"after {self._barrier_round} reissue rounds; "
                "fault-intolerant rules need an update from every subtask"
            )
        self._barrier_round += 1
        self.barrier_stalls += 1
        retries = self.work_generator.make_retries(
            self._current_epoch,
            self._epoch_param_file,
            missing,
            round_index=self._barrier_round,
            replicas=self.config.replicas,
        )
        self._epoch_workunits.extend(retries)
        self.server.publish_workunits(retries)
        self.trace.emit(
            self.sim.now,
            "epoch.barrier_stall",
            epoch=self._current_epoch,
            missing=len(missing),
            round=self._barrier_round,
        )
        return True

    def _record_epoch(self) -> EpochRecord:
        epoch = self._current_epoch
        succeeded = [
            wu for wu in self._epoch_workunits if wu.state is WorkunitState.DONE
        ]
        if not succeeded:
            rejected = self.server.validator.rejected
            hint = (
                f"{rejected} result(s) failed validation — the update rule "
                "may have diverged (try a smaller server_lr)"
                if rejected
                else "check fault configuration"
            )
            raise TrainingError(
                f"epoch {epoch + 1}: every subtask failed permanently; {hint}"
            )
        mean, lo, hi = self.pool.epoch_accuracy_summary(epoch)
        current = self.pool.current_params()
        record = EpochRecord(
            epoch=epoch + 1,
            end_time_s=self.sim.now + self._time_offset,
            val_accuracy_mean=mean,
            val_accuracy_min=lo,
            val_accuracy_max=hi,
            test_accuracy=self._test_accuracy(current),
            alpha=self.config.alpha_schedule.alpha_at(epoch + 1),
            assimilations=self._epoch_assimilated,
            timeouts_so_far=self.server.scheduler.timeouts,
            lost_updates_so_far=getattr(self.store, "lost_updates", 0),
        )
        self.trace.emit(
            self.sim.now, "epoch.end", epoch=epoch, accuracy=mean, spread=hi - lo
        )
        self.obs.timer("run.epoch").stop()
        return record

    def run(self) -> RunResult:
        """Execute the full training job; returns the per-epoch results.

        With a codec, publishes are priced on the plane's pricing thread
        for the duration of this call only; the dispatcher's workers are
        stopped before it returns or raises.
        """
        if self._codec_plane is not None:
            self._codec_plane.start_pricing()
        try:
            return self._run()
        finally:
            self._dispatcher.shutdown()
            if self._codec_plane is not None:
                self._codec_plane.stop_pricing()

    def _run(self) -> RunResult:
        config = self.config
        self.obs.timer("run.total").start()
        self._publish_epoch()
        while True:
            progressed = self.sim.step()
            if not progressed:
                raise TrainingError(
                    "simulation stalled: no events pending but the epoch "
                    f"{self._current_epoch + 1} is incomplete "
                    f"(unsent={self.server.scheduler.unsent_count()}, "
                    f"in_progress={self.server.scheduler.in_progress_count()})"
                )
            if not self._epoch_complete():
                continue
            if self._barrier_blocked():
                continue
            if self._codec_plane is not None:
                self._codec_plane.discard_prepared()
                self._codec_plane.settle()
            record = self._record_epoch()
            self.result.append(record)
            if self._chaos is not None and self._chaos.ps_crashes:
                self._last_checkpoint = self.checkpoint()
            reached_target = (
                config.target_accuracy is not None
                and record.val_accuracy_mean >= config.target_accuracy
            )
            if reached_target:
                self.result.stopped_reason = "target_accuracy"
                break
            if self._current_epoch + 1 >= config.max_epochs:
                self.result.stopped_reason = "max_epochs"
                break
            self._current_epoch += 1
            self._publish_epoch()
        self.obs.timer("run.total").stop()
        self._finalize_counters()
        # Always-on audit: the run only counts as successful if every
        # conservation law held (raises InvariantViolation otherwise).
        self.obs.finalize(self)
        return self.result

    def telemetry(self) -> dict:
        """Schema-versioned telemetry document for this (finished) run."""
        from ..obs.telemetry import build_run_telemetry

        return build_run_telemetry(self)

    def _finalize_counters(self) -> None:
        sched = self.server.scheduler
        self.result.counters = {
            "timeouts": sched.timeouts,
            "reissues": sched.reissues,
            "cancellations": sched.cancellations,
            "heartbeats": sched.heartbeats,
            "preemptions": self.preemptions,
            "assimilations": self.pool.stats.processed,
            "lost_updates": getattr(self.store, "lost_updates", 0),
            "store_updates": self.store.updates,
            "bytes_down": self.server.web.bytes_down,
            "bytes_up": self.server.web.bytes_up,
            "cache_hits": sum(c.cache.hits for c in self.server.clients.values()),
            "cache_misses": sum(c.cache.misses for c in self.server.clients.values()),
            "volunteers_joined": self._volunteers_joined,
        }
        # Fleet-scale extras, gated on their configs so default ("poke",
        # single-plane) runs keep the pre-refactor counter set bit-for-bit.
        if self.config.work_fetch == "ping":
            self.result.counters["pings"] = sched.pings
        if isinstance(self.work_generator, ShardedWorkGenerator):
            self.result.counters["plane_cutovers"] = self.work_generator.cutovers
        if not self.rule.fault_tolerant:
            self.result.counters["barrier_stalls"] = self.barrier_stalls
        if self.staleness_samples:
            samples = np.asarray(self.staleness_samples)
            self.result.counters["mean_staleness_x100"] = int(
                round(100 * float(samples.mean()))
            )
            self.result.counters["max_staleness"] = int(samples.max())
        if isinstance(self.pool, AutoscalingPool):
            self.result.counters.update(
                {
                    "ps_scale_ups": self.pool.scale_ups,
                    "ps_scale_downs": self.pool.scale_downs,
                    "ps_final_workers": self.pool.num_servers,
                }
            )
        if self.quorum is not None:
            self.result.counters.update(
                {
                    "quorums_reached": self.quorum.quorums_reached,
                    "replica_disagreements": self.quorum.disagreements,
                    "replicas_discarded": self.quorum.discarded_extras,
                }
            )
        if self._chaos is not None and self._chaos.active:
            clients = self.server.clients.values()
            self.result.counters.update(
                {
                    "transfer_failures": self.server.web.transfers_failed,
                    "transfer_retries": sum(c.transfer_retries for c in clients),
                    "transfers_abandoned": sum(
                        c.transfers_abandoned for c in clients
                    ),
                    "bytes_wasted": self.server.web.bytes_wasted,
                    "net_partition_blocks": self.trace.count("net.partition"),
                    "ps_crashes": self.pool.crashes,
                    "ps_recoveries": self.pool.recoveries,
                    "ps_adoptions": self.pool.adoptions,
                    "kv_outage_blocks": self.store.outage_blocked_ops,
                    "kv_degraded_ops": self.store.degraded_ops,
                }
            )
        # Byzantine extras, gated identically: adversary-free, defense-free
        # runs keep their historical counter set bit-for-bit.
        if self._adversary is not None:
            self.result.counters.update(
                {
                    "adv_tampered_uploads": self._adversary.tampered_uploads,
                    "adv_inflated_claims": self._adversary.inflated_claims,
                }
            )
        if self.config.quarantine_after > 0:
            self.result.counters["hosts_quarantined"] = sched.hosts_quarantined
        if self.config.collusion_guard and self.quorum is not None:
            self.result.counters["quorums_failed"] = self.quorum.quorums_failed
        # Codec extras, gated identically: codec-free runs keep their
        # historical counter set bit-for-bit.  All integers derived from
        # encoded content — CPU times stay on the plane object.
        if self._codec_plane is not None:
            self.result.counters.update(self._codec_plane.counters())
        if self.obs.registry is not None:
            # Process-global compressed_size memo stats (digest-excluded:
            # the memo is shared across runs, so these are not
            # deterministic per run and must never enter counters).
            hits, misses = compressed_size_cache_stats()
            hits0, misses0 = self._compressed_size_stats0
            self.obs.registry.counter("serialization.compressed_size.hits").incr(
                hits - hits0
            )
            self.obs.registry.counter("serialization.compressed_size.misses").incr(
                misses - misses0
            )
            plane = self._codec_plane
            if plane is not None:
                # Host-side, like the CPU seconds: where pricing time went.
                self.obs.registry.gauge("codec.encode_cpu_s").set(plane.encode_cpu_s)
                self.obs.registry.gauge("codec.decode_cpu_s").set(plane.decode_cpu_s)
                for name, value in plane.stats.items():
                    self.obs.registry.gauge(f"codec.{name}").set(value)


    def checkpoint(self) -> Checkpoint:
        """Snapshot the job for later resumption (server-failure recovery).

        Captures the rule's internal state and the publish counter, so a
        restarted server resumes with delay compensation / staleness
        bookkeeping intact rather than silently reset.
        """
        return Checkpoint.from_result(
            self.result,
            self.pool.current_params(),
            rule_state=self.rule.state_dict(),
            publish_count=self._param_publish_count,
            codec_state=(
                self._codec_plane.state_dict()
                if self._codec_plane is not None
                else {}
            ),
        )


def run_experiment(
    config: TrainingJobConfig,
    resume_from: Checkpoint | None = None,
    observability: ObservabilityConfig | None = None,
) -> RunResult:
    """Convenience wrapper: build a runner and execute the job."""
    return DistributedRunner(
        config, resume_from=resume_from, observability=observability
    ).run()
