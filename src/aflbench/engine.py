"""Asynchronous training loop: staleness simulation, server-update refresh,
the attack and filter bound once, the global update rule, and the trials
of one config run in lockstep.

One iteration processes exactly one client update per trial: a uniformly
random client reports an update computed at the global model from
``delay`` iterations ago, with the integer delay drawn uniformly from
[0, min(max_client_delay, t)]. The server applies accepted updates as
theta <- theta - learning_rate * update.

Lockstep: ``run_trials`` runs one trial per seed, and trial k is row k of
a K x p model array. A client's update depends on the global model of
``delay`` iterations ago, not on the steps taken since, so the loop works
a block of iterations at a time: ``plan_blocks`` cuts [0, T) before the
loop, with all seeds' delays, into blocks whose every base model exists
when the block starts and that cross no record and, under a filter that
reads g_s, no refresh. Each block of L iterations does once, for all rows:

* the refresh at its start, every ``server_refresh_period`` iterations
  from iteration 0, under a filter that reads g_s: one
  ``server_update_vector`` call for all rows on the shared trusted set,
  and the filter's reference prepared from it (Bindings below);
* the base models: one gather, as a copy, of the L x K bases from a
  D x K x p ring of recent models, D the run's largest drawn delay plus
  one, by a slot plan drawn before the loop (iteration s writes the model
  after s steps to slot s mod D, so a base model from ``delay``
  iterations ago sits in slot (t - delay) mod D);
* the client batches: one ``take`` of the features and one of the labels
  from the store (Data layout below) into an L x K x B x d and an
  L x K x B buffer, by a T x K x B plan of store rows built before the
  loop;
* one ``tasks`` gradient call over the (L, K, ...) stack (its docstring:
  each slice's bits are the single-trial bits) and the wire scaling
  (``server_update_vector`` states the scales);
* the crafted updates: a T x K mask of the rows whose scheduled client is
  malicious is built from the schedule before the loop, and the attack
  runs on those rows only, in (iteration, row) order, each with the
  function one trial alone would call (Gaussian noise from that trial's
  own stream);
* one filter call, ``decide``, over the L x K stack and the block's
  iteration range: it returns each update's int decision code and the
  step S, where S[i, k] is what trial k applies at the block's iteration
  i, or zeros: theta - learning_rate * 0 is theta bit for bit. The codes
  go into the block's rows of the run's T x K int8 decision array;
* the product learning_rate * S; then, per iteration, the step
  theta - (learning_rate * S)[i], written straight into the iteration's
  ring slot, which is then theta;
* the finiteness check, on the last model only: a non-finite entry stays
  non-finite under subtraction. When it fires, each newly diverged row's
  first non-finite model is read back from the ring slots the block
  wrote, which are distinct, as L <= D.

At the metric cadence, which always ends a block, one record step for all
rows: a copy of the models of the rows that have not diverged, kept with
their ids in one list, in iteration order. A row whose model leaves the
finite range gets its divergence record at the iteration it left, kept in
the same list for that one row, and that is its last record: it is never
recorded again. Its model there is its final model, kept in a K x p array
beside a K-bool divergence vector. After the last block, each entry of the
list is scored by one ``evaluate`` call (``_bind_evaluate``): a record's
live models as one stack, and a divergence record with no scoring, each
with its rows' accepted, rejected and buffered counts, read at its
iteration from one cumulative count of the decision array by code. So the
loop neither scores nor counts, and the list holds T / ``METRIC_CADENCE``
x K x p floats, less than the T x K x B plan whenever p <= 800. The plan
is released before ``evaluate`` is bound, so the scoring sets it builds
take the plan's place rather than adding to it. At the end
of the divergent block the row's ring slots are zeroed, the model it holds
included, and it runs on from zero, the model every trial starts from,
until the last row has diverged, which ends the loop. So row k is trial k
for the whole run, every array keeps its K rows, and rows never move. The
``TrialResult``s are built once, after the scoring. Rows are independent,
so a trial's output does not depend on the seeds run beside it, and K = 1
is simply one trial.

Bindings, each made once per run: ``_bind_filter`` (the configured
``defenses`` filter, with the run's T x K client ids and the model length
p: Kardam's on one ``KardamHistory`` for the run, which plans its keys by
trial and client from them and makes its p-wide history rows when it is
built, and BASGD's on one state per trial; AsyncSGD applies
the stack as sent; and the reference that AFLGuard and Zeno++ prepare
from g_s at each refresh), ``_bind_attack`` (with the
adaptive attack's threat scope) and, after the loop, ``_bind_evaluate``,
which precomputes what every record shares and theta does not change: the
regression truths (the test features times theta*, when theta* is known),
or the class-major test set (``metrics.class_major``) and, under the
backdoor attack, the probe (the eligible test rows with the trigger
applied, ``metrics.backdoor_probe``).
The bound functions look up the ``defenses``, ``tasks``, ``attacks`` and
``metrics`` functions, and this module's ``make_threat_knowledge`` and
``server_update_vector``, by name at each call, so a wrapper patched onto
one sees every call.

Randomness: a trial's seed feeds ``np.random.SeedSequence(seed)``, which
spawns three independent streams, one per purpose. ``draw_run`` spawns
them for every seed of the run and draws into column k of the run's
arrays for trial k:

* schedule: all T client ids in one call, then all T delays in one call,
  before the first iteration;
* batches: the T x batch_size minibatch plan (``data.minibatch``), one row
  of indices into the scheduled client's set per iteration, drawn at the
  set's real size (a poisoned set counts with its added rows), also
  before the first iteration, straight into the trial's column of the
  T x K x B plan, to which the set's start in the store is then added,
  so no per-trial plan is held beside it;
* attack noise: the Gaussian attack's update, drawn in the loop, only on
  the iterations a malicious client reports.

So the loop makes no draw for the schedule or the batches. The plan is
drawn per iteration from one stream, not from one stream per client:
spawning 100 generators alone costs about 2 ms per trial. Because each
stream serves one purpose, two cells with the same seed and equal client
set sizes share their schedule and their batches whatever their attack or
defense: common random numbers, so a difference between such cells is the
attack's or the filter's, not the luck of the draw. With the data drawn
from ``seeds.data_seed``, a trial's output is a function of (config, seed)
alone, whatever other trials run before it or beside it.

Data layout: ``prepare_data`` plans the rows first (train/test split,
client partition, trusted set, all as row indices), then generates or
loads the data straight into one array, the store, in the order client 0,
..., client C-1, then test. Under the backdoor attack the plan reserves,
right after each malicious client's clean rows, the rows its poisoning
adds, and ``attacks.backdoor_poison`` writes its replicas there through
the store's writable row views: a poisoned set is [clean rows | replicas],
and its clean set is the prefix, whose bytes the poisoning keeps. Under
label flipping the labels ``attacks.flip_dataset_labels`` returns
overwrite the malicious clients' own labels. Neither builds a set. So
the store holds each set as the run reads it, poisoned or not, and a
client's set is the read-only row-slice view ``store.subset(client_rows[c])``,
as is the test set; no client row is copied.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import attacks, defenses, metrics, tasks
from .config import ExperimentConfig
from .data import (Dataset, Layout,
                   gen_synthetic_classification, gen_synthetic_regression,
                   load_csv, minibatch, partition, sample_trusted,
                   split_train_test)
from .defenses import ACCEPT, BUFFERED, REJECT
from .metrics import MetricRecord

METRIC_CADENCE = 50

# Reporting convention for runs whose error leaves the plotting range:
# any primary metric above this threshold (or a non-finite model) is
# summarized as the divergence marker.
DIVERGENCE_THRESHOLD = 1000.0
DIVERGENCE_MARKER = ">1000"


def beyond_reporting_range(value: float) -> bool:
    """Whether a metric value is reported as the divergence marker."""
    return not np.isfinite(value) or value > DIVERGENCE_THRESHOLD


@dataclass
class PreparedData:
    """Datasets and model facts shared by every trial of a config.

    ``store`` holds every client's training set, client-major, then the
    test rows (module docstring Data layout), and ``client_rows[c]`` is
    client c's set in it: the clean set of a benign client, or under a
    data-poisoning attack the poisoned set of a malicious one, whose ids
    are ``config.clients.malicious_ids()``. ``test`` is a view of the store
    and ``trusted`` a copy of clean rows. The sets name the model family by
    their ``num_classes`` (``tasks`` docstring); ``true_model`` is theta*,
    known for synthetic regression only, and ``param_dim`` the model length.
    """

    true_model: Optional[np.ndarray]
    param_dim: int
    test: Dataset
    trusted: Dataset
    store: Dataset
    client_rows: List[slice]


@dataclass
class TrialResult:
    seed: int
    records: List[MetricRecord]
    final_model: np.ndarray
    diverged: bool

    @property
    def final_record(self) -> MetricRecord:
        return self.records[-1]

    def is_divergent(self) -> bool:
        """Whether this run reports the divergence marker."""
        return self.diverged or beyond_reporting_range(self.final_record.primary)


def make_dataset(config: ExperimentConfig, layout: Optional[Layout] = None
                 ) -> Tuple[Dataset, Optional[np.ndarray]]:
    """Generate or load the configured dataset; returns it with theta*
    (None unless the task is synthetic regression). Rows come in
    ``layout`` order, reserved rows included, or in generation (file)
    order without one; a loaded file takes one copy into the layout."""
    tc, seed = config.task, config.seeds.data_seed
    if tc.kind == "synthetic_regression":
        return gen_synthetic_regression(seed, tc.num_samples, tc.dim, layout)
    if tc.kind == "synthetic_classification":
        pool, _ = gen_synthetic_classification(seed, tc.num_samples, tc.dim,
                                               tc.num_classes, tc.class_spread,
                                               tc.feature_offset, layout)
        return pool, None
    pool = load_csv(tc.path)
    return (pool if layout is None else pool.arranged(layout)), None


class _RowPlan:
    """The layout of ``prepare_data``: split, partition and trusted sample
    as row indices, and the client-major order they give the rows, with
    the rows the backdoor attack adds reserved right after each malicious
    client's clean rows.

    Once called, it holds each client's set (clean rows and reserved rows)
    as a slice and its clean row count, the test rows as a slice, and the
    trusted rows as an index array.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.client_rows: List[slice] = []
        self.clean_sizes: List[int] = []
        self.test_rows = slice(0)
        self.trusted_rows = np.empty(0, dtype=int)

    def __call__(self, num_examples: int, labels: Optional[np.ndarray],
                 num_classes: Optional[int]) -> np.ndarray:
        cfg, seed = self.config, self.config.seeds.data_seed
        train, test = split_train_test(num_examples, cfg.task.train_count, seed)
        train_labels = None if labels is None else labels[train]
        clients = partition(len(train), cfg.clients.num_clients,
                            cfg.data.partition, cfg.data.noniid_degree, seed,
                            train_labels, num_classes)
        batch = cfg.schedule.batch_size
        for i, rows in enumerate(clients):
            if len(rows) < batch:
                raise ValueError(f"client {i} holds {len(rows)} examples, "
                                 f"fewer than batch size {batch}")
        trusted = sample_trusted(len(train), cfg.data.trusted_size,
                                 cfg.data.distribution_shift, seed, train_labels)

        replicated = range(0)
        if cfg.attack.kind == "backdoor":
            # with malicious clients or none: the probe scores the target too
            if num_classes is None:
                raise ValueError("backdoor poisoning requires classification data")
            if not (0 <= cfg.attack.bd_target_class < num_classes):
                raise ValueError("bd_target_class out of range")
            # the probe (metrics.backdoor_probe) needs a test row to trigger
            if not np.any(labels[test] != cfg.attack.bd_target_class):
                raise ValueError("no eligible test inputs (all carry the target label)")
            replicated = cfg.clients.malicious_ids()
        parts, lo = [], 0
        for cid, rows in enumerate(clients):
            reserved = (attacks.backdoor_replica_count(len(rows), cfg.attack)
                        if cid in replicated else 0)
            parts += [train[rows], np.full(reserved, -1)]
            self.clean_sizes.append(len(rows))
            self.client_rows.append(slice(lo, lo + len(rows) + reserved))
            lo += len(rows) + reserved
        order = np.concatenate(parts + [test])
        self.test_rows = slice(lo, len(order))
        generated = np.flatnonzero(order >= 0)
        position = np.empty(num_examples, dtype=int)
        position[order[generated]] = generated
        self.trusted_rows = position[train[trusted]]
        return order


def prepare_data(config: ExperimentConfig) -> PreparedData:
    """Plan, generate/load into the layout, then poison, per the config."""
    plan = _RowPlan(config)
    pool, true_model = make_dataset(config, plan)
    test = pool.subset(plan.test_rows)
    trusted = pool.subset(plan.trusted_rows)

    kind = config.attack.kind
    if kind in ("label_flip", "backdoor"):
        # in place: a flipped client's labels over its own rows, a backdoor
        # client's replicas into the rows reserved after its clean rows
        for arr in (pool.features, pool.labels):
            arr.setflags(write=True)
        for cid in config.clients.malicious_ids():
            rows = plan.client_rows[cid]
            if kind == "label_flip":
                pool.labels[rows] = attacks.flip_dataset_labels(pool.labels[rows],
                                                                pool.num_classes)
            else:
                attacks.backdoor_poison(pool.features[rows], pool.labels[rows],
                                        plan.clean_sizes[cid], config.attack)
        for arr in (pool.features, pool.labels):
            arr.setflags(write=False)
    return PreparedData(true_model=true_model,
                        param_dim=tasks.param_dim(pool.dim, pool.num_classes),
                        test=test, trusted=trusted, store=pool,
                        client_rows=plan.client_rows)


def _avg_gradient(theta: np.ndarray, features: np.ndarray, labels: np.ndarray,
                  num_classes: Optional[int]) -> np.ndarray:
    """The batch-average gradient of the family that ``num_classes`` names."""
    if num_classes is None:
        return tasks.regression_gradient(theta, features, labels)
    return tasks.logistic_gradient(theta, features, labels, num_classes)


def server_update_vector(theta: np.ndarray, trusted: Dataset) -> np.ndarray:
    """The server's reference update g_s: the sum of per-example gradients
    over the trusted set, one row per row of ``theta``.

    The scales of updates, stated here once. A client's wire update is the
    sum over its mini-batch, batch_size times its average gradient. g_s is
    the sum over all len(trusted) = ``data.trusted_size`` examples: with the
    default batch of 16 and trusted set of 100, 6.25 times the client scale.
    Only AFLGuard and Zeno++ read g_s (``_bind_filter``):

    * AFLGuard compares a client update with g_s as sent, so its acceptance
      radius lambda * ||g_s|| is at the trusted-set scale, which lambda is
      tuned for.
    * Zeno++ renormalises each accepted update to the length of its
      reference, so it takes g_s at the client's batch scale,
      batch_size / trusted_size * g_s: an accepted step has the length of a
      client step. The rescaling leaves its cosine gate unchanged.

    The adaptive attacker's estimate of g_s (``make_threat_knowledge``) is
    the same sum over the data it knows, ``ThreatScope.known_examples``
    examples: the trusted set and its size are the server's own.
    """
    return len(trusted) * _avg_gradient(theta, trusted.features, trusted.labels,
                                        trusted.num_classes)


@dataclass(frozen=True)
class ThreatScope:
    """What the adaptive attacker knows, fixed for the length of a run.

    The scope is every client for knowledge = full and the malicious
    clients for partial, in id order, each with the view
    ``store.subset(client_rows[c])``, which is the client's clean set, as
    the adaptive attack poisons no data. ``known_examples`` is their total
    size. For the squared loss, ``moments`` is (A, b) with
    A = mean_c X_c^T X_c / n_c and b = mean_c X_c^T y_c / n_c over that
    scope, and ``groups`` is empty. For the logistic task on
    ``num_classes`` classes, ``moments`` is None and ``groups`` holds the
    scope's sets grouped by size, in ascending size and then id order,
    each group as its (g, n, d) features and (g, n) labels: a view of the
    store where the group's rows are one run of it (so under iid and for
    the partial scope), else one copy. ``order`` is each client's row, in
    scope order, of the group-major stack of their gradients.
    """

    known_examples: int
    moments: Optional[Tuple[np.ndarray, np.ndarray]]
    num_classes: Optional[int] = None
    groups: Tuple[Tuple[np.ndarray, np.ndarray], ...] = ()
    order: Optional[np.ndarray] = None


def _stacked(store: Dataset, rows: List[slice]) -> Tuple[np.ndarray, np.ndarray]:
    """The sets at ``rows``, each of n rows, as (g, n, d) features and
    (g, n) labels: views when the slices are one run of the store."""
    g, n = len(rows), rows[0].stop - rows[0].start
    if all(a.stop == b.start for a, b in zip(rows, rows[1:])):
        run = slice(rows[0].start, rows[-1].stop)
        return store.features[run].reshape(g, n, -1), store.labels[run].reshape(g, n)
    index = np.array([np.arange(r.start, r.stop) for r in rows])
    return store.features[index], store.labels[index]


def threat_scope(prepared: PreparedData, config: ExperimentConfig) -> ThreatScope:
    """Build the attacker's scope (``ThreatScope``): for regression, its
    gradient moments; for the logistic task, its sets grouped by size."""
    clients, store = config.clients, prepared.store
    ids = (clients.malicious_ids() if config.attack.knowledge == "partial"
           else range(clients.num_clients))
    rows = [prepared.client_rows[c] for c in ids]
    sizes = np.array([r.stop - r.start for r in rows])
    if store.num_classes is not None:
        groups = tuple(_stacked(store, [r for r, size in zip(rows, sizes) if size == n])
                       for n in np.unique(sizes))
        # a client's row of the group-major stack is its rank by (size, id)
        return ThreatScope(known_examples=int(sizes.sum()), moments=None,
                           num_classes=store.num_classes, groups=groups,
                           order=np.argsort(np.argsort(sizes, kind="stable")))
    a, b = np.zeros((store.dim, store.dim)), np.zeros(store.dim)
    for ds in map(store.subset, rows):
        # a contiguous transpose sends the product to gemm: numpy sends
        # X.T @ X to syrk, whose sums, and so whose bits, change with
        # the BLAS thread count
        a += np.ascontiguousarray(ds.features.T) @ ds.features / len(ds)
        b += ds.features.T @ ds.labels / len(ds)
    return ThreatScope(known_examples=int(sizes.sum()),
                       moments=(a / len(rows), b / len(rows)))


def make_threat_knowledge(base_model: np.ndarray, scope: ThreatScope,
                          config: ExperimentConfig
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """The adaptive attacker's view at ``base_model``, as
    ``(g_bar, g_s_estimate)``: the first two arguments of
    ``attacks.adaptive_update``.

    The benign mean g_bar is the expected client update at the base model:
    the unweighted mean of per-client full-data gradients over the
    knowledge scope, scaled to wire units (batch_size times the average).

    For the squared loss a client's average gradient is
    X_c^T (X_c theta - y_c) / n_c, which is linear in theta, so the mean
    over the scope is exactly A theta - b with the moments of
    ``ThreatScope``: one d x d mat-vec in place of a gradient per client.
    ``run_trials`` builds the moments once per run. The softmax gradient is
    not linear in theta, so the logistic task keeps one gradient per
    client, from one call per set size over the group's stack (each slice
    has the bits of its client's call alone, ``tasks`` docstring), and
    takes the mean of the rows in scope order.

    The server-update estimate mirrors g_s on the data the attacker knows,
    at that data's scale (``server_update_vector``): the scale gap and the
    trusted-set sampling noise are estimation error it cannot remove.
    """
    if scope.moments is not None:
        a, b = scope.moments
        mean_grad = a @ base_model - b
    else:
        grads = np.concatenate([_avg_gradient(base_model, features, labels,
                                              scope.num_classes)
                                for features, labels in scope.groups])
        mean_grad = np.mean(grads[scope.order], axis=0)
    return (config.schedule.batch_size * mean_grad,
            scope.known_examples * mean_grad)


def _bind_filter(config: ExperimentConfig, clients: np.ndarray, param_dim: int):
    """The run's filter, as ``(prepare, decide)``, for the T x K client ids
    ``clients`` of its schedule, column k trial k's, and models of length
    ``param_dim``. ``prepare(g_s)``
    makes the filter's reference from g_s, one row per trial (K, p), once
    per refresh: AFLGuard's g_s and its radii, Zeno++'s g_s at the client's
    batch scale (``server_update_vector``) and its norms (raising on a zero
    row). It is None for a filter that reads no g_s, whose reference is None.
    ``decide(start, stop, updates, bases, reference)`` takes the block of
    iterations [start, stop) as a (stop - start, K, p) stack of wire
    updates and their base models, and returns the ``defenses`` filter's
    (codes, step); AsyncSGD returns one code for all and ``updates`` itself
    as the step. Kardam keeps one history for the run, built here from the
    schedule, ``config.clients.num_clients`` and ``param_dim``, and BASGD
    one state per trial, each fed its block's client ids."""
    kind, lam = config.defense.kind, config.defense.lam
    if kind == "aflguard":
        return (lambda g_s: (g_s, defenses.aflguard_radius(g_s, lam)),
                lambda start, stop, updates, bases, reference: defenses.aflguard_step(
                    updates, *reference))
    if kind == "zenopp":
        scale = config.schedule.batch_size / config.data.trusted_size

        def prepare(g_s):
            scaled = scale * g_s
            return scaled, defenses.zeno_norms(scaled)
        return prepare, lambda start, stop, updates, bases, reference: defenses.zeno_step(
            updates, *reference)
    if kind == "asyncsgd":
        def decide(start, stop, updates, bases, reference):
            return ACCEPT, updates
    elif kind == "kardam":
        kardam = defenses.KardamHistory(clients, config.clients.num_clients,
                                        param_dim)

        def decide(start, stop, updates, bases, reference):
            return defenses.kardam_step(kardam, start, stop, updates, bases)
    else:
        basgd = [defenses.BasgdState(config.defense.num_buffers)
                 for _ in range(clients.shape[1])]

        def decide(start, stop, updates, bases, reference):
            return defenses.basgd_step(basgd, clients[start:stop], updates)
    return None, decide


def _bind_attack(prepared: PreparedData, config: ExperimentConfig):
    """The run's ``craft(honest, base_model, noise)``: the update a malicious
    client sends in place of its honest wire update ``honest`` from the
    stale model ``base_model``, with ``noise`` its trial's attack-noise
    stream. None when every client is honest: under no attack or a
    data-level one (an honest pass on the poisoned set)."""
    cfg = config.attack
    if cfg.kind in ("none", "label_flip") or not config.clients.num_malicious:
        return None
    if cfg.kind == "backdoor":
        def craft(honest, base_model, noise):
            return attacks.backdoor_update(honest, cfg)
    elif cfg.kind == "gaussian":
        def craft(honest, base_model, noise):
            return attacks.gaussian_update(prepared.param_dim, cfg.gauss_sigma, noise)
    elif cfg.kind == "gradient_deviation":
        def craft(honest, base_model, noise):
            return attacks.gradient_deviation_update(honest, cfg.gd_scale)
    else:  # adaptive, on the attacker's scope and moments built once per run
        scope, lam = threat_scope(prepared, config), config.defense.lam
        def craft(honest, base_model, noise):
            return attacks.adaptive_update(
                *make_threat_knowledge(base_model, scope, config), lam)
    return craft


def _bind_evaluate(prepared: PreparedData, config: ExperimentConfig):
    """The run's ``evaluate(thetas, iteration, counts, diverged=False)``:
    the ``MetricRecord``s at ``iteration`` of K' rows, from their (K', p)
    models and their (K', 3) decision counts, indexed by the decision codes.
    ``run_trials`` binds it after its loop and calls it once per kept
    record, in iteration order. Each quantity is one ``metrics`` call over
    the stack, whose values have the bits of each row scored alone
    (``metrics`` docstring), and the records hold Python floats. A
    divergence record scores nothing: it holds the worst value of each
    quantity a record holds (infinite errors, rates of 1.0). What
    does not depend on the models is built here, once: the regression
    truths, and the class-major test set and backdoor probe, whose eligible
    test row ``_RowPlan`` has checked."""
    test, true_model = prepared.test, prepared.true_model
    if test.num_classes is None:
        # theta* is known: score against the noiseless ground truth, so the
        # error floor reflects estimation error only.
        truths = test.labels if true_model is None else test.features @ true_model
        diverged_values = dict(mse=math.inf)
        if true_model is not None:
            diverged_values["mee"] = math.inf

        def scores(thetas):
            predictions = tasks.regression_predict_batch(thetas, test.features)
            out = dict(mse=metrics.mse(predictions, truths))
            if true_model is not None:
                out["mee"] = metrics.mee(thetas, true_model)
            return out
    else:
        probe = (metrics.backdoor_probe(test, config.attack)
                 if config.attack.kind == "backdoor" else None)
        test = metrics.class_major(test)
        diverged_values = dict(test_error_rate=1.0)
        if probe is not None:
            diverged_values["attack_success_rate"] = 1.0

        def scores(thetas):
            out = dict(test_error_rate=metrics.test_error_rate(thetas, test))
            if probe is not None:
                out["attack_success_rate"] = metrics.attack_success_rate(thetas, probe)
            return out

    def evaluate(thetas, iteration, counts, diverged=False):
        if diverged:
            columns = {name: [value] * len(thetas)
                       for name, value in diverged_values.items()}
        else:  # .tolist(): a numpy float's repr is not the float's
            columns = {name: values.tolist() for name, values in scores(thetas).items()}
        return [MetricRecord(iteration=iteration, accepted=row[ACCEPT],
                             rejected=row[REJECT], buffered=row[BUFFERED],
                             **dict(zip(columns, values)))
                for row, *values in zip(counts.tolist(), *columns.values())]
    return evaluate


def draw_run(config: ExperimentConfig, prepared: PreparedData,
             seeds: Sequence[int]
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[np.random.Generator]]:
    """The run's randomness (module docstring), trial k in column k:
    iteration t of trial k takes client ``clients[t, k]`` at staleness
    ``delays[t, k]`` and the store rows ``plan[t, k]``; returns the T x K
    ``clients`` and ``delays``, the T x K x B ``plan`` and the K
    attack-noise streams."""
    sched = config.schedule
    t = np.arange(sched.iterations)
    clients = np.empty((len(t), len(seeds)), dtype=np.int64)
    delays = np.empty_like(clients)
    plan = np.empty((len(t), len(seeds), sched.batch_size), dtype=np.intp)
    starts, stops = np.array([(rows.start, rows.stop) for rows in prepared.client_rows]).T
    noise = []
    for k, seed in enumerate(seeds):
        schedule, batches, stream = (np.random.default_rng(child) for child in
                                     np.random.SeedSequence(seed).spawn(3))
        clients[:, k] = schedule.integers(config.clients.num_clients, size=len(t))
        delays[:, k] = schedule.integers(0, np.minimum(sched.max_client_delay, t) + 1)
        # as rows of the client's set, then moved to the set's place
        minibatch((stops - starts)[clients[:, k]], sched.batch_size, batches, plan[:, k])
        noise.append(stream)
    plan += starts[clients, None]
    return clients, delays, plan, noise


def plan_blocks(delays: np.ndarray, refresh_period: Optional[int]) -> np.ndarray:
    """The block bounds of a run (module docstring) with the T x K
    ``delays`` of its rows: block j is the iterations [bounds[j],
    bounds[j + 1]). A block that starts at t takes a later iteration s only
    if every row's base model, the model after s - delay steps, exists at t
    (s - delay <= t), and s is neither the first after a record nor a
    multiple of ``refresh_period``, which is None under a filter that reads
    no g_s. So a block holds at most the largest delay + 1 iterations."""
    iterations = len(delays)
    latest = (np.arange(iterations) - delays.min(axis=1)).tolist()
    starts = [0]
    for s in range(1, iterations):
        if (latest[s] > starts[-1] or s % METRIC_CADENCE == 0
                or refresh_period is not None and s % refresh_period == 0):
            starts.append(s)
    return np.array(starts + [iterations])


def run_trials(config: ExperimentConfig, prepared: PreparedData,
               seeds: Sequence[int]) -> List[TrialResult]:
    """Execute one seeded trial per seed, all in lockstep (module
    docstring); each is fully deterministic given (config, its seed)."""
    sched, store = config.schedule, prepared.store
    clients, delays, plan, noise = draw_run(config, prepared, seeds)
    # slot s % depth holds the model after s steps, and base model [t, k]
    # is row index[t, k] of its flat view
    depth = int(delays.max()) + 1
    ring = np.zeros((depth, len(seeds), prepared.param_dim))
    flat = ring.reshape(-1, prepared.param_dim)
    index = ((np.arange(sched.iterations)[:, None] - delays) % depth * len(seeds)
             + np.arange(len(seeds)))
    prepare, decide = _bind_filter(config, clients, prepared.param_dim)
    bounds = plan_blocks(delays, None if prepare is None
                         else sched.server_refresh_period)
    # the batch buffers of the longest block
    shape = (int(np.diff(bounds).max()), len(seeds), sched.batch_size)
    features = np.empty(shape + (store.dim,))
    labels = np.empty(shape, dtype=store.labels.dtype)
    bounds = bounds.tolist()
    craft = _bind_attack(prepared, config)
    # per iteration, the rows whose client is malicious
    attacked = {}
    malicious = config.clients.malicious_ids() if craft is not None else []
    for t, k in np.argwhere(np.isin(clients, malicious)).tolist():
        attacked.setdefault(t, []).append(k)
    # the records to score after the loop, in iteration order: each the
    # rows, their models, the iteration and the divergence flag
    pending = []
    decisions = np.zeros(clients.shape, dtype=np.int8)
    diverged = np.zeros(len(seeds), dtype=bool)
    # each row's final model; a diverged row's is its first non-finite one
    final = np.empty_like(ring[0])

    theta = ring[0]
    zero = np.zeros(theta.size)
    reference = None

    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in zip(bounds, bounds[1:]):
            if prepare is not None and start % sched.server_refresh_period == 0:
                reference = prepare(server_update_vector(theta, prepared.trusted))

            size = stop - start
            base = flat.take(index[start:stop], axis=0)
            # 'clip' lets take write into the buffer without a temporary;
            # every plan row is a row of its client's set by construction
            store.features.take(plan[start:stop], axis=0, out=features[:size],
                                mode="clip")
            store.labels.take(plan[start:stop], out=labels[:size], mode="clip")
            sent = sched.batch_size * _avg_gradient(base, features[:size], labels[:size],
                                                    store.num_classes)
            if attacked:
                for t in range(start, stop):
                    for k in attacked.get(t, ()):
                        sent[t - start, k] = craft(sent[t - start, k],
                                                   base[t - start, k], noise[k])

            decisions[start:stop], step = decide(start, stop, sent, base, reference)
            step = sched.learning_rate * step
            for i in range(size):
                # the model is the ring slot it was written to
                theta = np.subtract(theta, step[i], out=ring[(start + i + 1) % depth])

            # theta . 0 is NaN iff an entry is inf or NaN (inf * 0 is NaN),
            # and a sum of zeros cannot overflow
            if math.isnan(theta.ravel().dot(zero)):
                finite = np.logical_and.reduce(np.isfinite(theta), axis=1)
                written = np.arange(start + 1, stop + 1) % depth
                for k in np.flatnonzero(~finite & ~diverged):
                    # the row's models after start + 1, ..., stop steps
                    models = ring[written, k]
                    first = int(np.argmin(np.logical_and.reduce(
                        np.isfinite(models), axis=1)))
                    final[k] = models[first]
                    pending.append(([k], final[k:k + 1], start + first + 1, True))
                diverged |= ~finite
                if diverged.all():
                    break
                # theta among them: the row runs on from zero, unrecorded
                ring[:, ~finite] = 0.0

            if stop % METRIC_CADENCE == 0 or stop == sched.iterations:
                live = np.flatnonzero(~diverged)
                # theta[live] is a copy: the ring slots are written again
                pending.append((live, theta[live], stop, False))

        # counts[t - 1, k, c]: row k's decisions of code c in its first t
        # iterations
        counts = np.cumsum(decisions[:, :, None] == np.array([ACCEPT, REJECT, BUFFERED]),
                           axis=0, dtype=np.int32)
        # the scoring sets take the place of the batch plan and of the
        # batch buffers
        del plan, features, labels
        evaluate = _bind_evaluate(prepared, config)
        records = [[] for _ in seeds]
        for rows, models, iteration, divergence in pending:
            for k, record in zip(rows, evaluate(models, iteration,
                                                counts[iteration - 1, rows], divergence)):
                records[k].append(record)
    final[~diverged] = theta[~diverged]
    return [TrialResult(seed=seed, records=records[k], final_model=final[k].copy(),
                        diverged=bool(diverged[k]))
            for k, seed in enumerate(seeds)]
