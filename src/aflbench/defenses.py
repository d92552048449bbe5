"""Server-side update filters: acceptance ball, Lipschitz median, buffered
median of means, and cosine-gated normalization. AsyncSGD, which applies
every update as sent, needs no function here.

Every filter decides the rows of a block with one call. It takes a
(..., K, p) stack of wire updates, whose leading axes are the block's
iterations and whose K rows are the run's trials, and returns (codes,
step). The codes hold one int decision, ``ACCEPT``, ``REJECT`` or
``BUFFERED``, per update (bool where only the first two occur), and index
the engine's counts of its decision array. The step has the stack's
shape: it holds each applied row, and zeros wherever nothing is applied,
whatever that row held. A stack may also be one (p,) row.

* AFLGuard (``aflguard_step``, on the ball test ``aflguard_accept``) and
  Zeno++ (``zeno_step``) are stateless. They take g_s as a (K, p) stack
  that broadcasts over the leading axes, with what they need of it
  computed once per g_s, not per block: AFLGuard's radii
  (``aflguard_radius``) and Zeno++'s norms (``zeno_norms``), one per row.
  Each row's norms and dots come from ``np.vecdot``, bit-equal to
  ``vecmath.l2norm`` and ``np.dot`` of the row.
* Kardam (``kardam_step``) and BASGD (``basgd_step``) keep state per
  trial. Row k of every iteration is trial k, and each row is decided as
  if alone, in (iteration, row) order. A row of a stack is a view that
  pins the whole stack, so neither keeps one.
  - Kardam takes the block's iteration range and the run's
    ``KardamHistory``, built once from the run's T x K client ids and the
    model length p: each report's (trial, client) key and where its run
    of distinct keys starts, every pair's last update and base as rows of
    two (K * C, p) arrays, and one ``KardamState`` per trial. It gathers,
    differences and takes norms for a whole block at once (split only
    where a trial's client reports twice in it), and leaves to Python only
    each row's division and one ``KardamState.admits`` call. Its squared norms come from
    ``np.vecdot``, and its history is written back by fancy assignment,
    which copies.
  - BASGD takes the block's client ids (..., K) and one ``BasgdState``
    per row, ``states[k]``, decides one row at a time, and copies each
    row it buffers.

The engine binds the configured filter once per run
(``engine._bind_filter``). Filter parameters are validated once, by
``config.DefenseConfig``.

Kardam keeps each trial's Lipschitz coefficients as a running sorted
order: each new coefficient replaces its client's old one by one bisect
removal and one insertion, and NaNs are counted apart. So the median it
compares against is an index into that order, with ``np.median``'s value
(the mean of the two middle values for an even count, NaN if any
coefficient is NaN), not a sort of every coefficient on every update.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

ACCEPT, REJECT, BUFFERED = 0, 1, 2

DEFENSE_KINDS = ("asyncsgd", "kardam", "basgd", "zenopp", "aflguard")

Answer = Tuple[np.ndarray, np.ndarray]


def _check_server_rows(client_update: np.ndarray, server_update: np.ndarray) -> None:
    """The server stack must be the client stack's trailing shape."""
    trailing = client_update.shape[client_update.ndim - server_update.ndim:]
    if trailing != server_update.shape:
        raise ValueError("dimension mismatch")


def _applied(rows: np.ndarray, accept) -> np.ndarray:
    """A step: each row where ``accept`` holds, zeros elsewhere, whatever a
    rejected row holds (a selection, not a product: inf * 0 would be NaN)."""
    return np.where(accept[..., None], rows, 0.0)


def aflguard_radius(server_update: np.ndarray, lam: float):
    """The acceptance radius lambda * ||g_server|| of each row of a (..., p)
    server stack; its norm has the bits of ``vecmath.l2norm`` of its row."""
    return lam * np.sqrt(np.vecdot(server_update, server_update))


def aflguard_accept(client_update: np.ndarray, server_update: np.ndarray,
                    radius):
    """Accept iff ||g_client - g_server|| <= radius, per row of a (..., p)
    stack, with ``radius`` its server row's ``aflguard_radius``: a numpy
    bool for 1-D input, else a bool array of the leading shape. The server
    stack's shape is the client stack's trailing shape, and it and its radii
    broadcast over the leading axes (a block's iterations). Each norm has
    the bits of ``vecmath.l2norm`` of its row."""
    _check_server_rows(client_update, server_update)
    deviation = client_update - server_update
    return np.sqrt(np.vecdot(deviation, deviation)) <= radius


def aflguard_step(updates: np.ndarray, g_s: np.ndarray, radius) -> Answer:
    """AFLGuard: ``aflguard_accept`` decides each row. The step is
    ``updates`` itself when no row is rejected."""
    accept = aflguard_accept(updates, g_s, radius)
    reject = np.logical_not(accept)  # REJECT is 1, ACCEPT 0
    # count_nonzero is a C call; ndarray.any goes through Python
    if not np.count_nonzero(reject):
        return reject, updates
    return reject, _applied(updates, accept)


def zeno_norms(g_s: np.ndarray):
    """The norm of each row of a (..., p) server stack, for ``zeno_step``.
    A zero row raises."""
    server_norms = np.sqrt(np.vecdot(g_s, g_s))
    if np.count_nonzero(server_norms == 0.0):
        raise ValueError("zero server update")
    return server_norms


def zeno_step(updates: np.ndarray, g_s: np.ndarray, server_norms) -> Answer:
    """Cosine-gated filter: accept a row positively aligned with its server
    update, renormalized to that update's length. ``server_norms`` is
    ``zeno_norms(g_s)``.

    A zero row is rejected, and any other is accepted iff its cosine with
    its g_s row, the quotient dot / (client norm * server norm), is > 0. A
    NaN quotient fails that test, so a row with an inf or NaN entry is
    rejected.

    This gate and rescaling is FLTrust's rule (Cao et al., NDSS 2021) for a
    single update: FLTrust weights each update, rescaled to ||g_s||, by its
    trust score max(cos, 0) over the sum of the scores, so one update with
    a positive score is applied whole and one with a zero score not at
    all. It is not the score test of Zeno++ as published (Xie, Koyejo &
    Gupta, ICML 2020).
    """
    _check_server_rows(updates, g_s)
    client_norms = np.sqrt(np.vecdot(updates, updates))
    # a zero row is rejected, so its quotient and its ratio are never used
    with np.errstate(divide="ignore", invalid="ignore"):
        accept = (client_norms != 0.0) & (
            np.vecdot(updates, g_s) / (client_norms * server_norms) > 0.0)
        scaled = updates * (server_norms / client_norms)[..., None]
    return np.logical_not(accept), _applied(scaled, accept)


class KardamState:
    """One trial's Lipschitz coefficients, one per client that has one.

    ``ordered`` holds the non-NaN values of ``coefficients`` in ascending
    order and ``nan_count`` the number of NaN ones; ``record`` keeps both in
    step with the dict.
    """

    def __init__(self):
        self.coefficients: Dict[int, float] = {}
        self.ordered: List[float] = []
        self.nan_count = 0

    def record(self, client_id: int, coeff: float) -> None:
        """Store ``coeff`` as the client's coefficient, replacing its last."""
        old = self.coefficients.get(client_id)
        if old is not None:
            if math.isnan(old):
                self.nan_count -= 1
            else:
                del self.ordered[bisect_left(self.ordered, old)]
        if math.isnan(coeff):
            self.nan_count += 1
        else:
            insort(self.ordered, coeff)
        self.coefficients[client_id] = coeff

    def admits(self, client_id: int, coeff: float) -> bool:
        """Whether ``coeff`` is at most the median of the coefficients
        stored before it (any coefficient is when none is stored), once it
        is recorded as the client's: a NaN one fails even its own bound."""
        median = self.median()
        self.record(client_id, coeff)
        return coeff <= (coeff if median is None else median)

    def median(self) -> Optional[float]:
        """``np.median`` of the stored coefficients, None when there are none."""
        if self.nan_count:
            return math.nan
        n = len(self.ordered)
        if n == 0:
            return None
        if n % 2:
            return self.ordered[n // 2]
        return (self.ordered[n // 2 - 1] + self.ordered[n // 2]) / 2


class KardamHistory:
    """A run's Kardam state, built from its T x K client ids ``clients``
    (row t, column k: the client that reports to trial k at iteration t),
    its client count C and its model length p. ``trials`` holds one
    ``KardamState`` per trial.

    Flat row j = t * K + k is that report, and its (trial, client) pair has
    the key ``keys[j]`` = k * C + client. The pair's last update and base
    model are that key's rows of ``prev_update`` and ``prev_base``, two
    (K * C, p) arrays made here, all NaN. A pair that has not reported yet
    holds NaN rows, so the denominator of its first report is NaN, which
    fails ``denom > 0`` as a zero one does: the report is accepted and
    gives no coefficient, as one after a stored NaN base does.

    ``run_start[j]`` is the first flat row of the longest run of distinct
    keys that ends at row j: one past the latest previous report of any
    key among rows 0, ..., j. A run of rows from a holds distinct keys up
    to the first row j where ``run_start[j] > a``, and ``run_start`` never
    decreases, so a block's cut into such runs is one comparison against
    its first row, and a bisection only where a key repeats in it."""

    def __init__(self, clients, num_clients: int, param_dim: int):
        clients = np.asarray(clients)
        self.num_clients = num_clients
        self.trials = [KardamState() for _ in range(clients.shape[1])]
        self.prev_update = np.full((len(self.trials) * num_clients, param_dim), np.nan)
        self.prev_base = self.prev_update.copy()
        self.keys = (np.arange(len(self.trials)) * num_clients + clients).ravel()
        # the rows by key, in row order within a key (key * rows + row is
        # distinct, so one plain sort): each but a key's first starts one
        # row past the row before it, its previous report
        rows = self.keys.size
        order = np.sort(self.keys * rows + np.arange(rows)) % rows
        ranked = self.keys[order]
        after = order[:-1] + 1
        after *= ranked[1:] == ranked[:-1]
        self.run_start = np.zeros_like(self.keys)
        self.run_start[order[1:]] = after
        np.maximum.accumulate(self.run_start, out=self.run_start)


def kardam_step(history: KardamHistory, start: int, stop: int, updates,
                bases) -> Answer:
    """Empirical-Lipschitz filter against the median coefficient, on the
    run's ``KardamHistory``, for the block of iterations [start, stop):
    ``updates`` and ``bases`` hold its (stop - start) * K rows, row k of
    every iteration trial k's, decided as if one at a time in (iteration,
    row) order.

    A client with no usable history (first update, or identical consecutive
    base models) is accepted and recorded: with no cold-start rule everything
    would be rejected and training would deadlock. The median is taken over
    the coefficients stored before this update arrives, read from the
    trial's running sorted order; a stored NaN makes it NaN, which rejects.

    The array work is done once per run of rows with distinct keys, which
    is the whole block unless a trial's client reports twice in it: one
    gather and one difference per history array, and one ``np.vecdot``
    pass of squared norms, whose ``math.sqrt`` is ``vecmath.l2norm`` of
    the row bit for bit. The coefficients are divided and compared as
    Python floats, row by row.
    """
    if updates.shape != bases.shape:
        raise ValueError("dimension mismatch")
    p = updates.shape[-1]
    rows, row_bases = updates.reshape(-1, p), bases.reshape(-1, p)
    trials, run_start = history.trials, history.run_start
    lo, hi = start * len(trials), stop * len(trials)
    if hi - lo != len(rows):
        raise ValueError("the stack does not hold the block's rows")
    clients, reject = history.num_clients, np.zeros(len(rows), dtype=bool)
    a = lo
    while a < hi:
        # flat rows [a, b) hold distinct keys: the rest of the block
        # unless a key repeats in it
        b = hi if run_start[hi - 1] <= a else int(run_start.searchsorted(a, "right"))
        keys = history.keys[a:b]
        run, run_bases = rows[a - lo:b - lo], row_bases[a - lo:b - lo]
        # each row's move from its key's last update, then from its last base
        diffs = np.empty((2,) + run.shape)
        np.subtract(run, history.prev_update.take(keys, axis=0), out=diffs[0])
        np.subtract(run_bases, history.prev_base.take(keys, axis=0), out=diffs[1])
        # squared norms: math.sqrt of one is vecmath.l2norm of its row
        nums, denoms = np.vecdot(diffs, diffs).tolist()
        for j, key, num, denom in zip(itertools.count(a - lo), keys.tolist(), nums, denoms):
            if denom > 0.0:
                k, client_id = divmod(key, clients)
                if not trials[k].admits(client_id, math.sqrt(num) / math.sqrt(denom)):
                    reject[j] = True
        # fancy assignment copies: no view of the block is kept
        history.prev_update[keys] = run
        history.prev_base[keys] = run_bases
        a = b
    rejected = reject.reshape(updates.shape[:-1])  # REJECT is 1
    return rejected, np.where(rejected[..., None], 0.0, updates)


@dataclass
class BasgdState:
    num_buffers: int
    buffers: List[List[np.ndarray]] = field(init=False)

    def __post_init__(self):
        self.buffers = [[] for _ in range(self.num_buffers)]


def _basgd_row(state, client_id, out, update) -> int:
    state.buffers[client_id % state.num_buffers].append(update.copy())
    if not all(state.buffers):
        return BUFFERED
    out[...] = np.median([np.mean(buf, axis=0) for buf in state.buffers], axis=0)
    state.buffers = [[] for _ in range(state.num_buffers)]
    return ACCEPT


def basgd_step(states, cids, updates) -> Answer:
    """Buffered aggregation, one row at a time on its trial's buffers:
    clients map to buffers by id modulo B.

    Once every buffer is nonempty the step emits the coordinatewise median
    of per-buffer means and clears all buffers; otherwise the update is
    buffered and the model is left unchanged.
    """
    p = updates.shape[-1]
    step = np.zeros(updates.shape)
    codes = list(map(_basgd_row, itertools.cycle(states), np.ravel(cids).tolist(),
                     step.reshape(-1, p), updates.reshape(-1, p)))
    return np.reshape(codes, step.shape[:-1]), step
