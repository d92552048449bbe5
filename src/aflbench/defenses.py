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
  trial, and take the client ids (..., K). Row k of every iteration is
  trial k, and each row is decided as if alone, in (iteration, row)
  order. A row of a stack is a view that pins the whole stack, so
  neither keeps one.
  - Kardam takes the run's ``KardamHistory``: every (trial, client)
    pair's last update and base as rows of two arrays, and one
    ``KardamState`` per trial. It gathers, differences and takes norms
    for a whole block at once (split only where a trial's client reports
    twice in it), and leaves to Python only each row's division, median
    read and record. Its squared norms come from ``np.vecdot``, and its
    history is written back by fancy assignment, which copies.
  - BASGD takes one ``BasgdState`` per row, ``states[k]``, decides one
    row at a time, and copies each row it buffers.

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
    """A run's Kardam state. Each (trial, client) pair has the key
    trial * C + client. Its last update and base model are that row of
    ``prev_update`` and ``prev_base``, two (K * C, p) arrays made at the
    first block, whose p they take, and ``seen[key]`` says whether it has
    them, so a stored NaN row is still history. ``trials`` holds one
    ``KardamState`` per trial."""

    def __init__(self, num_trials: int, num_clients: int):
        self.num_clients = num_clients
        self.trials = [KardamState() for _ in range(num_trials)]
        self.offsets = np.arange(num_trials) * num_clients
        self.seen = [False] * (num_trials * num_clients)
        self.prev_update: Optional[np.ndarray] = None
        self.prev_base: Optional[np.ndarray] = None


def _distinct_runs(keys: List[int]) -> List[int]:
    """The ends of the shortest cut of ``keys`` into runs of distinct keys:
    each run ends before the first key it already holds."""
    stops, held = [], set()
    for j, key in enumerate(keys):
        if key in held:
            stops.append(j)
            held.clear()
        held.add(key)
    return stops + [len(keys)]


def _kardam_rows(history, first, keys, order, updates, bases) -> List[bool]:
    """Decide the flat rows ``first``, ``first + 1``, ... of a block, whose
    ``keys`` (and their list ``order``) are distinct, and store each row as
    its key's history: whether each row is rejected."""
    # each row's move from its key's last update, then from its last base
    diffs = np.empty((2,) + updates.shape)
    np.subtract(updates, history.prev_update.take(keys, axis=0), out=diffs[0])
    np.subtract(bases, history.prev_base.take(keys, axis=0), out=diffs[1])
    # squared norms: math.sqrt of one is vecmath.l2norm of its row
    nums, denoms = np.vecdot(diffs, diffs).tolist()
    seen, trials, reject = history.seen, history.trials, []
    for j, key, num, denom in zip(itertools.count(first), order, nums, denoms):
        if seen[key] and denom > 0.0:
            coeff = math.sqrt(num) / math.sqrt(denom)
            k = j % len(trials)
            state = trials[k]
            median = state.median()
            # a NaN coefficient fails even its own bound
            reject.append(not coeff <= (coeff if median is None else median))
            state.record(key - k * history.num_clients, coeff)
        else:
            reject.append(False)
        seen[key] = True
    # fancy assignment copies: no view of the block is kept
    history.prev_update[keys] = updates
    history.prev_base[keys] = bases
    return reject


def kardam_step(history: KardamHistory, cids, updates, bases) -> Answer:
    """Empirical-Lipschitz filter against the median coefficient, on the
    run's ``KardamHistory``. Row k of every iteration is trial k, and the
    rows are decided as if one at a time in (iteration, row) order; client
    ids lie in [0, C).

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
    Python floats, row by row. The step is ``updates`` itself when no row
    is rejected.
    """
    if updates.shape != bases.shape:
        raise ValueError("dimension mismatch")
    p = updates.shape[-1]
    if history.prev_update is None:
        history.prev_update = np.zeros((len(history.seen), p))
        history.prev_base = np.zeros((len(history.seen), p))
    keys = (history.offsets + cids).ravel()
    order = keys.tolist()
    rows, row_bases = updates.reshape(-1, p), bases.reshape(-1, p)
    reject, start = [], 0
    for stop in _distinct_runs(order):
        reject += _kardam_rows(history, start, keys[start:stop], order[start:stop],
                               rows[start:stop], row_bases[start:stop])
        start = stop
    rejected = np.array(reject).reshape(updates.shape[:-1])  # REJECT is 1
    if not any(reject):
        return rejected, updates
    return rejected, _applied(updates, np.logical_not(rejected))


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
