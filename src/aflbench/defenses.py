"""Server-side update filters: acceptance ball, Lipschitz median, buffered
median of means, and cosine-gated normalization. AsyncSGD, which applies
every update as sent, needs no function here.

Every filter decides the rows of a block with one call. It takes a
(..., K, p) stack of wire updates, whose leading axes are the block's
iterations and whose K rows are the run's trials, and returns (codes,
step). The codes hold one int decision, ``ACCEPT``, ``REJECT`` or
``BUFFERED``, per update (bool where only the first two occur), and index
the engine's tally of its decision log. The step has the stack's shape: it
holds each applied row, and zeros wherever nothing is applied, whatever
that row held. A stack may also be one (p,) row.

* AFLGuard (``aflguard_step``, on the ball test ``aflguard_accept``) and
  Zeno++ (``zeno_step``) are stateless. They take g_s as a (K, p) stack
  that broadcasts over the leading axes, with what they need of it
  computed once per g_s, not per block: AFLGuard's radii
  (``aflguard_radius``) and Zeno++'s norms (``zeno_norms``), one per row.
  Each row's norms and dots come from ``np.vecdot``, bit-equal to
  ``vecmath.l2norm`` and ``np.dot`` of the row.
* Kardam (``kardam_step``) and BASGD (``basgd_step``) keep state per
  trial. They take the run's states, one per row (row k of every
  iteration is trial k, whose state is ``states[k]``), and the client ids
  (..., K), and decide the rows one at a time in iteration order. A row
  of a stack is a view that pins the whole stack, so they copy each row
  they keep.

The engine binds the configured filter once per run
(``engine._bind_filter``). Filter parameters are validated once, by
``config.DefenseConfig``.

Kardam keeps its per-client Lipschitz coefficients as a running sorted
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

from .vecmath import l2norm

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

    A zero row is rejected, and any other is accepted iff its
    ``vecmath.cosine`` with its g_s row is > 0. That function's clamp to
    [-1, 1] keeps the sign of the quotient dot / (client norm * server
    norm) and turns a NaN into -1.0, so the test here is the quotient > 0,
    which a NaN fails: a row with an inf or NaN entry is rejected.
    """
    _check_server_rows(updates, g_s)
    client_norms = np.sqrt(np.vecdot(updates, updates))
    # a zero row is rejected, so its quotient and its ratio are never used
    with np.errstate(divide="ignore", invalid="ignore"):
        accept = (client_norms != 0.0) & (
            np.vecdot(updates, g_s) / (client_norms * server_norms) > 0.0)
        scaled = updates * (server_norms / client_norms)[..., None]
    return np.logical_not(accept), _applied(scaled, accept)


def _in_order(rule, states, cids, *stacks) -> Answer:
    """Decide a block's rows one at a time, in iteration order. Row k of
    every iteration is trial k. ``rule(state, cid, out, *rows)`` gets
    ``states[k]``, the row's client id, the row of the step to write and
    the row of each stack, and returns the code."""
    p = stacks[0].shape[-1]
    step = np.zeros(stacks[0].shape)
    codes = list(itertools.starmap(rule, zip(
        itertools.cycle(states),
        np.ravel(cids).tolist(), step.reshape(-1, p),
        *(stack.reshape(-1, p) for stack in stacks))))
    return np.reshape(codes, step.shape[:-1]), step


class KardamState:
    """Per-client history: last update, last base model, current coefficient.

    ``ordered`` holds the non-NaN values of ``coefficients`` in ascending
    order and ``nan_count`` the number of NaN ones; ``record`` keeps both in
    step with the dict.
    """

    def __init__(self):
        self.prev_update: Dict[int, np.ndarray] = {}
        self.prev_base: Dict[int, np.ndarray] = {}
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


def _kardam_row(state, client_id, out, update, base_model) -> int:
    prev_u = state.prev_update.get(client_id)
    coeff = None
    if prev_u is not None:
        denom = l2norm(base_model - state.prev_base[client_id])
        if denom > 0.0:
            coeff = l2norm(update - prev_u) / denom
    accept = True
    if coeff is not None:
        median = state.median()
        accept = coeff <= (coeff if median is None else median)
        state.record(client_id, coeff)
    state.prev_update[client_id] = update.copy()
    state.prev_base[client_id] = base_model.copy()
    if accept:
        out[...] = update
    return ACCEPT if accept else REJECT


def kardam_step(states, cids, updates, bases) -> Answer:
    """Empirical-Lipschitz filter against the median coefficient, one row
    at a time on its trial's state.

    A client with no usable history (first update, or identical consecutive
    base models) is accepted and recorded: with no cold-start rule everything
    would be rejected and training would deadlock. The median is taken over
    the coefficients stored before this update arrives, read from the
    state's running sorted order; a stored NaN makes it NaN, which rejects.
    """
    if updates.shape != bases.shape:
        raise ValueError("dimension mismatch")
    return _in_order(_kardam_row, states, cids, updates, bases)


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
    return _in_order(_basgd_row, states, cids, updates)
