"""Server-side update filters: acceptance ball, Lipschitz median, buffered
median of means, and cosine-gated normalization. AsyncSGD, which applies
every update as sent, needs no function here.

A filter's answer is a ``Verdict``: an int decision code, ``ACCEPT``,
``REJECT`` or ``BUFFERED``, which also indexes the engine's tally of its
decision log, and for an accept the update to apply. A rejected or
buffered update carries none. ``aflguard_accept`` instead answers for a
whole (..., K, p) stack at once, one bool per row, against a (K, p) stack
of server updates that broadcasts over the leading axes, with each row's
norms bit-equal to ``vecmath.l2norm``. The engine binds the configured
filter once per run over the stack of its trials (``engine._bind_filter``)
and calls it once per block of iterations, on the block's L x K updates:
AFLGuard's binding makes one ``aflguard_accept`` call for all of them; it
returns the stack itself as the step when no row is rejected, and
otherwise a step with zeros in the rejected rows, finite or not. Kardam,
BASGD and Zeno++ are called once per trial and iteration, in iteration
order, and Kardam's and BASGD's per-trial state lives in that binding,
which copies each row they keep. Filter parameters are validated once, by
``config.DefenseConfig``.

Kardam keeps its per-client Lipschitz coefficients as a running sorted
order: each new coefficient replaces its client's old one by one bisect
removal and one insertion, and NaNs are counted apart. So the median it
compares against is an index into that order, with ``np.median``'s value
(the mean of the two middle values for an even count, NaN if any
coefficient is NaN), not a sort of every coefficient on every update.
"""
from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from .vecmath import cosine, l2norm

ACCEPT, REJECT, BUFFERED = 0, 1, 2

DEFENSE_KINDS = ("asyncsgd", "kardam", "basgd", "zenopp", "aflguard")


class Verdict(NamedTuple):
    decision: int
    effective_update: Optional[np.ndarray] = None


def aflguard_accept(client_update: np.ndarray, server_update: np.ndarray,
                    lam: float):
    """Accept iff ||g_client - g_server|| <= lambda * ||g_server||, per row
    of a (..., p) stack: a numpy bool for 1-D input, else a bool array of
    the leading shape. The server stack's shape is the client stack's
    trailing shape, and it broadcasts over the leading axes (a block's
    iterations). Each norm has the bits of ``vecmath.l2norm`` of its row."""
    trailing = client_update.shape[client_update.ndim - server_update.ndim:]
    if trailing != server_update.shape:
        raise ValueError("dimension mismatch")
    deviation = client_update - server_update
    return (np.sqrt(np.vecdot(deviation, deviation))
            <= lam * np.sqrt(np.vecdot(server_update, server_update)))


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


def kardam_step(state: KardamState, client_id: int, update: np.ndarray,
                base_model: np.ndarray) -> Verdict:
    """Empirical-Lipschitz filter against the median coefficient.

    A client with no usable history (first update, or identical consecutive
    base models) is accepted and recorded: with no cold-start rule everything
    would be rejected and training would deadlock. The median is taken over
    the coefficients stored before this update arrives, read from the
    state's running sorted order; a stored NaN makes it NaN, which rejects.
    """
    if update.shape != base_model.shape:
        raise ValueError("dimension mismatch")
    prev_u = state.prev_update.get(client_id)
    prev_b = state.prev_base.get(client_id)
    coeff = None
    if prev_u is not None:
        denom = l2norm(base_model - prev_b)
        if denom > 0.0:
            coeff = l2norm(update - prev_u) / denom
    accept = True
    if coeff is not None:
        median = state.median()
        accept = coeff <= (coeff if median is None else median)
        state.record(client_id, coeff)
    state.prev_update[client_id] = update
    state.prev_base[client_id] = base_model
    return Verdict(ACCEPT, update) if accept else Verdict(REJECT)


@dataclass
class BasgdState:
    num_buffers: int
    buffers: List[List[np.ndarray]] = field(default_factory=list)

    def __post_init__(self):
        self.buffers = [[] for _ in range(self.num_buffers)]


def basgd_step(state: BasgdState, client_id: int, update: np.ndarray) -> Verdict:
    """Buffered aggregation: clients map to buffers by id modulo B.

    Once every buffer is nonempty the step emits the coordinatewise median
    of per-buffer means and clears all buffers; otherwise the update is
    buffered and the model is left unchanged.
    """
    state.buffers[client_id % state.num_buffers].append(update)
    if all(state.buffers):
        buffer_means = [np.mean(buf, axis=0) for buf in state.buffers]
        aggregated = np.median(np.stack(buffer_means), axis=0)
        state.buffers = [[] for _ in range(state.num_buffers)]
        return Verdict(ACCEPT, aggregated)
    return Verdict(BUFFERED)


def zeno_step(client_update: np.ndarray, server_update: np.ndarray) -> Verdict:
    """Cosine-gated filter: accept positively aligned updates, renormalized
    to the server update's magnitude."""
    server_norm = l2norm(server_update)
    if server_norm == 0.0:
        raise ValueError("zero server update")
    client_norm = l2norm(client_update)
    if client_norm == 0.0 or cosine(client_update, server_update) <= 0.0:
        return Verdict(REJECT)
    return Verdict(ACCEPT, client_update * (server_norm / client_norm))
