import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aflbench import defenses, engine
from aflbench.config import DefenseConfig, ExperimentConfig
from aflbench.defenses import (ACCEPT, BUFFERED, REJECT, BasgdState, KardamHistory,
                               KardamState, aflguard_radius, zeno_norms)
from aflbench.vecmath import l2norm


class TestAflguard:
    def test_identical_updates_accepted(self):
        v = np.array([0.5, -1.0])
        assert defenses.aflguard_accept(v, v, aflguard_radius(v, 1e-9))

    def test_boundary_is_accepted(self):
        # powers of two keep the boundary arithmetic exact in binary floats
        lam = 0.5
        server = np.array([2.0, -4.0, 8.0])
        client = (1 + lam) * server  # deviation norm exactly lam*||server||
        assert defenses.aflguard_accept(client, server, aflguard_radius(server, lam))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            server = rng.normal(size=5)
            client = rng.normal(size=5)
            lam = float(rng.uniform(0.1, 3.0))
            base = defenses.aflguard_accept(client, server, aflguard_radius(server, lam))
            for c in (2.0, -0.5, 100.0):
                assert defenses.aflguard_accept(c * client, c * server,
                                                aflguard_radius(c * server, lam)) == base

    def test_huge_lambda_accepts_everything(self):
        rng = np.random.default_rng(102)
        server = rng.normal(size=4)
        for _ in range(20):
            assert defenses.aflguard_accept(rng.normal(size=4) * 1e6, server,
                                            aflguard_radius(server, 1e9))

    def test_zero_server_accepts_only_zero_client(self):
        server = np.zeros(3)
        radius = aflguard_radius(server, 1.5)
        assert defenses.aflguard_accept(np.zeros(3), server, radius)
        assert not defenses.aflguard_accept(np.array([1e-12, 0, 0]), server, radius)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            defenses.aflguard_accept(np.ones(2), np.ones(3),
                                     aflguard_radius(np.ones(3), 1.0))
        # the server stack must be the client stack's trailing shape
        for client, server in (((2, 3, 4), (2, 4)), ((4,), (2, 4)), ((2, 4), (3, 4))):
            with pytest.raises(ValueError):
                defenses.aflguard_accept(np.ones(client), np.ones(server),
                                         aflguard_radius(np.ones(server), 1.0))
        server = np.ones((3, 4))
        assert defenses.aflguard_accept(np.ones((2, 3, 4)), server,
                                        aflguard_radius(server, 1.0)).shape == (2, 3)


# a row's scale: zero, at the edges of the float range's squares, or plain
_ROW_SCALES = st.sampled_from([0.0, 1e-150, 1e-5, 1.0, 1e5, 1e150])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), dim=st.integers(1, 40),
       scales=st.lists(st.tuples(_ROW_SCALES, st.sampled_from([0.0, 0.3, 1.0, 3.0])),
                       min_size=6, max_size=6),
       special=st.sampled_from([None, math.inf, -math.inf, math.nan]),
       special_in_server=st.booleans(), lam=st.floats(0.05, 20.0))
@example(seed=1, rows=2, dim=3, scales=[(1e150, 0.3), (1e-150, 0.3)] + [(1.0, 0.0)] * 4,
         special=None, special_in_server=False, lam=1.5)
@example(seed=2, rows=3, dim=4, scales=[(0.0, 0.0), (1.0, 1.0), (1e5, 0.0)] + [(1.0, 0.0)] * 3,
         special=math.inf, special_in_server=False, lam=1.5)
@example(seed=3, rows=3, dim=5, scales=[(1.0, 0.0), (1e-5, 0.3), (1e150, 0.0)] + [(1.0, 0.0)] * 3,
         special=None, special_in_server=False, lam=1.5)
def test_stacked_aflguard_is_the_row_rule(seed, rows, dim, scales, special,
                                          special_in_server, lam):
    # each row of a stack gets the decision l2norm(u - g) <= lam * l2norm(g)
    # of the 1-D rule, bit for bit, and the engine's AFLGuard step holds
    # the row where it accepts and zeros where it rejects
    rng = np.random.default_rng(seed)
    server = np.stack([scale * rng.normal(size=dim) for scale, _ in scales[:rows]])
    client = server + np.stack([spread * np.abs(scale) * rng.normal(size=dim)
                                for scale, spread in scales[:rows]])
    if special is not None:
        target = server if special_in_server else client
        target[rng.integers(rows), rng.integers(dim)] = special
    with np.errstate(over="ignore", invalid="ignore"):
        radius = aflguard_radius(server, lam)
        got = defenses.aflguard_accept(client, server, radius)
        want = [l2norm(u - g) <= lam * l2norm(g) for u, g in zip(client, server)]
        assert got.shape == (rows,) and got.dtype == bool
        assert got.tolist() == want
        for u, g, w in zip(client, server, want):
            assert defenses.aflguard_accept(u, g, aflguard_radius(g, lam)) == w

        cfg = ExperimentConfig(defense=DefenseConfig(kind="aflguard", lam=lam))
        # a two-iteration schedule, client k for row k
        prepare, decide = engine._bind_filter(cfg, np.tile(np.arange(rows), (2, 1)), dim)
        reference = prepare(server)
        codes, step = decide(0, 1, client, None, reference)
    assert np.asarray(codes).tolist() == [ACCEPT if w else REJECT for w in want]
    # with no row rejected the step is the stack as sent, not a copy
    assert (step is client) == all(want)
    for u, row, w in zip(client, step, want):
        # a rejected row, finite or not, applies zeros, not inf * 0 = NaN
        assert row.tobytes() == (u if w else np.zeros(dim)).tobytes()

    # a block of two iterations, (2, rows, dim): the server rows broadcast
    # over its leading axis, and each update meets its own row's g_s
    block = np.stack([client, 2 * server - client[::-1]])
    with np.errstate(over="ignore", invalid="ignore"):
        got = defenses.aflguard_accept(block, server, radius)
        want = [[l2norm(u - g) <= lam * l2norm(g) for u, g in zip(updates, server)]
                for updates in block]
        codes, step = decide(0, 2, block, None, reference)
    assert got.shape == (2, rows) and got.tolist() == want
    assert np.asarray(codes).tolist() == [[ACCEPT if w else REJECT for w in ws]
                                          for ws in want]
    assert (step is block) == all(map(all, want))
    for u, row, w in zip(block.reshape(-1, dim), step.reshape(-1, dim),
                         sum(want, [])):
        assert row.tobytes() == (u if w else np.zeros(dim)).tobytes()


def _one_trial(schedule, num_clients):
    """The history of one trial whose iteration t is client schedule[t],
    for models of length 2."""
    return KardamHistory(np.array(schedule, dtype=np.intp).reshape(-1, 1), num_clients, 2)


def _kardam(history, t, update, base):
    """kardam_step on iteration t's one (p,) row of a one-trial history:
    its decision code, once its step is checked to be the update where it
    accepts and zeros where not."""
    code, step = defenses.kardam_step(history, t, t + 1, update, base)
    applied = update if code == ACCEPT else np.zeros(len(update))
    assert step.tobytes() == applied.tobytes()
    return int(code)


class TestKardam:
    def test_bootstrap_accepts_first_update(self):
        history = _one_trial(range(5), 5)
        for cid in range(5):
            assert _kardam(history, cid, np.ones(2) * cid, np.zeros(2)) == ACCEPT

    def test_zero_denominator_bootstraps(self):
        history = _one_trial([0, 0], 5)
        base = np.array([1.0, 1.0])
        _kardam(history, 0, np.ones(2), base)
        assert _kardam(history, 1, np.ones(2) * 100, base.copy()) == ACCEPT
        assert 0 not in history.trials[0].coefficients

    def test_decision_ignores_client_identity(self):
        # same coefficient multiset and same incoming ratio, permuted ids
        outcomes = []
        for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            ks = {perm[0]: 0.5, perm[1]: 1.0, perm[2]: 2.0}
            # each client twice in turn, then the probe
            history = _one_trial([cid for cid in ks for _ in range(2)] + [perm[0]], 3)
            for t, (cid, k) in enumerate(ks.items()):
                _kardam(history, 2 * t, np.zeros(2), np.zeros(2))
                _kardam(history, 2 * t + 1, np.array([k, 0.0]), np.array([1.0, 0.0]))
            probe = perm[0]
            incoming = history.prev_update[probe] + np.array([1.2, 0.0])
            base = history.prev_base[probe] + np.array([1.0, 0.0])
            outcomes.append(_kardam(history, 6, incoming, base))
        # ratio 1.2 lies between the median 1.0 and the largest coefficient 2.0
        assert outcomes == [REJECT] * 3

    def test_a_stack_must_hold_the_blocks_rows(self):
        history = KardamHistory(np.zeros((3, 2), dtype=np.intp), 4, 3)
        # iterations [0, 2) of two trials are four rows, not two or six
        for shape in ((1, 2, 3), (3, 2, 3)):
            with pytest.raises(ValueError):
                defenses.kardam_step(history, 0, 2, np.ones(shape), np.ones(shape))
        with pytest.raises(ValueError):
            defenses.kardam_step(history, 0, 2, np.ones((2, 2, 3)), np.ones((2, 2, 2)))


def _same_float(a, b):
    """Bit-equal, except that any NaN matches any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


# coefficients as kardam_step makes them: >= 0, +inf, or NaN; few client
# ids, so overwrites and ties are common
_COEFFICIENTS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf, math.nan]),
                          st.floats(min_value=0.0, allow_nan=False))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 6), _COEFFICIENTS), min_size=1, max_size=40))
@example([(0, 1.0), (1, 3.0)])  # even count: the mean of the middle two
@example([(0, 1.0), (1, math.nan), (2, 2.0)])  # a NaN makes the median NaN
@example([(0, math.nan), (0, 1.0)])  # an overwritten NaN no longer counts
def test_running_median_is_numpy_median(events):
    state = KardamState()
    for cid, coeff in events:
        state.record(cid, coeff)
        with np.errstate(over="ignore"):  # huge middle values sum to inf
            expected = float(np.median(list(state.coefficients.values())))
        assert _same_float(state.median(), expected), (state.coefficients, state.median())


class _ReferenceKardam:
    """kardam_step's rule with the median taken by np.median over a fresh
    list of the stored coefficients at every update."""

    def __init__(self):
        self.prev_update, self.prev_base, self.coefficients = {}, {}, {}

    def step(self, cid, update, base_model):
        accept, coeff = True, None
        if cid in self.prev_update:
            denom = np.linalg.norm(base_model - self.prev_base[cid])
            if denom > 0.0:
                coeff = float(np.linalg.norm(update - self.prev_update[cid]) / denom)
        if coeff is not None:
            defined = list(self.coefficients.values())
            accept = coeff <= (float(np.median(defined)) if defined else coeff)
            self.coefficients[cid] = coeff
        self.prev_update[cid], self.prev_base[cid] = update, base_model
        return ACCEPT if accept else REJECT


# an update or base coordinate: repeats give zero distances and ties, and
# inf and NaN give NaN and infinite coefficients
_COORDINATE = st.sampled_from([0.0, 1.0, 2.0, 3.5, -1.0, 1e300, math.inf, math.nan])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 5), _COORDINATE, _COORDINATE,
                          st.sampled_from([0.0, 1.0, 2.0, 4.0])),
                max_size=60))
# coefficients 1 and 3.5 stored, then 2 arrives: accepted against their
# mean 2.25, rejected against the lower middle 1
@example([(0, 0.0, 0.0, 0.0), (0, 1.0, 0.0, 1.0), (1, 0.0, 0.0, 0.0),
          (1, 3.5, 0.0, 1.0), (2, 0.0, 0.0, 0.0), (2, 2.0, 0.0, 1.0)])
# a stored NaN coefficient rejects the next update, whatever its coefficient
@example([(0, 0.0, 0.0, 0.0), (0, math.nan, 0.0, 1.0), (1, 0.0, 0.0, 0.0),
          (1, 1.0, 0.0, 1.0)])
def test_kardam_decisions_match_a_numpy_median_reference(steps):
    history, reference = _one_trial([step[0] for step in steps], 6), _ReferenceKardam()
    state = history.trials[0]
    with np.errstate(all="ignore"):
        for t, (cid, u0, u1, b) in enumerate(steps):
            update, base = np.array([u0, u1]), np.array([b, 0.0])
            got = _kardam(history, t, update, base)
            assert got == reference.step(cid, update, base)
            assert state.coefficients.keys() == reference.coefficients.keys()
            assert all(_same_float(state.coefficients[c], reference.coefficients[c])
                       for c in state.coefficients)


@st.composite
def _kardam_blocks(draw):
    """A run's trial count K and its blocks: each an (L, K) client-id array
    and (L, K, 2) updates and bases. Ids come from [0, 4), so a trial's
    client often reports twice in a block."""
    rows, blocks = draw(st.integers(1, 4)), []
    for _ in range(draw(st.integers(1, 3))):
        iterations = draw(st.integers(1, 6))
        size = iterations * rows
        cids = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        coords = draw(st.lists(_COORDINATE, min_size=4 * size, max_size=4 * size))
        stacks = np.reshape(coords, (2, iterations, rows, 2))
        blocks.append((np.reshape(cids, (iterations, rows)), stacks[0], stacks[1]))
    return rows, blocks


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_kardam_blocks())
# client 1 reports at iterations 0 and 2 in trial 0 and at iterations 0
# and 1 in trial 1, so the block is decided in two runs of distinct keys
@example((2, [(np.array([[1, 1], [0, 1], [1, 2]]),
               np.arange(12.0).reshape(3, 2, 2),
               np.array([[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]],
                         [[2.0, 0.0], [4.0, 0.0]]]))]))
def test_kardam_blocks_are_the_row_rule_in_iteration_order(run):
    # a block decided in one call equals K independent reference rules fed
    # its rows in (iteration, row) order: codes, step bytes, the stored
    # coefficients and the stored history
    rows, blocks = run
    # the schedule is the blocks' client ids, and block j is its
    # iterations [start, stop)
    history = KardamHistory(np.concatenate([cids for cids, _, _ in blocks]), 4, 2)
    references = [_ReferenceKardam() for _ in range(rows)]
    start = 0
    with np.errstate(all="ignore"):
        for cids, updates, bases in blocks:
            stop = start + len(cids)
            codes, step = defenses.kardam_step(history, start, stop, updates, bases)
            start = stop
            assert np.shape(codes) == cids.shape and step.shape == updates.shape
            for i, k in np.ndindex(cids.shape):
                want = references[k].step(int(cids[i, k]), updates[i, k], bases[i, k])
                assert int(codes[i, k]) == want, (i, k)
                applied = updates[i, k] if want == ACCEPT else np.zeros(2)
                assert step[i, k].tobytes() == applied.tobytes(), (i, k)
    for k, (state, reference) in enumerate(zip(history.trials, references)):
        assert state.coefficients.keys() == reference.coefficients.keys()
        assert all(_same_float(state.coefficients[c], reference.coefficients[c])
                   for c in state.coefficients)
        for cid in range(4):
            # the history of a pair that has not reported is NaN
            key, nan = k * 4 + cid, np.full(2, math.nan)
            want = [reference.prev_update.get(cid, nan), reference.prev_base.get(cid, nan)]
            assert [history.prev_update[key].tobytes(),
                    history.prev_base[key].tobytes()] == [w.tobytes() for w in want]


def _basgd_median(vs):
    """Coordinate median as BASGD computes it: k buffers of one update each."""
    state = BasgdState(len(vs))
    for cid, v in enumerate(vs):
        _, step = defenses.basgd_step([state], cid, v)
    return step


class TestBasgd:
    def test_one_accept_per_fill_and_buffers_cleared(self):
        state = BasgdState(2)
        accepts = 0
        rng = np.random.default_rng(5)
        for i in range(40):
            code, step = defenses.basgd_step([state], int(rng.integers(10)),
                                             rng.normal(size=3))
            if code == ACCEPT:
                accepts += 1
                assert all(not buf for buf in state.buffers)
            else:
                assert code == BUFFERED and not np.any(step)
        assert accepts >= 1

    def test_buffers_are_not_an_argument(self):
        with pytest.raises(TypeError):
            BasgdState(2, [[np.ones(2)], []])

    def test_coordinate_median_permutation_invariant(self):
        rng = np.random.default_rng(6)
        vs = [rng.normal(size=4) for _ in range(6)]
        base = _basgd_median(vs)
        for _ in range(5):
            rng.shuffle(vs)
            assert np.array_equal(_basgd_median(vs), base)

    def test_mean_and_median_agree_on_identical_vectors(self):
        # buffer 0 averages three copies of v, buffer 1 holds one; the
        # median of the two buffer means is v again
        v = np.array([2.0, -3.0, 0.5])
        state = BasgdState(2)
        for cid in (0, 2, 4, 1):
            code, step = defenses.basgd_step([state], cid, v.copy())
        assert code == ACCEPT
        assert np.allclose(step, v)

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            _basgd_median([np.ones(2), np.ones(3)])


class TestZeno:
    def test_norm_always_matches_server(self):
        rng = np.random.default_rng(103)
        server = rng.normal(size=6)
        sn = np.linalg.norm(server)
        for _ in range(50):
            client = rng.normal(size=6)
            code, step = defenses.zeno_step(client, server, zeno_norms(server))
            if code == ACCEPT:
                assert abs(np.linalg.norm(step) - sn) <= 1e-12 * sn

    def test_orthogonal_rejected(self):
        server = np.array([1.0, 0.0])
        code, step = defenses.zeno_step(np.array([0.0, 1.0]), server, zeno_norms(server))
        assert code == REJECT and not np.any(step)

    def test_reversed_rejected(self):
        s = np.array([1.0, -2.0])
        assert defenses.zeno_step(-s, s, zeno_norms(s))[0] == REJECT

    def test_zero_client_rejected_zero_server_error(self):
        code, step = defenses.zeno_step(np.zeros(2), np.ones(2), zeno_norms(np.ones(2)))
        assert code == REJECT and step.tobytes() == np.zeros(2).tobytes()
        with pytest.raises(ValueError):
            zeno_norms(np.zeros(2))
        # one zero server row among K fails the whole stack
        server = np.ones((3, 2))
        server[1] = 0.0
        with pytest.raises(ValueError, match="zero server update"):
            zeno_norms(server)
        # and the engine's binding raises it when it prepares g_s
        cfg = ExperimentConfig(defense=DefenseConfig(kind="zenopp"))
        prepare, _ = engine._bind_filter(cfg, np.zeros((1, 3), dtype=np.intp), 2)
        with pytest.raises(ValueError, match="zero server update"):
            prepare(server)

    def test_non_finite_rows_rejected(self):
        # the quotient is NaN or 0 here: the 1-D rule's clamp makes a NaN
        # -1.0, and numpy's NaN > 0 is False
        client = np.array([[math.inf, 0.0], [math.nan, 1.0], [1e200, 1e200]])
        server = np.array([1.0, 0.5])
        with np.errstate(over="ignore", invalid="ignore"):
            servers = np.stack([server] * 3)
            codes, step = defenses.zeno_step(client, servers, zeno_norms(servers))
            assert [_reference_zeno(u, server)[0] for u in client] == [REJECT] * 3
        assert codes.tolist() == [REJECT] * 3
        assert step.tobytes() == np.zeros((3, 2)).tobytes()

    def test_quotient_divides_by_the_product_of_the_norms(self):
        # dot / client norm alone underflows to 0 here, but dot / (client
        # norm * server norm) is 1e-180, so the 1-D rule accepts
        client, server = np.array([1e150, 1e-30]), np.array([0.0, 1e-150])
        assert _reference_zeno(client, server)[0] == ACCEPT
        assert defenses.zeno_step(client[None], server[None],
                                  zeno_norms(server[None]))[0].tolist() == [ACCEPT]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; zero-norm input is a hard error. A
    NaN quotient, which an inf or NaN entry can give, comes back as -1.0:
    ``max(-1.0, nan)`` is -1.0."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na, nb = l2norm(a), l2norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine undefined for zero-norm input")
    return min(1.0, max(-1.0, float(np.dot(a, b)) / (na * nb)))


def _reference_zeno(client, server):
    """zeno_step's rule on one row, with ``cosine``: its decision code and
    step."""
    server_norm = l2norm(server)
    if server_norm == 0.0:
        raise ValueError("zero server update")
    client_norm = l2norm(client)
    if client_norm == 0.0 or cosine(client, server) <= 0.0:
        return REJECT, np.zeros(len(client))
    return ACCEPT, client * (server_norm / client_norm)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), iterations=st.integers(1, 3),
       rows=st.integers(1, 4), dim=st.integers(1, 40),
       # 1e-170: a nonzero row whose norm underflows to zero
       client_scales=st.lists(_ROW_SCALES | st.just(1e-170), min_size=12, max_size=12),
       server_scales=st.lists(_ROW_SCALES.filter(bool), min_size=4, max_size=4),
       special=st.sampled_from([None, math.inf, -math.inf, math.nan]),
       special_in_server=st.booleans())
@example(seed=1, iterations=2, rows=2, dim=3, client_scales=[1e150, 1e-150, 0.0] * 4,
         server_scales=[1e-150, 1e150] * 2, special=None, special_in_server=False)
@example(seed=3, iterations=2, rows=2, dim=1, client_scales=[1e-170] * 12,
         server_scales=[1e150] * 4, special=None, special_in_server=False)
@example(seed=2, iterations=1, rows=3, dim=2, client_scales=[1.0] * 12,
         server_scales=[1.0] * 4, special=math.nan, special_in_server=True)
def test_stacked_zeno_is_the_row_rule(seed, iterations, rows, dim, client_scales,
                                      server_scales, special, special_in_server):
    # each row of an (L, K, p) stack gets the 1-D rule's decision against
    # its row of g_s, and its step has the bytes of the rule's: the row
    # rescaled where it accepts, zeros where it rejects
    rng = np.random.default_rng(seed)
    server = np.stack([scale * rng.normal(size=dim) for scale in server_scales[:rows]])
    client = (np.reshape(client_scales[:iterations * rows], (iterations, rows, 1))
              * rng.normal(size=(iterations, rows, dim)))
    if special is not None:
        target = server if special_in_server else client[rng.integers(iterations)]
        target[rng.integers(rows), rng.integers(dim)] = special
    cfg = ExperimentConfig(defense=DefenseConfig(kind="zenopp"))
    scale = cfg.schedule.batch_size / cfg.data.trusted_size
    prepare, decide = engine._bind_filter(
        cfg, np.tile(np.arange(rows), (iterations, 1)), dim)
    with np.errstate(all="ignore"):
        for g_s, answer in ((server, defenses.zeno_step(client, server, zeno_norms(server))),
                            (scale * server, decide(0, iterations, client, None,
                                                    prepare(server)))):
            want = [_reference_zeno(u, g) for updates in client
                    for u, g in zip(updates, g_s)]
            codes, step = answer
            assert np.shape(codes) == (iterations, rows) and step.shape == client.shape
            assert np.ravel(codes).tolist() == [code for code, _ in want]
            for row, (_, applied) in zip(step.reshape(-1, dim), want):
                assert row.tobytes() == applied.tobytes()
        # and a single (p,) row is a stack of one
        for u, g in zip(client[0], server):
            code, row = defenses.zeno_step(u, g, zeno_norms(g))
            want_code, applied = _reference_zeno(u, g)
            assert code == want_code and row.tobytes() == applied.tobytes()
