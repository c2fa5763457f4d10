"""The refinement/coarsening/symbolic hot loops of the pipeline.

One numpy implementation per kernel: the HC refinement pass, the HCcs
window walk (serial and batched-front flavours), the coarsening
acyclicity probe and its Pearce–Kelly dynamic-order replacement, and the
quotient-graph symbolic factorisation.  The heavy vectorized lifting lives
where it always did (e.g. :meth:`LazyCostTracker.candidate_deltas`, which
scores a whole block of nodes per call); these functions own the *pass
loops* — the block walk / per-window orchestration around it.

Every kernel is pinned to the retained seed references by the
differential suites; on the repository's integer/dyadic-weight instances
the results are bit-identical, not merely equal within tolerance.
"""

from __future__ import annotations

import numpy as np

from .state import HccsState

__all__ = [
    "HccsState",
    "get_backend",
    "hc_pass",
    "hccs_pass",
    "hccs_pass_fronts",
    "coarsen_reach",
    "pk_order",
    "symbolic_fill_quotient",
]

_EPS = 1e-9


def get_backend() -> str:
    """Always ``"numpy"``.

    Kept only because the benchmarks record it as host metadata
    (``benchmarks/e2e/run.py`` calls it by name).
    """
    return "numpy"


#: block size an HC pass returns to after every accepted move
_HC_BLOCK_MIN = 8
#: block size an HC pass starts with, and the largest it asks for (the
#: tracker's cell cap may score fewer)
_HC_BLOCK_MAX = 256


def hc_pass(tracker, start, stop, max_accept=-1, eps=_EPS, budget=None, *, skip=None):
    """One HC refinement pass of every copy a tracker holds, over nodes ``[start, stop)``.

    A speculative block walk: a block of ``b`` nodes is scored together by
    one read-only ``tracker.candidate_deltas`` call against the current
    state, and the first hit — the first node's first improving candidate
    in the scan order (steps ``τ - 1, τ, τ + 1`` major, processors minor) —
    is applied through ``tracker.apply_move``.  The walk then resumes at
    the node after the hit, discarding the rest of the block, which was
    scored against a state that no longer holds.  So every node is scored
    against exactly the state a node-by-node walk would show it, and the
    accepted moves are those of that walk.  ``b`` starts at
    ``_HC_BLOCK_MAX``, since a block costs about the same from 1 to 32
    nodes and most passes, above all the last one of a burst, find few
    moves.  A hit drops it to ``_HC_BLOCK_MIN``, and each block without a
    hit doubles it again, up to ``_HC_BLOCK_MAX``.  The tracker's memory
    cap may score fewer nodes than asked; the next block then doubles
    what was scored.

    A tracker holding several schedules (copies, of one DAG or of
    different ones; copy ``c`` owns the nodes from
    ``tracker.node_offsets[c]`` up to ``tracker.node_offsets[c + 1]``)
    walks each copy's part of ``[start, stop)`` as above, in lockstep: each
    round concatenates the next block of every copy still walking into one
    ``candidate_deltas`` call, then applies each copy's first hit and moves
    each copy on as its own walk would.  A copy's moves change only its own
    rows, so the other copies' scores from the same call still hold.  When
    the memory cap cuts the combined block, the copies it left out lead the
    next round's block, ahead of those it scored, so no copy starves.  The
    call ends when every copy has finished its pass.

    ``skip`` is an optional boolean mask over the tracker's nodes that
    marks nodes known to have no improving move in the current state (the
    multilevel scheduler hands a converged level's verdict to the next
    level this way).  Until its first accepted move a copy's walk scores
    only its unmasked nodes.  That move changes the copy's state, so its
    mask is dropped and the walk goes on over every node after it.  The
    accepted moves are thus those of the walk without a mask.

    Returns ``(accepted, moves)`` where ``moves`` lists the accepted
    ``(node, new_proc, new_step)`` triples, in tracker numbering, in
    acceptance order.  ``max_accept`` caps the accepted moves of each
    copy: one cap for all, or a sequence with one per copy, where a
    negative cap (or ``None``) means unlimited and a copy with cap 0 sits
    the pass out.  A wall-clock ``budget`` is checked before every block,
    so it may overrun by one full block.
    """
    P = tracker.machine.num_procs
    width = 3 * P  # candidates per node
    offsets = tracker.node_offsets.tolist()
    copies = tracker.num_copies
    if max_accept is None or np.ndim(max_accept) == 0:
        caps = [-1 if max_accept is None else int(max_accept)] * copies
    else:
        caps = [int(cap) for cap in max_accept]
    moves: list[tuple[int, int, int]] = []
    # per copy: its nodes, the nodes it still walks, the walk position in
    # them, the next block size and the moves it accepted
    first = [max(start, offsets[c]) for c in range(copies)]
    nodes = [np.arange(first[c], min(stop, offsets[c + 1])) for c in range(copies)]
    todo = list(nodes) if skip is None else [own[~skip[own]] for own in nodes]
    pos = [0] * copies
    size = [_HC_BLOCK_MAX] * copies
    got = [0] * copies
    walking = [c for c in range(copies) if todo[c].size and caps[c] != 0]
    while walking:
        if budget is not None and budget.expired():
            break
        blocks = [todo[c][pos[c] : pos[c] + size[c]] for c in walking]
        block = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        deltas, valid = tracker.candidate_deltas(block)
        scored = deltas.shape[0]
        hits = (valid & (deltas < -eps)).ravel().nonzero()[0]
        left_out, still = [], []
        end = 0
        for c, own in zip(walking, blocks):
            begin, end = end, end + own.size
            k = min(own.size, scored - begin)  # nodes of this copy scored
            if k <= 0:
                left_out.append(c)
                continue
            at = int(hits.searchsorted(begin * width)) if hits.size else 0
            if at == hits.size or hits[at] >= (begin + k) * width:
                pos[c] += k
                size[c] = min(2 * k, _HC_BLOCK_MAX)
            else:
                j, flat = divmod(int(hits[at]) - begin * width, width)
                step_offset, new_proc = divmod(flat, P)
                node = int(own[j])
                new_step = int(tracker.supersteps[node]) - 1 + step_offset
                tracker.apply_move(node, new_proc, new_step)
                got[c] += 1
                moves.append((node, new_proc, new_step))
                todo[c], pos[c] = nodes[c], node + 1 - first[c]
                size[c] = _HC_BLOCK_MIN
            if pos[c] < todo[c].size and not 0 <= caps[c] <= got[c]:
                still.append(c)
        # the copies the memory cap left out lead the next block
        walking = left_out + still
    return sum(got), moves


def hccs_pass(state: HccsState, start, stop, max_accept=-1, eps=_EPS, budget=None):
    """One HCcs pass over ``state.movable[start:stop]``.

    One shared removal row scan per window, candidate phases scored against
    the maintained row maxima in one vectorized expression.  Returns
    ``(accepted, moves)`` with the accepted ``(window_index, new_phase)``
    pairs in acceptance order; budget/cap semantics as in :func:`hc_pass`.
    """
    if max_accept is None:
        max_accept = -1
    send = state.send
    recv = state.recv
    comm_max = state.comm_max
    choices = state.choices
    accepted = 0
    moves: list[tuple[int, int]] = []
    for mi in range(start, stop):
        if max_accept >= 0 and accepted >= max_accept:
            break
        if budget is not None and budget.expired():
            break
        index = int(state.movable[mi])
        current = int(choices[index])
        lo = int(state.earliest[index])
        hi = int(state.latest[index])
        volume = float(state.volumes[index])
        p1 = int(state.srcs[index])
        p2 = int(state.tgts[index])

        # removing the transfer from its current phase: one row scan,
        # shared by every candidate phase of the window
        send_row = send[current].copy()
        send_row[p1] -= volume
        recv_row = recv[current].copy()
        recv_row[p2] -= volume
        removal = max(float(send_row.max()), float(recv_row.max())) - comm_max[current]

        # adding it to a candidate phase only raises that row, so the
        # new maximum needs no row scan at all
        window_max = comm_max[lo : hi + 1]
        raised = np.maximum(
            window_max,
            np.maximum(send[lo : hi + 1, p1] + volume, recv[lo : hi + 1, p2] + volume),
        )
        deltas = ((raised - window_max) + removal).tolist()

        best_phase = current
        best_delta = 0.0
        for offset, delta in enumerate(deltas):
            candidate = lo + offset
            if candidate == current:
                continue
            if delta < best_delta - eps:
                best_delta = delta
                best_phase = candidate
        if best_phase != current:
            send[current, p1] -= volume
            recv[current, p2] -= volume
            send[best_phase, p1] += volume
            recv[best_phase, p2] += volume
            for s in (current, best_phase):
                comm_max[s] = float(np.maximum(send[s], recv[s]).max())
            choices[index] = best_phase
            accepted += 1
            moves.append((index, best_phase))
    return accepted, moves


def coarsen_reach(graph, u, v, budget=None):
    """Alternative-path probe for the coarsener's acyclicity check.

    ``graph`` is a flat-adjacency working graph (``succ_pool``/``succ_start``
    /``succ_len``).  Returns ``1`` when another ``u -> v`` route exists (not
    contractable), ``0`` when none does, and ``-1`` when the node ``budget``
    (``None`` = unlimited) runs out first.  A DFS over Python lists and
    sets, which beat per-element numpy indexing by a wide margin.
    """
    succ_pool = graph.succ_pool
    succ_start = graph.succ_start
    succ_len = graph.succ_len
    base = int(succ_start[u])
    stack = [w for w in succ_pool[base : base + int(succ_len[u])].tolist() if w != v]
    seen = set(stack)
    remaining = -1 if budget is None else budget
    while stack:
        x = stack.pop()
        if remaining >= 0:
            remaining -= 1
            if remaining < 0:
                return -1
        xb = int(succ_start[x])
        for w in succ_pool[xb : xb + int(succ_len[x])].tolist():
            if w == v:
                return 1
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return 0


def pk_order(graph, op, u, v):
    """Pearce–Kelly dynamic topological order: contraction probe / edge insert.

    ``graph`` is a flat-adjacency working graph carrying an ``order`` array
    (node -> position; dead nodes leave permanent holes).  ``op == 0``
    answers "does an alternative ``u -> v`` path exist?" for an existing
    edge by a DFS pruned to ``order < order[v]`` — exact because a valid
    order confines every alternative path to that strip.  ``op == 1``
    inserts edge ``u -> v``: the affected region (forward from ``v``,
    backward from ``u``, both bounded by the violated position interval) is
    discovered and reassigned in place, touching ``O(affected region)``
    nodes instead of the whole graph.  Each region is the closure of a seed
    under one bounded step relation, so it does not depend on the
    traversal order, and the reassignment sorts by the (distinct) old
    positions.  Returns ``1`` for "alternative path" / "would close a
    cycle", else ``0``.
    """
    succ_pool = graph.succ_pool
    succ_start = graph.succ_start
    succ_len = graph.succ_len
    order = graph.order
    if op == 0:
        limit = int(order[v])
        base = int(succ_start[u])
        stack = [
            w
            for w in succ_pool[base : base + int(succ_len[u])].tolist()
            if w != v and order[w] < limit
        ]
        seen = set(stack)
        while stack:
            x = stack.pop()
            xb = int(succ_start[x])
            for w in succ_pool[xb : xb + int(succ_len[x])].tolist():
                if w == v:
                    return 1
                if order[w] < limit and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return 0

    lb = int(order[v])
    ub = int(order[u])
    if ub < lb:
        return 0
    forward = [v]
    seen_f = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        xb = int(succ_start[x])
        for w in succ_pool[xb : xb + int(succ_len[x])].tolist():
            if w == u:
                return 1
            if order[w] <= ub and w not in seen_f:
                seen_f.add(w)
                forward.append(w)
                stack.append(w)
    pred_pool = graph.pred_pool
    pred_start = graph.pred_start
    pred_len = graph.pred_len
    backward = [u]
    seen_b = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        xb = int(pred_start[x])
        for w in pred_pool[xb : xb + int(pred_len[x])].tolist():
            if order[w] >= lb and w not in seen_b:
                seen_b.add(w)
                backward.append(w)
                stack.append(w)
    backward.sort(key=lambda node: order[node])
    forward.sort(key=lambda node: order[node])
    region = backward + forward
    positions = sorted(int(order[node]) for node in region)
    for node, pos in zip(region, positions):
        order[node] = pos
    return 0


def hccs_front_mask(lo, hi, num_rows):
    """Scan-order greedy maximal set of row-disjoint HCcs windows.

    One vectorized conflict scan: window ``k`` (interval ``[lo[k], hi[k]]``)
    joins the front iff no earlier-scanned window's interval intersects it —
    *earlier-scanned*, not *earlier-accepted*, so a deferred window still
    claims its rows and the serial equivalence argument of
    :func:`hccs_pass_fronts` holds.  Each phase row remembers the first
    window covering it (``np.minimum.at``); a window is kept iff it is its
    own interval-wide minimum.
    """
    k = lo.shape[0]
    widths = hi - lo + 1
    offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(widths, out=offsets[1:])
    total = int(offsets[-1])
    rows = np.repeat(lo, widths) + (
        np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], widths)
    )
    scan = np.repeat(np.arange(k, dtype=np.int64), widths)
    first = np.full(num_rows, k, dtype=np.int64)
    np.minimum.at(first, rows, scan)
    return np.minimum.reduceat(first[rows], offsets[:-1]) == np.arange(
        k, dtype=np.int64
    )


def _hccs_front(state: HccsState, front, eps):
    """Evaluate and apply one row-disjoint window front in a batched sweep.

    ``front`` holds window indices whose feasible phase intervals are
    pairwise disjoint, so every window sees the same row maxima a serial
    walk would and the accepted moves scatter without conflicts.  The
    first-exact-argmin phase choice equals the serial eps-guarded ascending
    scan under the exact (integer/dyadic) weight regime, where distinct
    deltas differ by at least one volume unit >> eps.  Returns
    ``(accepted, moves)`` with moves in front order.
    """
    send = state.send
    recv = state.recv
    comm_max = state.comm_max
    choices = state.choices
    k = front.shape[0]
    cur = choices[front]
    lo = state.earliest[front]
    hi = state.latest[front]
    vol = state.volumes[front]
    p1 = state.srcs[front]
    p2 = state.tgts[front]

    # removal terms: one gathered row block, the moving volume subtracted
    send_rows = send[cur]
    send_rows[np.arange(k), p1] -= vol
    recv_rows = recv[cur]
    recv_rows[np.arange(k), p2] -= vol
    removal = np.maximum(send_rows.max(axis=1), recv_rows.max(axis=1)) - comm_max[cur]

    # candidate deltas over the concatenated feasible intervals
    widths = hi - lo + 1
    offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(widths, out=offsets[1:])
    total = int(offsets[-1])
    rep = np.repeat(np.arange(k, dtype=np.int64), widths)
    phases = np.repeat(lo, widths) + (
        np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], widths)
    )
    raised = np.maximum(
        comm_max[phases],
        np.maximum(send[phases, p1[rep]] + vol[rep], recv[phases, p2[rep]] + vol[rep]),
    )
    deltas = (raised - comm_max[phases]) + removal[rep]
    deltas[phases == cur[rep]] = np.inf  # staying put is not a move
    best = np.minimum.reduceat(deltas, offsets[:-1])
    accept = best < -eps
    if not accept.any():
        return 0, []
    # first phase attaining the window minimum (== the serial scan's pick)
    hit_pos = np.where(
        deltas == best[rep], np.arange(total, dtype=np.int64), total
    )
    firsts = np.minimum.reduceat(hit_pos, offsets[:-1])

    ai = np.flatnonzero(accept)
    new_phase = phases[firsts[ai]]
    idx = front[ai]
    cw = cur[ai]
    vw = vol[ai]
    p1w = p1[ai]
    p2w = p2[ai]
    # intervals are disjoint across the front, hence so are the touched
    # rows: the scatter below never collides
    send[cw, p1w] -= vw
    recv[cw, p2w] -= vw
    send[new_phase, p1w] += vw
    recv[new_phase, p2w] += vw
    touched = np.concatenate((cw, new_phase))
    comm_max[touched] = np.maximum(send[touched], recv[touched]).max(axis=1)
    choices[idx] = new_phase
    moves = list(zip(idx.tolist(), new_phase.tolist()))
    return len(moves), moves


#: Fronts smaller than this finish the pass serially: the batched sweep's
#: fixed overhead (concatenated-interval bookkeeping) is not worth paying
#: for a handful of windows.
_FRONT_SERIAL_TAIL = 8

#: A front must also cover at least this fraction of the remaining windows
#: to keep batching.  When many windows contend for few traffic rows the
#: scan-order-greedy disjoint front degenerates (down to size one), and the
#: per-round conflict scan would make the pass *slower* than the serial
#: walk; falling back keeps fronts a strict no-regression optimisation.
_FRONT_MIN_FRACTION = 64


def hccs_pass_fronts(state: HccsState, eps=_EPS, budget=None):
    """One HCcs pass over all movable windows in batched row-disjoint fronts.

    Repeatedly extracts the scan-order-greedy maximal set of windows with
    pairwise-disjoint feasible phase intervals (one vectorized conflict
    scan), evaluates and applies the whole front in one batched sweep, and
    defers the conflicting windows to the next front.  A window only ever
    joins a front once every lower-scan-position window sharing any of its
    rows has been applied, so each window observes exactly the row state
    the serial walk would — under the exact (integer/dyadic) weight regime
    the accepted moves are identical to ``hccs_pass(state, 0, n, -1,
    eps)``, and they are returned in that serial scan order.  Returns
    ``(accepted, moves)``.
    """
    movable = state.movable
    n = int(movable.size)
    if n == 0:
        return 0, []
    lo_all = state.earliest[movable]
    hi_all = state.latest[movable]
    num_rows = state.send.shape[0]
    remaining = np.arange(n, dtype=np.int64)  # scan positions, ascending
    accepted = 0
    tagged: list[tuple[int, int, int]] = []
    while remaining.size:
        if budget is not None and budget.expired():
            break
        mask = hccs_front_mask(lo_all[remaining], hi_all[remaining], num_rows)
        front_pos = remaining[mask]
        small = front_pos.size <= max(
            _FRONT_SERIAL_TAIL, remaining.size // _FRONT_MIN_FRACTION
        )
        if small and front_pos.size < remaining.size:
            # the front is too small (absolutely, or relative to the
            # remaining windows) to amortise the batching overhead: the
            # remaining suffix in scan order *is* the serial completion
            sub = HccsState(
                send=state.send,
                recv=state.recv,
                comm_max=state.comm_max,
                choices=state.choices,
                movable=movable[remaining],
                srcs=state.srcs,
                tgts=state.tgts,
                earliest=state.earliest,
                latest=state.latest,
                volumes=state.volumes,
            )
            got, pass_moves = hccs_pass(sub, 0, remaining.size, -1, eps, budget)
            pos_of = dict(zip(movable[remaining].tolist(), remaining.tolist()))
            for index, phase in pass_moves:
                tagged.append((pos_of[index], index, phase))
            accepted += got
            break
        front = movable[front_pos]
        got, front_moves = _hccs_front(state, front, eps)
        pos_of = dict(zip(front.tolist(), front_pos.tolist()))
        for index, phase in front_moves:
            tagged.append((pos_of[index], index, phase))
        accepted += got
        remaining = remaining[~mask]
    tagged.sort()
    return accepted, [(index, phase) for _, index, phase in tagged]


def symbolic_fill_quotient(indptr, indices, n):
    """Row-merge-tree symbolic factorisation (quotient-graph algorithm).

    Takes the CSR pattern of the symmetrised matrix; returns the sorted
    below-diagonal column structures of ``L`` as ``(out_indptr,
    out_indices, parents)`` with ``parents`` the elimination tree (``-1``
    for roots).  Liu's path-compressed etree followed by marked row-subtree
    traversals — ``O(|A| · α + |L|)`` total, which is what makes
    million-column elimination DAGs constructible.  The strictly-lower
    entries are extracted once with vectorised numpy, and the walks chase
    plain Python lists (severalfold faster than ndarray scalar indexing).
    Rows are visited in increasing order, so each column comes out sorted
    and duplicate-free.
    """
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    lower = indices < rows
    li = rows[lower].tolist()
    lj = np.ascontiguousarray(indices)[lower].tolist()
    parents = [-1] * n
    ancestor = [-1] * n
    # pass 1 — Liu's etree: entry (col, i) with i < col re-points i's
    # compressed ancestor chain at col; the first unset link is the parent
    for col, i in zip(li, lj):
        while True:
            nxt = ancestor[i]
            if nxt == -1:
                ancestor[i] = col
                parents[i] = col
                break
            if nxt == col:
                break
            ancestor[i] = col
            i = nxt
    # pass 2 — row subtrees: row i contributes i to column j, parent(j), ...
    # up to (excluded) i itself; marks cut every walk at the merge point
    counts = [0] * n
    mark = [-1] * n
    previous = -1
    for i, j in zip(li, lj):
        if i != previous:
            mark[i] = i
            previous = i
        while mark[j] != i:
            counts[j] += 1
            mark[j] = i
            j = parents[j]
    out_indptr = np.zeros(n + 1, dtype=np.int64)
    if n:
        np.cumsum(counts, out=out_indptr[1:])
    # pass 3 — the same walks, now scattering into the flat output pool;
    # rows arrive in increasing order, so every column comes out sorted
    out = [0] * int(out_indptr[n])
    cursor = out_indptr[:n].tolist()
    mark = [-1] * n
    previous = -1
    for i, j in zip(li, lj):
        if i != previous:
            mark[i] = i
            previous = i
        while mark[j] != i:
            c = cursor[j]
            out[c] = i
            cursor[j] = c + 1
            mark[j] = i
            j = parents[j]
    out_indices = np.asarray(out, dtype=np.int64)
    return out_indptr, out_indices, np.asarray(parents, dtype=np.int64)
