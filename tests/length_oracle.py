"""The brute-force word-length oracle that the planar normal form's minimality
is checked against; shared by the acceptance and normal-form tests."""

from collections import deque

from framoid.diagrams import BeadedDiagram, CapExceeded, compose, identity
from framoid.monoids import generating_set, generating_symbols


def min_length_oracle(x: BeadedDiagram, fam, cap: int = 250_000) -> int:
    """Minimal number of non-bead generators over all words evaluating to x.

    0/1 breadth-first search over the family's diagrams; bead generators are
    free, every other generator costs one.
    """
    start = identity(fam.n, fam.d, tied=fam.tied, tag=fam.tag)
    moves = [(diag, 0 if sym.kind == "o" else 1)
             for sym, diag in zip(generating_symbols(fam), generating_set(fam))]
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        base = dist[cur]
        if cur == x:
            return base
        for diag, cost in moves:
            nxt, _ = compose(cur, diag, drop_rook=fam.drop_rook)
            if nxt not in dist or base + cost < dist[nxt]:
                if len(dist) >= cap:
                    raise CapExceeded("word search exceeded cap")
                dist[nxt] = base + cost
                if cost == 0:
                    queue.appendleft(nxt)
                else:
                    queue.append(nxt)
    if x not in dist:
        raise ValueError("element not reachable from the family generators")
    return dist[x]
