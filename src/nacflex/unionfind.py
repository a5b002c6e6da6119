"""The undoable union-find of the NAC search.

`RollbackUnionFind` trades path compression for an undo trail so the
backtracking search can snapshot and restore in O(changes).  One-shot
merging (`graphs.connection_step`, `graphs.triangle_classes`) uses a local
parent list instead.
"""

from __future__ import annotations


class RollbackUnionFind:
    """Union by size, no path compression; unions can be undone in LIFO order."""

    __slots__ = ("parent", "size", "trail")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n
        self.trail: list[tuple[int, int]] = []

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.trail.append((rb, ra))
        return True

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def mark(self) -> int:
        return len(self.trail)

    def rollback(self, mark: int) -> None:
        trail = self.trail
        while len(trail) > mark:
            rb, ra = trail.pop()
            self.parent[rb] = rb
            self.size[ra] -= self.size[rb]
