"""Randomized binary search tree keyed by coordinate with a min-heap on
random priorities.  The 1-D warm-up for the dynamic diagram machinery: the
in-order sequence is the sorted point set, and expected depths are
logarithmic regardless of insertion order.

Trees are persistent values: insert and delete return new treaps sharing
structure with the old one, and a (key, priority) set determines the shape
uniquely, so deletion is an exact inverse of insertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TreapNode:
    key: float
    priority: float
    left: Optional["TreapNode"] = None
    right: Optional["TreapNode"] = None


@dataclass(frozen=True)
class Treap:
    root: Optional[TreapNode] = None

    def keys(self) -> list[float]:
        out: list[float] = []
        stack: list[TreapNode] = []
        n = self.root
        while n is not None or stack:
            while n is not None:
                stack.append(n)
                n = n.left
            n = stack.pop()
            out.append(n.key)
            n = n.right
        return out

    def depths(self) -> list[int]:
        """Depth of every node (root depth 0), iterative preorder."""
        if self.root is None:
            return []
        out = []
        stack = [(self.root, 0)]
        while stack:
            n, d = stack.pop()
            out.append(d)
            if n.left is not None:
                stack.append((n.left, d + 1))
            if n.right is not None:
                stack.append((n.right, d + 1))
        return out

    def check_invariants(self) -> None:
        """Assert the BST order on keys and the min-heap order on priorities."""
        def walk(n: Optional[TreapNode], lo: float, hi: float) -> None:
            if n is None:
                return
            assert lo < n.key < hi, f"key {n.key} violates BST range ({lo}, {hi})"
            for child in (n.left, n.right):
                if child is not None:
                    assert child.priority >= n.priority, \
                        f"priority {child.priority} above parent {n.priority}"
            walk(n.left, lo, n.key)
            walk(n.right, n.key, hi)
        walk(self.root, float("-inf"), float("inf"))


def _rotate_right(n: TreapNode) -> TreapNode:
    l = n.left
    return TreapNode(l.key, l.priority, l.left,
                     TreapNode(n.key, n.priority, l.right, n.right))


def _rotate_left(n: TreapNode) -> TreapNode:
    r = n.right
    return TreapNode(r.key, r.priority,
                     TreapNode(n.key, n.priority, n.left, r.left), r.right)


def _insert(n: Optional[TreapNode], key: float, priority: float) -> TreapNode:
    if n is None:
        return TreapNode(key, priority)
    if key == n.key:
        raise KeyError(f"key {key} already present")
    if key < n.key:
        child = _insert(n.left, key, priority)
        n = TreapNode(n.key, n.priority, child, n.right)
        if child.priority < n.priority:
            n = _rotate_right(n)
    else:
        child = _insert(n.right, key, priority)
        n = TreapNode(n.key, n.priority, n.left, child)
        if child.priority < n.priority:
            n = _rotate_left(n)
    return n


def _delete(n: Optional[TreapNode], key: float) -> Optional[TreapNode]:
    if n is None:
        raise KeyError(f"key {key} not present")
    if key < n.key:
        return TreapNode(n.key, n.priority, _delete(n.left, key), n.right)
    if key > n.key:
        return TreapNode(n.key, n.priority, n.left, _delete(n.right, key))
    # rotate the lower-priority child up until the node drops out as a leaf
    if n.left is None and n.right is None:
        return None
    if n.left is None or (n.right is not None
                          and n.right.priority < n.left.priority):
        n = _rotate_left(n)
        return TreapNode(n.key, n.priority, _delete(n.left, key), n.right)
    n = _rotate_right(n)
    return TreapNode(n.key, n.priority, n.left, _delete(n.right, key))


def treap_insert(t: Treap, key: float, priority: float) -> Treap:
    """New treap with (key, priority) added; KeyError on duplicate key."""
    return Treap(_insert(t.root, key, priority))


def treap_delete(t: Treap, key: float) -> Treap:
    """New treap with the key removed; KeyError when absent.

    For the same (key, priority) pair this is the exact inverse of
    treap_insert: the result is node-for-node equal to the original.
    """
    return Treap(_delete(t.root, key))


def treap_of(pairs) -> Treap:
    t = Treap()
    for k, p in pairs:
        t = treap_insert(t, k, p)
    return t
