"""Dynamic maintenance of power diagrams and coverage maps, plus the 1-D
treap warm-up structure."""

from .shuffle import (DynamicCoverage, HalfSpace3, UpdateReport, lift,
                      traverse_shuffle)
from .treap import (Treap, TreapNode, treap_delete, treap_insert, treap_of)

__all__ = [
    "DynamicCoverage", "HalfSpace3", "UpdateReport", "lift", "traverse_shuffle",
    "Treap", "TreapNode", "treap_delete", "treap_insert", "treap_of",
]
