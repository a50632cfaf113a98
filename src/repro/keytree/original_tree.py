"""The original key-tree approach used as the paper's baseline.

This is the Wong–Gouda–Lam key tree (SIGCOMM '98) with tree degree 4 — the
degree proved optimal for rekey cost per join/leave — combined with the
batch rekeying algorithm of Zhang et al. (IEEE/ACM ToN 2003, reference
[32]): the key server collects the ``J`` join and ``L`` leave requests of a
rekey interval and processes them together, letting joining u-nodes take
the positions of departed u-nodes.

Unlike the modified key tree, this tree has a *fixed degree* and grows
vertically; node identities are opaque integers rather than ID-tree IDs,
which is exactly why rekey message splitting on top of it requires each
forwarder to track per-user key state (Section 2.6).

Batch algorithm implemented here:

* ``J <= L``: joins replace ``J`` of the departed u-node positions; the
  remaining ``L - J`` departed u-nodes are pruned (a k-node left with a
  single child is collapsed into that child, as in WGL leave processing).
* ``J > L``: all departed positions are replaced; each extra join is
  attached at a shallowest k-node that still has fewer than ``degree``
  children, otherwise a shallowest u-node is split into a new k-node
  holding the old and the new u-node.
* Every surviving ancestor of a changed position gets a new key; the new
  key of each updated node is encrypted under the key of each of its
  children (the child's new key if the child was also updated), one
  encryption per child.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np


@dataclass
class _Node:
    node_id: int
    parent: Optional[int]
    children: List[int] = field(default_factory=list)
    user: Optional[Hashable] = None  # set iff this is a u-node
    version: int = 0

    @property
    def is_unode(self) -> bool:
        return self.user is not None


@dataclass(frozen=True)
class TreeEncryption:
    """One encryption of the original tree's rekey message: the new key of
    ``new_key_node`` wrapped under the key of ``encrypting_node``."""

    encrypting_node: int
    new_key_node: int


@dataclass(frozen=True)
class OriginalBatchResult:
    """Outcome of one batch rekey interval on the original tree."""

    encryptions: Tuple[TreeEncryption, ...]

    @property
    def rekey_cost(self) -> int:
        return len(self.encryptions)


class OriginalKeyTree:
    """Wong–Gouda–Lam key tree of fixed degree with ToN'03 batch rekeying."""

    def __init__(self, degree: int = 4):
        if degree < 2:
            raise ValueError("tree degree must be at least 2")
        self.degree = degree
        self._nodes: Dict[int, _Node] = {}
        self._root: Optional[int] = None
        self._next_id = 0
        self._user_leaf: Dict[Hashable, int] = {}
        # Queued requests as insertion-ordered sets (dict keys): batch
        # order is semantic, and membership tests must be O(1).
        self._pending_joins: Dict[Hashable, None] = {}
        self._pending_leaves: Dict[Hashable, None] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _new_node(self, parent: Optional[int], user: Optional[Hashable] = None) -> int:
        node_id = self._next_id
        self._next_id += 1
        self._nodes[node_id] = _Node(node_id, parent, user=user)
        return node_id

    def initialize_balanced(self, users: Sequence[Hashable]) -> None:
        """Build a full, balanced tree over the given users — the paper's
        starting state for Fig. 12 (1024 users, degree 4, exactly full)."""
        if self._nodes:
            raise RuntimeError("tree already initialized")
        if not users:
            raise ValueError("need at least one user")
        leaves = [self._new_node(None, user=u) for u in users]
        for leaf, user in zip(leaves, users):
            self._user_leaf[user] = leaf
        level = leaves
        while len(level) > 1:
            parents: List[int] = []
            for start in range(0, len(level), self.degree):
                group = level[start : start + self.degree]
                if len(group) == 1:
                    # A singleton group needs no k-node above it: promote
                    # the child so no k-node ever has fewer than 2 children.
                    parents.append(group[0])
                    continue
                parent = self._new_node(None)
                for child in group:
                    self._nodes[child].parent = parent
                    self._nodes[parent].children.append(child)
                parents.append(parent)
            level = parents
        self._root = level[0]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        return len(self._user_leaf)

    @property
    def users(self) -> Set[Hashable]:
        return set(self._user_leaf)

    def path_nodes(self, user: Hashable) -> List[int]:
        """Node IDs on the path from a user's u-node to the root — the
        nodes whose keys the user holds."""
        node = self._user_leaf[user]
        path = [node]
        while self._nodes[node].parent is not None:
            node = self._nodes[node].parent
            path.append(node)
        return path

    def depth_of(self, node_id: int) -> int:
        depth = 0
        node = node_id
        while self._nodes[node].parent is not None:
            node = self._nodes[node].parent
            depth += 1
        return depth

    def height(self) -> int:
        """Maximum u-node depth."""
        return max((self.depth_of(leaf) for leaf in self._user_leaf.values()), default=0)

    def check_invariants(self) -> List[str]:
        """Structural sanity checks used by the test suite."""
        problems: List[str] = []
        for node in self._nodes.values():
            if node.is_unode and node.children:
                problems.append(f"u-node {node.node_id} has children")
            if len(node.children) > self.degree:
                problems.append(f"node {node.node_id} exceeds degree")
            for child in node.children:
                if self._nodes[child].parent != node.node_id:
                    problems.append(f"broken parent link at {child}")
            if (
                not node.is_unode
                and len(node.children) < 2
                and node.node_id != self._root
            ):
                problems.append(f"k-node {node.node_id} has <2 children")
        return problems

    # ------------------------------------------------------------------
    # Membership requests
    # ------------------------------------------------------------------
    def request_join(self, user: Hashable) -> None:
        if user in self._user_leaf or user in self._pending_joins:
            raise ValueError(f"user {user!r} already present or pending")
        self._pending_joins[user] = None

    def request_leave(self, user: Hashable) -> None:
        if user not in self._user_leaf:
            raise ValueError(f"user {user!r} not in tree")
        if user in self._pending_leaves:
            raise ValueError(f"user {user!r} already leaving")
        self._pending_leaves[user] = None

    # ------------------------------------------------------------------
    # Batch rekeying
    # ------------------------------------------------------------------
    def process_batch(self, rng: Optional[np.random.Generator] = None) -> OriginalBatchResult:
        # lint: disable=determinism-unseeded-rng -- interactive-use fallback; every driver/test threads a seeded Generator
        rng = rng if rng is not None else np.random.default_rng()
        joins = list(self._pending_joins)
        leaves = list(self._pending_leaves)
        self._pending_joins = {}
        self._pending_leaves = {}

        changed: Set[int] = set()  # nodes whose ancestors must rekey

        departed_slots = [self._user_leaf.pop(user) for user in leaves]
        order = list(range(len(departed_slots)))
        rng.shuffle(order)
        departed_slots = [departed_slots[i] for i in order]

        # Joins replace departed positions first (the point of ToN'03).
        replacements = min(len(joins), len(departed_slots))
        for user, slot in zip(joins[:replacements], departed_slots[:replacements]):
            node = self._nodes[slot]
            node.user = user
            node.version += 1
            self._user_leaf[user] = slot
            changed.add(slot)

        # Prune departed positions that found no replacement.
        for slot in departed_slots[replacements:]:
            changed.update(self._prune_unode(slot))

        # Attach extra joins.
        for user in joins[replacements:]:
            changed.add(self._attach_join(user))

        updated = self._mark_ancestors(changed)
        encryptions: List[TreeEncryption] = []
        for node_id in updated:
            node = self._nodes[node_id]
            node.version += 1
            for child in node.children:
                encryptions.append(TreeEncryption(child, node_id))
        return OriginalBatchResult(tuple(encryptions))

    # ------------------------------------------------------------------
    def _prune_unode(self, slot: int) -> Set[int]:
        """Remove a departed u-node; collapse single-child k-nodes.
        Returns surviving nodes that count as changed positions."""
        node = self._nodes.pop(slot)
        parent_id = node.parent
        if parent_id is None:  # last user left; empty tree
            self._root = None
            return set()
        parent = self._nodes[parent_id]
        parent.children.remove(slot)
        if len(parent.children) >= 2:
            return {parent_id}
        if len(parent.children) == 1:
            # WGL leave processing: promote the only remaining child.
            child_id = parent.children[0]
            child = self._nodes[child_id]
            grand_id = parent.parent
            child.parent = grand_id
            if grand_id is None:
                self._root = child_id
                del self._nodes[parent_id]
                return {child_id}
            grand = self._nodes[grand_id]
            grand.children[grand.children.index(parent_id)] = child_id
            del self._nodes[parent_id]
            return {child_id}
        # parent somehow empty (cannot happen for k-nodes with >=2 children)
        return self._prune_knode(parent_id)

    def _prune_knode(self, node_id: int) -> Set[int]:
        node = self._nodes.pop(node_id)
        if node.parent is None:
            self._root = None
            return set()
        parent = self._nodes[node.parent]
        parent.children.remove(node_id)
        if parent.children:
            return {node.parent}
        return self._prune_knode(node.parent)

    def _attach_join(self, user: Hashable) -> int:
        """Attach one extra join; returns the new u-node ID."""
        if self._root is None:
            leaf = self._new_node(None, user=user)
            self._root = leaf
            self._user_leaf[user] = leaf
            return leaf
        root = self._nodes[self._root]
        if root.is_unode:
            # A 1-user tree: grow a k-node root above it.
            new_root = self._new_node(None)
            root.parent = new_root
            leaf = self._new_node(new_root, user=user)
            self._nodes[new_root].children = [root.node_id, leaf]
            self._root = new_root
            self._user_leaf[user] = leaf
            return leaf
        target = self._shallowest_open_knode()
        if target is not None:
            leaf = self._new_node(target, user=user)
            self._nodes[target].children.append(leaf)
            self._user_leaf[user] = leaf
            return leaf
        # Tree full: split the shallowest u-node.
        slot = min(self._user_leaf.values(), key=self.depth_of)
        old = self._nodes[slot]
        new_k = self._new_node(old.parent)
        parent = self._nodes[old.parent]
        parent.children[parent.children.index(slot)] = new_k
        old.parent = new_k
        leaf = self._new_node(new_k, user=user)
        self._nodes[new_k].children = [slot, leaf]
        self._user_leaf[user] = leaf
        return leaf

    def _shallowest_open_knode(self) -> Optional[int]:
        """BFS for the shallowest k-node with spare child capacity."""
        if self._root is None or self._nodes[self._root].is_unode:
            return None
        frontier = [self._root]
        while frontier:
            next_frontier: List[int] = []
            for node_id in frontier:
                node = self._nodes[node_id]
                if not node.is_unode and len(node.children) < self.degree:
                    return node_id
                next_frontier.extend(
                    c for c in node.children if not self._nodes[c].is_unode
                )
            frontier = next_frontier
        return None

    def _mark_ancestors(self, changed: Set[int]) -> List[int]:
        """Surviving non-leaf ancestors (inclusive) of changed positions,
        ordered leaves-first for deterministic encryption generation."""
        marked: Set[int] = set()
        for node_id in changed:
            if node_id not in self._nodes:
                continue
            node: Optional[int] = node_id
            while node is not None and node not in marked:
                if not self._nodes[node].is_unode:
                    marked.add(node)
                node = self._nodes[node].parent
        return sorted(marked, key=lambda n: -self.depth_of(n))
