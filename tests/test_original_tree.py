"""Tests for the original Wong–Gouda–Lam key tree with batch rekeying."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.keytree.original_tree import OriginalKeyTree


def balanced_tree(n=64, degree=4):
    tree = OriginalKeyTree(degree=degree)
    tree.initialize_balanced(list(range(n)))
    return tree


class TestConstruction:
    def test_balanced_1024_has_height_5(self):
        tree = balanced_tree(1024)
        assert tree.height() == 5  # 4^5 = 1024, the paper's Fig. 12 start
        assert tree.num_users == 1024
        assert tree.check_invariants() == []

    def test_partial_tree_still_valid(self):
        tree = balanced_tree(37)
        assert tree.num_users == 37
        assert tree.check_invariants() == []

    def test_single_user_tree(self):
        tree = balanced_tree(1)
        assert tree.height() == 0
        assert tree.path_nodes(0) == [tree._user_leaf[0]]

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            OriginalKeyTree(degree=1)

    def test_double_initialize_rejected(self):
        tree = balanced_tree(4)
        with pytest.raises(RuntimeError):
            tree.initialize_balanced([99])

    def test_empty_initialize_rejected(self):
        with pytest.raises(ValueError):
            OriginalKeyTree().initialize_balanced([])

    def test_path_nodes_end_at_root(self):
        tree = balanced_tree(64)
        paths = [tree.path_nodes(u) for u in (0, 13, 63)]
        roots = {p[-1] for p in paths}
        assert len(roots) == 1  # common root
        for p in paths:
            assert len(p) == 4  # leaf + 3 k-node levels for 64 = 4^3


class TestSingleOperations:
    def test_single_leave_cost(self):
        # Balanced 1024, degree 4: leave marks 5 ancestors; the leaf's
        # parent now has 3 children: 3 + 4*4 = 19 encryptions.
        tree = balanced_tree(1024)
        tree.request_leave(500)
        result = tree.process_batch(np.random.default_rng(0))
        assert result.rekey_cost == 19

    def test_join_replacing_leave_cost(self):
        # One join replaces the departed slot: 5 marked nodes, all with 4
        # children: 20 encryptions.
        tree = balanced_tree(1024)
        tree.request_leave(500)
        tree.request_join("new")
        result = tree.process_batch(np.random.default_rng(0))
        assert result.rekey_cost == 20
        assert "new" in tree.users and 500 not in tree.users

    def test_pure_join_attaches_or_splits(self):
        tree = balanced_tree(16)  # full 4^2 tree
        tree.request_join("j1")
        result = tree.process_batch(np.random.default_rng(0))
        assert "j1" in tree.users
        assert tree.check_invariants() == []
        assert result.rekey_cost > 0

    def test_join_fills_open_slot_first(self):
        tree = balanced_tree(14)  # last k-node has only 2 children
        before = tree.height()
        tree.request_join("j1")
        tree.process_batch(np.random.default_rng(0))
        assert tree.height() == before  # no split needed

    def test_invalid_requests(self):
        tree = balanced_tree(8)
        with pytest.raises(ValueError):
            tree.request_leave("ghost")
        tree.request_leave(3)
        with pytest.raises(ValueError):
            tree.request_leave(3)
        with pytest.raises(ValueError):
            tree.request_join(5)  # already a member

    def test_pending_requests_clear_with_the_batch(self):
        tree = balanced_tree(8)
        tree.request_join("n")
        with pytest.raises(ValueError):
            tree.request_join("n")  # already pending
        tree.request_leave(3)
        tree.process_batch(np.random.default_rng(0))
        tree.request_leave("n")
        tree.request_join(3)  # left in the last batch, may come back
        tree.process_batch(np.random.default_rng(0))
        tree.request_join("n")
        tree.request_leave(3)
        tree.process_batch(np.random.default_rng(0))
        assert "n" in tree.users and 3 not in tree.users
        assert tree.check_invariants() == []


class TestBatchSemantics:
    def test_equal_joins_and_leaves_preserve_structure(self):
        """The point of ToN'03 batching: with J == L every join takes a
        departed u-node's position, so the tree's shape is unchanged."""
        rng = np.random.default_rng(1)
        tree = balanced_tree(256)
        nodes_before = set(tree._nodes)
        height_before = tree.height()
        for victim in range(8):
            tree.request_leave(victim)
        for j in range(8):
            tree.request_join(f"new{j}")
        tree.process_batch(rng)
        assert set(tree._nodes) == nodes_before
        assert tree.height() == height_before
        assert tree.check_invariants() == []

    def test_leave_all_empties_tree(self):
        tree = balanced_tree(16)
        for u in range(16):
            tree.request_leave(u)
        result = tree.process_batch(np.random.default_rng(0))
        assert result.rekey_cost == 0
        assert tree.num_users == 0

    def test_encryption_nodes_exist(self):
        tree = balanced_tree(64)
        for victim in range(6):
            tree.request_leave(victim)
        for j in range(3):
            tree.request_join(f"n{j}")
        result = tree.process_batch(np.random.default_rng(2))
        for enc in result.encryptions:
            assert enc.new_key_node in tree._nodes
            assert enc.encrypting_node in tree._nodes


class TestChurnProperty:
    @given(
        st.integers(4, 64),
        st.integers(0, 20),
        st.integers(0, 20),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_after_random_batch(self, n, joins, leaves, seed):
        rng = np.random.default_rng(seed)
        tree = balanced_tree(n)
        leaves = min(leaves, n)
        victims = rng.choice(n, size=leaves, replace=False)
        for v in victims:
            tree.request_leave(int(v))
        for j in range(joins):
            tree.request_join(f"j{j}")
        tree.process_batch(rng)
        assert tree.num_users == n - leaves + joins
        assert tree.check_invariants() == []
        # every user's path still reaches the root
        if tree.num_users:
            roots = {tree.path_nodes(u)[-1] for u in tree.users}
            assert len(roots) == 1

    @given(st.integers(2, 50), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_repeated_batches_keep_tree_sound(self, n, seed):
        rng = np.random.default_rng(seed)
        tree = balanced_tree(n)
        next_id = 0
        for _ in range(5):
            users = sorted(tree.users, key=str)
            n_leave = int(rng.integers(0, max(1, len(users) // 2)))
            picks = rng.choice(len(users), size=n_leave, replace=False)
            for i in picks:
                tree.request_leave(users[int(i)])
            for _ in range(int(rng.integers(0, 5))):
                tree.request_join(f"g{next_id}")
                next_id += 1
            tree.process_batch(rng)
            assert tree.check_invariants() == []
