"""Tests for the modified key tree and its batch rekeying (Section 2.4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ids import Id, IdScheme, NULL_ID
from repro.crypto import AuthenticationError
from repro.keytree.keys import RekeyMessage
from repro.keytree.modified_tree import ModifiedKeyTree, apply_rekey_message

FIG4_SCHEME = IdScheme(num_digits=2, base=3)
FIG4_USERS = [Id([0, 0]), Id([0, 1]), Id([2, 0]), Id([2, 1]), Id([2, 2])]


def settled_fig4_tree(crypto=False):
    tree = ModifiedKeyTree(
        FIG4_SCHEME, crypto=crypto, rng=np.random.default_rng(0)
    )
    for uid in FIG4_USERS:
        tree.request_join(uid)
    tree.process_batch()
    return tree


class TestFig4Example:
    """The paper's running example: u5 = [2,2] leaves; the server changes
    k1-5 -> k1-4 and k345 -> k34 and generates exactly four encryptions:
    {k1-4}_k12, {k1-4}_k34, {k34}_k3, {k34}_k4."""

    def test_four_encryptions_on_u5_leave(self):
        tree = settled_fig4_tree()
        tree.request_leave(Id([2, 2]))
        message = tree.process_batch()
        assert message.rekey_cost == 4

    def test_encryption_ids_match_paper(self):
        tree = settled_fig4_tree()
        tree.request_leave(Id([2, 2]))
        message = tree.process_batch()
        ids = sorted((e.new_key_id, e.encrypting_key_id) for e in message.encryptions)
        assert ids == [
            (NULL_ID, Id([0])),      # {k1-4}_k12
            (NULL_ID, Id([2])),      # {k1-4}_k34
            (Id([2]), Id([2, 0])),   # {k34}_k3
            (Id([2]), Id([2, 1])),   # {k34}_k4
        ]

    def test_updated_keys_get_new_versions(self):
        tree = settled_fig4_tree()
        v_root = tree.node_version(NULL_ID)
        v_2 = tree.node_version(Id([2]))
        v_0 = tree.node_version(Id([0]))
        tree.request_leave(Id([2, 2]))
        tree.process_batch()
        assert tree.node_version(NULL_ID) == v_root + 1
        assert tree.node_version(Id([2])) == v_2 + 1
        assert tree.node_version(Id([0])) == v_0  # untouched branch

    def test_user_holds_keys_on_its_path(self):
        # "user u5 is given the three keys on the path from its u-node to
        # the root: k5, k345, and k1-5"
        tree = settled_fig4_tree()
        path = tree.path_key_ids(Id([2, 2]))
        assert path == [Id([2, 2]), Id([2]), NULL_ID]


class TestStructure:
    def test_structure_matches_id_tree(self):
        tree = settled_fig4_tree()
        assert tree.has_node(NULL_ID)
        assert tree.has_node(Id([0]))
        assert tree.has_node(Id([2]))
        assert not tree.has_node(Id([1]))
        for uid in FIG4_USERS:
            assert tree.has_node(uid)

    def test_leave_prunes_childless_knodes(self):
        tree = settled_fig4_tree()
        tree.request_leave(Id([0, 0]))
        tree.request_leave(Id([0, 1]))
        tree.process_batch()
        assert not tree.has_node(Id([0]))

    def test_join_creates_missing_knodes(self):
        tree = settled_fig4_tree()
        tree.request_join(Id([1, 0]))
        tree.process_batch()
        assert tree.has_node(Id([1]))

    def test_duplicate_join_rejected(self):
        tree = settled_fig4_tree()
        with pytest.raises(ValueError):
            tree.request_join(Id([0, 0]))

    def test_leave_of_unknown_rejected(self):
        tree = settled_fig4_tree()
        with pytest.raises(ValueError):
            tree.request_leave(Id([1, 1]))

    def test_double_leave_rejected(self):
        tree = settled_fig4_tree()
        tree.request_leave(Id([0, 0]))
        with pytest.raises(ValueError):
            tree.request_leave(Id([0, 0]))

    def test_empty_batch_is_free(self):
        tree = settled_fig4_tree()
        message = tree.process_batch()
        assert message.rekey_cost == 0


class TestBatchSemantics:
    def test_join_rekeys_whole_path(self):
        tree = settled_fig4_tree()
        tree.request_join(Id([0, 2]))  # a new user under subtree [0]
        message = tree.process_batch()
        # updated nodes: root (2 children) + [0] (now 3 children) = 5 encs
        assert message.rekey_cost == 2 + 3

    def test_batch_join_and_leave_together(self):
        tree = settled_fig4_tree()
        tree.request_join(Id([1, 0]))
        tree.request_leave(Id([2, 2]))
        message = tree.process_batch()
        # updated: root (3 children now), [1] (1 child), [2] (2 children)
        assert message.rekey_cost == 3 + 1 + 2

    def test_encryptions_use_new_child_keys(self):
        """When both a k-node and its child update, the encryption uses
        the child's NEW version."""
        tree = settled_fig4_tree()
        tree.request_leave(Id([2, 2]))
        message = tree.process_batch()
        for enc in message.encryptions:
            assert enc.encrypting_version == tree.node_version(
                enc.encrypting_key_id
            )

    def test_rejoin_cancels_the_pending_leave(self):
        tree = settled_fig4_tree()
        uid = Id([2, 2])
        tree.request_leave(uid)
        tree.request_join(uid)  # rejoin within the interval
        tree.request_leave(uid)  # a fresh leave is accepted again
        with pytest.raises(ValueError):
            tree.request_leave(uid)
        tree.process_batch()
        assert uid not in tree.user_ids
        tree.request_join(uid)  # pending state was cleared by the batch
        tree.process_batch()
        assert uid in tree.user_ids

    def test_batch_of_everything_leaves_empty_tree(self):
        tree = settled_fig4_tree()
        for uid in FIG4_USERS:
            tree.request_leave(uid)
        message = tree.process_batch()
        assert message.rekey_cost == 0
        assert tree.num_users == 0
        assert not tree.has_node(NULL_ID)


@st.composite
def churn_scenarios(draw):
    scheme = IdScheme(3, 3)
    all_ids = [Id((a, b, c)) for a in range(3) for b in range(3) for c in range(3)]
    initial = draw(st.sets(st.sampled_from(all_ids), min_size=2, max_size=15))
    joins = draw(
        st.sets(
            st.sampled_from([u for u in all_ids if u not in initial]),
            max_size=6,
        )
    )
    leaves = draw(st.sets(st.sampled_from(sorted(initial)), max_size=6))
    return scheme, sorted(initial), sorted(joins), sorted(leaves)


class TestCryptoModeProperties:
    @given(churn_scenarios())
    @settings(max_examples=25, deadline=None)
    def test_remaining_users_recover_all_path_keys(self, scenario):
        scheme, initial, joins, leaves = scenario
        tree = ModifiedKeyTree(scheme, crypto=True, rng=np.random.default_rng(1))
        for uid in initial:
            tree.request_join(uid)
        tree.process_batch()
        stores = {uid: tree.user_keystore(uid) for uid in initial}
        for uid in joins:
            tree.request_join(uid)
            stores[uid] = tree.user_keystore(uid)
        for uid in leaves:
            tree.request_leave(uid)
        message = tree.process_batch()
        for uid in sorted(set(initial + joins) - set(leaves)):
            apply_rekey_message(stores[uid], message)
            for key_id in tree.path_key_ids(uid):
                version = tree.node_version(key_id)
                assert stores[uid].has(key_id, version), (uid, key_id)
                assert stores[uid].get(key_id, version) == tree.node_secret(key_id)

    @given(churn_scenarios())
    @settings(max_examples=25, deadline=None)
    def test_departed_users_recover_no_new_keys(self, scenario):
        """Forward secrecy of the batch: a departed user's old keys cannot
        decrypt any encryption of the new rekey message."""
        scheme, initial, joins, leaves = scenario
        if not leaves:
            return
        tree = ModifiedKeyTree(scheme, crypto=True, rng=np.random.default_rng(2))
        for uid in initial:
            tree.request_join(uid)
        tree.process_batch()
        stores = {uid: tree.user_keystore(uid) for uid in initial}
        for uid in joins:
            tree.request_join(uid)
        for uid in leaves:
            tree.request_leave(uid)
        message = tree.process_batch()
        for uid in leaves:
            used = apply_rekey_message(stores[uid], message)
            assert used == []
            # in particular: no new group key
            if tree.has_node(NULL_ID):
                assert not stores[uid].has(NULL_ID, tree.group_key_version())

    def test_counting_mode_has_no_secrets(self):
        tree = settled_fig4_tree(crypto=False)
        with pytest.raises(RuntimeError):
            tree.node_secret(NULL_ID)
        tree.request_leave(Id([2, 2]))
        message = tree.process_batch()
        with pytest.raises(ValueError):
            from repro.crypto.keystore import KeyStore

            apply_rekey_message(KeyStore(), message)
