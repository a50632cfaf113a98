"""Cross-backend conformance for the :mod:`repro.compute` seam.

The vectorized ``"numpy"`` backend claims to be *bitwise identical* to
the pure-Python ``"reference"`` backend on every kernel it accelerates:
the FORWARD fan-out, Theorem-2 rekey splitting, and key-tree batch-node
marking.  Property tests drive randomly generated worlds — receipt sets,
split boundaries, batch leave-sets — through both backends and compare
the serialized results byte for byte (not approximately: the perf
overhaul's equivalence discipline, see ``tests/test_perf_equivalence.py``
and docs/PERFORMANCE.md).

Runs in tier-1 via the ``conformance`` marker and standalone via
``pytest -q -m compute``.  numpy is a hard dependency, so every case
runs: a backend that fails to import is an error, never a skip.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.compute as compute_registry
from repro.compute import (
    available_backends,
    create_backend,
    resolve_backend,
)
from repro.core.ids import Id, IdScheme
from repro.core.splitting import run_split_rekey
from repro.core.tmesh import rekey_session
from repro.keytree.modified_tree import ModifiedKeyTree
from tests.conftest import SMALL_SCHEME, make_static_world

pytestmark = [pytest.mark.conformance, pytest.mark.compute]


@pytest.fixture(scope="module")
def numpy_backend():
    return create_backend("numpy")


def _session_state(session):
    return pickle.dumps(
        (session.receipts, session.edges, session.duplicate_copies)
    )


def _split_state(result):
    return pickle.dumps(
        (result.received, result.forwarded, result.edge_loads)
    )


#: Distinct user IDs in the small 3-digit base-4 scheme, as digit tuples.
_ID_SETS = st.sets(
    st.tuples(*([st.integers(min_value=0, max_value=3)] * 3)),
    min_size=2,
    max_size=12,
).map(sorted)


# ----------------------------------------------------------------------
# FORWARD fan-out: random receipt sets
# ----------------------------------------------------------------------
class TestFanoutEquivalence:
    @given(digit_sets=_ID_SETS, seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_random_receipt_sets_bitwise_equal(
        self, numpy_backend, digit_sets, seed
    ):
        ids = [Id(d) for d in digit_sets]
        topology, _, tables, server_table = make_static_world(
            SMALL_SCHEME, ids, seed=seed
        )
        ref = rekey_session(
            server_table, tables, topology, compute="reference"
        )
        vec = rekey_session(
            server_table, tables, topology, compute=numpy_backend
        )
        assert list(ref.receipts) == list(vec.receipts)
        assert _session_state(ref) == _session_state(vec)

    @given(
        digit_sets=_ID_SETS,
        seed=st.integers(min_value=0, max_value=2**16),
        delay=st.floats(
            min_value=0.0, max_value=10.0,
            allow_nan=False, allow_infinity=False,
        ),
    )
    @settings(max_examples=10, deadline=None)
    def test_processing_delay_floats_bitwise_equal(
        self, numpy_backend, digit_sets, seed, delay
    ):
        ids = [Id(d) for d in digit_sets]
        topology, _, tables, server_table = make_static_world(
            SMALL_SCHEME, ids, seed=seed
        )
        ref = rekey_session(
            server_table, tables, topology,
            processing_delay=delay, compute="reference",
        )
        vec = rekey_session(
            server_table, tables, topology,
            processing_delay=delay, compute=numpy_backend,
        )
        # Same floats bit for bit, not just approximately.
        assert _session_state(ref) == _session_state(vec)


# ----------------------------------------------------------------------
# Theorem-2 splitting: random split boundaries (leave-sets)
# ----------------------------------------------------------------------
class TestSplitEquivalence:
    @given(
        data=st.data(),
        digit_sets=_ID_SETS,
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_split_boundaries_bitwise_equal(
        self, numpy_backend, data, digit_sets, seed
    ):
        ids = [Id(d) for d in digit_sets]
        leavers = data.draw(
            st.sets(st.sampled_from(ids), max_size=len(ids) - 1)
        )
        topology, _, tables, server_table = make_static_world(
            SMALL_SCHEME, ids, seed=seed
        )
        tree = ModifiedKeyTree(SMALL_SCHEME)
        for uid in ids:
            tree.request_join(uid)
        tree.process_batch()
        for uid in sorted(leavers, key=lambda u: u.digits):
            tree.request_leave(uid)
        message = tree.process_batch()

        session = rekey_session(
            server_table, tables, topology, compute="reference"
        )
        ref = run_split_rekey(session, message, compute="reference")
        vec = run_split_rekey(session, message, compute=numpy_backend)
        assert _split_state(ref) == _split_state(vec)

        ref_sets = run_split_rekey(
            session, message, track_sets=True, compute="reference"
        )
        vec_sets = run_split_rekey(
            session, message, track_sets=True, compute=numpy_backend
        )
        assert ref_sets.received_sets == vec_sets.received_sets
        assert _split_state(ref_sets) == _split_state(vec_sets)

    def test_split_over_numpy_session_matches_reference_world(
        self, numpy_backend
    ):
        """The whole pipeline on one backend equals the whole pipeline on
        the other: sessions produced by either backend are interchangeable
        inputs to either split kernel."""
        backend = numpy_backend
        ids = [Id([a, b, 0]) for a in range(4) for b in range(3)]
        topology, _, tables, server_table = make_static_world(
            SMALL_SCHEME, ids, seed=3
        )
        tree = ModifiedKeyTree(SMALL_SCHEME)
        for uid in ids:
            tree.request_join(uid)
        tree.process_batch()
        for uid in ids[::3]:
            tree.request_leave(uid)
        message = tree.process_batch()

        ref_session = rekey_session(
            server_table, tables, topology, compute="reference"
        )
        vec_session = rekey_session(
            server_table, tables, topology, compute=backend
        )
        ref = run_split_rekey(ref_session, message, compute="reference")
        vec = run_split_rekey(vec_session, message, compute=backend)
        assert _split_state(ref) == _split_state(vec)


# ----------------------------------------------------------------------
# Key-tree batch rekeying: random batch leave-sets
# ----------------------------------------------------------------------
class TestMarkUpdatedEquivalence:
    @given(
        data=st.data(),
        digit_sets=_ID_SETS,
    )
    @settings(max_examples=20, deadline=None)
    def test_random_batch_leave_sets_identical_messages(
        self, numpy_backend, data, digit_sets
    ):
        ids = [Id(d) for d in digit_sets]
        leavers = data.draw(st.sets(st.sampled_from(ids)))
        joins_after = data.draw(
            st.sets(
                st.tuples(*([st.integers(min_value=0, max_value=3)] * 3)),
                max_size=4,
            )
        )
        messages = []
        for backend in ("reference", numpy_backend):
            tree = ModifiedKeyTree(SMALL_SCHEME, compute=backend)
            for uid in ids:
                tree.request_join(uid)
            tree.process_batch()
            for uid in sorted(leavers, key=lambda u: u.digits):
                tree.request_leave(uid)
            for digits in sorted(joins_after):
                if Id(digits) not in tree.user_ids:
                    tree.request_join(Id(digits))
            messages.append(tree.process_batch())
        ref_message, vec_message = messages
        assert pickle.dumps(ref_message) == pickle.dumps(vec_message)

    def test_short_id_batches_fall_back_identically(self, numpy_backend):
        """IDs shorter than the scheme's digit count (unreachable through
        the public join path, reachable through mark_updated directly)
        route the numpy backend to the reference fallback — same output."""
        scheme = IdScheme(num_digits=3, base=4)
        changed = [Id([1, 2]), Id([1]), Id([1, 2, 3])]
        members = {
            Id(()), Id([1]), Id([1, 2]), Id([1, 2, 3]),
        }
        ref = create_backend("reference").mark_updated(
            changed, members.__contains__, scheme.num_digits
        )
        vec = numpy_backend.mark_updated(
            changed, members.__contains__, scheme.num_digits
        )
        assert ref == vec


# ----------------------------------------------------------------------
# Registry contract
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_listed(self):
        assert {"reference", "numpy"} <= set(available_backends())

    def test_unknown_backend_is_a_key_error(self):
        with pytest.raises(KeyError, match="unknown compute backend"):
            create_backend("no-such-backend")

    def test_resolve_accepts_name_instance_and_none(self):
        ref = create_backend("reference")
        assert resolve_backend("reference") is ref
        assert resolve_backend(ref) is ref
        assert resolve_backend(None).name in set(available_backends())

    def test_set_default_backend_round_trip(self):
        compute_registry.set_default_backend("reference")
        try:
            assert resolve_backend(None).name == "reference"
        finally:
            compute_registry.set_default_backend(None)

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setattr(compute_registry, "_DEFAULT", None)
        monkeypatch.setattr(compute_registry, "_DEFAULT_NAME", None)
        monkeypatch.setenv("REPRO_COMPUTE", "reference")
        assert compute_registry.default_backend().name == "reference"


# ----------------------------------------------------------------------
# The numpy backend really vectorizes (sanity, not perf)
# ----------------------------------------------------------------------
def test_numpy_backend_reuses_compiled_structure(numpy_backend):
    """Theorem 1: with fixed tables the delivery tree is fixed, so the
    compiled fan-out must be reused across sessions (cache hit), and a
    table mutation must invalidate it."""
    ids = [Id([a, b, 0]) for a in range(4) for b in range(2)]
    topology, _, tables, server_table = make_static_world(
        SMALL_SCHEME, ids, seed=11
    )
    first = rekey_session(
        server_table, tables, topology, compute=numpy_backend
    )
    first.receipts  # materialize, forcing the compile
    compiled = server_table._compiled_fanout
    second = rekey_session(
        server_table, tables, topology, compute=numpy_backend
    )
    second.receipts
    assert server_table._compiled_fanout is compiled
    assert _session_state(first) == _session_state(second)
