"""Crash-consistent chunked ingest: journal, resume, atomic overwrite,
verify/repair quarantine, and temp-file hygiene."""

import hashlib
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import barabasi_albert
from repro.graph.store import (
    QUARANTINE_DIRNAME,
    CorruptShardError,
    IngestJournal,
    Manifest,
    StoreError,
    build_store,
    ingest_edge_stream,
    streaming_assignment,
    verify_store,
    repair_store,
)
from repro.graph.store import journal as journal_mod
from repro.graph.store import writer as writer_mod
from repro.graph.store.checks import STREAM_FORMS, per_edge_pass1, stream_form
from repro.graph.store.journal import INGEST_DIRNAME
from repro.resilience.faults import FaultError, FaultPlan

NUM_VERTICES = 60
CHUNK_EDGES = 12


def _edges():
    graph = barabasi_albert(NUM_VERTICES, 2, seed=5)
    pairs = []
    for u in range(graph.num_vertices):
        for v in graph.indices[graph.indptr[u]: graph.indptr[u + 1]]:
            if u < int(v):
                pairs.append((u, int(v)))
    order = np.random.default_rng(9).permutation(len(pairs))
    return [pairs[i] for i in order]


EDGES = _edges()
N_CHUNKS = -(-len(EDGES) // CHUNK_EDGES)

KWARGS = dict(
    num_vertices=NUM_VERTICES, directed=False, partition="hash",
    num_parts=2, seed=3, chunk_edges=CHUNK_EDGES, name="t",
)


def _digest(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for fname in sorted(filenames):
            full = os.path.join(dirpath, fname)
            digest.update(os.path.relpath(full, root).encode() + b"\0")
            with open(full, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\1")
    return digest.hexdigest()


@pytest.fixture
def reference(tmp_path):
    root = str(tmp_path / "ref")
    ingest_edge_stream(iter(EDGES), path=root, **KWARGS)
    return _digest(root)


class TestResumeByteIdentity:
    @pytest.mark.parametrize("chunk", [0, N_CHUNKS // 2, N_CHUNKS - 1])
    def test_crash_at_chunk_boundary(self, tmp_path, reference, chunk):
        root = str(tmp_path / "g")
        injector = FaultPlan(seed=0).crash_at_chunk(chunk).build()
        with pytest.raises(FaultError) as excinfo:
            ingest_edge_stream(iter(EDGES), path=root, injector=injector, **KWARGS)
        assert excinfo.value.kind == "crash_at_chunk"
        # The crash landed on a journaled boundary.
        journal = IngestJournal.load(root)
        assert journal is not None
        assert journal.chunks_committed == chunk + 1

        ingest_edge_stream(iter(EDGES), path=root, resume=True, **KWARGS)
        assert _digest(root) == reference
        assert not os.path.exists(os.path.join(root, INGEST_DIRNAME))

    def test_torn_write_truncated_on_resume(self, tmp_path, reference):
        root = str(tmp_path / "g")
        injector = FaultPlan(seed=0).torn_write(chunk=1).build()
        with pytest.raises(FaultError) as excinfo:
            ingest_edge_stream(iter(EDGES), path=root, injector=injector, **KWARGS)
        assert excinfo.value.kind == "torn_write"
        # The torn chunk was NOT committed: the journal still points at
        # the previous boundary, and a spill file has a ragged tail.
        journal = IngestJournal.load(root)
        assert journal.chunks_committed == 1

        ingest_edge_stream(iter(EDGES), path=root, resume=True, **KWARGS)
        assert _digest(root) == reference

    def test_crash_in_pass2_resumes(self, tmp_path, reference):
        root = str(tmp_path / "g")
        # Rate 1.0 fails every write attempt: the first partition shard
        # write dies even after the retry, mid pass 2.
        injector = FaultPlan(seed=0).io_error(1.0).build()
        with pytest.raises(FaultError) as excinfo:
            ingest_edge_stream(iter(EDGES), path=root, injector=injector, **KWARGS)
        assert excinfo.value.kind == "io_error"
        journal = IngestJournal.load(root)
        assert journal.phase == "pass2"

        ingest_edge_stream(iter(EDGES), path=root, resume=True, **KWARGS)
        assert _digest(root) == reference

    def test_resume_of_finished_build_is_a_noop(self, tmp_path):
        root = str(tmp_path / "g")
        want = ingest_edge_stream(iter(EDGES), path=root, **KWARGS)
        got = ingest_edge_stream(None, path=root, resume=True, **KWARGS)
        assert got.as_dict() == want.as_dict()

    def test_resume_without_edges_needs_pass1_done(self, tmp_path):
        root = str(tmp_path / "g")
        injector = FaultPlan(seed=0).crash_at_chunk(0).build()
        with pytest.raises(FaultError):
            ingest_edge_stream(iter(EDGES), path=root, injector=injector, **KWARGS)
        with pytest.raises(StoreError):
            ingest_edge_stream(None, path=root, resume=True, **KWARGS)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        root = str(tmp_path / "g")
        injector = FaultPlan(seed=0).crash_at_chunk(1).build()
        with pytest.raises(FaultError):
            ingest_edge_stream(iter(EDGES), path=root, injector=injector, **KWARGS)
        mismatched = dict(KWARGS, chunk_edges=CHUNK_EDGES + 1)
        with pytest.raises(StoreError):
            ingest_edge_stream(iter(EDGES), path=root, resume=True, **mismatched)

    def test_fresh_restart_discards_crashed_leftovers(self, tmp_path, reference):
        root = str(tmp_path / "g")
        injector = FaultPlan(seed=0).crash_at_chunk(1).build()
        with pytest.raises(FaultError):
            ingest_edge_stream(iter(EDGES), path=root, injector=injector, **KWARGS)
        # No resume: start over from scratch; stale spills must not leak.
        ingest_edge_stream(iter(EDGES), path=root, **KWARGS)
        assert _digest(root) == reference


def _ingest_commits(stream, root, **kwargs):
    """Ingest ``stream``, recording ``(items, slots, spill bytes)`` at
    every pass-1 journal commit, and the error the ingest stopped on."""
    commits = []
    original = IngestJournal.commit_chunk

    def spy(self, items_consumed, slots_spilled, spill_sizes):
        original(self, items_consumed, slots_spilled, spill_sizes)
        spills = []
        for k in range(len(spill_sizes)):
            with open(os.path.join(self.dir, f"part{k}.edges.bin"), "rb") as f:
                spills.append(f.read())
        assert [len(s) for s in spills] == self.spill_bytes
        commits.append((items_consumed, slots_spilled, spills))

    error = None
    with mock.patch.object(IngestJournal, "commit_chunk", spy):
        try:
            ingest_edge_stream(stream, path=root, **kwargs)
        except Exception as exc:  # compared with the per-edge loop's
            error = exc
    return commits, error


def _per_edge(pairs, n, directed, partition, num_parts, seed, chunk_edges):
    return per_edge_pass1(
        pairs, n, directed=directed,
        assignment=streaming_assignment(partition, n, num_parts, seed),
        num_parts=num_parts, chunk_edges=chunk_edges,
    )


@st.composite
def _ingest_cases(draw):
    n = draw(st.integers(1, 10))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=50,
    ))
    if draw(st.booleans()):  # one edge outside the id range
        bad = draw(st.sampled_from([(-1, 0), (0, n), (n + 3, -2)]))
        pairs.insert(draw(st.integers(0, len(pairs))), bad)
    cuts = sorted(draw(st.lists(st.integers(0, len(pairs)), max_size=5)))
    return dict(
        n=n, pairs=pairs, cuts=cuts,
        form=draw(st.sampled_from(STREAM_FORMS)),
        directed=draw(st.booleans()),
        partition=draw(st.sampled_from(["hash", "range"])),
        num_parts=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 9)),
        chunk_edges=draw(st.integers(1, 6)),
        block_items=draw(st.integers(1, 7)),
    )


class TestArrayPassOne:
    """Pass 1 as array code commits what the per-edge loop committed."""

    @given(case=_ingest_cases())
    @settings(max_examples=80, deadline=None)
    def test_every_commit_equals_per_edge_loop(self, case):
        kwargs = dict(
            num_vertices=case["n"], directed=case["directed"],
            partition=case["partition"], num_parts=case["num_parts"],
            seed=case["seed"], chunk_edges=case["chunk_edges"],
        )
        want, want_error = _per_edge(
            case["pairs"], case["n"], case["directed"], case["partition"],
            case["num_parts"], case["seed"], case["chunk_edges"],
        )
        stream = stream_form(
            np.array(case["pairs"], dtype=np.int64).reshape(-1, 2),
            case["form"], case["cuts"],
        )
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            writer_mod, "_MIN_BLOCK_ITEMS", case["block_items"]
        ):
            got, got_error = _ingest_commits(stream, os.path.join(tmp, "g"),
                                             **kwargs)
        assert got == want
        assert repr(got_error) == repr(want_error)

    def test_bench_shaped_stream_equals_per_edge_loop(self, tmp_path):
        rng = np.random.default_rng(4)
        pairs = [tuple(e) for e in rng.integers(0, 300, (5_000, 2)).tolist()]
        kwargs = dict(num_vertices=300, directed=False, partition="range",
                      num_parts=4, seed=0, chunk_edges=700)
        want, _ = _per_edge(pairs, 300, False, "range", 4, 0, 700)
        got, error = _ingest_commits(pairs, str(tmp_path / "g"), **kwargs)
        assert error is None and len(got) == 8
        assert got == want

    @pytest.mark.parametrize("bad", [(1, 2, 3), ("x", 1), (None, 2), (1,)])
    def test_malformed_item_raises_what_the_loop_raised(self, tmp_path, bad):
        pairs = EDGES[:40] + [bad] + EDGES[40:]
        want, want_error = _per_edge(pairs, NUM_VERTICES, False, "hash", 2, 3,
                                     CHUNK_EDGES)
        got, got_error = _ingest_commits(pairs, str(tmp_path / "g"), **KWARGS)
        assert type(got_error) is type(want_error)
        assert str(got_error) == str(want_error)
        assert got == want and len(got) == 3

    @pytest.mark.parametrize("fail_at", [0, 13, 40, len(EDGES)])
    def test_failing_stream_commits_what_the_loop_committed(
        self, tmp_path, fail_at
    ):
        # A reader that dies mid-file: the chunks closed by the edges
        # read before the failure still commit, then its error surfaces.
        def reader():
            yield from EDGES[:fail_at]
            raise OSError("disk gone")

        want, want_error = _per_edge(reader(), NUM_VERTICES, False, "hash", 2,
                                     3, CHUNK_EDGES)
        got, got_error = _ingest_commits(reader(), str(tmp_path / "g"),
                                         **KWARGS)
        assert repr(got_error) == repr(want_error) == "OSError('disk gone')"
        assert got == want and len(got) == fail_at // CHUNK_EDGES

    def test_ids_beyond_int64_are_out_of_range(self, tmp_path):
        with pytest.raises(StoreError, match=r"edge \(0, 36893488147419103232\)"):
            ingest_edge_stream([(0, 1), (0, 1 << 65)], 4, tmp_path / "g")

    @pytest.mark.parametrize("block", [
        np.zeros((3, 3), dtype=np.int64),
        np.zeros((2, 2), dtype=np.float64),
    ])
    def test_malformed_block_rejected(self, tmp_path, block):
        with pytest.raises(StoreError, match=r"\(k, 2\) integer arrays"):
            ingest_edge_stream([block], 4, tmp_path / "g")

    @pytest.mark.parametrize("chunk", range(N_CHUNKS))
    def test_block_stream_resumes_mid_block(self, tmp_path, reference, chunk):
        # 7-edge blocks never line up with the 12-edge chunks, so every
        # resume drops part of a block.
        array = np.array(EDGES, dtype=np.int64)
        blocks = np.split(array, range(7, len(EDGES), 7))
        root = str(tmp_path / "g")
        injector = FaultPlan(seed=0).crash_at_chunk(chunk).build()
        with pytest.raises(FaultError):
            ingest_edge_stream(blocks, path=root, injector=injector, **KWARGS)
        resumed, error = _ingest_commits(blocks, root, resume=True, **KWARGS)
        want, _ = _per_edge(EDGES, NUM_VERTICES, False, "hash", 2, 3,
                            CHUNK_EDGES)
        assert error is None and resumed == want[chunk + 1:]
        assert _digest(root) == reference

    def test_resume_with_a_shorter_stream_refused(self, tmp_path):
        root = str(tmp_path / "g")
        injector = FaultPlan(seed=0).crash_at_chunk(2).build()
        with pytest.raises(FaultError):
            ingest_edge_stream(iter(EDGES), path=root, injector=injector, **KWARGS)
        consumed = IngestJournal.load(root).items_consumed
        with pytest.raises(StoreError, match=f"ended after 5 items on resume; "
                                             f"the journal consumed {consumed}"):
            ingest_edge_stream(EDGES[:5], path=root, resume=True, **KWARGS)

    def test_code_sort_equals_lexsort_fallback(self):
        rng = np.random.default_rng(2)
        rows = rng.integers(0, 50, 400)
        cols = rng.integers(0, 60, 400)
        want = writer_mod._sorted_unique_pairs(rows, cols, 60)
        wide = writer_mod._sorted_unique_pairs(rows, cols, 1 << 62)  # lexsort
        order = np.lexsort((cols, rows))
        pairs = np.unique(np.stack([rows[order], cols[order]], axis=1), axis=0)
        for got in (want, wide):
            np.testing.assert_array_equal(got[0], pairs[:, 0])
            np.testing.assert_array_equal(got[1], pairs[:, 1])


_JOURNAL_DAMAGE = {
    "not_an_object": lambda d: [],
    "items_as_string": lambda d: dict(d, items_consumed="7"),
    "items_negative": lambda d: dict(d, items_consumed=-1),
    "chunks_fractional": lambda d: dict(d, chunks_committed=1.5),
    "slots_boolean": lambda d: dict(d, slots_spilled=True),
    "spill_sizes_scalar": lambda d: dict(d, spill_bytes=5),
    "spill_size_negative": lambda d: dict(d, spill_bytes=[-16, 0]),
    "phase_unknown": lambda d: dict(d, phase="pass3"),
    "fingerprint_scalar": lambda d: dict(d, fingerprint=5),
    "partition_entry_empty": lambda d: dict(d, partitions_done=[{"meta": {}}]),
    # Beyond the spill files: truncate would pad them with zero slots.
    "spill_beyond_file": lambda d: dict(
        d, spill_bytes=[b + 16 for b in d["spill_bytes"]]
    ),
    "spill_mid_slot": lambda d: dict(
        d, spill_bytes=[b - 8 for b in d["spill_bytes"]]
    ),
}


class TestMalformedJournal:
    """A resume trusts the journal on disk: each damaged field is a
    typed ``StoreError``, never a bare ``ValueError``/``TypeError`` or a
    store built from zero-padded spills."""

    @pytest.mark.parametrize("damage", sorted(_JOURNAL_DAMAGE))
    def test_resume_rejects_damaged_journal(self, tmp_path, damage):
        root = str(tmp_path / "g")
        injector = FaultPlan(seed=0).crash_at_chunk(1).build()
        with pytest.raises(FaultError):
            ingest_edge_stream(iter(EDGES), path=root, injector=injector, **KWARGS)
        path = os.path.join(root, INGEST_DIRNAME, journal_mod.JOURNAL_FILENAME)
        with open(path) as handle:
            data = json.load(handle)
        with open(path, "w") as handle:
            json.dump(_JOURNAL_DAMAGE[damage](data), handle)
        with pytest.raises(StoreError, match="journal"):
            ingest_edge_stream(iter(EDGES), path=root, resume=True, **KWARGS)


class TestIoRetry:
    def test_single_io_error_absorbed_by_retry(self, tmp_path, reference):
        root = str(tmp_path / "g")
        injector = FaultPlan(seed=0).fail_write("part1/indices.npy").build()
        ingest_edge_stream(iter(EDGES), path=root, injector=injector, **KWARGS)
        assert injector.faults_injected >= 1
        assert _digest(root) == reference


class TestAtomicOverwrite:
    def test_overwrite_replaces_store(self, tmp_path):
        graph_a = barabasi_albert(30, 2, seed=1)
        graph_b = barabasi_albert(40, 3, seed=2)
        root = str(tmp_path / "g")
        build_store(graph_a, root, num_parts=2, name="t")
        build_store(graph_b, root, num_parts=2, name="t", overwrite=True)
        assert Manifest.load(root).num_vertices == 40

        fresh = str(tmp_path / "fresh")
        build_store(graph_b, fresh, num_parts=2, name="t")
        assert _digest(root) == _digest(fresh)
        # The sibling temp/old directories were cleaned up.
        assert os.listdir(str(tmp_path)) == sorted(["g", "fresh"]) or set(
            os.listdir(str(tmp_path))
        ) == {"g", "fresh"}

    def test_failed_overwrite_preserves_original(self, tmp_path):
        graph_a = barabasi_albert(30, 2, seed=1)
        graph_b = barabasi_albert(40, 3, seed=2)
        root = str(tmp_path / "g")
        build_store(graph_a, root, num_parts=2, name="t")
        want = _digest(root)
        injector = FaultPlan(seed=0).io_error(1.0).build()
        with pytest.raises(FaultError):
            build_store(
                graph_b, root, num_parts=2, name="t",
                overwrite=True, injector=injector,
            )
        # The original store is untouched and still verifies.
        assert _digest(root) == want
        assert verify_store(root).ok
        # The half-built sibling is tracked for the atexit sweep.
        writer_mod._sweep_tmp_dirs()
        assert set(os.listdir(str(tmp_path))) == {"g"}

    @pytest.mark.parametrize("fault", ["crash_at_chunk", "io_error"])
    def test_crashed_ingest_overwrite_keeps_old_store(
        self, tmp_path, reference, fault
    ):
        root = str(tmp_path / "g")
        build_store(barabasi_albert(30, 2, seed=1), root, num_parts=2, name="t")
        want = _digest(root)
        plan = FaultPlan(seed=0)
        # Pass 1 dies mid-stream, or pass 2's first shard write fails.
        plan = (plan.crash_at_chunk(N_CHUNKS // 2) if fault == "crash_at_chunk"
                else plan.io_error(1.0))
        with pytest.raises(FaultError):
            ingest_edge_stream(iter(EDGES), path=root, overwrite=True,
                               injector=plan.build(), **KWARGS)
        assert _digest(root) == want
        assert verify_store(root).ok

        ingest_edge_stream(iter(EDGES), path=root, overwrite=True,
                           resume=True, **KWARGS)
        assert _digest(root) == reference
        assert set(os.listdir(str(tmp_path))) == {"g", "ref"}

    def test_ingest_overwrite_replaces_store(self, tmp_path, reference):
        root = str(tmp_path / "g")
        build_store(barabasi_albert(30, 2, seed=1), root, num_parts=2, name="t")
        ingest_edge_stream(iter(EDGES), path=root, overwrite=True, **KWARGS)
        assert _digest(root) == reference
        assert set(os.listdir(str(tmp_path))) == {"g", "ref"}
        with pytest.raises(StoreError):
            ingest_edge_stream(iter(EDGES), path=root, **KWARGS)

    def test_overwrite_still_required(self, tmp_path):
        graph = barabasi_albert(30, 2, seed=1)
        root = str(tmp_path / "g")
        build_store(graph, root)
        with pytest.raises(StoreError):
            build_store(graph, root)


class TestVerifyRepair:
    def _flip_byte(self, path):
        with open(path, "r+b") as handle:
            handle.seek(-8, os.SEEK_END)
            byte = handle.read(1)
            handle.seek(-8, os.SEEK_END)
            handle.write(bytes([byte[0] ^ 0xFF]))

    def test_clean_store_verifies(self, tmp_path):
        build_store(barabasi_albert(30, 2, seed=1), str(tmp_path / "g"))
        report = verify_store(str(tmp_path / "g"))
        assert report.ok
        assert report.checked > 0 and report.bad_paths == []

    def test_corruption_detected_and_quarantined(self, tmp_path):
        root = str(tmp_path / "g")
        build_store(barabasi_albert(30, 2, seed=1), root, num_parts=2)
        victim = os.path.join("part0", "indices.npy")
        self._flip_byte(os.path.join(root, victim))

        report = verify_store(root)
        assert not report.ok
        assert report.corrupt == [victim]

        with pytest.raises(CorruptShardError) as excinfo:
            repair_store(root)
        assert victim in excinfo.value.paths
        quarantined = os.path.join(root, QUARANTINE_DIRNAME, victim)
        assert os.path.exists(quarantined)
        # After repair the bad shard is classified missing, not corrupt.
        after = verify_store(root)
        assert after.corrupt == []
        assert after.missing == [victim]

    def test_truncation_detected(self, tmp_path):
        root = str(tmp_path / "g")
        build_store(barabasi_albert(30, 2, seed=1), root)
        victim = os.path.join(root, "part0", "indices.npy")
        with open(victim, "r+b") as handle:
            handle.truncate(os.path.getsize(victim) - 4)
        report = verify_store(root)
        assert not report.ok
        assert os.path.join("part0", "indices.npy") in report.truncated


class TestTempHygiene:
    def test_enospc_journal_commit_leaves_no_tmp(self, tmp_path, monkeypatch):
        journal = IngestJournal(str(tmp_path), {"k": 1})

        def no_space(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(journal_mod.os, "fsync", no_space)
        with pytest.raises(OSError):
            journal.commit()
        monkeypatch.undo()
        assert not os.path.exists(journal.path + ".tmp")
        assert journal.path + ".tmp" not in journal_mod._LIVE_TMP

    def test_atexit_sweep_removes_stray_journal_tmp(self, tmp_path):
        stray = str(tmp_path / "journal.json.tmp")
        with open(stray, "w") as handle:
            handle.write("{}")
        journal_mod._LIVE_TMP.add(stray)
        journal_mod._sweep_tmp()
        assert not os.path.exists(stray)
        assert stray not in journal_mod._LIVE_TMP

    def test_atexit_sweep_removes_stray_build_dir(self, tmp_path):
        stray = str(tmp_path / "g.tmp-999")
        os.makedirs(os.path.join(stray, "part0"))
        with open(os.path.join(stray, "part0", "x.npy"), "w") as handle:
            handle.write("x")
        writer_mod._LIVE_TMP_DIRS.add(stray)
        writer_mod._sweep_tmp_dirs()
        assert not os.path.exists(stray)
        assert stray not in writer_mod._LIVE_TMP_DIRS
