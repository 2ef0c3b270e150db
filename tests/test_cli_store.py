"""The ``repro store`` subcommands and ``analyze`` on a store."""

import errno
import json
import os

import pytest

from repro.__main__ import main
from repro.graph.io import load_edge_list
from repro.graph.store import Manifest, build_store, verify_store
from repro.graph.store import writer as writer_mod


def _shards(root):
    """``(path, nbytes, crc32)`` of every partition file, in order."""
    return [
        (e.path, e.nbytes, e.crc32)
        for p in Manifest.load(root).partitions for e in p.files.values()
    ]


@pytest.fixture
def edge_file(tmp_path):
    path = str(tmp_path / "g.txt")
    assert main(["generate", "ba", path, "--n", "150", "--m", "3"]) == 0
    return path


class TestStoreBuild:
    def test_build_and_inspect(self, edge_file, tmp_path, capsys):
        dest = str(tmp_path / "store")
        assert main(["store", "build", edge_file, dest,
                     "--partition", "hash", "--num-parts", "3"]) == 0
        out = capsys.readouterr().out
        assert "n=150" in out and "parts=3" in out
        assert main(["store", "inspect", dest, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "hash x3" in out
        assert "CRC-32 checksums OK" in out

    def test_inspect_json(self, edge_file, tmp_path, capsys):
        dest = str(tmp_path / "store")
        main(["store", "build", edge_file, dest])
        capsys.readouterr()
        assert main(["store", "inspect", dest, "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["num_vertices"] == 150
        assert len(manifest["partitions"]) == 1

    def test_chunked_build_matches_one_shot(self, edge_file, tmp_path):
        # An unlabelled file under hash streams through the chunked
        # ingest; its shards equal the library's one-shot build.
        one = str(tmp_path / "one")
        chunk = str(tmp_path / "chunk")
        build_store(load_edge_list(edge_file), one, partition="hash",
                    num_parts=2)
        assert main(["store", "build", edge_file, chunk,
                     "--partition", "hash", "--num-parts", "2",
                     "--chunk-edges", "50"]) == 0
        assert Manifest.load(chunk).built_by == "chunked"
        assert _shards(chunk) == _shards(one)

    def test_self_loops_dropped_on_the_streamed_path(self, tmp_path):
        path = str(tmp_path / "g.txt")
        with open(path, "w") as handle:
            handle.write("0 1\n1 2\n2 0\n5 5\n")
        one = str(tmp_path / "one")
        chunk = str(tmp_path / "chunk")
        build_store(load_edge_list(path), one, partition="hash", num_parts=2)
        assert main(["store", "build", path, chunk, "--partition", "hash",
                     "--num-parts", "2", "--chunk-edges", "1"]) == 0
        assert Manifest.load(chunk).num_vertices == 3
        assert _shards(chunk) == _shards(one)

    def test_metis_builds_one_shot(self, edge_file, tmp_path):
        dest = str(tmp_path / "s")
        assert main(["store", "build", edge_file, dest,
                     "--partition", "metis", "--num-parts", "2"]) == 0
        assert Manifest.load(dest).built_by == "one_shot"

    @pytest.mark.parametrize("partition", ["hash", "range", "metis"])
    def test_labelled_file_keeps_its_labels(self, tmp_path, partition):
        path = str(tmp_path / "g.txt")
        with open(path, "w") as handle:
            handle.write("0 1 3\n1 2 0\n2 3 1\n0 3 2\n")
        one = str(tmp_path / "one")
        cli = str(tmp_path / "cli")
        build_store(load_edge_list(path), one, partition=partition,
                    num_parts=2)
        assert main(["store", "build", path, cli, "--partition", partition,
                     "--num-parts", "2", "--chunk-edges", "1"]) == 0
        assert Manifest.load(cli).has_edge_labels
        assert _shards(cli) == _shards(one)

    def test_existing_dest_needs_overwrite(self, edge_file, tmp_path, capsys):
        dest = str(tmp_path / "store")
        assert main(["store", "build", edge_file, dest]) == 0
        assert main(["store", "build", edge_file, dest]) == 1
        assert "exists" in capsys.readouterr().err
        assert main(["store", "build", edge_file, dest, "--overwrite"]) == 0

    def test_failed_overwrite_keeps_the_old_store(self, edge_file, tmp_path,
                                                  capsys, monkeypatch):
        dest = str(tmp_path / "store")
        assert main(["store", "build", edge_file, dest, "--partition",
                     "hash", "--num-parts", "2"]) == 0
        before = _shards(dest)

        def disk_full(*_args):
            raise OSError(errno.ENOSPC, "No space left on device")

        # The streamed overwrite dies in pass 2, after pass 1 spilled.
        monkeypatch.setattr(writer_mod, "_sorted_unique_pairs", disk_full)
        assert main(["store", "build", edge_file, dest, "--partition",
                     "hash", "--num-parts", "3", "--overwrite"]) == 1
        assert "No space left" in capsys.readouterr().err
        assert _shards(dest) == before
        assert verify_store(dest).ok

    def test_inspect_non_store(self, tmp_path, capsys):
        assert main(["store", "inspect", str(tmp_path)]) == 1
        assert "store inspect:" in capsys.readouterr().err

    def test_inspect_verify_names_every_bad_shard(self, edge_file, tmp_path,
                                                  capsys):
        dest = str(tmp_path / "store")
        main(["store", "build", edge_file, dest,
              "--partition", "hash", "--num-parts", "3"])
        capsys.readouterr()
        bad = [p.files["indices"].path for p in
               Manifest.load(dest).partitions[:2]]
        for rel in bad:
            with open(os.path.join(dest, rel), "r+b") as handle:
                handle.seek(-1, os.SEEK_END)
                last = handle.read(1)
                handle.seek(-1, os.SEEK_END)
                handle.write(bytes([last[0] ^ 0xFF]))
        assert main(["store", "inspect", dest, "--verify"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro store inspect: 2 file(s) failed")
        assert all(rel in err for rel in bad)


class TestAnalyzeStored:
    def test_paged_profile_end_to_end(self, edge_file, tmp_path, capsys):
        dest = str(tmp_path / "store")
        main(["store", "build", edge_file, dest,
              "--partition", "hash", "--num-parts", "4"])
        capsys.readouterr()
        # Cache far below the shard bytes: the profile must page.
        assert main(["analyze", dest,
                     "--shard-cache", "512", "--json"]) == 0
        profile = json.loads(capsys.readouterr().out)
        assert profile["num_vertices"] == 150
        assert profile["paging"]["paged"] is True
        assert profile["paging"]["evictions"] > 0
        assert profile["paging"]["cache_budget"] == 512
        assert profile["paging"]["shard_bytes"] > 512
        assert profile["components"] >= 1

    def test_text_report(self, edge_file, tmp_path, capsys):
        dest = str(tmp_path / "store")
        main(["store", "build", edge_file, dest])
        capsys.readouterr()
        assert main(["analyze", dest]) == 0
        out = capsys.readouterr().out
        assert "paging" in out and "pagerank" in out

    def test_non_store_dir_rejected(self, tmp_path, capsys):
        # A directory without a manifest is read as an edge list and
        # fails with the reader's typed error, not a traceback.
        assert main(["analyze", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro analyze: ")
        assert "Is a directory" in err

    def test_neither_source_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze"])

    @pytest.mark.parametrize("argv", [
        ["store", "build", "g.txt", "dest", "--chunked"],
        ["analyze", "--graph", "dest"],
        ["analyze", "g.txt", "--chaos"],
    ])
    def test_removed_options_rejected(self, argv):
        with pytest.raises(SystemExit):
            main(argv)
