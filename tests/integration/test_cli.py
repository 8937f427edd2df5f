"""CLI workflow tests (python -m repro)."""

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "corpus.npz")
    assert main(["corpus", path, "--blobs", "1500",
                 "--images", "240"]) == 0
    return path


@pytest.fixture(scope="module")
def index_file(corpus_file, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "tree.gist")
    assert main(["index", corpus_file, path, "--method", "xjb",
                 "--dims", "4", "--page-size", "4096"]) == 0
    return path


class TestCommands:
    def test_corpus_roundtrips(self, corpus_file):
        from repro.blobworld import load_corpus
        corpus = load_corpus(corpus_file)
        assert corpus.num_blobs == 1500
        assert corpus.textures is not None

    def test_index_is_loadable_and_valid(self, index_file):
        from repro.gist.persist import load_tree
        from repro.gist.validate import validate_tree
        tree = load_tree(path=index_file)
        validate_tree(tree, expected_size=1500)
        assert tree.ext.name == "xjb"

    def test_info(self, index_file, capsys):
        assert main(["info", index_file]) == 0
        out = capsys.readouterr().out
        assert "xjb" in out and "invariants   : ok" in out

    def test_query(self, corpus_file, index_file, capsys):
        assert main(["query", corpus_file, index_file, "7",
                     "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "top 5 images" in out

    def test_analyze(self, corpus_file, capsys):
        assert main(["analyze", corpus_file, "--methods", "rtree",
                     "xjb", "--dims", "4", "--queries", "5",
                     "--k", "30", "--page-size", "4096"]) == 0
        out = capsys.readouterr().out
        assert "excess coverage" in out

    def test_recall(self, corpus_file, capsys):
        assert main(["recall", corpus_file, "--queries", "5",
                     "--dims-list", "2", "4",
                     "--retrieved", "50"]) == 0
        out = capsys.readouterr().out
        assert "retrieved" in out

    def test_auto_x(self, corpus_file, tmp_path):
        path = str(tmp_path / "auto.gist")
        assert main(["index", corpus_file, path, "--method", "xjb",
                     "--dims", "3", "--x", "-1",
                     "--page-size", "4096"]) == 0
        from repro.gist.persist import load_tree
        tree = load_tree(path=path)
        assert 0 <= tree.ext.x <= 8

    def test_insert_loading(self, corpus_file, tmp_path):
        path = str(tmp_path / "ins.gist")
        assert main(["index", corpus_file, path, "--method", "rtree",
                     "--dims", "3", "--loading", "insert",
                     "--page-size", "4096"]) == 0

    def test_parser_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["index", "a", "b",
                                       "--method", "btree"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", [["index", "a", "b"],
                                         ["analyze", "a"], ["serve", "a"]])
    def test_page_size_is_capped_at_crc32s_hd4_word(self, command,
                                                    capsys):
        """A WAL record, its header plus one page, must fit the data
        word in which CRC-32 catches every 3-bit error."""
        from repro.storage.wal import CRC32_HD4_BITS, MAX_PAGE_SIZE

        parser = build_parser()
        assert MAX_PAGE_SIZE == 11_410
        ok = parser.parse_args(command + ["--page-size", "8192"])
        assert ok.page_size == 8192
        ok = parser.parse_args(command + ["--page-size", str(MAX_PAGE_SIZE)])
        assert ok.page_size == MAX_PAGE_SIZE
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(command + ["--page-size",
                                         str(MAX_PAGE_SIZE + 1)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{MAX_PAGE_SIZE + 1} bytes" in err
        assert f"{CRC32_HD4_BITS:,}-bit HD-4" in err


class TestStructuredOutput:
    def test_analyze_json(self, corpus_file, capsys):
        import json
        assert main(["analyze", corpus_file, "--methods", "rtree",
                     "--dims", "3", "--queries", "4", "--k", "20",
                     "--page-size", "4096", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "rtree" in doc
        assert doc["rtree"]["num_queries"] == 4

    def test_analyze_csv(self, corpus_file, capsys):
        import csv as csvmod
        import io
        assert main(["analyze", corpus_file, "--methods", "rtree",
                     "xjb", "--dims", "3", "--queries", "4",
                     "--k", "20", "--page-size", "4096", "--csv"]) == 0
        rows = list(csvmod.DictReader(
            io.StringIO(capsys.readouterr().out)))
        assert {r["method"] for r in rows} == {"rtree", "xjb"}


class TestFsck:
    def test_clean_index_exits_zero(self, index_file, capsys):
        assert main(["fsck", index_file]) == 0
        out = capsys.readouterr().out
        assert "superblock   : ok" in out
        assert "verdict      : clean" in out

    def test_damaged_index_exits_one_naming_the_slot(self, index_file,
                                                     tmp_path, capsys):
        path = str(tmp_path / "damaged.gist")
        raw = bytearray(open(index_file, "rb").read())
        raw[2 * 4096 + 77] ^= 0x10       # one bit, body of slot 2
        open(path, "wb").write(bytes(raw))
        assert main(["fsck", path]) == 1
        out = capsys.readouterr().out
        assert "slot 2: CORRUPT" in out
        assert "verdict      : DAMAGED" in out

    def test_garbage_file_exits_one(self, tmp_path, capsys):
        path = str(tmp_path / "junk.gist")
        open(path, "wb").write(b"not an index at all")
        assert main(["fsck", path]) == 1
        assert "CORRUPT" in capsys.readouterr().out


def test_serve(tmp_path):
    """A stream longer than four times the corpus: the distinct-query
    pool is clamped to the corpus instead of oversampling it."""
    import json
    corpus = str(tmp_path / "small.npz")
    assert main(["corpus", corpus, "--blobs", "300", "--images", "50"]) == 0
    report = tmp_path / "serve.json"
    assert main(["serve", corpus, "--shards", "2", "--stream", "1300",
                 "--page-size", "4096", "--json", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["queries"] == 1300
    assert doc["latency_ms"]
    assert doc["liveness"] == {
        "0": {"state": "live", "rid_range": [0, 150]},
        "1": {"state": "live", "rid_range": [150, 300]}}
