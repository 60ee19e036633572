import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clirkit.corpus import (
    _TOKEN_RE,
    BilingualDictionary,
    Document,
    DuplicateDocIdError,
    NormalizationPipeline,
    ParseError,
    Topic,
    load_documents,
    load_stopwords,
    normalize,
    parse_dictionary,
    parse_documents,
    parse_qrels,
    parse_topics,
)
from clirkit.stemmer import porter_stem

PLAIN = NormalizationPipeline(lowercase=True, stopwords=frozenset(), stemmer="none")


_WORDS = ["The", "RUNNING", "dogs", "x1", "A", "foo_bar", "İstanbul", "Straße", "café",
          "MÜLLER", "ÉCOLE", "ΟΔΟΣ"]
_ASCII_CHARS = ("abzAMZ0189_ .,;:!?-'\"()[]{}<>/\\@#$%^&*+=|~`\t\n\r"
                "\x00\x0b\x0c\x1c\x1d\x1e\x1f\x7f")
# the rest of Latin-1 (U+0080-U+00FF), then chars beyond it
_LATIN1_CHARS = "ßéÉÀàÿÞþÐðªºµ²¹¼×÷¿¡\x85\xa0\xad"
_NON_ASCII_CHARS = _LATIN1_CHARS + "İıΣσς’€\u0301\u0308１２ａＡ\u2028ǅ"


def reference_normalize(text, pipeline):
    """The regex tokenizer with per-token lowercasing, then stopwords and stemmer."""
    tokens = _TOKEN_RE.findall(text)
    if pipeline.lowercase:
        tokens = [t.lower() for t in tokens]
    tokens = [t for t in tokens if t not in pipeline.stopwords]
    if pipeline.stemmer == "porter":
        tokens = [porter_stem(t) for t in tokens]
    return tokens


class TestNormalize:
    def test_lowercase_stopwords_porter(self):
        pipeline = NormalizationPipeline(lowercase=True, stopwords=frozenset({"the"}),
                                         stemmer="porter")
        assert normalize("The running DOGS", pipeline) == ["run", "dog"]

    def test_empty_input(self):
        assert normalize("", PLAIN) == []

    def test_identity_pipeline(self):
        pipeline = NormalizationPipeline(lowercase=True, stopwords=frozenset(), stemmer="none")
        assert normalize("a a a", pipeline) == ["a", "a", "a"]

    def test_splits_on_non_alphanumeric(self):
        assert normalize("foo-bar_baz  42,qux", PLAIN) == ["foo", "bar", "baz", "42", "qux"]

    def test_stopwords_checked_after_lowercasing(self):
        pipeline = NormalizationPipeline(lowercase=True, stopwords=frozenset({"the"}),
                                         stemmer="none")
        assert normalize("THE The the", pipeline) == []

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=80), st.booleans(), st.frozensets(st.sampled_from(["a", "b", "the"])))
    def test_idempotent_without_stemming(self, text, lowercase, stop):
        # Stemming is intentionally excluded: the published suffix rules
        # are not idempotent (e.g. agreed -> agre -> agr).
        pipeline = NormalizationPipeline(lowercase=lowercase, stopwords=stop, stemmer="none")
        once = normalize(text, pipeline)
        assert normalize(" ".join(once), pipeline) == once

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(_WORDS), st.text(_ASCII_CHARS, max_size=6),
                              st.text(_ASCII_CHARS + _LATIN1_CHARS, max_size=6),
                              st.text(_ASCII_CHARS + _NON_ASCII_CHARS, max_size=6)),
                    max_size=12).map("".join),
           st.booleans(), st.frozensets(st.sampled_from(["a", "the", "dogs", "x1", "A"])),
           st.sampled_from(["none", "porter"]))
    def test_equals_regex_reference(self, text, lowercase, stop, stemmer):
        # Latin-1 text takes a byte-table fast path; it must agree with the
        # regex tokenizer and per-token lowercasing on every input
        pipeline = NormalizationPipeline(lowercase=lowercase, stopwords=stop, stemmer=stemmer)
        assert normalize(text, pipeline) == reference_normalize(text, pipeline)

    def test_unknown_stemmer_rejected(self):
        with pytest.raises(ValueError):
            NormalizationPipeline(stemmer="snowball")


class TestDocument:
    def test_length_tracks_tokens(self):
        doc = Document("d1", ("a", "b", "c"))
        assert doc.length == 3

    def test_tokens_coerced_to_tuple(self):
        doc = Document("d1", ["a", "b"])
        assert doc.tokens == ("a", "b")


class TestParseTrecSgml:
    def test_single_record(self, tmp_path):
        path = tmp_path / "c.sgml"
        path.write_text("<DOC><DOCNO>d1</DOCNO><TEXT>a b</TEXT></DOC>")
        assert list(parse_documents(str(path))) == [("d1", "a b")]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.sgml"
        path.write_text("")
        assert list(parse_documents(str(path))) == []

    def test_duplicate_docno(self, tmp_path):
        path = tmp_path / "c.sgml"
        path.write_text("<DOC><DOCNO>d1</DOCNO><TEXT>a</TEXT></DOC>"
                        "<DOC><DOCNO>d1</DOCNO><TEXT>b</TEXT></DOC>")
        with pytest.raises(DuplicateDocIdError) as err:
            list(parse_documents(str(path)))
        assert "d1" in str(err.value)

    def test_multiple_text_blocks_concatenated(self, tmp_path):
        path = tmp_path / "c.sgml"
        path.write_text("<DOC><DOCNO>d1</DOCNO><TEXT>a</TEXT><TEXT>b</TEXT></DOC>")
        [(_, text)] = list(parse_documents(str(path)))
        assert text.split() == ["a", "b"]

    def test_malformed_record_reports_position(self, tmp_path):
        path = tmp_path / "c.sgml"
        path.write_text("<DOC><DOCNO>d1</DOCNO><TEXT>a</TEXT></DOC><DOC><DOCNO>d2</DOCNO></DOC>")
        with pytest.raises(ParseError) as err:
            list(parse_documents(str(path)))
        assert err.value.docs_parsed == 1
        assert err.value.byte_offset is not None

    def test_unterminated_record_reports_position(self, tmp_path):
        first = "<DOC><DOCNO>d1</DOCNO><TEXT>a</TEXT></DOC>\n"
        path = tmp_path / "c.sgml"
        path.write_text(first + "<DOC><DOCNO>d2</DOCNO><TEXT>b</TEXT>\n")
        with pytest.raises(ParseError, match="unterminated <DOC> record") as err:
            list(parse_documents(str(path)))
        assert err.value.byte_offset == len(first)
        assert err.value.docs_parsed == 1

    def test_count_preserving(self, tmp_path):
        n = 37
        path = tmp_path / "c.sgml"
        path.write_text("".join(
            f"<DOC><DOCNO>d{i}</DOCNO><TEXT>tok{i} common</TEXT></DOC>" for i in range(n)))
        docs = list(load_documents(str(path), PLAIN))
        assert len(docs) == n


class TestParseJsonl:
    def test_records_in_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "x", "text": "hello world"}\n{"id": "y", "text": "bye"}\n')
        assert list(parse_documents(str(path))) == [("x", "hello world"), ("y", "bye")]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "x", "text": "a"}\nnot json\n')
        with pytest.raises(ParseError) as err:
            list(parse_documents(str(path)))
        assert err.value.docs_parsed == 1

    def test_id_with_whitespace_rejected(self, tmp_path):
        # a run file is whitespace-separated, so such an id could not be read back
        first = '{"id": "dt1", "text": "a"}\n'
        path = tmp_path / "c.jsonl"
        path.write_text(first + '{"id": "dt 00000", "text": "b"}\n')
        with pytest.raises(ParseError) as err:
            list(parse_documents(str(path)))
        assert err.value.byte_offset == len(first)
        assert err.value.docs_parsed == 1
        assert "dt 00000" in str(err.value)

    def test_unknown_format(self, tmp_path):
        # the format comes from the first non-blank byte; "i" is neither "{" nor "<"
        path = tmp_path / "c.csv"
        path.write_text("id,text\nx,a\n")
        with pytest.raises(ParseError) as err:
            parse_documents(str(path))
        assert str(path) in str(err.value)
        assert err.value.byte_offset == 0
        assert "0 documents parsed" in str(err.value)

    def test_numeric_id_kept_as_text(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": 5, "text": "a"}\n')
        assert list(parse_documents(str(path))) == [("5", "a")]

    @pytest.mark.parametrize("record", [
        {"id": None, "text": "a"}, {"id": True, "text": "a"}, {"id": ["x"], "text": "a"},
        {"id": "x", "text": None}, {"id": "x", "text": 5}, {"id": "x", "text": ["a"]},
        {"id": "x", "text": {"a": 1}}, {"id": "x", "text": False}])
    def test_non_string_field_rejected(self, tmp_path, record):
        # str() would index null as the token "none"
        first = '{"id": "w", "text": "a"}\n'
        path = tmp_path / "c.jsonl"
        path.write_text(first + json.dumps(record) + "\n")
        with pytest.raises(ParseError, match="must be a string") as err:
            list(parse_documents(str(path)))
        assert err.value.byte_offset == len(first)
        assert err.value.docs_parsed == 1


class TestFormatDetection:
    def test_jsonl_after_blank_lines(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text('\n  \r\n{"id": "x", "text": "a"}\n')
        assert list(parse_documents(str(path))) == [("x", "a")]

    def test_sgml_after_blank_lines(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("\n\n\t <DOC><DOCNO>d1</DOCNO><TEXT>a b</TEXT></DOC>\n")
        assert list(parse_documents(str(path))) == [("d1", "a b")]

    def test_first_byte_after_a_long_blank_run(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b" " * 70000 + b'{"id": "x", "text": "a"}\n')
        assert list(parse_documents(str(path))) == [("x", "a")]

    @pytest.mark.parametrize("content", [b"", b"\n", b" \t\r\n\x0b\x0c  \n", b" " * 70000])
    def test_empty_or_blank_file_holds_no_documents(self, tmp_path, content):
        path = tmp_path / "c.txt"
        path.write_bytes(content)
        assert list(parse_documents(str(path))) == []
        assert list(load_documents(str(path), PLAIN)) == []

    @pytest.mark.parametrize("content, offset", [
        (b"\n  [1, 2]\n", 3), (b"\xef\xbb\xbf<DOC>", 0), (b" " * 70000 + b"x", 70000)])
    def test_unknown_first_byte_rejected_at_the_call(self, tmp_path, content, offset):
        path = tmp_path / "c.txt"
        path.write_bytes(content)
        for load in (parse_documents, lambda p: load_documents(p, PLAIN)):
            with pytest.raises(ParseError) as err:
                load(str(path))
            assert str(path) in str(err.value)
            assert err.value.byte_offset == offset
            assert err.value.docs_parsed == 0

    def test_missing_file_fails_at_the_call(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_documents(str(tmp_path / "missing.jsonl"), PLAIN)


class TestNonUtf8Input:
    def test_jsonl_document_gives_file_offset(self, tmp_path):
        first = b'{"id": "x", "text": "a"}\n'
        second = b'{"id": "y", "text": "caf\xe9"}\n'
        path = tmp_path / "c.jsonl"
        path.write_bytes(first + second)
        with pytest.raises(ParseError, match="not UTF-8") as err:
            list(parse_documents(str(path)))
        assert err.value.byte_offset == len(first) + second.index(b"\xe9")
        assert err.value.docs_parsed == 1

    def test_sgml_document_gives_file_offset(self, tmp_path):
        first = b"<DOC><DOCNO>d1</DOCNO><TEXT>a</TEXT></DOC>\n"
        second = b"<DOC><DOCNO>d2</DOCNO><TEXT>caf\xe9</TEXT></DOC>\n"
        path = tmp_path / "c.sgml"
        path.write_bytes(first + second)
        with pytest.raises(ParseError, match="not UTF-8") as err:
            list(parse_documents(str(path)))
        assert err.value.byte_offset == len(first) + second.index(b"\xe9")
        assert err.value.docs_parsed == 1


# Line-oriented inputs: (parser, good line i, a line holding a Latin-1 byte).
_LINE_FILES = {
    "topics": (lambda p: parse_topics(p, PLAIN),
               lambda i: json.dumps({"id": f"q{i}", "title": f"t{i} u"}).encode(),
               b'{"id": "qx", "title": "caf\xe9"}'),
    "dictionary": (lambda p: parse_dictionary(p, PLAIN, PLAIN),
                   lambda i: f"s{i}\tt{i} u{i}".encode(), b"caf\xe9\tcafe"),
    "qrels": (parse_qrels, lambda i: f"q{i % 7} 0 d{i} {i % 2}".encode(), b"q1 0 caf\xe9 1"),
    "stopwords": (load_stopwords, lambda i: f"w{i}".encode(), b"caf\xe9"),
}


@pytest.mark.parametrize("kind", sorted(_LINE_FILES))
def test_line_file_non_utf8_gives_line(tmp_path, kind):
    # far more than one 8 KB text-mode chunk comes before the bad line
    parse, line, bad = _LINE_FILES[kind]
    lines = [line(i) for i in range(3000)]
    lines.insert(2500, bad)
    path = tmp_path / kind
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ParseError, match="not UTF-8") as err:
        parse(str(path))
    assert err.value.line == 2501


@pytest.mark.parametrize("kind", sorted(_LINE_FILES))
def test_line_file_crlf_parses_like_lf(tmp_path, kind):
    parse, line, _ = _LINE_FILES[kind]
    lines = [line(i) for i in range(50)]
    lf, crlf = tmp_path / f"{kind}.lf", tmp_path / f"{kind}.crlf"
    lf.write_bytes(b"\n".join(lines) + b"\n")
    crlf.write_bytes(b"\r\n".join(lines) + b"\r\n")
    assert parse(str(crlf)) == parse(str(lf))


class TestParseDictionary:
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("chien\tdog hound\n")
        d = parse_dictionary(str(path), PLAIN, PLAIN)
        assert d.entries == {"chien": ("dog", "hound")}

    def test_empty_candidates_dropped_with_count(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("x\t\nchien\tdog\n")
        d = parse_dictionary(str(path), PLAIN, PLAIN)
        assert d.entries == {"chien": ("dog",)}
        assert d.dropped_entries == 1

    def test_line_without_tab(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("chien dog\n")
        with pytest.raises(ParseError) as err:
            parse_dictionary(str(path), PLAIN, PLAIN)
        assert err.value.line == 1

    def test_repeated_source_merges_against_naive_oracle(self, tmp_path):
        lines = ["a\tx y", "b\tz", "a\ty w", "a\tx"]
        path = tmp_path / "d.tsv"
        path.write_text("\n".join(lines) + "\n")
        d = parse_dictionary(str(path), PLAIN, PLAIN)
        # independent oracle: first-occurrence order with duplicates removed
        oracle: dict[str, list[str]] = {}
        for line in lines:
            src, cands = line.split("\t")
            bucket = oracle.setdefault(src, [])
            for c in cands.split():
                if c not in bucket:
                    bucket.append(c)
        assert {s: list(c) for s, c in d.entries.items()} == oracle

    def test_multiword_candidates_split_to_unigrams(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("gare\ttrain station\n")
        d = parse_dictionary(str(path), PLAIN, PLAIN)
        assert d.entries["gare"] == ("train", "station")

    def test_no_stopwords_survive_normalization(self, tmp_path):
        stop = NormalizationPipeline(lowercase=True, stopwords=frozenset({"the", "le"}),
                                     stemmer="none")
        path = tmp_path / "d.tsv"
        path.write_text("le\tthe\nchien\tthe dog\n")
        d = parse_dictionary(str(path), stop, stop)
        for source, cands in d.entries.items():
            assert source not in {"the", "le"}
            assert not set(cands) & {"the", "le"}
        assert d.entries == {"chien": ("dog",)}


class TestParseQrels:
    def test_relevant(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("91 0 d7 1\n")
        assert parse_qrels(str(path)) == {"91": {"d7"}}

    def test_nonrelevant_judgment_keeps_topic(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("91 0 d7 0\n")
        assert parse_qrels(str(path)) == {"91": set()}

    def test_duplicate_lines_idempotent(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("91 0 d7 1\n91 0 d7 1\n")
        assert parse_qrels(str(path)) == {"91": {"d7"}}

    def test_non_integer_relevance(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("91 0 d7 one\n")
        with pytest.raises(ParseError) as err:
            parse_qrels(str(path))
        assert err.value.line == 1


class TestParseTopics:
    def test_short_and_verbose_queries(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"id": "q1", "title": "solar power", "desc": "energy"}) + "\n")
        [topic] = parse_topics(str(path), PLAIN)
        assert topic.query_terms() == ("solar", "power")
        assert topic.query_terms(verbose=True) == ("solar", "power", "energy")

    def test_empty_title_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"id": "q1", "title": "..."}) + "\n")
        with pytest.raises(ParseError):
            parse_topics(str(path), PLAIN)

    @pytest.mark.parametrize("topic_id", ["q 01", "", "q\t1"])
    def test_id_empty_or_with_whitespace_rejected(self, tmp_path, topic_id):
        # a run file is whitespace-separated, so such an id could not be read back
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"id": "q0", "title": "solar"}) + "\n"
                        + json.dumps({"id": topic_id, "title": "power"}) + "\n")
        with pytest.raises(ParseError, match="topic id") as err:
            parse_topics(str(path), PLAIN)
        assert err.value.line == 2

    def test_numeric_id_kept_as_text(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"id": 141, "title": "solar"}) + "\n")
        assert parse_topics(str(path), PLAIN)[0].topic_id == "141"

    @pytest.mark.parametrize("record", [
        {"id": None, "title": "a"}, {"id": False, "title": "a"}, {"id": {"n": 1}, "title": "a"},
        {"id": "q2", "title": None}, {"id": "q2", "title": 1984}, {"id": "q2", "title": ["a"]},
        {"id": "q2", "title": "a", "desc": None}, {"id": "q2", "title": "a", "desc": True},
        {"id": "q2", "title": "a", "desc": {"b": "c"}}])
    def test_non_string_field_rejected(self, tmp_path, record):
        # str() would add "none" to the query for a null desc
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"id": "q1", "title": "solar"}) + "\n"
                        + json.dumps(record) + "\n")
        with pytest.raises(ParseError, match="must be a string") as err:
            parse_topics(str(path), PLAIN)
        assert err.value.line == 2

    def test_repeated_id_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps({"id": topic_id, "title": title}) + "\n"
                                for topic_id, title in (("q1", "solar"), ("q2", "wind"),
                                                        ("q1", "power"))))
        with pytest.raises(ParseError, match="duplicate topic id 'q1'") as err:
            parse_topics(str(path), PLAIN)
        assert err.value.line == 3
